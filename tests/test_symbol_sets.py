import operator
from itertools import combinations, product

import numpy as np
import pytest

from pecldpc import GF, SymbolSet, intersect, sumset
from pecldpc.symbol_sets import (
    MASK_TABLE_MAX_Q,
    MaskTables,
    SetPlanes,
    leave_one_out,
    mask_dtype,
)

from oracles import gf_scale, gf_sumset, mask_elements


def S(field, *elems):
    return SymbolSet(field, elems)


# ---------------------------------------------------------
# Basics
# ---------------------------------------------------------
def test_membership_iteration_rendering():
    f = GF(5)
    s = S(f, 3, 0, 2)
    assert len(s) == 3
    assert list(s) == [0, 2, 3]
    assert 2 in s and 4 not in s
    assert str(s) == "{0,2,3}"
    assert SymbolSet.parse(f, "{0,2,3}") == s
    assert SymbolSet.parse(f, "0, 2,3") == s


def test_element_range_checked():
    f = GF(4)
    with pytest.raises(ValueError):
        S(f, 4)
    with pytest.raises(ValueError):
        SymbolSet.parse(f, "0,9")


def test_full_set():
    f = GF(4)
    assert list(SymbolSet.full(f)) == [0, 1, 2, 3]


# ---------------------------------------------------------
# scale
# ---------------------------------------------------------
def test_scale_examples():
    assert str(S(GF(5), 0, 1, 2).scale(2)) == "{0,2,4}"
    s = S(GF(4), 1, 2, 3)
    assert s.scale(2) == s  # nonzero elements permuted
    assert s.scale(1) == s


def test_scale_rejects_zero_and_preserves_size():
    f = GF(8)
    s = S(f, 1, 5, 7)
    for a in (0, -1, 8):  # 0 is not invertible, -1 and 8 are not in GF(8)
        with pytest.raises(ValueError):
            s.scale(a)
    for a in f.nonzero_elements():
        assert len(s.scale(a)) == len(s)


# ---------------------------------------------------------
# sumset / intersect
# ---------------------------------------------------------
def test_sumset_examples():
    f5, f4 = GF(5), GF(4)
    assert sumset([S(f5, 3)]) == S(f5, 3)
    assert sumset([S(f5, 0, 1), S(f5, 0, 1)]) == S(f5, 0, 1, 2)
    assert sumset([S(f4, 0, 1), S(f4, 0, 1)]) == S(f4, 0, 1)  # char 2


def test_sumset_validation():
    with pytest.raises(ValueError):
        sumset([])
    with pytest.raises(ValueError):
        sumset([S(GF(5), 1), SymbolSet(GF(5))])
    with pytest.raises(ValueError):
        sumset([S(GF(5), 1), S(GF(4), 1)])


def test_intersect_examples():
    f = GF(5)
    assert intersect([S(f, 0, 1), S(f, 0, 2, 3), S(f, 0, 1, 4)]) == S(f, 0)
    s = S(f, 1, 3)
    assert intersect([s]) == s
    assert not intersect([S(f, 1, 2), S(f, 3, 4)])


def test_sumset_matches_bruteforce():
    rng = np.random.default_rng(11)
    for q in (8, 16):  # one field per set layout
        f = GF(q)
        for _ in range(60):
            fams = []
            for _ in range(rng.integers(1, 4)):
                elems = rng.choice(q, size=rng.integers(1, 4), replace=False)
                fams.append(frozenset(int(e) for e in elems))
            expect = fams[0]
            for t in fams[1:]:
                expect = gf_sumset(f, expect, t)
            got = sumset([SymbolSet(f, t) for t in fams])
            assert frozenset(got) == expect


# ---------------------------------------------------------
# Invariance properties (exhaustive on small fields)
# ---------------------------------------------------------
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_translation_and_common_scaling_invariance(q):
    f = GF(q)
    subs = [frozenset(c) for k in (1, 2, 3) if k <= q for c in combinations(range(q), k)]
    rng = np.random.default_rng(q)
    for _ in range(40):
        a = subs[rng.integers(len(subs))]
        b = subs[rng.integers(len(subs))]
        base = len(gf_sumset(f, a, b))
        for t in f.elements():
            shifted = frozenset(f.add(x, t) for x in a)
            assert len(gf_sumset(f, shifted, b)) == base
        for u in f.nonzero_elements():
            sa = frozenset(f.mul(u, x) for x in a)
            sb = frozenset(f.mul(u, x) for x in b)
            assert len(gf_sumset(f, sa, sb)) == base


@pytest.mark.parametrize("q", [3, 4, 5])
def test_independent_scaling_preserves_size_distribution(q):
    # scaling each operand by its own nonzero factor changes individual
    # sumset sizes but is a bijection on size-s subsets, so the size law
    # over uniform random operands is unchanged
    f = GF(q)
    for s1, s2 in [(2, 2), (2, 3), (3, 3)]:
        if max(s1, s2) > q:
            continue
        pools1 = [frozenset(c) for c in combinations(range(q), s1)]
        pools2 = [frozenset(c) for c in combinations(range(q), s2)]

        def histogram(u, v):
            h = [0] * (q + 1)
            for a in pools1:
                sa = frozenset(f.mul(u, x) for x in a)
                for b in pools2:
                    sb = frozenset(f.mul(v, x) for x in b)
                    h[len(gf_sumset(f, sa, sb))] += 1
            return h

        base = histogram(1, 1)
        for u in f.nonzero_elements():
            for v in f.nonzero_elements():
                assert histogram(u, v) == base


def test_sumset_fold_associative_commutative():
    f = GF(5)
    rng = np.random.default_rng(3)
    for _ in range(30):
        fams = []
        for _ in range(3):
            elems = rng.choice(5, size=rng.integers(1, 4), replace=False)
            fams.append(S(f, *(int(e) for e in elems)))
        forward = sumset(fams)
        assert sumset(fams[::-1]) == forward
        assert sumset([sumset(fams[:2]), fams[2]]) == forward
        assert sumset([fams[0], sumset(fams[1:])]) == forward


# ---------------------------------------------------------
# Both set-array layouts agree with the oracles
# ---------------------------------------------------------
@pytest.mark.parametrize("q", [2, 4, 5, 8, 9, 13, 16, 25, 27, 49, 67, 128, 243, 256])
def test_layouts_match_oracles(q):
    f = GF(q)
    rng = np.random.default_rng(q)
    if q <= 5:  # every pair of nonempty sets
        pairs = [(a, b) for a in range(1, 1 << q) for b in range(1, 1 << q)]
    else:
        def draw():
            members = rng.random(q) < rng.uniform(0.05, 0.5)
            members[rng.integers(q)] = True
            return sum(1 << int(x) for x in np.flatnonzero(members))

        pairs = [(draw(), draw()) for _ in range(200)]
    # cycling factors: with every pair, each left set meets every factor
    factors = np.arange(len(pairs)) % (q - 1) + 1
    layouts = [SetPlanes(f)] + ([MaskTables(f)] if q <= MASK_TABLE_MAX_Q else [])
    for sets in layouts:
        a = sets.encode(np.array([m for m, _ in pairs], dtype=mask_dtype(q)))
        b = sets.encode(np.array([m for _, m in pairs], dtype=mask_dtype(q)))
        sums = sets.to_masks(sets.sumsets(a, b)).tolist()
        scaled = sets.to_masks(sets.scaled(a, factors)).tolist()
        sizes = sets.sizes(a).tolist()
        for k, (ma, mb) in enumerate(pairs):
            sa, sb = mask_elements(ma), mask_elements(mb)
            assert mask_elements(sums[k]) == gf_sumset(f, sa, sb)
            assert mask_elements(scaled[k]) == gf_scale(f, sa, int(factors[k]))
            assert sizes[k] == len(sa)
        members = rng.random((20, q)).argsort(axis=1)[:, : max(1, q // 3)]
        got = sets.to_masks(sets.from_members(members)).tolist()
        assert [mask_elements(m) for m in got] == [set(row) for row in members.tolist()]


@pytest.mark.parametrize("q", [2, 4, 5, 9, 13, 16, 25, 27, 128])
def test_leave_one_out_sumsets_match_oracle_folds(q):
    f = GF(q)
    rng = np.random.default_rng(100 + q)
    layouts = [SetPlanes(f)] + ([MaskTables(f)] if q <= MASK_TABLE_MAX_Q else [])
    for deg in (1, 2, 3, 7):
        # column r holds deg sets of r-dependent density, so small and
        # large sets both occur
        density = np.linspace(0.05, 0.6, 12)
        members = rng.random((deg, 12, q)) < density[:, None]
        members[..., 0] |= ~members.any(axis=-1)
        masks = [[sum(1 << int(x) for x in np.flatnonzero(row)) for row in layer] for layer in members]
        for sets in layouts:
            ys = np.stack([sets.encode(np.array(layer, dtype=mask_dtype(q))) for layer in masks])
            got = sets.leave_one_out_sumsets(ys).reshape(-1, *ys.shape[2:])
            got = sets.to_masks(got).reshape(deg, 12).tolist()
            for j in range(deg):
                for r in range(12):
                    expect = frozenset({0})
                    for k in range(deg):
                        if k != j:
                            expect = gf_sumset(f, expect, mask_elements(masks[k][r]))
                    assert mask_elements(got[j][r]) == expect


@pytest.mark.parametrize("q", [8, 9])
def test_leave_one_out_matches_plain_folds(q):
    # output j against a left-to-right fold of head, the other rows and
    # tail, for & and the sumset on masks and on planes
    f = GF(q)
    rng = np.random.default_rng(q)
    for sets in (MaskTables(f), SetPlanes(f)):
        def draw():
            return sets.encode(rng.integers(1, 1 << q, size=10).astype(mask_dtype(q)))

        for op in (operator.and_, sets.sumsets):
            calls = []

            def counted(a, b):
                calls.append(1)
                return op(a, b)

            for deg in range(1, 8):
                rows = np.stack([draw() for _ in range(deg)])
                for head, tail in product([None, draw()], repeat=2):
                    if deg == 1 and head is None and tail is None:
                        assert leave_one_out(op, rows) == [None]
                        continue
                    calls.clear()
                    got = leave_one_out(counted, rows, head, tail)
                    assert len(got) == deg
                    for j in range(deg):
                        operands = [head, *rows[:j], *rows[j + 1 :], tail]
                        operands = [x for x in operands if x is not None]
                        want = operands[0]
                        for x in operands[1:]:
                            want = op(want, x)
                        assert np.array_equal(got[j], want)
                    if deg >= 2:
                        # a missing head or tail costs no call: 3D - 2 joins
                        # less two for each one missing
                        assert len(calls) == 3 * deg - 2 - 2 * (head is None) - 2 * (tail is None)
