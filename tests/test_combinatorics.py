import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

import pytest

from pecldpc import (
    binom,
    common_member_intersection_dist,
    common_member_intersection_dist_exact,
    intersection_count,
    intersection_counts,
    intersection_dist,
    intersection_dist_exact,
)
from oracles import brute_common_member_dist, brute_intersection_counts


# ---------------------------------------------------------
# binom
# ---------------------------------------------------------
def test_binom():
    assert binom(4, 2) == 6
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-2, 0) == 0
    assert binom(0, 0) == 1
    assert binom(3, 1) == 3  # i_max for q=4, M=2


# ---------------------------------------------------------
# Intersection counts
# ---------------------------------------------------------
def test_counts_anchor_two_singletons():
    assert intersection_counts([1, 1], 2) == [2, 2]


def test_counts_universe_sets():
    # all sets forced equal to the universe
    assert intersection_counts([4, 4, 4], 4) == [0, 0, 0, 0, 1]


def test_count_total_identity():
    for q in range(2, 7):
        top = min(4, q)
        for j in range(1, 4):
            for sizes in combinations_with_replacement(range(1, top + 1), j):
                assert sum(intersection_counts(sizes, q)) == prod(
                    comb(q, s) for s in sizes
                )


def test_counts_match_bruteforce_small():
    for q in (2, 3, 4):
        for j in (1, 2, 3):
            for sizes in combinations_with_replacement(range(1, q + 1), j):
                assert intersection_counts(sizes, q) == brute_intersection_counts(
                    sizes, q
                )


def test_counts_pinned_digest():
    # every size tuple of length 1-2, and of length 3-4 with sizes up to 6,
    # at q <= 17 and q in {31, 64}, plus pairs at q=256: the sha256 of the
    # counts as recorded from the earlier inclusion-exclusion, so the
    # chain is pinned integer for integer beyond the brute-force range
    def grid():
        for q in (*range(2, 18), 31, 64):
            for j in (1, 2, 3, 4):
                top = q if j <= 2 else min(q, 6)
                for sizes in combinations_with_replacement(range(top + 1), j):
                    yield q, sizes
        picks = (0, 1, 2, 3, 50, 64, 100, 127, 128, 129, 200, 255, 256)
        for sizes in combinations_with_replacement(picks, 2):
            yield 256, sizes

    h = hashlib.sha256()
    for q, sizes in grid():
        h.update(repr((q, sizes, intersection_counts(sizes, q))).encode())
    assert h.hexdigest() == "fb903615a0fb7ad5efe74de1411a324c9b62dcf9ed25394bcf9c112d39c8b22d"


def test_count_argument_validation():
    with pytest.raises(ValueError):
        intersection_count([2, 3], 3, 5)  # m above the minimum size
    with pytest.raises(ValueError):
        intersection_count([2, 3], -1, 5)
    with pytest.raises(ValueError):
        intersection_counts([2, 6], 5)  # size above universe
    with pytest.raises(ValueError):
        intersection_counts([], 5)
    # non-integer sizes, bools among them
    for sizes in ([2.5, 3], [True, 3], [2, float("nan")]):
        with pytest.raises(ValueError, match="must be an integer"):
            intersection_dist(sizes, 8)
    with pytest.raises(ValueError, match=">= 1"):
        common_member_intersection_dist((0, 2), 4)
    # a bare size in place of a tuple of them raised a raw TypeError
    with pytest.raises(ValueError, match="size"):
        intersection_dist(5, 8)
    # q and m too: a float q raised a raw TypeError, and m=True counted
    # as intersection size 1
    for bad in (2.5, True, float("nan")):
        with pytest.raises(ValueError, match="q must be an integer"):
            intersection_dist([2, 3], bad)
        with pytest.raises(ValueError, match="m must be an integer"):
            intersection_count([2, 3], bad, 8)


def test_intersection_count_values():
    # a 2-set and a 3-set of 5 symbols: C(5, 2) * C(2, m) * C(3, 3 - m)
    assert [intersection_count([2, 3], m, 5) for m in range(3)] == [10, 60, 30]


# ---------------------------------------------------------
# Unconditioned intersection law
# ---------------------------------------------------------
def test_dist_cover_set_anchor():
    # one operand is the whole universe: intersection is the other set
    d = intersection_dist_exact([5, 3], 5)
    assert d[3] == 1 and sum(d) == 1


def test_dist_size_one_anchor():
    # {i, 1}: hit probability i/q
    for q in (4, 5, 7):
        for i in range(1, q + 1):
            d = intersection_dist_exact([i, 1], q)
            assert d[1] == Fraction(i, q)
            assert d[0] == 1 - Fraction(i, q)


def test_dist_sums_to_one_exactly():
    for q in (3, 5, 6):
        for sizes in [(2, 2), (2, 3), (3, 3, 2)]:
            if max(sizes) <= q:
                assert sum(intersection_dist_exact(sizes, q)) == 1
                assert abs(intersection_dist(sizes, q).sum() - 1.0) < 1e-12


def test_q4_pair_dist_matches_bruteforce():
    d = intersection_dist_exact([2, 2], 4)
    counts = brute_intersection_counts([2, 2], 4)
    total = sum(counts)
    assert list(d) == [Fraction(c, total) for c in counts]


# ---------------------------------------------------------
# Common-member intersection law
# ---------------------------------------------------------
def test_common_member_singleton_rule():
    # any size-1 participant pins the intersection to the shared symbol
    for sizes in [(1, 3), (1, 1), (4, 1, 2)]:
        d = common_member_intersection_dist_exact(sizes, 5)
        assert d[1] == 1 and sum(d) == 1


def test_common_member_anchor_q3():
    assert common_member_intersection_dist_exact([2, 2], 3)[1:] == (
        Fraction(1, 2),
        Fraction(1, 2),
    )


def test_common_member_universe_sets():
    d = common_member_intersection_dist_exact([5, 5], 5)
    assert d[5] == 1


def test_common_member_matches_bruteforce():
    for q in (2, 3, 4, 5):
        for j in (1, 2, 3):
            for sizes in combinations_with_replacement(range(1, q + 1), j):
                got = common_member_intersection_dist_exact(sizes, q)
                assert list(got) == brute_common_member_dist(sizes, q)


def test_memoization_stability():
    a = intersection_dist([3, 2], 5)
    b = intersection_dist([2, 3], 5)  # order must not matter
    assert (a == b).all()


def test_laws_pinned_digest():
    # the float laws of every size pair at q <= 32 and of sampled pairs at
    # q=256, and the Fraction laws at q <= 12: the sha256 of their text as
    # recorded while every chain count still carried the smallest set's
    # binom(q, mu) choices, so dropping that factor moved no bit
    def pairs():
        for q in range(2, 33):
            for i in range(1, q + 1):
                for s in range(i, q + 1):
                    yield q, (i, s)
        picks = (1, 2, 3, 50, 64, 100, 127, 128, 129, 200, 255, 256)
        for sizes in combinations_with_replacement(picks, 2):
            yield 256, sizes

    floats, fractions = hashlib.sha256(), hashlib.sha256()
    for q, sizes in pairs():
        for law in (common_member_intersection_dist(sizes, q), intersection_dist(sizes, q)):
            floats.update(" ".join(float(x).hex() for x in law).encode() + b"\n")
        if q <= 12:
            for law in (
                common_member_intersection_dist_exact(sizes, q),
                intersection_dist_exact(sizes, q),
            ):
                fractions.update(repr(law).encode())
    assert floats.hexdigest() == (
        "2f83fe6d29bbfae1aaa992c8e27a3b38e84cd8565dd6331156c164053383b8bf"
    )
    assert fractions.hexdigest() == (
        "3c040484daf37eba11485500671d9cf10a5ebcb0b481b1882409b721588fcd8d"
    )


def test_laws_are_ratios_of_the_counts():
    # each float entry is the correctly rounded ratio of the full counts
    for q in (5, 17, 64, 256):
        for sizes in ((1, q), (2, 3), (q // 2, q // 2 + 1), (3, q - 1, q // 3)):
            counts = intersection_counts(sizes, q)
            total = sum(counts)
            assert intersection_dist(sizes, q).tolist() == [c / total for c in counts]
            assert list(intersection_dist_exact(sizes, q)) == [Fraction(c, total) for c in counts]
