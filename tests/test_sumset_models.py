import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

import pecldpc
from pecldpc import (
    GF,
    MODEL_KINDS,
    EnumerationBudgetError,
    SumsetSizeModel,
    balls_dist,
    bound_dist,
    coverage_transition_matrix,
    exact_dist,
    exact_dist_rational,
    monte_carlo_dist,
    occupancy_dist,
    sumset_bounds,
    budget,
    union_model_dist,
)
from pecldpc.sumset_models import _chain_state
from pecldpc.symbol_sets import set_bytes

from oracles import brute_sumset_dist, occupancy_exact


# ---------------------------------------------------------
# Bounds
# ---------------------------------------------------------
def test_bounds_anchors():
    b = sumset_bounds([2, 2], GF(5))
    assert (b.lower, b.upper) == (3, 4)
    b = sumset_bounds([2, 2], GF(4))  # characteristic 2 caps the lower bound
    assert (b.lower, b.upper) == (2, 4)
    b = sumset_bounds([3, 2], GF(4))  # 3 + 2 > 4 forces full coverage
    assert (b.lower, b.upper) == (4, 4)


def test_bounds_universe_member():
    b = sumset_bounds([4, 2], GF(4))
    assert b.lower == b.upper == 4


@pytest.mark.parametrize(
    "law",
    [
        sumset_bounds, exact_dist, balls_dist, union_model_dist,
        lambda t, f: bound_dist(t, f, "upper"),
    ],
    ids=["bounds", "exact", "balls", "union", "bound-upper"],
)
@pytest.mark.parametrize("sizes", [(2.5, 3), (True, 3), (2, float("nan")), (), (0, 2), (2, 9), 3])
def test_laws_refuse_bad_sizes(law, sizes):
    # non-integer sizes once gave answers (balls_dist a law, sumset_bounds
    # an upper bound of 7.5) or a raw TypeError (exact_dist), and so did
    # a bare size in place of a tuple of them
    with pytest.raises(ValueError, match="size"):
        law(sizes, GF(8))


def test_bounds_single_set():
    b = sumset_bounds([3], GF(5))
    assert (b.lower, b.upper) == (3, 3)


def test_bound_dists():
    f = GF(5)
    lo = bound_dist([2, 2], f, "lower")
    hi = bound_dist([2, 2], f, "upper")
    assert lo.tolist() == [0, 0, 1, 0, 0]
    assert hi.tolist() == [0, 0, 0, 1, 0]
    forced = bound_dist([3, 3], f, "lower")  # 3+3 > 5
    assert forced.tolist() == [0, 0, 0, 0, 1]
    ones = bound_dist([1, 1, 1], f, "upper")
    assert ones.tolist() == [1, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        bound_dist([2, 2], f, "middle")


# ---------------------------------------------------------
# Exact distribution
# ---------------------------------------------------------
def test_exact_gf4_pair_anchor():
    d = exact_dist_rational([2, 2], GF(4))
    assert d == (0, Fraction(1, 3), 0, Fraction(2, 3))


def test_exact_gf5_pair_support():
    d = exact_dist_rational([2, 2], GF(5))
    assert d[0] == d[1] == d[4] == 0
    assert d[2] > 0 and d[3] > 0 and sum(d) == 1


def test_exact_universe_member():
    d = exact_dist_rational([4, 2], GF(4))
    assert d == (0, 0, 0, 1)


def test_exact_matches_bruteforce():
    for q in (2, 3, 4, 5):
        f = GF(q)
        top = min(3, q)
        for j in (1, 2, 3):
            for sizes in combinations_with_replacement(range(1, top + 1), j):
                assert list(exact_dist_rational(sizes, f)) == brute_sumset_dist(
                    sizes, f
                )


@pytest.mark.parametrize("q", [13, 16])
def test_exact_planes_layout_matches_bruteforce(q):
    f = GF(q)
    assert list(exact_dist_rational((1, 2, 2), f)) == brute_sumset_dist((1, 2, 2), f)


def test_exact_counts_do_not_wrap():
    # 2-sets of GF(4) are cosets of its 3 additive subgroups of order 2:
    # 25 of them sum to a 2-set iff all lie in one subgroup, else to GF(4);
    # the 6**25 assignments exceed 2**63
    d = exact_dist_rational([2] * 25, GF(4))
    assert d == (0, Fraction(1, 3**24), 0, 1 - Fraction(1, 3**24))


def test_exact_respects_bounds_and_forced_full():
    for q in (2, 3, 4, 5):
        f = GF(q)
        for j in (1, 2, 3):
            for sizes in combinations_with_replacement(range(1, q + 1), j):
                b = sumset_bounds(sizes, f)
                d = exact_dist_rational(sizes, f)
                support = [m + 1 for m, p in enumerate(d) if p > 0]
                assert min(support) >= b.lower
                assert max(support) <= b.upper
                if j >= 2 and sizes[-1] + sizes[-2] > q:  # two operands cover the field
                    assert support == [q]


@pytest.mark.parametrize(
    "q, sizes",
    [(31, (11, 11, 11)), (32, (17, 17)), (7, (1, 3, 5)), (256, (1, 1, 3)), (13, (2, 13)), (5, (1,))],
)
def test_pinned_laws_are_point_masses(q, sizes):
    # where the bounds meet (Cauchy-Davenport reaching q = p, two operands
    # covering the field, one operand beside translates) every model is the
    # point mass there; (11,11,11) at q=31 and (17,17) at q=32 were once
    # refused by the exact law's work cap
    f = GF(q)
    b = sumset_bounds(sizes, f)
    assert b.lower == b.upper
    want = [float(m == b.lower) for m in range(1, q + 1)]
    for kind in MODEL_KINDS:
        assert SumsetSizeModel(kind).distribution(sizes, f).tolist() == want
    assert exact_dist_rational(sizes, f) == tuple(map(Fraction, want))


@pytest.mark.parametrize("sizes", [(1, 1, 3, 3, 3), (4, 4, 4, 4, 4)])
def test_exact_q16_laws_match_monte_carlo(sizes):
    # laws of the (3,6) check half at q=16 that no brute-force oracle
    # reaches: each bin of the exact law lies within 4 sigma of 200,000
    # seeded draws (an exact zero must stay unsampled)
    f = GF(16)
    exact = np.array([float(p) for p in exact_dist_rational(sizes, f)])
    mc = monte_carlo_dist(sizes, f, 200_000, np.random.default_rng(20261018))
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)
    assert (np.abs(mc - exact) <= 4 * np.sqrt(exact * (1 - exact) / 200_000)).all()


def test_exact_budget_cap(monkeypatch):
    monkeypatch.setattr(pecldpc.budget, "CELLS", 10)
    with pytest.raises(EnumerationBudgetError, match=r"work cap \(10\)"):
        exact_dist([4, 4, 4], GF(8))


def test_monte_carlo_close_to_exact():
    f = GF(5)
    exact = exact_dist([2, 3], f)
    mc = monte_carlo_dist([2, 3], f, 200_000, np.random.default_rng(17))
    assert np.abs(mc - exact).max() < 0.005
    assert mc.sum() == pytest.approx(1.0, abs=1e-12)


def test_monte_carlo_draws_pinned():
    # recorded before the draws were chunked: 40,000 samples span three
    # chunks, whose consecutive draws must reproduce one large draw
    mc = monte_carlo_dist((2, 3, 3), GF(16), 40_000, np.random.default_rng(2024))
    counts = [0, 0, 0, 220, 0, 0, 0, 10604, 0, 0, 0, 7431, 0, 21745, 0, 0]
    assert mc.tolist() == [c / 40_000 for c in counts]


# the child's own peak (VmHWM, in kB) belongs to its address space; its
# ru_maxrss would not, as Linux carries that over from the forking
# process across execve, so it could read the test suite's own peak
_MC_PEAK = """
import re
import numpy as np
from pecldpc import GF, monte_carlo_dist
law = monte_carlo_dist((2, 2, 3), GF(256), 20_000, np.random.default_rng(5))
with open("/proc/self/status") as fh:
    print(int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1)) // 1024)
print(*(law * 20_000).round().astype(int))
"""


def test_monte_carlo_memory_bounded():
    # at GF(256) a chunk's float temporaries are rows * 256 wide; with
    # 2**14 rows per chunk this law peaked at 209 MB, with 2**18 // q
    # rows at 55 MB, of which the interpreter and numpy take 42 MB
    # (x86-64 Linux, numpy 2.4).  The counts were recorded with the
    # 2**14-row chunks: smaller chunks continue the same stream of draws
    src = Path(pecldpc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _MC_PEAK], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb, counts = proc.stdout.splitlines()
    assert int(peak_mb) < 120
    want = dict.fromkeys(range(1, 257), 0) | {4: 2, 6: 68, 8: 685, 12: 19245}
    assert list(map(int, counts.split())) == list(want.values())


def test_monte_carlo_needs_samples():
    f = GF(4)
    for samples in (0, -3, 1e4, 2.5, "100"):
        with pytest.raises(ValueError):
            monte_carlo_dist((2, 2), f, samples, np.random.default_rng(1))
        with pytest.raises(ValueError):
            SumsetSizeModel("exact", mc_samples=samples, mc_seed=1)
    # -1 was refused by numpy, unnamed, and only where a law was sampled
    for seed in (1.5, 1.0, "1", -1):
        with pytest.raises(ValueError, match="mc_seed"):
            SumsetSizeModel("exact", mc_seed=seed)
    # Python and numpy integers are counts and seeds alike
    model = SumsetSizeModel("exact", mc_samples=np.int64(500), mc_seed=np.uint32(1))
    assert model == SumsetSizeModel("exact", mc_samples=500, mc_seed=1)
    assert monte_carlo_dist((2, 2), f, np.int32(50), np.random.default_rng(1)).sum() == (
        pytest.approx(1.0)
    )


def test_monte_carlo_samples_capped():
    ss = pecldpc.sumset_models
    # the sampled sets may take a quarter of the byte budget, and the
    # default sample count fits at every field
    set_cap = pecldpc.budget.BYTES // 4
    assert ss.DEFAULT_MC_SAMPLES * set_bytes(256) <= set_cap
    # 10**8 samples of 16-byte sets: refused before any is drawn
    with pytest.raises(ValueError, match="above the limit"):
        monte_carlo_dist((2, 2), GF(16), 10**8, np.random.default_rng(1))
    # a count over the cap at the smallest set size is refused by the model
    SumsetSizeModel("exact", mc_samples=set_cap // 2)
    with pytest.raises(ValueError, match="at every field"):
        SumsetSizeModel("exact", mc_samples=set_cap // 2 + 1)


# ---------------------------------------------------------
# Coverage chain, occupancy
# ---------------------------------------------------------
def test_gamma_one_closed_form():
    for q in range(2, 17):
        g = coverage_transition_matrix(1, q)
        for i in range(1, q + 1):
            row = np.zeros(q)
            row[i - 1] = i / q
            if i < q:
                row[i] = 1 - i / q
            assert np.abs(g[i - 1] - row).max() < 1e-12


def test_gamma_rows_stochastic_triangular_absorbing():
    for q in (4, 5, 8):
        for step in range(1, q + 1):
            g = coverage_transition_matrix(step, q)
            assert np.abs(g.sum(axis=1) - 1.0).max() < 1e-12
            assert np.abs(np.tril(g, -1)).max() == 0.0
            assert g[q - 1, q - 1] == 1.0
            # powers stay stochastic
            p = np.linalg.matrix_power(g, 7)
            assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-10


def test_gamma_full_step_absorbs_immediately():
    q = 5
    g = coverage_transition_matrix(q, q)
    assert (g[:, q - 1] == 1.0).all()


def test_gamma_entries_match_intersection_law():
    from pecldpc import intersection_dist

    q = 4
    g = coverage_transition_matrix(2, q)
    t = intersection_dist((2, 2), q)
    row = np.zeros(q)
    for m in range(len(t)):
        j = 2 + 2 - m
        if j <= q:
            row[j - 1] = t[m]
    assert np.abs(g[1] - row).max() < 1e-15


def test_occupancy_matches_closed_form():
    for q in range(2, 6):
        for n_balls in range(1, 7):
            got = occupancy_dist(n_balls, q)
            want = [float(p) for p in occupancy_exact(n_balls, q)]
            assert np.abs(got - np.array(want)).max() < 1e-12


@pytest.mark.parametrize(
    "n_balls, q",
    [(3, 0), (3, -2), (2.5, 4), (True, 4), (0, 4), (3, 4.0), (3, True), ("3", 4)],
)
def test_occupancy_refuses_bad_arguments(n_balls, q):
    with pytest.raises(ValueError, match="must be an integer of at least 1"):
        occupancy_dist(n_balls, q)


@pytest.mark.parametrize(
    "step, q, message",
    [
        (0, 4, "step must be an integer of at least 1"), (5, 4, r"step 5 outside \[1, 4\]"),
        (1.5, 4, "step must be"), (1, 4.0, "q must be"), (True, 4, "step must be"),
        # 7.28 TiB: refused before numpy is asked for it
        (1, 10**6, "coverage matrix of 1000000 bins"),
    ],
)
def test_coverage_matrix_refuses_bad_arguments(step, q, message):
    with pytest.raises(ValueError, match=message):
        coverage_transition_matrix(step, q)


def test_occupancy_refuses_oversized_fields():
    # the q x q coverage matrix is refused before it is allocated, a
    # numpy integer q too, whose 8*q*q would wrap around
    for q in (2**20, np.int64(2**40)):
        with pytest.raises(ValueError, match=f"coverage matrix of {q} bins"):
            occupancy_dist(3, q)


@pytest.mark.parametrize("step, q", [(1, 4), (2, 4), (3, 8)])
def test_walks_resume_within_a_budget(step, q):
    # lengths asked in shuffled order in one budget, some past the early
    # stop, each give a cold walk's state (a fresh budget each).  The
    # walk stands still from length ``still`` on; a request walks on from
    # the longest length the budget has stored at or below it and pays
    # for those steps only, so lengths asked in rising order pay for each
    # step once
    gamma = coverage_transition_matrix(step, q)
    v, still = np.eye(q)[step - 1], 1
    while True:  # the walk's steps, one by one, up to one that returns its input
        still += 1
        if (v == (v := v @ gamma)).all():
            break
    lengths = [1, 2, 3, still // 3, still // 2, still - 2, still - 1, still, still + 2, 3 * still, 2]
    np.random.default_rng(step).shuffle(lengths)
    price = 5 * budget.CALL + q * q // budget.ENTRIES
    stored, steps = {1}, 0
    for n in lengths:
        n = min(n, still)
        steps += n - max(k for k in stored if k <= n)
        stored.add(n)
    with budget.scope() as spend:
        got = [_chain_state(step, n, q).copy() for n in lengths]
        assert budget.CELLS - spend.left == steps * price
    for n, state in zip(lengths, got):
        with budget.scope():
            assert np.array_equal(state, _chain_state(step, n, q)), n
    with budget.scope() as spend:
        for n in sorted(lengths):
            _chain_state(step, n, q)
        assert budget.CELLS - spend.left == (still - 1) * price


# ---------------------------------------------------------
# Balls-and-bins and union models
# ---------------------------------------------------------
def test_balls_anchors():
    f = GF(5)
    assert balls_dist([1, 1, 1], f).tolist() == [1, 0, 0, 0, 0]
    assert balls_dist([2, 1], f).tolist() == [0, 1, 0, 0, 0]
    assert balls_dist([3, 3], f).tolist() == [0, 0, 0, 0, 1]  # forced full


def test_union_anchors():
    f = GF(5)
    assert union_model_dist([3], f).tolist() == [0, 0, 1, 0, 0]
    got = union_model_dist([2, 2], f)
    assert np.abs(got - np.array([0, 0, 2 / 3, 1 / 3, 0])).max() < 1e-12
    assert union_model_dist([3, 3], f).tolist() == [0, 0, 0, 0, 1]


def test_models_are_distributions():
    f = GF(5)
    for sizes in [(2, 2), (2, 3), (2, 2, 2), (4, 2)]:
        for fn in (balls_dist, union_model_dist):
            d = fn(sizes, f)
            assert d.sum() == pytest.approx(1.0, abs=1e-12)
            assert (d >= 0).all()
            b = sumset_bounds(sizes, f)
            assert d[: b.lower - 1].max(initial=0.0) == 0.0


# ---------------------------------------------------------
# Model selector
# ---------------------------------------------------------
def test_model_selector_kinds():
    f = GF(4)
    assert SumsetSizeModel("exact").distribution([2, 2], f)[1] == pytest.approx(1 / 3)
    assert SumsetSizeModel("bound-upper").distribution([2, 2], f).tolist() == [0, 0, 0, 1]
    assert SumsetSizeModel("bound-lower").distribution([2, 2], f).tolist() == [0, 1, 0, 0]
    assert SumsetSizeModel("balls").distribution([2, 2], f).sum() == pytest.approx(1.0)
    assert SumsetSizeModel("union").distribution([2, 2], f).sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SumsetSizeModel("bogus")


def test_model_laws_are_fresh_values():
    # an in-place edit of a returned law must not reach the next call
    f = GF(5)
    for kind in MODEL_KINDS:
        model = SumsetSizeModel(kind)
        a = model.distribution([3, 2], f)
        want = a.copy()
        a[:] = 0.0
        assert model.distribution([2, 3], f).tolist() == want.tolist()


def test_model_fields_frozen():
    # a model is a value: its kind cannot change under a cache keyed on it
    model = SumsetSizeModel("union")
    for name, value in (("kind", "balls"), ("mc_samples", 10), ("mc_seed", 1)):
        with pytest.raises(AttributeError):
            setattr(model, name, value)
    assert model == SumsetSizeModel("union")
    assert hash(model) == hash(SumsetSizeModel("union"))
    assert model != SumsetSizeModel("balls")
    assert SumsetSizeModel("exact") != SumsetSizeModel("exact", mc_seed=1)


def test_model_calls_module_level_laws(monkeypatch):
    # distribution looks each law up by its module-level name at call
    # time, so a wrapper put there (the bench tracer's spans) sees it;
    # and the law checks the sizes once, with nothing under it checking
    # them again
    calls, checks = [], []
    ss = pecldpc.sumset_models

    def checked(*args, _fn=ss._norm):
        checks.append(args)
        return _fn(*args)

    monkeypatch.setattr(ss, "_norm", checked)
    for name in ("exact_dist", "bound_dist", "balls_dist", "union_model_dist"):

        def counted(*args, _name=name, _fn=getattr(ss, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(ss, name, counted)
    f = GF(5)
    want = {
        "exact": ["exact_dist"],
        "bound-lower": ["bound_dist"],
        "bound-upper": ["bound_dist"],
        "balls": ["balls_dist"],
        "union": ["union_model_dist"],
    }
    for kind in MODEL_KINDS:
        calls.clear()
        checks.clear()
        SumsetSizeModel(kind).distribution([2, 2], f)
        assert calls == want[kind], kind
        assert len(checks) == 1, kind


def test_exact_model_mc_fallback(monkeypatch):
    f = GF(5)
    # the reference law is computed under the default budget
    want = exact_dist([2, 2], f)
    monkeypatch.setattr(pecldpc.budget, "CELLS", 10)
    with pytest.raises(EnumerationBudgetError):
        SumsetSizeModel("exact").distribution([2, 2], f)
    fallback = SumsetSizeModel("exact", mc_samples=50_000, mc_seed=3)
    d = fallback.distribution([2, 2], f)
    assert np.abs(d - want).max() < 0.02
