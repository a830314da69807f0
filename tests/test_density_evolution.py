import hashlib
import math
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pecldpc import (
    GF,
    MODEL_KINDS,
    DeConfig,
    DegreeDistribution,
    PartialErasureChannel,
    SumsetSizeModel,
    SymbolSet,
    check_update,
    ctv_message,
    initial_vtc_dist,
    run,
    threshold_search,
    variable_update,
)
from pecldpc.combinatorics import common_member_intersection_dist
from pecldpc.symbol_sets import set_layout

from oracles import bec_threshold, bec_trajectory, exact_de_trajectory


def bec_cfg(q, eps, **kw):
    ch = PartialErasureChannel(GF(q), q, eps)
    return DeConfig(ch, DegreeDistribution.regular(3, 6), SumsetSizeModel("exact"), **kw)


# ---------------------------------------------------------
# Initial state and single updates
# ---------------------------------------------------------
def test_initial_dist():
    ch = PartialErasureChannel(GF(4), 2, 0.3)
    assert initial_vtc_dist(ch).tolist() == [0.7, 0.3, 0.0, 0.0]
    ch2 = PartialErasureChannel(GF(2), 2, 0.25)
    assert initial_vtc_dist(ch2).tolist() == [0.75, 0.25]


def test_check_update_singletons():
    f = GF(4)
    z = np.array([1.0, 0, 0, 0])
    w = check_update(z, 6, SumsetSizeModel("exact"), f, 2)
    assert w.tolist() == [1, 0, 0, 0]


def test_check_update_qec_reduction():
    # M=q: w_1 = z_1^(d_c - 1)
    f = GF(4)
    z = np.array([0.6, 0, 0, 0.4])
    for d_c in (3, 6):
        w = check_update(z, d_c, SumsetSizeModel("exact"), f, 4)
        assert w[0] == pytest.approx(0.6 ** (d_c - 1), abs=1e-15)
        assert w[1] == w[2] == 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_check_update_validation():
    f = GF(4)
    with pytest.raises(ValueError):
        check_update(np.array([0.5, 0.5, 0, 0]), 1, SumsetSizeModel("exact"), f, 2)
    with pytest.raises(ValueError):
        check_update(np.array([0.5, 0, 0.5, 0]), 3, SumsetSizeModel("exact"), f, 2)


def test_variable_update_trivial_cases():
    f = GF(4)
    ch0 = PartialErasureChannel(f, 2, 0.0)
    z = variable_update(np.array([0.2, 0.5, 0.2, 0.1]), 3, ch0)
    assert z.tolist() == [1, 0, 0, 0]
    ch = PartialErasureChannel(f, 2, 0.37)
    z = variable_update(np.array([1.0, 0, 0, 0]), 3, ch)
    assert z[0] == pytest.approx(1.0, abs=1e-12)


def test_variable_update_qec_reduction():
    # M=q: z_q = eps * w_q^(d_v - 1)
    f = GF(5)
    ch = PartialErasureChannel(f, 5, 0.8)
    w = np.array([0.3, 0, 0, 0, 0.7])
    for d_v in (2, 3, 4):
        z = variable_update(w, d_v, ch)
        assert z[4] == pytest.approx(0.8 * 0.7 ** (d_v - 1), rel=1e-13)
        assert z.sum() == pytest.approx(1.0, abs=1e-12)


def test_public_updates_validate_input():
    # each malformed size vector used to give a silent wrong answer (a
    # short z broadcast over the sizes, a long w truncated, negative or
    # non-finite entries passed through) or a raw AttributeError (a list)
    f = GF(4)
    union = SumsetSizeModel("union")
    ch = PartialErasureChannel(f, 2, 0.5)
    z, w = np.array([0.6, 0.4, 0.0, 0.0]), np.array([0.1, 0.2, 0.3, 0.4])
    bad_z = (
        np.array([0.7]),
        np.array([0.6, 0.4, 0.0]),
        np.array([1.2, -0.2, 0.0, 0.0]),
        np.array([np.nan, 0.4, 0.0, 0.0]),
        np.array([np.inf, 0.4, 0.0, 0.0]),
        z.reshape(1, 4),
        np.array(["a", "b", "c", "d"]),
    )
    for bad in bad_z:
        with pytest.raises(ValueError):
            check_update(bad, 6, union, f, 2)
    bad_w = (
        np.array([0.1, 0.2, 0.3, 0.2, 0.2]),
        np.array([0.1, 0.2]),
        np.array([0.5, -0.1, 0.3, 0.3]),
        np.array([0.1, np.nan, 0.3, 0.4]),
        np.array([0.1, 0.2, np.inf, 0.4]),
        w.reshape(4, 1),
    )
    for bad in bad_w:
        with pytest.raises(ValueError):
            variable_update(bad, 3, ch)
    for M in (0, 5):
        with pytest.raises(ValueError, match="M must"):
            check_update(z, 6, union, f, M)
    # a plain list is a size vector like any other
    assert check_update(z.tolist(), 6, union, f, 2).tolist() == (
        check_update(z, 6, union, f, 2).tolist()
    )
    assert variable_update(w.tolist(), 3, ch).tolist() == variable_update(w, 3, ch).tolist()


# ---------------------------------------------------------
# Multiset enumeration equals ordered-tuple enumeration
# ---------------------------------------------------------
def ordered_check_update(z, d_c, model, field, M):
    q = field.q
    w = np.zeros(q)
    for tup in product(range(1, M + 1), repeat=d_c - 1):
        weight = math.prod(z[s - 1] for s in tup)
        if weight:
            w += weight * model.distribution(sorted(tup), field)
    return w


def ordered_variable_update(w, d_v, channel):
    q = channel.field.q
    z = np.zeros(q)
    z[0] = 1 - channel.epsilon
    for tup in product(range(1, q + 1), repeat=d_v - 1):
        weight = math.prod(w[s - 1] for s in tup)
        if weight:
            dist = common_member_intersection_dist(
                sorted(tup + (channel.M,)), q
            )
            z[: len(dist) - 1] += channel.epsilon * weight * dist[1:]
    return z


@pytest.mark.parametrize("q,M,d", [(4, 2, 4), (4, 3, 3), (5, 4, 3), (3, 2, 4)])
def test_multiset_equals_ordered(q, M, d):
    f = GF(q)
    rng = np.random.default_rng(q * 10 + M)
    model = SumsetSizeModel("exact")
    ch = PartialErasureChannel(f, M, 0.55)
    for _ in range(5):
        z = np.zeros(q)
        z[:M] = rng.random(M)
        z /= z.sum()
        got = check_update(z, d, model, f, M)
        want = ordered_check_update(z, d, model, f, M)
        assert np.abs(got - want).max() < 1e-12
        w = rng.random(q)
        w /= w.sum()
        got = variable_update(w, d, ch)
        want = ordered_variable_update(w, d, ch)
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("q", [4, 8, 16])
@pytest.mark.parametrize("M", [2, 3, 4])
def test_check_update_matches_float_reference(q, M):
    # every model (the exact law where its enumeration fits, q <= 8)
    # against the ordered-tuple sum, which never forms a multiset
    f = GF(q)
    kinds = [k for k in MODEL_KINDS if k != "exact" or q <= 8]
    rng = np.random.default_rng([q, M])
    z = np.zeros(q)
    z[:M] = rng.random(M) + 0.05
    z /= z.sum()
    for kind in kinds:
        model = SumsetSizeModel(kind)
        for d_c in (3, 6):
            got = check_update(z, d_c, model, f, M)
            want = ordered_check_update(z, d_c, model, f, M)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=f"{kind} {d_c}")


@pytest.mark.parametrize("q", [4, 8, 16])
@pytest.mark.parametrize("M", [2, 3, 4])
def test_variable_update_matches_float_reference(q, M):
    ch = PartialErasureChannel(GF(q), M, 0.55)
    rng = np.random.default_rng([q, M, 1])
    w = rng.random(q) + 0.05
    w /= w.sum()
    for d_v in (2, 3, 4):
        got = variable_update(w, d_v, ch)
        want = ordered_variable_update(w, d_v, ch)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=f"d_v={d_v}")


def test_mixture_iterations_match_float_reference():
    # two-degree mixtures on both sides at q=16: two full iterations of
    # run against the ordered-tuple halves mixed by hand
    f, M, eps = GF(16), 3, 0.6
    lam, rho = {2: 0.25, 3: 0.75}, {4: 0.5, 6: 0.5}
    model = SumsetSizeModel("balls")
    ch = PartialErasureChannel(f, M, eps)
    cfg = DeConfig(
        ch, DegreeDistribution(lam, rho), model,
        max_iters=2, convergence_tol=0.0, fixed_point_tol=0.0,
    )
    got = [pe for _, pe in run(cfg).trajectory]
    z = initial_vtc_dist(ch)
    want = [1.0 - z[0]]
    for _ in range(2):
        w = sum(frac * ordered_check_update(z, d, model, f, M) for d, frac in rho.items())
        w /= w.sum()
        z = sum(frac * ordered_variable_update(w, d, ch) for d, frac in lam.items())
        z /= z.sum()
        want.append(1.0 - z[0])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


# ---------------------------------------------------------
# Check update vs a decoder-semantics Monte Carlo
# ---------------------------------------------------------
def test_check_update_matches_decoder_monte_carlo():
    # one q=4, M=2, d_c=3 check node: incoming sets contain 0 and have
    # size 2 with probability z[1]; edge labels are random nonzero
    # elements; all samples go through the decoder's set layout at once
    f = GF(4)
    z = np.array([0.5, 0.5, 0.0, 0.0])
    w = check_update(z, 3, SumsetSizeModel("exact"), f, 2)
    rng = np.random.default_rng(2024)
    samples = 120_000
    pairs = rng.random((samples, 2)) >= z[0]
    masks = np.where(pairs, 1 | 1 << rng.integers(1, 4, (samples, 2)), 1)
    labels = rng.integers(1, 4, (samples, 2))
    out_labels = rng.integers(1, 4, samples)
    # the check rule: scale each set by -label, sumset, scale by 1/out_label
    sets = set_layout(f)
    a, b = (sets.scaled(sets.encode(masks[:, j]), f.neg_table[labels[:, j]]) for j in (0, 1))
    out = sets.scaled(sets.sumsets(a, b), f.inv_table[out_labels])
    out_masks = sets.to_masks(out).tolist()
    for i in range(1_000):
        incoming = [
            (SymbolSet.from_mask(f, int(masks[i, j])), int(labels[i, j])) for j in (0, 1)
        ]
        assert ctv_message(incoming, int(out_labels[i]), f).mask == out_masks[i]
    counts = np.bincount(sets.sizes(out), minlength=5)
    emp = counts[1:] / samples
    for m in range(4):
        sigma = math.sqrt(max(w[m] * (1 - w[m]), 1e-12) / samples)
        assert abs(emp[m] - w[m]) <= 3.5 * sigma + 1e-9


# ---------------------------------------------------------
# Full evolution
# ---------------------------------------------------------
def test_run_no_erasures_converges_immediately():
    r = run(bec_cfg(4, 0.0))
    assert r.converged and r.iterations == 0
    assert r.trajectory == [(0, 0.0)]


def test_run_full_erasure_pinned():
    r = run(bec_cfg(4, 1.0, max_iters=50))
    assert not r.converged
    assert all(pe == 1.0 for _, pe in r.trajectory)


def test_run_flags_clean_on_benign_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run(bec_cfg(5, 0.4))
    assert r.monotone and r.mass_ok and r.converged
    assert 0.0 <= r.mass_drift < 1e-12


def test_run_reports_mass_drift(monkeypatch):
    import pecldpc.density_evolution as de_mod

    built = de_mod._check_matrices

    def leaky(*args):  # check laws that sum to 1.001
        draws, mat = built(*args)
        return draws, 1.001 * mat

    monkeypatch.setattr(de_mod, "_check_matrices", leaky)
    with pytest.warns(UserWarning, match="lost probability mass"):
        r = run(bec_cfg(5, 0.4))
    assert not r.mass_ok
    assert r.mass_drift == pytest.approx(1e-3, rel=1e-6)


def test_run_stop_reasons():
    assert run(bec_cfg(4, 0.0)).stop_reason == "converged"
    r = run(bec_cfg(4, 0.3))
    assert r.converged and r.stop_reason == "converged"
    # above the BEC threshold 0.4294 the failure probability settles
    r = run(bec_cfg(4, 0.6))
    assert not r.converged and r.stop_reason == "fixed_point"
    assert r.iterations < 2000
    for cfg in (bec_cfg(4, 0.6, max_iters=5), bec_cfg(4, 0.6, fixed_point_tol=0.0, max_iters=300)):
        r = run(cfg)
        assert not r.converged and r.stop_reason == "max_iters"
        assert r.iterations == cfg.max_iters
    # a run that would converge, but needs more than the budget
    assert run(bec_cfg(4, 0.42, max_iters=10)).stop_reason == "max_iters"


# (q, M, model, eps, lambda, rho) -> (iterations, stop reason, sha256 of
# every failure probability's float.hex and the two); eps sit at or
# just above recorded thresholds, so the runs are long plateaus where a
# changed rounding in either half compounds
TRAJECTORY_PINS = [
    ((8, 4, "exact", 0.59857177734375, {3: 1.0}, {6: 1.0}),
     (1076, "converged", "f6e934f3eb1a988f59100a8bd9821860a1a9e7da6efae277907427a7ea344cc7")),
    ((16, 4, "balls", 0.76507568359375, {3: 1.0}, {6: 1.0}),
     (353, "converged", "7a7ffed5c0ed1f55e1aaf7ba3f0fc4f8d8559ddc290c706d3c6bbe3d6313569e")),
    ((4, 2, "union", 0.85089111328125 + 2**-14, {3: 1.0}, {6: 1.0}),
     (1613, "fixed_point", "0abd91e43fda20c86e32d18f2aeb50b4771b858284eb09a3ce08dc98cef91f44")),
    ((8, 3, "union", 0.6, {2: 0.3, 3: 0.7}, {5: 0.4, 6: 0.6}),
     (20, "converged", "ce233b978a9a50567ddbd813f24dd9664ea1116a62ec9ecf23d6f2c752bf8e88")),
]


@pytest.mark.parametrize(
    "case, want", TRAJECTORY_PINS, ids=["q8-exact", "q16-balls", "q4-union", "q8-irregular"]
)
def test_run_trajectory_pinned(case, want):
    # thresholds only see each probe's converged flag; this pins every
    # float of the trajectory, bit for bit
    q, M, kind, eps, lam, rho = case
    ch = PartialErasureChannel(GF(q), M, eps)
    r = run(DeConfig(ch, DegreeDistribution(lam, rho), SumsetSizeModel(kind)))
    text = " ".join(pe.hex() for _, pe in r.trajectory) + f"|{r.iterations}|{r.stop_reason}"
    assert (r.iterations, r.stop_reason, hashlib.sha256(text.encode()).hexdigest()) == want
    assert r.mass_ok and r.monotone


def test_bec_reduction_termwise():
    cfg = bec_cfg(2, 0.41, max_iters=200, convergence_tol=0.0, fixed_point_tol=0.0)
    r = run(cfg)
    want = bec_trajectory(0.41, 3, 6, 200)
    assert len(r.trajectory) == 201
    for (it, got), expect in zip(r.trajectory, want):
        assert abs(got - expect) < 1e-12


def test_mixture_degrees_accepted():
    # irregular mixture stays a probability distribution and converges
    # for small eps
    f = GF(4)
    ch = PartialErasureChannel(f, 2, 0.2)
    deg = DegreeDistribution({2: 0.3, 3: 0.7}, {5: 0.5, 6: 0.5})
    cfg = DeConfig(ch, deg, SumsetSizeModel("exact"))
    r = run(cfg)
    assert r.converged and r.mass_ok


def test_irregular_mixture_matches_hand_mix():
    # one update step of a two-degree mixture equals the convex
    # combination of the single-degree updates
    f = GF(4)
    M = 2
    model = SumsetSizeModel("exact")
    z = np.array([0.55, 0.45, 0.0, 0.0])
    mixed = 0.25 * check_update(z, 4, model, f, M) + 0.75 * check_update(
        z, 6, model, f, M
    )
    deg = DegreeDistribution({3: 1.0}, {4: 0.25, 6: 0.75})
    ch = PartialErasureChannel(f, M, 0.5)
    cfg = DeConfig(ch, deg, model, max_iters=1, convergence_tol=0.0, fixed_point_tol=0.0)
    r = run(cfg)
    # reproduce iteration 1 by hand: z0 -> mixed w -> variable update
    z0 = initial_vtc_dist(ch)
    w = 0.25 * check_update(z0, 4, model, f, M) + 0.75 * check_update(z0, 6, model, f, M)
    w = w / w.sum()
    z1 = variable_update(w, 3, ch)
    z1 = z1 / z1.sum()
    assert r.trajectory[1][1] == pytest.approx(1 - z1[0], abs=1e-15)
    assert mixed.sum() == pytest.approx(1.0, abs=1e-12)


ORACLE_ENSEMBLES = {  # (lambda, rho), exact in binary floating point
    "regular-3-6": ({3: Fraction(1)}, {6: Fraction(1)}),
    "mixture": (
        {2: Fraction(1, 4), 3: Fraction(3, 4)},
        {4: Fraction(1, 2), 6: Fraction(1, 2)},
    ),
}


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("ensemble", ORACLE_ENSEMBLES)
def test_run_matches_exact_rational_oracle(q, ensemble):
    # bounds the float path's drift: five iterations with renormalisation
    # against exact rational density evolution over ordered size tuples
    lam, rho = ORACLE_ENSEMBLES[ensemble]
    M, eps = 2, Fraction(1, 2)
    deg = DegreeDistribution(*({d: float(f) for d, f in c.items()} for c in (lam, rho)))
    ch = PartialErasureChannel(GF(q), M, float(eps))
    cfg = DeConfig(
        ch, deg, SumsetSizeModel("exact"), max_iters=5, convergence_tol=0.0, fixed_point_tol=0.0
    )
    got = [pe for _, pe in run(cfg).trajectory]
    want = exact_de_trajectory(GF(q), M, eps, lam, rho, 5)
    assert len(got) == len(want) == 6
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_size_multiset_cap():
    import pecldpc.density_evolution as de_mod

    # d_v = 3 at q = 256 stays admitted: C(257, 2) = 32,896 multisets
    tuples, draws, _ = de_mod._weight_tables(256, 2)
    assert len(tuples) == draws.shape[1] == math.comb(257, 2) <= de_mod.MAX_SIZE_MULTISETS
    # d_v = 4 at q = 256 is refused from the count, on both public halves
    ch = PartialErasureChannel(GF(256), 2, 0.5)
    with pytest.raises(ValueError, match="size multisets"):
        variable_update(np.full(256, 1 / 256), 4, ch)
    with pytest.raises(ValueError, match="size multisets"):
        check_update(np.full(64, 1 / 64), 30, SumsetSizeModel("union"), GF(64), 64)


def test_de_matrices_built_once_and_read_only():
    import pecldpc.density_evolution as de_mod

    f, model = GF(4), SumsetSizeModel("exact")
    tuples, counts, multinom = de_mod._weight_tables(2, 5)
    assert isinstance(tuples, tuple)
    assert de_mod._check_matrices(f, 2, 6, model) is de_mod._check_matrices(f, 2, 6, model)
    assert de_mod._variable_matrices(f, 2, 3) is de_mod._variable_matrices(f, 2, 3)
    mats = (*de_mod._check_matrices(f, 2, 6, model), *de_mod._variable_matrices(f, 2, 3))
    for arr in (counts, multinom, *mats):
        with pytest.raises(ValueError):
            arr[0] = 0
    # the memo keys on the model's value: an equal model shares the check
    # matrices, another kind gets its own
    assert de_mod._check_matrices(f, 2, 6, SumsetSizeModel("exact")) is (
        de_mod._check_matrices(f, 2, 6, model)
    )
    assert de_mod._check_matrices(f, 2, 6, SumsetSizeModel("union")) is not (
        de_mod._check_matrices(f, 2, 6, model)
    )
    # the public updates hand out fresh arrays
    w = check_update(np.array([0.5, 0.5, 0, 0]), 6, model, f, 2)
    w[0] = 0.0
    assert check_update(np.array([0.5, 0.5, 0, 0]), 6, model, f, 2)[0] > 0.0


# ---------------------------------------------------------
# Threshold search
# ---------------------------------------------------------
def test_threshold_bec_anchor():
    th = threshold_search(bec_cfg(2, 0.0))
    assert abs(th - bec_threshold(3, 6)) < 2e-4
    assert abs(th - 0.4294) < 1e-3


def test_threshold_rejects_unusable_tolerance():
    for tol in (0.0, -1.0, 1e-300, float("nan")):
        with pytest.raises(ValueError):
            threshold_search(bec_cfg(2, 0.0), tol_eps=tol)


def test_threshold_same_for_all_qec_sizes():
    # M=q: the size distribution is two-point and the recursion is the
    # same for every q
    th2 = threshold_search(bec_cfg(2, 0.0))
    th5 = threshold_search(bec_cfg(5, 0.0))
    assert th2 == pytest.approx(th5, abs=2e-4)


def test_threshold_model_ordering_single_cell():
    f = GF(4)
    deg = DegreeDistribution.regular(3, 6)
    ths = {}
    for kind in ("bound-upper", "exact", "union", "balls", "bound-lower"):
        cfg = DeConfig(
            PartialErasureChannel(f, 3, 0.0), deg, SumsetSizeModel(kind)
        )
        ths[kind] = threshold_search(cfg)
    assert ths["bound-upper"] <= ths["exact"] + 2e-4
    assert ths["exact"] <= ths["union"] + 2e-4
    assert ths["union"] <= ths["balls"] + 2e-4
    assert ths["balls"] <= ths["bound-lower"] + 2e-4


@pytest.mark.parametrize("q,M", [(8, 3), (8, 4), (9, 3), (16, 3), (16, 4)])
def test_threshold_model_ordering_large_fields(q, M):
    # criterion 7's chain beyond q=5; at q=16, M>=3 the exact law
    # exceeds the enumeration budget, so the chain skips it there
    order = ("bound-upper", "exact", "union", "balls", "bound-lower")
    if q == 16:
        order = tuple(k for k in order if k != "exact")
    deg = DegreeDistribution.regular(3, 6)
    ch = PartialErasureChannel(GF(q), M, 0.0)
    ths = {k: threshold_search(DeConfig(ch, deg, SumsetSizeModel(k))) for k in order}
    chain = [ths[k] for k in order]
    for a, b in zip(chain, chain[1:]):
        assert a <= b + 2e-4, (q, M, ths)


# thresholds of `pecldpc threshold --q 4 --M 2,3,4 --dv 3 --dc 6` (the CLI
# defaults: tol 1e-4, 2000 iterations, monotone grid on); a change to the
# DE arithmetic must keep them bit for bit
Q4_GRID_THRESHOLDS = {
    (2, "exact"): "0x1.a458000000000p-1",
    (2, "bound-lower"): "0x1.0000000000000p+0",
    (2, "bound-upper"): "0x1.55d8000000000p-1",
    (2, "balls"): "0x1.ccf8000000000p-1",
    (2, "union"): "0x1.b3a8000000000p-1",
    (3, "exact"): "0x1.0a88000000000p-1",
    (3, "bound-lower"): "0x1.1950000000000p-1",
    (3, "bound-upper"): "0x1.04a0000000000p-1",
    (3, "balls"): "0x1.0ef0000000000p-1",
    (3, "union"): "0x1.0c58000000000p-1",
    (4, "exact"): "0x1.b7b0000000000p-2",
    (4, "bound-lower"): "0x1.b7b0000000000p-2",
    (4, "bound-upper"): "0x1.b7b0000000000p-2",
    (4, "balls"): "0x1.b7b0000000000p-2",
    (4, "union"): "0x1.b7b0000000000p-2",
}


def test_threshold_q4_grid_pinned():
    deg = DegreeDistribution.regular(3, 6)
    got = {}
    for M, kind in Q4_GRID_THRESHOLDS:
        cfg = DeConfig(PartialErasureChannel(GF(4), M, 0.0), deg, SumsetSizeModel(kind))
        got[M, kind] = threshold_search(cfg, tol_eps=1e-4, check_monotone=True).hex()
    assert got == Q4_GRID_THRESHOLDS


# de-sweep's searches beyond q=4 with the same settings: q=8 (M=2,3,4)
# and q=9 (M=3) with every model, q=16 (M=3,4) without the exact law
LARGE_FIELD_THRESHOLDS = {
    (8, 2, "exact"): "0x1.0000000000000p+0",
    (8, 2, "bound-lower"): "0x1.0000000000000p+0",
    (8, 2, "bound-upper"): "0x1.b5c0000000000p-1",
    (8, 2, "balls"): "0x1.0000000000000p+0",
    (8, 2, "union"): "0x1.0000000000000p+0",
    (8, 3, "exact"): "0x1.7540000000000p-1",
    (8, 3, "bound-lower"): "0x1.0000000000000p+0",
    (8, 3, "bound-upper"): "0x1.51e8000000000p-1",
    (8, 3, "balls"): "0x1.8c00000000000p-1",
    (8, 3, "union"): "0x1.7d98000000000p-1",
    (8, 4, "exact"): "0x1.3278000000000p-1",
    (8, 4, "bound-lower"): "0x1.0000000000000p+0",
    (8, 4, "bound-upper"): "0x1.22a0000000000p-1",
    (8, 4, "balls"): "0x1.4758000000000p-1",
    (8, 4, "union"): "0x1.3930000000000p-1",
    (9, 3, "exact"): "0x1.7e10000000000p-1",
    (9, 3, "bound-lower"): "0x1.0000000000000p+0",
    (9, 3, "bound-upper"): "0x1.5a90000000000p-1",
    (9, 3, "balls"): "0x1.97b8000000000p-1",
    (9, 3, "union"): "0x1.8b68000000000p-1",
    (16, 3, "bound-lower"): "0x1.0000000000000p+0",
    (16, 3, "bound-upper"): "0x1.98f8000000000p-1",
    (16, 3, "balls"): "0x1.c8d0000000000p-1",
    (16, 3, "union"): "0x1.c380000000000p-1",
    (16, 4, "bound-lower"): "0x1.0000000000000p+0",
    (16, 4, "bound-upper"): "0x1.5bf8000000000p-1",
    (16, 4, "balls"): "0x1.87b8000000000p-1",
    (16, 4, "union"): "0x1.8020000000000p-1",
}


def test_threshold_large_fields_pinned():
    deg = DegreeDistribution.regular(3, 6)
    fields = {q: GF(q) for q in (8, 9, 16)}
    got = {}
    for q, M, kind in LARGE_FIELD_THRESHOLDS:
        cfg = DeConfig(PartialErasureChannel(fields[q], M, 0.0), deg, SumsetSizeModel(kind))
        got[q, M, kind] = threshold_search(cfg, tol_eps=1e-4, check_monotone=True).hex()
    assert got == LARGE_FIELD_THRESHOLDS


def test_threshold_probes_each_epsilon_once(monkeypatch):
    import pecldpc.density_evolution as de_mod

    real_run, probed = de_mod.run, []

    def counting_run(cfg):
        probed.append(cfg.channel.epsilon)
        return real_run(cfg)

    monkeypatch.setattr(de_mod, "run", counting_run)
    th = de_mod.threshold_search(bec_cfg(2, 0.0), check_monotone=True)
    assert len(probed) == len(set(probed))
    # the 17-point grid holds 1.0 and the first four bisection points,
    # so only the last 10 of the 14 bisection steps need a new run
    assert len(probed) == 17 + 10
    probed.clear()
    assert de_mod.threshold_search(bec_cfg(2, 0.0)) == th
    assert len(probed) == 1 + 14


def test_threshold_rejects_iteration_limits_below_one():
    for max_iters in (0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            threshold_search(bec_cfg(4, 0.0, max_iters=max_iters))


def test_threshold_monotone_check_runs_clean():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        th = threshold_search(bec_cfg(2, 0.0), tol_eps=1e-3, check_monotone=True)
    assert 0.42 < th < 0.44


def test_threshold_warns_on_non_monotone_convergence(monkeypatch):
    import pecldpc.density_evolution as de_mod

    from pecldpc.density_evolution import DeResult

    def fake_run(cfg):
        eps = cfg.channel.epsilon
        # converges on a weird island above a failing stretch
        ok = eps < 0.2 or 0.6 < eps < 0.7
        return DeResult(
            converged=ok,
            iterations=1,
            trajectory=[(0, eps)],
            stop_reason="converged" if ok else "max_iters",
        )

    monkeypatch.setattr(de_mod, "run", fake_run)
    with pytest.warns(UserWarning, match="not monotone"):
        th = de_mod.threshold_search(bec_cfg(2, 0.0), check_monotone=True)
    assert th > 0.0
