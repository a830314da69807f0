import hashlib
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import pecldpc
import pecldpc.density_evolution as de_mod
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

from oracles import (
    bec_least_fixed_point,
    bec_map,
    bec_threshold,
    bec_trajectory,
    brute_common_member_dist,
    brute_stochastically_le,
    exact_de_trajectory,
    multiset_raises,
    numpy_below,
)


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
    # a non-integer M or degree raised a raw TypeError deep inside
    for d_c, M in ((6, 2.5), (6, True), (5.5, 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            check_update(np.array([0.5, 0.5, 0, 0]), d_c, SumsetSizeModel("exact"), f, M)


def test_variable_update_validation():
    ch = PartialErasureChannel(GF(4), 2, 0.5)
    for d_v in (1, 0, 2.5):
        with pytest.raises(ValueError, match="variable degree"):
            variable_update(np.array([0.1, 0.2, 0.3, 0.4]), d_v, ch)


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
    # a vector that is not a law gave one that is not either: a check
    # output of mass 32, a variable output of mass 0.5
    with pytest.raises(ValueError, match="sum to 1"):
        check_update([1, 1, 0, 0], 6, SumsetSizeModel("exact"), f, 2)
    with pytest.raises(ValueError, match="sum to 1"):
        variable_update(np.zeros(4), 3, ch)
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


@pytest.mark.parametrize(
    "M, lam, rho, entries",
    [
        (3, {2: 0.25, 3: 0.75}, {4: 0.5, 6: 0.5}, (10 + 21) * 12),
        (3, {3: 0.4, 5: 0.6}, {4: 0.5, 6: 0.5}, (10 + 21) * 12),
        (8, {3: 1.0}, {4: 1.0}, 120 * 72),
    ],
    ids=["2-3", "3-5", "unfolded"],
)
def test_mixture_iterations_match_float_reference(M, lam, rho, entries, monkeypatch):
    # two-degree mixtures on both sides at q=16: two full iterations of
    # run against the ordered-tuple halves mixed by hand; the 3-5 mixture
    # has a gap between its variable degrees.  run folds the size chain
    # into the check tables while they hold at most 2**12 entries (T *
    # M*(M+1) summed over the check degrees), so the mixtures take the
    # folded path and regular (3,4) at M=8 keeps the chain product
    import pecldpc.density_evolution as de_mod

    folded = []
    build = de_mod._folded_check
    monkeypatch.setattr(de_mod, "_folded_check", lambda *a: folded.append(a) or build(*a))
    folds = entries <= 2**12
    assert sum(math.comb(M + d - 2, d - 1) for d in rho) * M * (M + 1) == entries
    assert de_mod._folds(M, rho) is folds
    f, eps = GF(16), 0.6
    model = SumsetSizeModel("balls")
    ch = PartialErasureChannel(f, M, eps)
    cfg = DeConfig(ch, DegreeDistribution(lam, rho), model, max_iters=2)
    monkeypatch.setattr(de_mod, "CONVERGENCE_TOL", 0.0)
    monkeypatch.setattr(de_mod, "FIXED_POINT_TOL", 0.0)
    monkeypatch.setattr(de_mod, "_keeps_singletons", lambda *a: False)  # no basin stop
    got = [pe for _, pe in run(cfg).trajectory]
    # the folded tables are built, once per check degree, only when run folds
    assert len(folded) == (len(rho) if folds else 0)
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
    # an exact fixed point: the step is 0, so no certificate is tried
    assert not r.converged and r.stop_reason == "fixed_point"
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
    # q=5, M=5, d_c=6 folds the chain into the check table, so the
    # folded table is built from the leaky one
    assert de_mod._folds(5, [6])
    with pytest.warns(UserWarning, match="lost probability mass"):
        r = run(bec_cfg(5, 0.4))
    assert not r.mass_ok
    assert r.mass_drift == pytest.approx(1e-3, rel=1e-6)


def test_run_reports_variable_mass_drift(monkeypatch):
    # the variable half's mass is measured from the chain's entries, not
    # assumed: intersection laws that sum to 1.001 are reported too
    import pecldpc.density_evolution as de_mod

    law = de_mod.common_member_intersection_dist
    monkeypatch.setattr(de_mod, "common_member_intersection_dist", lambda *a: 1.001 * law(*a))
    de_mod._size_chain.cache_clear()
    try:
        with pytest.warns(UserWarning, match="lost probability mass"):
            r = run(bec_cfg(5, 0.4))
    finally:
        de_mod._size_chain.cache_clear()
    assert not r.mass_ok
    assert r.mass_drift == pytest.approx(1e-3, rel=1e-6)


def test_run_stop_reasons():
    assert run(bec_cfg(4, 0.0)).stop_reason == "converged"
    # below the BEC threshold every run converges, a proof at iteration 0
    r = run(bec_cfg(4, 0.3))
    assert r.converged and r.stop_reason == "basin" and r.iterations == 0
    # above the BEC threshold 0.4294 the failure probability settles:
    # a certificate proves it within a few iterations, and without the
    # certificate the step falls below FIXED_POINT_TOL
    r = run(bec_cfg(4, 0.6))
    assert not r.converged and r.stop_reason == "certified" and r.certifiable
    assert r.iterations < 10
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(de_mod, "CERTIFY_TOL", 0.0)
        r = run(bec_cfg(4, 0.6))
        assert not r.converged and r.stop_reason == "fixed_point"
        assert r.iterations < 2000
        r = run(bec_cfg(4, 0.6, max_iters=5))
    assert not r.converged and r.stop_reason == "max_iters"
    assert r.iterations == 5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(de_mod, "FIXED_POINT_TOL", 0.0)
        mp.setattr(de_mod, "CERTIFY_TOL", 0.0)
        r = run(bec_cfg(4, 0.6, max_iters=300))
    assert not r.converged and r.stop_reason == "max_iters"
    assert r.iterations == 300
    # a run that would converge, but needs more than the budget: just
    # below the (q=4, M=2) exact threshold 0.82098 its failure
    # probability stays above the basin for over 50 iterations
    ch = PartialErasureChannel(GF(4), 2, 0.82)
    cfg = DeConfig(ch, DegreeDistribution.regular(3, 6), SumsetSizeModel("exact"))
    r = run(cfg)
    assert r.converged and r.stop_reason == "basin" and r.iterations > 50
    r = run(replace(cfg, max_iters=10))
    assert not r.converged and r.stop_reason == "max_iters" and r.iterations == 10


# (q, M, model, eps, lambda, rho) -> (iterations, stop reason, sha256 of
# every failure probability's float.hex and the two); eps sit at or
# just above recorded thresholds, so the runs are long plateaus where a
# changed rounding in either half compounds
TRAJECTORY_PINS = [
    ((8, 4, "exact", 0.59857177734375, {3: 1.0}, {6: 1.0}),
     (1072, "basin", "5e7dc7627cf509c81c7b9879251a97c11ada252f8c7fb42d344d5e1a916ef5bd")),
    ((16, 4, "balls", 0.76507568359375, {3: 1.0}, {6: 1.0}),
     (351, "basin", "bd61600fec6b41aad49d759dbc0aebfb5b77f0764874e1448d04101fccbf841c")),
    ((4, 2, "union", 0.85089111328125 + 2**-14, {3: 1.0}, {6: 1.0}),
     (73, "certified", "32536b1171c6c6f3f8f1f6e80ae0bb1cdd414cfd11949ac1014de7999136479b")),
    ((8, 3, "union", 0.6, {2: 0.3, 3: 0.7}, {5: 0.4, 6: 0.6}),
     (6, "basin", "2438db7fdf58efa403eaf07407ad5cf79f6e18f01151c3de589d0bd97a86524a")),
    # above the threshold 0.5242, with tables too large to fold the chain
    ((16, 8, "bound-upper", 0.53, {3: 1.0}, {6: 1.0}),
     (21, "certified", "cf22cca8783c805fd04ba10867fccec75270fe42c470683c25942050cac29bf5")),
]


TRAJECTORY_IDS = ["q8-exact", "q16-balls", "q4-union", "q8-irregular", "q16-unfolded"]


@pytest.mark.parametrize("case, want", TRAJECTORY_PINS, ids=TRAJECTORY_IDS)
def test_run_trajectory_pinned(case, want):
    # thresholds only see each probe's converged flag; this pins every
    # float of the trajectory, bit for bit
    q, M, kind, eps, lam, rho = case
    ch = PartialErasureChannel(GF(q), M, eps)
    r = run(DeConfig(ch, DegreeDistribution(lam, rho), SumsetSizeModel(kind)))
    text = " ".join(pe.hex() for _, pe in r.trajectory) + f"|{r.iterations}|{r.stop_reason}"
    assert (r.iterations, r.stop_reason, hashlib.sha256(text.encode()).hexdigest()) == want
    assert r.mass_ok and r.monotone


@pytest.mark.parametrize("case", [c for c, _ in TRAJECTORY_PINS], ids=TRAJECTORY_IDS)
def test_failure_probability_monotone_in_eps(case, monkeypatch):
    # the bisection's premise, proven wherever the tables pass the order
    # check: eps1 < eps2 gives pe_l(eps1) <= pe_l(eps2) at every l.  The
    # stop rules are off, so each run iterates until max_iters, or until
    # its failure probability rounds below 0 (the converged stop at
    # CONVERGENCE_TOL = 0); the prefix both runs reach is compared.  The
    # slack is ORDER_SLACK: the tables are ordered up to it, their CDFs'
    # rounding, and pe = 1 - z_1 rounds as a CDF entry does: the largest
    # excess here is 2**-52, at q=8 (exact), where a run's pe rounds to
    # -2**-52 and the run below it holds 0.0
    for name in ("CONVERGENCE_TOL", "FIXED_POINT_TOL", "CERTIFY_TOL"):
        monkeypatch.setattr(de_mod, name, 0.0)
    q, M, kind, eps, lam, rho = case
    field, deg, model = GF(q), DegreeDistribution(lam, rho), SumsetSizeModel(kind)
    rng = np.random.default_rng(27)
    # pairs anywhere in [0, 1], and pairs near the pinned eps, which sits
    # at a threshold, where the trajectories run long plateaus
    pairs = [sorted(rng.uniform(0.0, 1.0, 2)) for _ in range(3)]
    pairs += [sorted(eps + rng.uniform(-0.01, 0.01, 2)) for _ in range(3)]
    for pair in pairs:
        runs = [
            run(DeConfig(PartialErasureChannel(field, M, e), deg, model, max_iters=150))
            for e in pair
        ]
        assert all(r.certifiable for r in runs)
        for (it, low), (_, high) in zip(runs[0].trajectory, runs[1].trajectory):
            assert low <= high + de_mod.ORDER_SLACK, (pair, it, low, high)


def test_bec_reduction_termwise(monkeypatch):
    monkeypatch.setattr(de_mod, "CONVERGENCE_TOL", 0.0)
    monkeypatch.setattr(de_mod, "FIXED_POINT_TOL", 0.0)
    monkeypatch.setattr(de_mod, "_keeps_singletons", lambda *a: False)  # no basin stop
    r = run(bec_cfg(2, 0.41, max_iters=200))
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


def test_irregular_mixture_matches_hand_mix(monkeypatch):
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
    monkeypatch.setattr(de_mod, "CONVERGENCE_TOL", 0.0)
    monkeypatch.setattr(de_mod, "FIXED_POINT_TOL", 0.0)
    r = run(DeConfig(ch, deg, model, max_iters=1))
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
def test_run_matches_exact_rational_oracle(q, ensemble, monkeypatch):
    # bounds the float path's drift: five iterations with renormalisation
    # against exact rational density evolution over ordered size tuples
    lam, rho = ORACLE_ENSEMBLES[ensemble]
    M, eps = 2, Fraction(1, 2)
    deg = DegreeDistribution(*({d: float(f) for d, f in c.items()} for c in (lam, rho)))
    ch = PartialErasureChannel(GF(q), M, float(eps))
    monkeypatch.setattr(de_mod, "CONVERGENCE_TOL", 0.0)
    monkeypatch.setattr(de_mod, "FIXED_POINT_TOL", 0.0)
    monkeypatch.setattr(de_mod, "_keeps_singletons", lambda *a: False)  # no basin stop
    got = [pe for _, pe in run(DeConfig(ch, deg, SumsetSizeModel("exact"), max_iters=5)).trajectory]
    want = exact_de_trajectory(GF(q), M, eps, lam, rho, 5)
    assert len(got) == len(want) == 6
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_size_multiset_cap():
    import pecldpc.density_evolution as de_mod

    # the variable half enumerates no multisets: d_v = 4 at q = 256 is a
    # law on sizes 1..M
    ch = PartialErasureChannel(GF(256), 2, 0.5)
    z = variable_update(np.full(256, 1 / 256), 4, ch)
    assert not z[2:].any() and z.sum() == pytest.approx(1.0, abs=1e-12)
    # the check half is refused from its count, C(M + d_c - 2, d_c - 1)
    tuples, draws, _ = de_mod._weight_tables(4, 5)
    assert len(tuples) == draws.shape[1] == math.comb(8, 5)
    with pytest.raises(ValueError, match="size multisets"):
        check_update(np.full(64, 1 / 64), 30, SumsetSizeModel("union"), GF(64), 64)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_size_chain_matches_oracle(q):
    # every H_s entry against brute enumeration of sets holding 0, and
    # each row's mass entry against the float sum of that row
    import pecldpc.density_evolution as de_mod

    for M in range(1, q + 1):
        chain = de_mod._size_chain(q, M)
        assert chain.shape == (q, M * (M + 1))
        for s in range(1, q + 1):
            for i in range(1, M + 1):
                law = brute_common_member_dist((i, s), q)
                row = chain[s - 1, (i - 1) * (M + 1) :][: M + 1]
                for j in range(1, M + 1):
                    want = float(law[j]) if j < len(law) else 0.0
                    assert row[j - 1] == want, (M, s, i, j)
                assert row[M] == row[:M].sum(), (M, s, i)


@pytest.mark.parametrize("q, M", [(4, 1), (4, 4), (9, 3), (16, 5), (32, 32)])
def test_size_chain_meets_each_pair_once(q, M, monkeypatch):
    # the law of (i, s) is the law of (s, i), so a cold build reads each
    # unordered size pair once: q*M pairs less the M(M-1)/2 repeats
    law = de_mod.common_member_intersection_dist
    calls = []
    monkeypatch.setattr(
        de_mod, "common_member_intersection_dist", lambda *a: calls.append(a) or law(*a)
    )
    de_mod._size_chain.__wrapped__(q, M)
    assert len(calls) == q * M - M * (M - 1) // 2
    assert len({tuple(sorted(sizes)) for sizes, _ in calls}) == len(calls)


def test_de_matrices_built_once_and_read_only():
    import pecldpc.density_evolution as de_mod
    from pecldpc import budget

    f, model = GF(4), SumsetSizeModel("exact")
    tuples, counts, multinom = de_mod._weight_tables(2, 5)
    assert isinstance(tuples, tuple)
    # the tables are built once per work budget, and each budget builds
    # its own
    with budget.scope():
        check = budget.table(de_mod._check_matrices, f, 2, 6, model)
        chain = budget.table(de_mod._size_chain, 4, 2)
        assert budget.table(de_mod._check_matrices, f, 2, 6, model) is check
        assert budget.table(de_mod._size_chain, 4, 2) is chain
        assert budget.table(de_mod._size_chain, 4, 3) is not chain
        # the memo keys on the model's value: an equal model shares the
        # check matrices, another kind gets its own
        assert budget.table(de_mod._check_matrices, f, 2, 6, SumsetSizeModel("exact")) is check
        assert budget.table(de_mod._check_matrices, f, 2, 6, SumsetSizeModel("union")) is not check
    assert budget.table(de_mod._check_matrices, f, 2, 6, model) is not check
    for arr in (counts, multinom, *check, chain):
        with pytest.raises(ValueError):
            arr[0] = 0
    # the folded check tables likewise, per field, M, degree and model
    # value: each row is its check matrix row times the size chain, the
    # draws are the check matrices' own, and the table is read-only
    with budget.scope():
        draws, folded = budget.table(de_mod._folded_check, f, 2, 6, model)
        for other in [
            (f, 2, 6, SumsetSizeModel("union")), (f, 2, 5, model), (f, 3, 6, model),
            (GF(5), 2, 6, model),
        ]:
            assert budget.table(de_mod._folded_check, *other)[1] is not folded
        assert budget.table(de_mod._folded_check, f, 2, 6, SumsetSizeModel("exact"))[1] is folded
    assert draws is check[0]
    mat = check[1]
    assert folded.shape == (mat.shape[0], 2 * 3)
    np.testing.assert_allclose(folded, mat @ chain, rtol=1e-15, atol=0)
    with pytest.raises(ValueError):
        folded[0] = 0
    # the public updates hand out fresh arrays
    w = check_update(np.array([0.5, 0.5, 0, 0]), 6, model, f, 2)
    w[0] = 0.0
    assert check_update(np.array([0.5, 0.5, 0, 0]), 6, model, f, 2)[0] > 0.0


def multiset_halves_digest() -> str:
    """The sha256 of the float.hex of every output of the public halves
    on ``test_multiset_equals_ordered``'s inputs."""
    out = []
    for q, M, d in [(4, 2, 4), (4, 3, 3), (5, 4, 3), (3, 2, 4)]:
        f, rng = GF(q), np.random.default_rng(q * 10 + M)
        ch = PartialErasureChannel(f, M, 0.55)
        for _ in range(5):
            z = np.zeros(q)
            z[:M] = rng.random(M)
            z /= z.sum()
            out += check_update(z, d, SumsetSizeModel("exact"), f, M).tolist()
            w = rng.random(q)
            w /= w.sum()
            out += variable_update(w, d, ch).tolist()
    return hashlib.sha256(" ".join(x.hex() for x in out).encode()).hexdigest()


def test_public_halves_pinned():
    # recorded while each half was a plain function of its input, before
    # both became factories of the closures that run evaluates F with
    assert multiset_halves_digest() == (
        "9cc8b8145b915edfb193f5ff1b87cef1853b11bfc418225fd7a791ac88200eed"
    )


# (q, M, model) of two (3,6) searches: the check table of d_c = 6 at M=3
# holds 21 laws and folds the size chain in; at M=6 it holds 252, too
# many to fold
OPERATOR_SEARCHES = {"folded": (4, 3, "exact"), "unfolded": (8, 6, "union")}


def counting_builders(monkeypatch) -> dict:
    """Every call of the operator and of each table and check under it,
    by name, from here on: the arguments of each call."""
    calls = {}
    for name in ("_operator", "_check_matrices", "_folded_check", "_chain", "_chain_ordered",
                 "_check_ordered", "_keeps_singletons"):
        build, calls[name] = getattr(de_mod, name), []
        monkeypatch.setattr(
            de_mod, name, lambda *a, build=build, seen=calls[name]: seen.append(a) or build(*a)
        )
    return calls


@pytest.mark.parametrize("path", OPERATOR_SEARCHES)
def test_search_builds_the_operator_once(path, monkeypatch):
    # fifteen probes, one operator, and each table and check under it
    # built once; the unfolded path reads the size chain itself
    q, M, kind = OPERATOR_SEARCHES[path]
    assert de_mod._folds(M, [6]) is (path == "folded")
    calls = counting_builders(monkeypatch)
    probes = []
    real_run = de_mod.run
    monkeypatch.setattr(de_mod, "run", lambda cfg, **kw: probes.append(cfg) or real_run(cfg, **kw))
    ch = PartialErasureChannel(GF(q), M, 0.0)
    threshold_search(DeConfig(ch, DegreeDistribution.regular(3, 6), SumsetSizeModel(kind)))
    assert len(probes) == 15
    built = {name: len(seen) for name, seen in calls.items()}
    assert built == {
        "_operator": 1, "_check_matrices": 1, "_folded_check": int(path == "folded"), "_chain": 1,
        "_chain_ordered": 1, "_check_ordered": 1, "_keeps_singletons": 1,
    }
    assert calls["_operator"] == [(GF(q), M, ((3, 1.0),), ((6, 1.0),), SumsetSizeModel(kind))]


def test_operator_shared_within_a_budget(monkeypatch):
    from pecldpc import budget

    f, model = GF(4), SumsetSizeModel("exact")
    lam, rho = ((2, 0.25), (3, 0.75)), ((4, 0.5), (6, 0.5))
    with budget.scope():
        op = budget.table(de_mod._operator, f, 2, lam, rho, model)
        assert budget.table(de_mod._operator, f, 2, lam, rho, SumsetSizeModel("exact")) is op
        for other in (
            (f, 3, lam, rho, model),
            (f, 2, lam, rho, SumsetSizeModel("union")),
            (f, 2, ((3, 1.0),), rho, model),
            (f, 2, lam, ((6, 1.0),), model),
        ):
            assert budget.table(de_mod._operator, *other) is not op
    assert budget.table(de_mod._operator, f, 2, lam, rho, model) is not op
    # runs key it on the degree fractions in ascending degree: equal
    # distributions share one, however their fractions were listed
    calls = counting_builders(monkeypatch)
    ch = PartialErasureChannel(f, 2, 0.7)
    with budget.scope():
        for degrees in (
            DegreeDistribution({2: 0.25, 3: 0.75}, {4: 0.5, 6: 0.5}),
            DegreeDistribution({3: 0.75, 2: 0.25}, {6: 0.5, 4: 0.5}),
        ):
            run(DeConfig(ch, degrees, model))
    assert calls["_operator"] == [(f, 2, lam, rho, model)]
    # a new budget builds its own
    run(DeConfig(ch, DegreeDistribution({2: 0.25, 3: 0.75}, {4: 0.5, 6: 0.5}), model))
    assert len(calls["_operator"]) == 2


@pytest.mark.parametrize("path", OPERATOR_SEARCHES)
def test_operator_is_read_only(path):
    from pecldpc import budget

    q, M, kind = OPERATOR_SEARCHES[path]
    with budget.scope():
        price, checks, chain, certifiable, basin = budget.table(
            de_mod._operator, GF(q), M, ((3, 1.0),), ((6, 1.0),), SumsetSizeModel(kind)
        )
    assert price == de_mod._iteration_cells(q, M, [6], [3])
    assert certifiable and basin is not None and (chain is None) is (path == "folded")
    arrays = [*checks[0], *basin] + ([] if chain is None else [chain])
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("path", OPERATOR_SEARCHES)
def test_probe_alone_matches_probe_in_a_search(path, monkeypatch):
    # a search carries nothing from probe to probe but its operator and
    # the probe above: each probe run again on its own, in a budget that
    # holds the operator (a fresh one for the first probe), gives the same
    # trajectory, stop reason and tries, and charges the same cells
    from pecldpc import budget

    real_run, probes = de_mod.run, []

    def recording_run(cfg, **kw):
        left = budget.current().left
        r = real_run(cfg, **kw)
        probes.append((cfg, kw, r, left - budget.current().left))
        return r

    monkeypatch.setattr(de_mod, "run", recording_run)
    q, M, kind = OPERATOR_SEARCHES[path]
    ch = PartialErasureChannel(GF(q), M, 0.0)
    threshold_search(DeConfig(ch, DegreeDistribution.regular(3, 6), SumsetSizeModel(kind)))
    assert sum(r.tries for _, _, r, _ in probes) > 0
    for n, (cfg, kw, r, cells) in enumerate(probes):
        with budget.scope() as spend:
            if n:
                real_run(probes[0][0])
            left = spend.left
            alone = real_run(cfg, **kw)
            assert left - spend.left == cells, n
        assert [pe.hex() for _, pe in alone.trajectory] == [pe.hex() for _, pe in r.trajectory]
        assert (alone.stop_reason, alone.tries) == (r.stop_reason, r.tries), n


@pytest.mark.parametrize("kind", ["balls", "union"])
def test_check_tables_hold_no_subnormals(kind):
    # the coverage walks' tails underflow into subnormal floats, which
    # slow every product over a table: the (16, M=8, d_c=5) balls table
    # held 92 of them (union 13).  Entries below the least normal float
    # are zeroed, and every other entry is its law's times its multinomial
    from pecldpc import budget

    f, model, tiny = GF(16), SumsetSizeModel(kind), np.finfo(float).tiny
    tuples, _, multinom = de_mod._weight_tables(8, 4)
    with budget.scope():
        mat = de_mod._check_matrices(f, 8, 5, model)[1]
        laws = np.stack([model.distribution(t, f) for t in tuples])
    assert ((laws > 0) & (laws < tiny)).any()
    assert not ((mat > 0) & (mat < tiny)).any()
    np.testing.assert_array_equal(mat, multinom[:, None] * np.where(laws < tiny, 0.0, laws))


# ---------------------------------------------------------
# Stochastic order and the divergence certificate
# ---------------------------------------------------------
def test_stochastic_order_matches_oracle():
    # dyadic laws, so the float CDFs are exact and the two must agree
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5, 8):
        for margin in (0.0, 1 / 128, -1 / 128):
            for _ in range(60):
                a, b = (rng.integers(0, 5, (3, n)) / 64 for _ in range(2))
                if rng.random() < 0.5:  # nearly ordered pairs, ties among them
                    b = np.maximum(a - rng.integers(0, 2, (3, n)) / 64, 0)
                want = all(brute_stochastically_le(x, y, margin) for x, y in zip(a, b))
                assert de_mod.stochastically_le(a, b, margin) is want
                assert de_mod.stochastically_le(a[0], b[0], margin) is (
                    brute_stochastically_le(a[0], b[0], margin)
                )


@pytest.mark.parametrize("M, d_c", [(2, 2), (2, 6), (3, 4), (4, 6), (5, 3), (3, 8)])
def test_check_order_compares_every_raise(M, d_c, monkeypatch):
    # with multiset t's law a point mass at t's own row index, each pair
    # of laws the order check compares names its two multisets: every
    # raise of one draw by one is compared, and nothing else
    tuples, draws, multinom = de_mod._weight_tables(M, d_c - 1)
    eye = multinom[:, None] * np.eye(len(tuples))
    monkeypatch.setattr(de_mod, "_check_matrices", lambda *a: (draws, eye))
    seen, order = [], de_mod.stochastically_le

    def recording(a, b, margin=0.0):
        seen.extend(zip(a.argmax(axis=1).tolist(), b.argmax(axis=1).tolist()))
        return order(a, b, margin)

    monkeypatch.setattr(de_mod, "stochastically_le", recording)
    assert de_mod._check_ordered(GF(8), M, d_c, SumsetSizeModel("union"))
    assert sorted((tuples[i], tuples[j]) for i, j in seen) == multiset_raises(M, d_c - 1)


def test_unordered_tables_turn_certification_off(monkeypatch):
    # one check law moved 1e-3 toward size 1 is below a law it must lie
    # above; a size-chain law likewise.  Either turns the certificate off,
    # and the run stops as it does without one
    ch = PartialErasureChannel(GF(4), 2, 0.9)
    cfg = DeConfig(ch, DegreeDistribution.regular(3, 6), SumsetSizeModel("exact"))
    r = run(cfg)
    assert r.stop_reason == "certified" and r.certifiable
    built, chain = de_mod._check_matrices, de_mod._size_chain

    def lowered_check(*args):
        draws, mat = built(*args)
        mat = mat.copy()
        mat[-1] += mat[-1].sum() * 1e-3 * (np.eye(4)[0] - np.eye(4)[3])
        return draws, mat

    def lowered_chain(q, M):
        out = chain(q, M).copy()
        out[0, :2] += [-1e-3, 1e-3]  # H_{1,1}: mass from size 1 to 2
        return out

    for name, lowered in (("_check_matrices", lowered_check), ("_size_chain", lowered_chain)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(de_mod, name, lowered)
            r = run(cfg)
            mp.setattr(de_mod, "CERTIFY_TOL", 0.0)
            plain = run(cfg)
        assert not r.certifiable and r.stop_reason in ("fixed_point", "max_iters"), name
        assert (r.trajectory, r.stop_reason) == (plain.trajectory, plain.stop_reason)


def monte_carlo_cfg(monkeypatch, eps) -> DeConfig:
    """A (3,6) run at GF(8), M=4 whose exact law is refused on every
    multiset with three operands above size 1: the seeded Monte Carlo
    laws that stand in are noisy enough to break the order."""
    import pecldpc.sumset_models as ss

    exact = ss.exact_dist

    def refusing(sizes, field):
        if sum(s > 1 for s in sizes) >= 3:
            raise pecldpc.EnumerationBudgetError("refused for the test")
        return exact(sizes, field)

    monkeypatch.setattr(ss, "exact_dist", refusing)
    model = SumsetSizeModel("exact", mc_samples=2000, mc_seed=1)
    ch = PartialErasureChannel(GF(8), 4, eps)
    return DeConfig(ch, DegreeDistribution.regular(3, 6), model)


def test_monte_carlo_tables_are_not_certified(monkeypatch):
    # the run is left to the other stop rules
    r = run(monte_carlo_cfg(monkeypatch, 0.95))
    assert not r.certifiable and r.stop_reason == "fixed_point"


def test_certificate_tries_are_charged(monkeypatch):
    # each F(y) the certificate evaluates costs one iteration's cells
    from pecldpc import budget

    tries, below = [], de_mod._below
    monkeypatch.setattr(de_mod, "_below", lambda *a: tries.append(a) or below(*a))
    cfg = bec_cfg(4, 0.6)
    price = de_mod._iteration_cells(4, 4, cfg.degrees.rho_coeffs, cfg.degrees.lambda_coeffs)
    with budget.scope() as spend:
        run(cfg)  # builds the tables
        tries.clear()
        left = spend.left
        r = run(cfg)
        assert r.stop_reason == "certified" and tries
        assert left - spend.left == (r.iterations + len(tries)) * price


@pytest.mark.parametrize("M", range(2, 10))
def test_below_matches_numpy_formula(M):
    # seeded iterate triples: converging ones (steps shrinking by r < 1),
    # some far enough along d that the CDF clips at 1, and growing ones,
    # which take the None branch; y must equal the numpy formula's to
    # the last bit
    rng = np.random.default_rng(M)
    seen = {"none": 0, "negative d": 0, "clipped": 0, "y": 0}
    for _ in range(400):
        limit = rng.dirichlet(np.ones(M))
        step = rng.normal(size=M) * 10.0 ** rng.uniform(-12, 0)
        r = rng.choice([rng.uniform(0.0, 1.0), rng.uniform(0.9, 0.999), rng.uniform(1.0, 1.5)])
        older, old, z = (np.abs(limit + step * r**k) for k in range(3))
        got, want = de_mod._below(older, old, z, M), numpy_below(older, old, z, M)
        if want is None:
            assert got is None
            seen["none"] += 1
            continue
        assert [x.hex() for x in got] == [x.hex() for x in want]
        d = np.cumsum(z[: M - 1]) - np.cumsum(old[: M - 1])
        seen["y"] += 1
        seen["negative d"] += bool((d < 0).any())
        seen["clipped"] += got[-1] == 0.0
    assert all(seen.values()), seen


def test_certificate_order_test_matches_oracle(monkeypatch):
    # the certificate's float-loop order test against exact rationals
    # (dyadic laws and margins, so the float CDFs are exact) and against
    # the tables' numpy order check on any floats
    rng = np.random.default_rng(24)
    for M in range(2, 10):
        for margin in (de_mod.CERTIFY_MARGIN, 0.0, 1 / 128, -1 / 128):
            monkeypatch.setattr(de_mod, "CERTIFY_MARGIN", margin)
            for _ in range(40):
                y, fy = (rng.integers(0, 5, M) / 64 for _ in range(2))
                if rng.random() < 0.5:  # nearly ordered pairs, ties among them
                    fy = np.maximum(y - rng.integers(0, 2, M) / 64, 0)
                got = de_mod._rises(y.tolist(), fy.tolist(), M)
                assert got is brute_stochastically_le(y[: M - 1], fy[: M - 1], margin)
                y, fy = rng.dirichlet(np.ones(M)), rng.dirichlet(np.ones(M))
                assert de_mod._rises(y.tolist(), fy.tolist(), M) is (
                    de_mod.stochastically_le(y[: M - 1], fy[: M - 1], margin)
                )


def random_ordered_pair(rng, n: int, support: int):
    """Laws z1 <=st z2 over n sizes, both on the first ``support``."""
    cdf2 = np.sort(rng.random(support - 1))
    cdf1 = np.maximum.accumulate(cdf2 + rng.random(support - 1) * (1 - cdf2))
    z1, z2 = (np.zeros(n) for _ in range(2))
    z1[:support] = np.diff(cdf1, prepend=0.0, append=1.0)
    z2[:support] = np.diff(cdf2, prepend=0.0, append=1.0)
    return z1, z2


@pytest.mark.parametrize("q, M", [(4, 2), (4, 3), (8, 3), (9, 3)])
def test_updates_keep_stochastic_order(q, M):
    # the monotonicity the certificate rests on, through the ordered-
    # tuple float references, which form no multiset and no size chain
    f, rng = GF(q), np.random.default_rng([q, M, 23])
    ch = PartialErasureChannel(f, M, 0.7)
    for kind in MODEL_KINDS:
        model = SumsetSizeModel(kind)
        for d_c in (3, 4):
            z1, z2 = random_ordered_pair(rng, q, M)
            w1 = ordered_check_update(z1, d_c, model, f, M)
            w2 = ordered_check_update(z2, d_c, model, f, M)
            assert brute_stochastically_le(w1, w2, -1e-14), (kind, d_c)
    for d_v in (2, 3):
        w1, w2 = random_ordered_pair(rng, q, q)
        z1, z2 = (ordered_variable_update(w, d_v, ch) for w in (w1, w2))
        assert brute_stochastically_le(z1, z2, -1e-14), d_v


@pytest.mark.parametrize("q, M", [(4, 2), (4, 3), (4, 4), (8, 2), (8, 3), (8, 4), (9, 3)])
def test_threshold_order_proven_on_exact_tables(q, M):
    # de-sweep's exact (3,6) check tables pass the order check, and on
    # every multiset bound-lower <=st exact <=st bound-upper; by the
    # monotone map, th(bound-upper) <= th(exact) <= th(bound-lower)
    f = GF(q)
    tuples = de_mod._weight_tables(M, 5)[0]
    models = [SumsetSizeModel(k) for k in ("bound-lower", "exact", "bound-upper")]
    for model in models:
        assert de_mod._check_ordered(f, M, 6, model)
    for t in tuples:
        low, exact, up = (m.distribution(t, f) for m in models)
        assert brute_stochastically_le(low, exact, -de_mod.ORDER_SLACK), t
        assert brute_stochastically_le(exact, up, -de_mod.ORDER_SLACK), t


# ---------------------------------------------------------
# The basin: convergence proven through the BEC map
# ---------------------------------------------------------
BASIN_ENSEMBLES = {
    "3-6": ({3: 1.0}, {6: 1.0}),
    "4-8": ({4: 1.0}, {8: 1.0}),
    "irregular": ({2: 0.3, 3: 0.7}, {5: 0.4, 6: 0.6}),
}


def test_failure_probability_below_bec_map(monkeypatch):
    # a check output is a singleton when all its inputs are, and a
    # variable output when the channel is clean or any input is one, so
    # pe_{l+1} <= eps lambda(1 - rho(1 - pe_l)) on every iteration: of the
    # pinned runs and of every probe of the q=4 threshold searches.  The
    # basin stop is off, so the converging runs go on to CONVERGENCE_TOL;
    # the parent's largest excess over de-sweep's probes was 2.5e-16
    monkeypatch.setattr(de_mod, "_keeps_singletons", lambda *a: False)
    runs = []
    for q, M, kind, eps, lam, rho in (c for c, _ in TRAJECTORY_PINS):
        cfg = DeConfig(PartialErasureChannel(GF(q), M, eps), DegreeDistribution(lam, rho),
                       SumsetSizeModel(kind))
        runs.append((cfg, run(cfg)))
    real_run = de_mod.run
    monkeypatch.setattr(
        de_mod, "run", lambda cfg, **kw: runs.append((cfg, real_run(cfg, **kw))) or runs[-1][1]
    )
    deg = DegreeDistribution.regular(3, 6)
    for M, kind in Q4_GRID_THRESHOLDS:
        cfg = DeConfig(PartialErasureChannel(GF(4), M, 0.0), deg, SumsetSizeModel(kind))
        de_mod.threshold_search(cfg, tol_eps=1e-4, check_monotone=True)
    assert len(runs) > 200
    for cfg, r in runs:
        eps, lam, rho = cfg.channel.epsilon, cfg.degrees.lambda_coeffs, cfg.degrees.rho_coeffs
        pes = [pe for _, pe in r.trajectory]
        for it, (pe, nxt) in enumerate(zip(pes, pes[1:])):
            assert nxt <= bec_map(eps, lam, rho, pe) + 2.0**-50, (eps, it, pe, nxt)


@pytest.mark.parametrize("ensemble", BASIN_ENSEMBLES)
def test_basin_edge_below_least_fixed_point(ensemble):
    # the envelope lies below the BEC curve c(x) = x / lambda(1 - rho(1 -
    # x)): on 2**20 floats above 2**-10, and in exact rationals on a
    # geometric grid down to 2**-40.  So x_lo(eps) lies below the least
    # fixed point x*(eps) of the BEC map, found by a scan of the map
    lam, rho = BASIN_ENSEMBLES[ensemble]
    lefts, rising = de_mod._bec_envelope(tuple(sorted(lam.items())), tuple(sorted(rho.items())))
    lefts, floor = np.array(lefts), -np.array(rising)
    xs = np.arange(2**10, 2**20 + 1) / 2**20
    curve = xs / bec_map(1.0, lam, rho, xs)
    assert (floor[np.searchsorted(lefts, xs) - 1] <= curve).all()
    exact = [{d: Fraction(f) for d, f in c.items()} for c in (lam, rho)]
    for x in np.geomspace(2.0**-40, 2.0**-10, 200):
        env = floor[np.searchsorted(lefts, x) - 1]
        assert Fraction(env) <= Fraction(x) / bec_map(1, *exact, Fraction(x)), x
    # the envelope's minimum is the BEC threshold, to within 1e-5
    eps_bec = curve.min()
    assert eps_bec * (1 - 1e-5) < floor[-1] <= eps_bec
    # below it every probe ends at iteration 0; above it, x_lo < x*
    below = eps_bec * (1 - 1e-4)
    assert de_mod._basin_edge(lam, rho, below) == bec_least_fixed_point(below, lam, rho) == math.inf
    for eps in (eps_bec * (1 + 1e-4), 0.5, 0.6, 0.7):
        x_lo, x_star = de_mod._basin_edge(lam, rho, eps), bec_least_fixed_point(eps, lam, rho)
        assert 0.8 * x_star < x_lo < x_star, (eps, x_lo, x_star)


def test_bec_envelope_meets_a_stability_limited_minimum():
    # lambda = {2: 0.5, 60: 0.5}, rho = {6: 1}: the BEC curve takes its
    # least value at 0+, 1 / (lambda_2 rho'(1)) = 0.4, which the cells'
    # bound y / lambda(rho'(1) y) reaches; the envelope stays below the curve
    lam, rho = {2: 0.5, 60: 0.5}, {6: 1.0}
    lefts, rising = de_mod._bec_envelope(tuple(sorted(lam.items())), tuple(sorted(rho.items())))
    lefts, floor = np.array(lefts), -np.array(rising)
    assert 0.4 - 1e-6 < floor[-1] <= 0.4
    xs = np.arange(1, 2**20 + 1) / 2**20
    assert (floor[np.searchsorted(lefts, xs) - 1] <= xs / bec_map(1.0, lam, rho, xs)).all()
    assert de_mod._basin_edge(lam, rho, 0.4 * (1 - 1e-6)) == math.inf


def test_lost_singletons_turn_the_basin_off(monkeypatch):
    # a check law of all-singleton inputs, or a size-chain law of a
    # singleton, that moves 2**-40 of its mass off size 1 breaks the BEC
    # bound: the run converges by CONVERGENCE_TOL alone, past iteration 0
    cfg = bec_cfg(4, 0.3)
    r = run(cfg)
    assert r.stop_reason == "basin" and r.iterations == 0
    built, chain = de_mod._check_matrices, de_mod._size_chain

    def leaky_check(*args):
        draws, mat = built(*args)
        mat = mat.copy()
        mat[0, :2] += [-(2.0**-40), 2.0**-40]
        return draws, mat

    def leaky_chain(q, M):
        out = chain(q, M).copy()
        out[0, :2] += [-(2.0**-40), 2.0**-40]  # H_{1,1}
        return out

    for name, leaky in (("_check_matrices", leaky_check), ("_size_chain", leaky_chain)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(de_mod, name, leaky)
            r = run(cfg)
        assert r.stop_reason == "converged" and r.iterations > 5, name


def test_backoff_certifies_pinned_runs(monkeypatch):
    # with the gap capped at 4 the certificate is tried every fourth
    # iteration; the doubling gap tries less often and still certifies
    # each pinned certified run, on the same trajectory, at most
    # CERTIFY_MAX_GAP iterations later and with no more tries
    certified = record_certified(monkeypatch)
    for (q, M, kind, eps, lam, rho), (_, stop, _) in TRAJECTORY_PINS:
        if stop == "certified":
            ch = PartialErasureChannel(GF(q), M, eps)
            de_mod.run(DeConfig(ch, DegreeDistribution(lam, rho), SumsetSizeModel(kind)))
    for q, M, kind in PROBE_PINS:
        ch = PartialErasureChannel(GF(q), M, 0.0)
        cfg = DeConfig(ch, DegreeDistribution.regular(3, 6), SumsetSizeModel(kind))
        de_mod.threshold_search(cfg, tol_eps=1e-4)
    assert len(certified) > 10
    for cfg, kw in certified:
        r = run(cfg, **kw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(de_mod, "CERTIFY_MAX_GAP", 4)
            every_fourth = run(cfg, **kw)
        assert r.stop_reason == every_fourth.stop_reason == "certified"
        assert r.trajectory[: len(every_fourth.trajectory)] == every_fourth.trajectory
        assert r.iterations <= every_fourth.iterations + de_mod.CERTIFY_MAX_GAP
        assert r.tries <= every_fourth.tries


# ---------------------------------------------------------
# Threshold search
# ---------------------------------------------------------
def test_threshold_bec_anchor():
    th = threshold_search(bec_cfg(2, 0.0))
    assert abs(th - bec_threshold(3, 6)) < 2e-4
    assert abs(th - 0.4294) < 1e-3


def test_threshold_rejects_unusable_tolerance():
    # None and a string raised raw TypeErrors, True bisected at 1.0, and
    # a tolerance of 1 or more returned 0.0 after one probe
    for tol in (0.0, -1.0, 1e-300, float("nan"), None, "a", True, 1.0, 2.0, float("inf")):
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
    # criterion 7's chain beyond q=5; at q=16 the exact law is above the
    # union model's at M=3, so there the chain holds without exact, and
    # exact sits between the bounds it does keep
    kinds = ("bound-upper", "exact", "union", "balls", "bound-lower")
    order = tuple(k for k in kinds if q != 16 or k != "exact")
    deg = DegreeDistribution.regular(3, 6)
    ch = PartialErasureChannel(GF(q), M, 0.0)
    ths = {k: threshold_search(DeConfig(ch, deg, SumsetSizeModel(k))) for k in kinds}
    chain = [ths[k] for k in order]
    for a, b in zip(chain, chain[1:]):
        assert a <= b + 2e-4, (q, M, ths)
    if q == 16:
        assert ths["bound-upper"] <= ths["exact"] <= ths["balls"], (q, M, ths)
        # measured: union < exact (0.8818 < 0.8848) at M=3, exact <=
        # union (0.7418 <= 0.7502) at M=4
        if M == 3:
            assert ths["union"] < ths["exact"], ths
        else:
            assert ths["exact"] <= ths["union"], ths


# thresholds of `pecldpc threshold --q 4 --M 2,3,4 --dv 3 --dc 6` (the CLI
# defaults: tol 1e-4, 2000 iterations); a change to the DE arithmetic
# must keep them bit for bit
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


def record_certified(monkeypatch) -> list:
    """The (config, keywords) of every certified run from here on."""
    real_run, certified = de_mod.run, []

    def recording_run(cfg, **kw):
        r = real_run(cfg, **kw)
        if r.stop_reason == "certified":
            certified.append((cfg, kw))
        return r

    monkeypatch.setattr(de_mod, "run", recording_run)
    return certified


def assert_never_converge(certified):
    # each certified probe, run again without the certificate, ends
    # without converging: the certificate ended no converging run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(de_mod, "CERTIFY_TOL", 0.0)
        for cfg, kw in certified:
            r = run(cfg, **kw)
            assert r.stop_reason in ("fixed_point", "max_iters"), cfg


def test_threshold_q4_grid_pinned(monkeypatch):
    deg = DegreeDistribution.regular(3, 6)
    got = {}
    certified = record_certified(monkeypatch)
    for M, kind in Q4_GRID_THRESHOLDS:
        cfg = DeConfig(PartialErasureChannel(GF(4), M, 0.0), deg, SumsetSizeModel(kind))
        got[M, kind] = de_mod.threshold_search(cfg, tol_eps=1e-4, check_monotone=True).hex()
    assert got == Q4_GRID_THRESHOLDS
    assert len(certified) > 50
    assert_never_converge(certified)


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
    (16, 3, "exact"): "0x1.c508000000000p-1",
    (16, 3, "bound-lower"): "0x1.0000000000000p+0",
    (16, 3, "bound-upper"): "0x1.98f8000000000p-1",
    (16, 3, "balls"): "0x1.c8d0000000000p-1",
    (16, 3, "union"): "0x1.c380000000000p-1",
    (16, 4, "exact"): "0x1.7bd0000000000p-1",
    (16, 4, "bound-lower"): "0x1.0000000000000p+0",
    (16, 4, "bound-upper"): "0x1.5bf8000000000p-1",
    (16, 4, "balls"): "0x1.87b8000000000p-1",
    (16, 4, "union"): "0x1.8020000000000p-1",
}


def test_threshold_large_fields_pinned(monkeypatch):
    deg = DegreeDistribution.regular(3, 6)
    fields = {q: GF(q) for q in (8, 9, 16)}
    got = {}
    certified = record_certified(monkeypatch)
    for q, M, kind in LARGE_FIELD_THRESHOLDS:
        cfg = DeConfig(PartialErasureChannel(fields[q], M, 0.0), deg, SumsetSizeModel(kind))
        got[q, M, kind] = de_mod.threshold_search(cfg, tol_eps=1e-4, check_monotone=True).hex()
    assert got == LARGE_FIELD_THRESHOLDS
    assert len(certified) > 100
    assert_never_converge(certified)


# (q, M, model) -> sha256 over every probe of a (3,6) search with
# check_monotone=True, in probe order: its eps, every failure
# probability's float.hex, its iterations and its stop reason.  Both
# searches read coverage walks and end probes by the certificate, so a
# last-bit drift in a walk or a certificate try moves some probe.  Each
# search probes 1.0 and then its 14 bisection points, each point below
# 1.0 started from the latest probe above it that did not converge
PROBE_PINS = {
    (16, 4, "balls"): "52d24ddc4c1388fecc7084e17ac9c92cdcaf6c4a767b13fcae01470dff3456ec",
    (8, 3, "union"): "7eaa9b56536c1202c62c15c939078f9e270429a138cbe07f8aebc704cfa58ba6",
}
# the sha256 of the same probes' eps and stop reasons alone, as recorded
# while every probe still started from the channel's start law: the
# start from above moved no probe and no stop reason
PROBE_STOP_PINS = {
    (16, 4, "balls"): "b393776d469ad3b6d6be6a7badc03e232f56818e21869a32d4777003d777b7fc",
    (8, 3, "union"): "e96852ec0ef05c32cd9d61ba6abfdb31a7ca54ceb60f04e1424d49b11e6b4e17",
}


def probe_digest(q, M, kind, monkeypatch) -> tuple[str, str]:
    """The sha256 of the search's probes in full, and of their eps and
    stop reasons alone."""
    real_run, probes, stops = de_mod.run, [], []

    def recording_run(cfg, **kw):
        r = real_run(cfg, **kw)
        pes = " ".join(pe.hex() for _, pe in r.trajectory)
        probes.append(f"{cfg.channel.epsilon.hex()}:{pes}|{r.iterations}|{r.stop_reason}")
        stops.append(f"{cfg.channel.epsilon.hex()}:{r.stop_reason}")
        return r

    monkeypatch.setattr(de_mod, "run", recording_run)
    ch = PartialErasureChannel(GF(q), M, 0.0)
    cfg = DeConfig(ch, DegreeDistribution.regular(3, 6), SumsetSizeModel(kind))
    de_mod.threshold_search(cfg, tol_eps=1e-4, check_monotone=True)
    return tuple(hashlib.sha256("\n".join(v).encode()).hexdigest() for v in (probes, stops))


@pytest.mark.parametrize("key", list(PROBE_PINS), ids=["q16-balls", "q8-union"])
def test_threshold_probes_pinned(key, monkeypatch):
    assert probe_digest(*key, monkeypatch) == (PROBE_PINS[key], PROBE_STOP_PINS[key])


# ---------------------------------------------------------
# Probes started from above
# ---------------------------------------------------------
SANDWICH_SEARCHES = {
    "q4-grid": [(4, M, kind) for M, kind in Q4_GRID_THRESHOLDS],
    "large-fields": list(LARGE_FIELD_THRESHOLDS),
}


@pytest.mark.parametrize("searches", SANDWICH_SEARCHES)
def test_start_from_above_is_sandwiched(searches, monkeypatch):
    # a probe started from above lies below the same probe run cold from
    # the start law at every iteration, and never rises; every verdict the
    # cold run reaches by a stop rule other than the fixed-point heuristic
    # and max_iters is kept, and a converging probe converges no later
    real_run, warm = de_mod.run, []

    def recording_run(cfg, **kw):
        r = real_run(cfg, **kw)
        if kw.get("above") is not None:
            warm.append((cfg, r))
        return r

    monkeypatch.setattr(de_mod, "run", recording_run)
    fields = {q: GF(q) for q, _, _ in SANDWICH_SEARCHES[searches]}
    deg = DegreeDistribution.regular(3, 6)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "failure probability increased")
        for q, M, kind in SANDWICH_SEARCHES[searches]:
            cfg = DeConfig(PartialErasureChannel(fields[q], M, 0.0), deg, SumsetSizeModel(kind))
            de_mod.threshold_search(cfg, tol_eps=1e-4, check_monotone=True)
    assert len(warm) > 100
    for cfg, r in warm:
        cold = real_run(cfg)
        assert r.monotone, cfg
        for (k, pe), (_, cold_pe) in zip(r.trajectory, cold.trajectory):
            assert pe <= cold_pe + 2.0**-50, (cfg, k)
        if cold.stop_reason in ("basin", "converged", "certified"):
            assert r.converged == cold.converged, cfg
        if cold.converged:
            assert r.iterations <= cold.iterations, cfg


def test_run_from_above_refuses_what_cannot_bound_it(monkeypatch):
    # above must be a run that did not converge, on tables that pass the
    # order check, at a higher eps, on the same field, M, degrees and model
    deg = DegreeDistribution.regular(3, 6)

    def result(eps, q=4, M=3, kind="exact", degrees=deg):
        ch = PartialErasureChannel(GF(q), M, eps)
        return run(DeConfig(ch, degrees, SumsetSizeModel(kind)))

    cfg = result(0.8).config
    top = result(0.9)
    assert not top.converged and top.certifiable
    assert run(cfg, above=top).stop_reason == run(cfg).stop_reason == "certified"
    for above in (
        "a result",
        replace(top, config=None),
        result(0.3),  # converged
        replace(top, certifiable=False),
        result(0.8),  # equal eps
        result(0.7),  # lower eps
        result(1.0, q=5),
        result(1.0, M=2),
        result(1.0, degrees=DegreeDistribution.regular(4, 8)),
        result(1.0, kind="union"),
    ):
        with pytest.raises(ValueError, match="above"):
            run(cfg, above=above)
    # and a run whose own tables fail the order check is refused a start
    # from above
    built = de_mod._check_matrices

    def lowered_check(*args):
        draws, mat = built(*args)
        mat = mat.copy()
        mat[-1] += mat[-1].sum() * 1e-3 * (np.eye(4)[0] - np.eye(4)[3])
        return draws, mat

    monkeypatch.setattr(de_mod, "_check_matrices", lowered_check)
    with pytest.raises(ValueError, match="order check"):
        run(cfg, above=top)


def test_threshold_probes_each_epsilon_once(monkeypatch):
    import pecldpc.density_evolution as de_mod

    real_run, probed = de_mod.run, []

    def counting_run(cfg, **kw):
        probed.append(cfg.channel.epsilon)
        return real_run(cfg, **kw)

    monkeypatch.setattr(de_mod, "run", counting_run)
    th = de_mod.threshold_search(bec_cfg(2, 0.0), check_monotone=True)
    assert len(probed) == len(set(probed))
    # 1.0, then 14 bisection steps to within 1e-4: the monotonicity check
    # reads the first probe's order check and runs no probe of its own
    assert len(probed) == 1 + 14
    probed.clear()
    assert de_mod.threshold_search(bec_cfg(2, 0.0)) == th
    assert len(probed) == 1 + 14


def test_threshold_rejects_iteration_limits_below_one():
    # DeConfig refuses them; it took 2.5, True and NaN, and a search answered
    for max_iters in (0, -3, 2.5, True, float("nan")):
        with pytest.raises(ValueError, match="max_iters"):
            threshold_search(bec_cfg(4, 0.0, max_iters=max_iters))


def test_threshold_monotone_check_runs_clean():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        th = threshold_search(bec_cfg(2, 0.0), tol_eps=1e-3, check_monotone=True)
    assert 0.42 < th < 0.44


def test_threshold_warns_when_tables_fail_the_order_check(monkeypatch):
    # Monte Carlo check tables break the order, so the bisection's
    # monotonicity in eps is unproven: the search says so, once
    cfg = monte_carlo_cfg(monkeypatch, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        th = de_mod.threshold_search(cfg, tol_eps=0.2, check_monotone=True)
        unchecked = de_mod.threshold_search(cfg, tol_eps=0.2)
    assert th == unchecked
    assert [str(w.message) for w in caught] == [
        "convergence is not proven monotone in epsilon: the check tables fail the order "
        "check; the bisection threshold may be unreliable"
    ]


# calls that the work budget refuses or admits: exact laws (refused by
# their share of the budget), coverage walks (refused by the step that
# would pass it) and threshold searches (refused by the probe that would)
_BUDGET_CASES = """
import pecldpc
from pecldpc import GF, DeConfig, DegreeDistribution, PartialErasureChannel, SumsetSizeModel
from pecldpc import balls_dist, exact_dist, threshold_search, union_model_dist


def search(q, M, kind):
    cfg = DeConfig(PartialErasureChannel(GF(q), M, 0.0), DegreeDistribution.regular(3, 6),
                   SumsetSizeModel(kind))
    return threshold_search(cfg, check_monotone=True)


def outcomes():
    calls = [
        lambda: exact_dist((4, 4, 4), GF(16)).tolist(),
        lambda: exact_dist((2, 2), GF(5)).tolist(),
        lambda: union_model_dist((9, 9, 9, 9), GF(256)).tolist(),
        lambda: balls_dist((16, 16, 16, 16, 16), GF(64)).tolist(),
        lambda: search(4, 2, "exact"),
        lambda: search(8, 3, "union"),
        lambda: search(16, 4, "exact"),
        lambda: search(16, 8, "bound-upper"),
    ]
    out = []
    for call in calls:
        try:
            out.append(repr(call()))
        except (ValueError, pecldpc.EnumerationBudgetError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out
"""


def test_refusals_do_not_depend_on_caches(monkeypatch):
    # at a small budget the same inputs are refused, with the same
    # message, in a fresh process and in one whose caches (the orbit
    # steps, the intersection counts, the draw tables) are warm from the
    # same calls at the default budget; what is admitted stays admitted,
    # with the default budget's answer
    cells = 20_000_000
    cases = {}
    exec(_BUDGET_CASES, cases)
    default = cases["outcomes"]()
    assert not any("Error" in o for o in default), default
    src = Path(pecldpc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    script = _BUDGET_CASES + f"pecldpc.budget.CELLS = {cells}\nprint(*outcomes(), sep='\\n')\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fresh = proc.stdout.splitlines()
    monkeypatch.setattr(pecldpc.budget, "CELLS", cells)
    assert cases["outcomes"]() == fresh
    refused = [o.split(":")[0] for o in fresh if "Error" in o]
    assert sorted(refused) == ["EnumerationBudgetError"] * 2 + ["ValueError"], fresh
    # the (16, 8, bound-upper) search, 15 probes, fits the small budget
    assert fresh[-1] == repr(0.52423095703125), fresh
    assert [o for o in fresh if "Error" not in o] == [
        d for d, o in zip(default, fresh) if "Error" not in o
    ]
