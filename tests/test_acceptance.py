"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS/FAIL lines and timings.
"""

import functools
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

import numpy as np
import pytest

import pecldpc.density_evolution as de_mod
from pecldpc import (
    GF,
    DeConfig,
    DegreeDistribution,
    PartialErasureChannel,
    SumsetSizeModel,
    SymbolSet,
    build_regular,
    common_member_intersection_dist_exact,
    coverage_transition_matrix,
    ctv_message,
    decode,
    exact_dist_rational,
    intersection_counts,
    intersection_dist_exact,
    occupancy_dist,
    run,
    run_trials,
    sumset_bounds,
    threshold_search,
)
from pecldpc.cli import main as cli_main

from oracles import (
    bec_threshold,
    bec_trajectory,
    brute_common_member_dist,
    brute_ctv,
    brute_intersection_counts,
    brute_sumset_dist,
    gf_sumset,
    occupancy_exact,
    pinned_subsets,
    subsets_of_size,
)


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*a, **kw):
            start = time.time()
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"[acceptance] criterion {num:2d}: FAIL - {desc}")
                raise
            print(
                f"[acceptance] criterion {num:2d}: PASS - {desc}"
                f" ({time.time() - start:.1f}s)"
            )

        return inner

    return wrap


REGULAR_36 = DegreeDistribution.regular(3, 6)


def de_config(q, M, eps, model=None, **kw):
    ch = PartialErasureChannel(GF(q), M, eps)
    return DeConfig(ch, REGULAR_36, model or SumsetSizeModel("exact"), **kw)


# ---------------------------------------------------------------------------
@criterion(1, "capacity closed form: QEC line exact, (4,2,0.5) -> 0.75")
def test_criterion_01_capacity():
    for q in (2, 3, 4, 5, 8, 16):
        f = GF(q)
        for eps in np.linspace(0, 1, 21):
            ch = PartialErasureChannel(f, q, float(eps))
            assert abs(ch.capacity() - (1 - eps)) <= 1e-12
    assert abs(PartialErasureChannel(GF(4), 2, 0.5).capacity() - 0.75) <= 1e-12


# ---------------------------------------------------------------------------
@criterion(2, "M=q reduces to the scalar erasure recursion; threshold 0.4294")
def test_criterion_02_bec_reduction():
    for q in (2, 4, 5):
        cfg = de_config(q, q, 0.0, max_iters=200)
        # no early stop: every trajectory runs its 200 iterations
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(de_mod, "CONVERGENCE_TOL", 0.0)
            mp.setattr(de_mod, "FIXED_POINT_TOL", 0.0)
            mp.setattr(de_mod, "CERTIFY_TOL", 0.0)
            mp.setattr(de_mod, "_keeps_singletons", lambda *a: False)  # no basin stop
            for eps in (0.35, 0.4294, 0.5):
                r = run(replace(cfg, channel=cfg.channel.with_epsilon(eps)))
                oracle = bec_trajectory(eps, 3, 6, 200)
                assert len(r.trajectory) == 201
                for (_, got), want in zip(r.trajectory, oracle):
                    assert abs(got - want) <= 1e-12
        th = threshold_search(de_config(q, q, 0.0))
        assert abs(th - 0.4294) <= 1e-3
        assert abs(th - bec_threshold(3, 6)) <= 2e-4


# ---------------------------------------------------------------------------
@criterion(3, "I/T/Q equal exhaustive enumeration for q<=6, J<=3, sizes<=4")
def test_criterion_03_combinatorics_oracle():
    for q in range(2, 7):
        top = min(4, q)
        for j in (1, 2, 3):
            for sizes in combinations_with_replacement(range(1, top + 1), j):
                counts = intersection_counts(sizes, q)
                assert counts == brute_intersection_counts(sizes, q)
                assert sum(counts) == prod(comb(q, s) for s in sizes)
                total = sum(counts)
                t_dist = intersection_dist_exact(sizes, q)
                assert list(t_dist) == [Fraction(c, total) for c in counts]
                q_dist = common_member_intersection_dist_exact(sizes, q)
                assert list(q_dist) == brute_common_member_dist(sizes, q)


# ---------------------------------------------------------------------------
@criterion(4, "realized sumset sizes within [B_L, B_U]; full-coverage rule exact")
def test_criterion_04_bounds():
    from itertools import product as iproduct

    # the combinatorial grid restricted to fields that exist
    for q in (2, 3, 4, 5):
        f = GF(q)
        top = min(4, q)
        pools = {s: subsets_of_size(q, s) for s in range(1, top + 1)}
        for j in (1, 2, 3):
            for sizes in combinations_with_replacement(range(1, top + 1), j):
                b = sumset_bounds(sizes, f)
                all_full = True
                for combo in iproduct(*(pools[s] for s in sizes)):
                    acc = combo[0]
                    for nxt in combo[1:]:
                        acc = gf_sumset(f, acc, nxt)
                    size = len(acc)
                    assert b.lower <= size <= b.upper
                    if size != q:
                        all_full = False
                if j >= 2 and sizes[-1] + sizes[-2] > q:  # two operands cover the field
                    assert all_full


# ---------------------------------------------------------------------------
@criterion(5, "exact sumset law: (1/3, 0, 2/3) anchor; pinning-invariance exact")
def test_criterion_05_exact_pm():
    assert exact_dist_rational([2, 2], GF(4)) == (
        0,
        Fraction(1, 3),
        0,
        Fraction(2, 3),
    )
    for q in (2, 3, 4, 5):
        f = GF(q)
        top = min(3, q)
        for j in (1, 2, 3):
            for sizes in combinations_with_replacement(range(1, top + 1), j):
                pinned = brute_sumset_dist(sizes, f, pinned=True)
                assert list(exact_dist_rational(sizes, f)) == pinned


# ---------------------------------------------------------------------------
@criterion(6, "coverage chain: closed form, stochastic rows, occupancy law")
def test_criterion_06_markov_models():
    for q in range(2, 17):
        g1 = coverage_transition_matrix(1, q)
        for i in range(1, q + 1):
            assert abs(g1[i - 1, i - 1] - i / q) <= 1e-12
            if i < q:
                assert abs(g1[i - 1, i] - (1 - i / q)) <= 1e-12
        assert np.abs(g1.sum(axis=1) - 1.0).max() <= 1e-12
    for q in (2, 4, 5, 9, 16):
        for step in range(1, q + 1):
            g = coverage_transition_matrix(step, q)
            assert np.abs(g.sum(axis=1) - 1.0).max() <= 1e-12
            assert g[q - 1, q - 1] == 1.0
    for q in range(2, 6):
        for n_balls in range(1, 7):
            got = occupancy_dist(n_balls, q)
            want = np.array([float(p) for p in occupancy_exact(n_balls, q)])
            assert np.abs(got - want).max() <= 1e-12


# ---------------------------------------------------------------------------
@criterion(7, "threshold ordering across the five size models; M=q coincide")
def test_criterion_07_threshold_ordering():
    order = ("bound-upper", "exact", "union", "balls", "bound-lower")
    for q in (4, 5):
        for M in range(2, q + 1):
            ths = {}
            for kind in order:
                cfg = de_config(q, M, 0.0, model=SumsetSizeModel(kind))
                ths[kind] = threshold_search(cfg, tol_eps=1e-4)
            if M < q:
                chain = [ths[k] for k in order]
                for a, b in zip(chain, chain[1:]):
                    assert a <= b + 2e-4, (q, M, ths)
            else:
                vals = list(ths.values())
                assert max(vals) - min(vals) <= 2e-4, (q, M, ths)


# ---------------------------------------------------------------------------
@criterion(8, "finite-length success rates flip across the DE threshold")
def test_criterion_08_de_simulation_consistency():
    th = threshold_search(de_config(4, 2, 0.0))
    ch = PartialErasureChannel(GF(4), 2, 0.0)
    sub = run_trials(
        ch.with_epsilon(th - 0.05),
        n=10_000, d_v=3, d_c=6, trials=200, max_iters=200, seed=2718,
    )
    sup = run_trials(
        ch.with_epsilon(th + 0.05),
        n=10_000, d_v=3, d_c=6, trials=200, max_iters=200, seed=2718,
    )
    assert sub.success_rate >= 0.95, sub
    assert sup.success_rate <= 0.05, sup


# ---------------------------------------------------------------------------
@criterion(9, "worked check message {0,1,2,4}; invariants on 1000 traces")
def test_criterion_09_decoder_anchor():
    f = GF(5)
    incoming = [(SymbolSet(f, (0, 1)), 2), (SymbolSet(f, (0, 2, 3)), 4)]
    got = ctv_message(incoming, 3, f)
    assert frozenset(got) == {0, 1, 2, 4}
    assert frozenset(got) == brute_ctv(f, incoming, 3)

    rng = np.random.default_rng(31415)
    for _ in range(1000):
        q = int(rng.choice([2, 3, 4, 5]))
        f = GF(q)
        M = int(rng.integers(2, q + 1))
        n = int(rng.choice([6, 12, 18]))
        g = build_regular(n, 3, 6, f, rng)
        ch = PartialErasureChannel(f, M, float(rng.uniform(0, 1)))
        received = ch.transmit_zero_word(n, rng)
        res = decode(g, received, max_iters=25, record_messages=True)
        prev = None
        for ctv, vtc in res.message_history:
            if ctv is not None:
                assert all(int(m) & 1 for m in ctv)
            assert all(int(m) & 1 for m in vtc)
            if prev is not None:
                assert all(
                    int(new) | int(old) == int(old) for new, old in zip(vtc, prev)
                )
            prev = vtc
        assert all(0 in s for s in res.estimate)


# ---------------------------------------------------------------------------
@criterion(10, "CLI reruns with the same seed are byte-identical")
def test_criterion_10_cli_determinism(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("5 3 1\n0 0 2\n1 0 4\n2 0 3\n")
    received = tmp_path / "received.txt"
    received.write_text("0,1\n0,2,3\n0,1,2,3,4\n")
    cases = [
        ["capacity", "--q", "4", "--M", "2,3,4", "--eps-grid", "0:1:0.05"],
        [
            "threshold", "--q", "4", "--M", "4", "--dv", "3", "--dc", "6",
            "--model", "exact,union", "--tol", "1e-3",
        ],
        [
            "simulate", "--q", "4", "--M", "2", "--dv", "3", "--dc", "6",
            "--n", "120", "--eps-grid", "0.3:0.9:0.3", "--trials", "5",
            "--seed", "11",
        ],
        ["pm-table", "--q", "5", "--sizes", "2,2,3", "--seed", "4"],
        ["decode-trace", "--graph", str(graph), "--received", str(received)],
    ]
    for i, args in enumerate(cases):
        out_a = tmp_path / f"a{i}.csv"
        out_b = tmp_path / f"b{i}.csv"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes()
