"""Cross-checks that tie the fast engines to independent references."""

from dataclasses import replace

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
    TannerGraph,
    build_regular,
    decode,
    exact_dist,
    monte_carlo_dist,
    run,
)
from pecldpc.symbol_sets import SetPlanes

from oracles import gf_scale, gf_sumset, mask_elements


# ---------------------------------------------------------
# decode() vs a reference decoder on frozensets
# ---------------------------------------------------------
def reference_flood(graph, received, iters):
    """Flooding decode on frozensets, with the oracles' field sumsets and
    scalings and plain set intersections: no set arithmetic of the
    package.  Returns the per-iteration (ctv, vtc) mask lists and the
    final posterior masks."""
    f = graph.field
    edges = list(zip(graph.edge_var.tolist(), graph.edge_chk.tolist(),
                     graph.edge_label.tolist()))
    channel = [mask_elements(s.mask) for s in received]

    def masks(sets):
        return [sum(1 << x for x in s) for s in sets]

    def ctv_of(e, vtc):
        # the parity sum_e' h_e' x_e' = 0 solved for x_e: the sumset of
        # the other inputs scaled by -h_e', then by 1/h_e
        _, c, h = edges[e]
        acc = frozenset({0})
        for e2, (_, c2, h2) in enumerate(edges):
            if c2 == c and e2 != e:
                acc = gf_sumset(f, acc, gf_scale(f, vtc[e2], f.neg(h2)))
        return gf_scale(f, acc, f.inv(h))

    def meet(v, ctv, skip=None):
        out = channel[v]
        for e2, (v2, _, _) in enumerate(edges):
            if v2 == v and e2 != skip:
                out = out & ctv[e2]
        assert out, "empty intersection"
        return out

    vtc = [channel[v] for v, _, _ in edges]
    history = [(None, masks(vtc))]
    ctv = []
    for _ in range(iters):
        ctv = [ctv_of(e, vtc) for e in range(len(edges))]
        vtc = [meet(v, ctv, skip=e) for e, (v, _, _) in enumerate(edges)]
        history.append((masks(ctv), masks(vtc)))
    # before any iteration, no check has been heard
    posterior = [meet(v, ctv) if ctv else channel[v] for v in range(graph.n)]
    return history, masks(posterior)


def assert_decode_matches_reference(graph, received, max_iters):
    """decode() on ``received`` (SymbolSets) repeats reference_flood
    message for message, stops where the reference first reaches a
    resolved posterior or a fixed point, and ends on its posteriors."""
    res = decode(graph, received, max_iters=max_iters, record_messages=True)
    want_hist, want_post = reference_flood(graph, received, res.iterations)
    assert len(res.message_history) == len(want_hist) == res.iterations + 1
    for (ga, gv), (wa, wv) in zip(res.message_history, want_hist):
        assert ga is None if wa is None else [int(x) for x in ga] == wa
        assert [int(x) for x in gv] == wv
    assert [s.mask for s in res.estimate] == want_post
    resolved = all(m.bit_count() == 1 for m in want_post)
    assert res.status == ("success" if resolved else "stalled")
    # no earlier iteration was a fixed point ...
    vtcs = [v for _, v in want_hist]
    assert all(a != b for a, b in zip(vtcs[:-2], vtcs[1:-1]))
    # ... and a stall before max_iters is one
    if not resolved and res.iterations < max_iters:
        assert vtcs[-1] == vtcs[-2]
    return res


def test_decode_agrees_with_public_op_reference():
    rng = np.random.default_rng(271)
    for q in (3, 4, 5):
        f = GF(q)
        for _ in range(8):
            g = build_regular(12, 3, 6, f, rng)
            ch = PartialErasureChannel(f, int(rng.integers(2, q + 1)),
                                       float(rng.uniform(0.3, 0.9)))
            received_masks = ch.transmit_zero_word(g.n, rng)
            received = [SymbolSet.from_mask(f, int(m)) for m in received_masks]
            iters = 4
            want_hist, want_post = reference_flood(g, received, iters)
            res = decode(g, received, max_iters=iters, record_messages=True)
            upto = min(len(res.message_history), len(want_hist))
            for (ga, gv), (wa, wv) in zip(res.message_history[:upto], want_hist[:upto]):
                if ga is not None:
                    assert [int(x) for x in ga] == wa
                assert [int(x) for x in gv] == wv
            if res.iterations == iters and res.status == "stalled":
                assert [s.mask for s in res.estimate] == want_post


# ---------------------------------------------------------
# irregular degrees, M=q: matches the polynomial recursion
# ---------------------------------------------------------
def test_irregular_bec_reduction_termwise(monkeypatch):
    lam = {2: 0.5, 3: 0.5}
    rho = {5: 0.3, 6: 0.7}
    eps = 0.45
    ch = PartialErasureChannel(GF(2), 2, eps)
    cfg = DeConfig(
        ch,
        DegreeDistribution(lam, rho),
        SumsetSizeModel("exact"),
        max_iters=150,
    )
    monkeypatch.setattr(de_mod, "CONVERGENCE_TOL", 0.0)
    monkeypatch.setattr(de_mod, "FIXED_POINT_TOL", 0.0)
    monkeypatch.setattr(de_mod, "CERTIFY_TOL", 0.0)
    r = run(cfg)
    assert r.iterations == 150

    def lam_poly(x):
        return sum(frac * x ** (d - 1) for d, frac in lam.items())

    def rho_poly(x):
        return sum(frac * x ** (d - 1) for d, frac in rho.items())

    pe = eps
    for it, got in r.trajectory:
        assert abs(got - pe) < 1e-12, it
        pe = eps * lam_poly(1 - rho_poly(1 - pe))


# ---------------------------------------------------------
# decode() vs the reference on both set layouts
# ---------------------------------------------------------
def test_kernels_agree_gf8():
    rng = np.random.default_rng(88)
    f = GF(8)
    for _ in range(6):
        g = build_regular(12, 3, 6, f, rng)
        ch = PartialErasureChannel(f, int(rng.integers(2, 9)), 0.7)
        received = [SymbolSet.from_mask(f, int(m)) for m in ch.transmit_zero_word(g.n, rng)]
        assert_decode_matches_reference(g, received, 15)


@pytest.mark.parametrize("q", [13, 16, 17, 32, 67])
def test_planes_layout_agrees_with_reference(q):
    # fields whose sumsets run the spectral kernel: GF(13) and GF(16) on
    # words, then planes from GF(17), the first field above
    # MASK_TABLE_MAX_Q, up to one whose masks exceed 64 bits
    rng = np.random.default_rng(q)
    f = GF(q)
    for _ in range(4):
        g = build_regular(12, 3, 6, f, rng)
        ch = PartialErasureChannel(f, int(rng.integers(2, 6)), float(rng.uniform(0.4, 0.9)))
        received = [ch.transmit(0, rng) for _ in range(g.n)]
        assert_decode_matches_reference(g, received, 15)


# ---------------------------------------------------------
# one high-degree check: long products of spectra must stay exact
# ---------------------------------------------------------
@pytest.mark.parametrize(
    "q, d_c, received_mask, ctv_mask",
    [
        # labels 1 and inputs {0,1}: the sumset of the other d_c - 1 inputs
        # is the prime subfield {0..p-1}, p elements
        (25, 80, 0b11, 0b11111),
        (49, 60, 0b11, 0b1111111),
        (125, 60, 0b11, 0b11111),
        # characteristic 2, inputs {0,1,2}: the sumset is {0,1,2,3}
        (256, 60, 0b111, 0b1111),
        # the plain product of the d_c - 1 spectra, mapped back once,
        # reads 11, 28, 7 and 8 elements in these four cases
    ],
)
def test_high_degree_check_agrees_with_reference(monkeypatch, q, d_c, received_mask, ctv_mask):
    f = GF(q)
    g = TannerGraph(f, np.arange(d_c), np.zeros(d_c, int), np.ones(d_c, int))
    received = [SymbolSet.from_mask(f, received_mask)] * d_c
    # spies: count the re-thresholds, and record the largest tuple count
    # prod |A_i| (the spectrum at character 0) of each product mapped back
    calls, counts = [], []
    rethreshold, to_sets = SetPlanes._rethreshold, SetPlanes._sets
    monkeypatch.setattr(
        SetPlanes, "_rethreshold", lambda self, s: calls.append(1) or rethreshold(self, s)
    )
    monkeypatch.setattr(
        SetPlanes, "_sets",
        lambda self, s: counts.append(s[..., 0].real.max(initial=0)) or to_sets(self, s),
    )
    res = assert_decode_matches_reference(g, received, 5)
    assert calls  # the fold was long enough to re-threshold
    assert max(counts) * q <= 2**36  # the bound of the SetPlanes exactness argument
    ctv, _ = res.message_history[1]
    assert [int(m) for m in ctv] == [ctv_mask] * d_c
    assert res.status == "stalled" and res.iterations == 1


# ---------------------------------------------------------
# decode() vs the reference on random irregular graphs
# ---------------------------------------------------------
def random_tanner_graph(field, rng, edgeless=False):
    """A graph with mixed degrees: a random share of the variables gets
    two edges, and further edges join uniform random ends, so degree-0
    and degree-1 variables, edgeless and degree-1 checks and parallel
    edges all occur."""
    n = int(rng.integers(1, 20))
    m = int(rng.integers(1, n + 1))
    core = np.repeat(np.arange(int(rng.integers(0, n + 1))), 2)
    extra = rng.integers(0, n, int(rng.integers(0, 2 * n + 1)))
    edge_var = np.zeros(0, int) if edgeless else np.concatenate([core, extra])
    n_edges = edge_var.size
    return TannerGraph(
        field, edge_var, rng.integers(0, m, n_edges), rng.integers(1, field.q, n_edges),
        n=n, m=m,
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 13, 16, 67])
def test_irregular_graphs_agree_with_reference(q):
    rng = np.random.default_rng(1000 + q)
    f = GF(q)
    seen = set()
    for k in range(12):
        g = random_tanner_graph(f, rng, edgeless=k == 0)
        ch = PartialErasureChannel(f, int(rng.integers(2, min(q, 4) + 1)),
                                   float(rng.uniform(0.1, 0.9)))
        received = [SymbolSet.from_mask(f, int(m)) for m in ch.transmit_zero_word(g.n, rng)]
        res = assert_decode_matches_reference(g, received, int(rng.integers(0, 20)))
        pairs = list(zip(g.edge_var.tolist(), g.edge_chk.tolist()))
        for name, present in [
            ("no edges", g.n_edges == 0),
            ("degree-0 variable", (g.var_degrees == 0).any()),
            ("mixed variable degrees", len(set(g.var_degrees.tolist())) > 2),
            ("edgeless check", (g.chk_degrees == 0).any()),
            ("degree-1 check", (g.chk_degrees == 1).any()),
            ("parallel edges", len(set(pairs)) < len(pairs)),
            ("two or more iterations", res.iterations >= 2),
        ]:
            if present:
                seen.add(name)
    assert len(seen) == 7, seen


# ---------------------------------------------------------
# parallel edges are legitimate ensemble members
# ---------------------------------------------------------
def test_parallel_edges_decode():
    f = GF(4)
    # v0 doubly connected to check 0 (labels 1 and 2), plus a second
    # variable pinning nothing: parity v0 + 2*v0 + 3*v1 = 0
    g = TannerGraph(f, [0, 0, 1], [0, 0, 0], [1, 2, 3])
    received = [SymbolSet(f, (0, 1)), SymbolSet(f, (0,))]
    res = decode(g, received, max_iters=10)
    assert res.status == "success"
    assert [list(s) for s in res.estimate] == [[0], [0]]


# ---------------------------------------------------------
# Monte Carlo fold without lookup tables (q > 12) vs exact
# ---------------------------------------------------------
def test_monte_carlo_large_field_matches_exact():
    f = GF(16)
    exact = exact_dist([2, 2], f)
    mc = monte_carlo_dist([2, 2], f, 60_000, np.random.default_rng(6))
    assert np.abs(mc - exact).max() < 0.01


# ---------------------------------------------------------
# trajectory shape invariants across a grid
# ---------------------------------------------------------
def test_failure_probability_monotone_over_grid():
    deg = DegreeDistribution.regular(3, 6)
    for q, M in [(4, 2), (4, 3), (5, 2)]:
        cfg = DeConfig(
            PartialErasureChannel(GF(q), M, 0.0), deg, SumsetSizeModel("union")
        )
        for eps in np.linspace(0.05, 0.95, 7):
            r = run(replace(cfg, channel=cfg.channel.with_epsilon(float(eps))))
            assert r.monotone and r.mass_ok
            pes = [pe for _, pe in r.trajectory]
            assert all(a >= b - 1e-12 for a, b in zip(pes, pes[1:]))
