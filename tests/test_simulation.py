import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import pecldpc
from pecldpc import GF, PartialErasureChannel, build_regular, decode, run_trials

from oracles import random_codeword, translate_mask


def channel(q, M, eps):
    return PartialErasureChannel(GF(q), M, eps)


def test_no_erasures_all_succeed():
    rep = run_trials(
        channel(4, 2, 0.0), n=60, d_v=3, d_c=6, trials=10, max_iters=20, seed=1
    )
    assert rep.successes == rep.trials == 10
    assert rep.avg_iterations == 0.0
    assert rep.residual_symbol_error_rate == 0.0


def test_report_fields():
    rep = run_trials(
        channel(5, 3, 0.4), n=30, d_v=3, d_c=6, trials=5, max_iters=30, seed=2
    )
    assert (rep.n, rep.d_v, rep.d_c, rep.q, rep.M) == (30, 3, 6, 5, 3)
    assert rep.epsilon == 0.4 and rep.trials == 5
    assert 0 <= rep.successes <= 5
    assert 0.0 <= rep.success_rate <= 1.0
    assert 0.0 <= rep.residual_symbol_error_rate <= 1.0


def test_deterministic_under_seed():
    kw = dict(n=48, d_v=3, d_c=6, trials=8, max_iters=40, seed=99)
    a = run_trials(channel(4, 2, 0.5), **kw)
    b = run_trials(channel(4, 2, 0.5), **kw)
    assert a == b


@pytest.mark.parametrize("q, M, eps", [(4, 2, 0.85), (128, 4, 1.0)])
def test_residual_rate_counts_unresolved_posteriors(q, M, eps):
    # run_trials counts the masks with two or more elements (uint64 masks
    # at q=4, Python ints at q=128); replaying its trials and counting the
    # estimate sets gives the same rate
    ch, kw = channel(q, M, eps), dict(n=120, d_v=3, d_c=6, max_iters=40)
    rep = run_trials(ch, trials=6, seed=5, **kw)
    unresolved = 0
    for t in range(6):
        rng = np.random.default_rng([5, t])
        g = build_regular(kw["n"], 3, 6, ch.field, rng)
        res = decode(g, ch.transmit_zero_word(g.n, rng), max_iters=kw["max_iters"])
        unresolved += sum(1 for s in res.estimate if len(s) > 1)
    assert unresolved > 0
    assert rep.residual_symbol_error_rate == unresolved / (6 * kw["n"])


def test_subcritical_vs_supercritical():
    # q=4, M=2, (3,6): threshold is approximately 0.82
    low = run_trials(
        channel(4, 2, 0.55), n=600, d_v=3, d_c=6, trials=12, max_iters=60, seed=3
    )
    high = run_trials(
        channel(4, 2, 0.97), n=600, d_v=3, d_c=6, trials=12, max_iters=60, seed=3
    )
    assert low.success_rate >= 0.8
    assert high.success_rate <= 0.2
    assert high.residual_symbol_error_rate > 0.0


def test_success_rate_nonincreasing_in_eps():
    rates = []
    for eps in (0.3, 0.7, 0.99):
        rep = run_trials(
            channel(4, 2, eps), n=400, d_v=3, d_c=6, trials=10, max_iters=50, seed=11
        )
        rates.append(rep.success_rate)
    assert rates[0] >= rates[1] - 0.2
    assert rates[1] >= rates[2] - 0.2
    assert rates[0] >= rates[2]


def test_argument_validation():
    # the ensemble is required: there is no fixed-graph mode
    with pytest.raises(TypeError):
        run_trials(channel(4, 2, 0.1), trials=3, max_iters=5, seed=0)
    with pytest.raises(ValueError):
        run_trials(channel(4, 2, 0.1), n=10, d_v=3, trials=0, max_iters=5, seed=0, d_c=6)
    with pytest.raises(ValueError, match="max_iters"):
        run_trials(channel(4, 2, 0.1), n=12, d_v=3, d_c=6, trials=2, max_iters=-1, seed=0)
    for n in (0, -6):
        with pytest.raises(ValueError, match=f"n={n}"):
            run_trials(channel(4, 2, 0.1), n=n, d_v=3, d_c=6, trials=2, max_iters=5, seed=0)
    # zero iterations is legal: only the channel output is counted
    rep = run_trials(channel(4, 2, 0.0), n=12, d_v=3, d_c=6, trials=2, max_iters=0, seed=0)
    assert rep.successes == 2 and rep.avg_iterations == 0.0
    # every count and the seed is an integer (trials=2.5 raised a raw
    # TypeError, max_iters=2.5 answered), and a negative seed is refused
    # by name, not by numpy's "expected non-negative integer"
    kw = dict(n=12, d_v=3, d_c=6, trials=2, max_iters=5, seed=0)
    for name in kw:
        for bad in (2.5, True, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                run_trials(channel(4, 2, 0.1), **{**kw, name: bad})
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        run_trials(channel(4, 2, 0.1), **{**kw, "seed": -1})


@pytest.mark.parametrize("q", [64, 128])
def test_large_fields_run_end_to_end(q):
    kw = dict(n=60, d_v=3, d_c=6, trials=4, max_iters=40, seed=5)
    easy = run_trials(channel(q, 2, 0.3), **kw)
    assert easy.successes == 4 and easy.residual_symbol_error_rate == 0.0
    hard = run_trials(channel(q, q // 2, 0.6), **kw)
    assert hard.successes == 0 and hard.residual_symbol_error_rate > 0.0


@pytest.mark.parametrize("q", [4, 8, 9, 16, 64, 128])
def test_nonzero_codeword_decodes_like_zero_word(q):
    # the channel noise is independent of the codeword, so decoding
    # c + N must be the all-zero run on N with every set shifted by c
    f = GF(q)
    rng = np.random.default_rng(40 + q)
    for _ in range(5):
        g = build_regular(24, 3, 6, f, rng)
        edges = list(zip(g.edge_var.tolist(), g.edge_chk.tolist(), g.edge_label.tolist()))
        c = random_codeword(f, edges, g.n, g.m, rng)
        assert any(c)
        ch = PartialErasureChannel(f, int(rng.integers(2, q + 1)), float(rng.uniform(0.3, 0.9)))
        noise = ch.transmit_zero_word(g.n, rng)
        sent = [translate_mask(f, int(m), cv) for m, cv in zip(noise, c)]
        zero = decode(g, noise, max_iters=40, record_messages=True)
        word = decode(g, sent, max_iters=40, record_messages=True)
        assert (word.status, word.iterations) == (zero.status, zero.iterations)
        assert [h.tolist() for h in word.vtc_size_history] == [
            h.tolist() for h in zero.vtc_size_history
        ]
        assert [s.mask for s in word.estimate] == [
            translate_mask(f, s.mask, cv) for s, cv in zip(zero.estimate, c)
        ]
        edge_c = [c[v] for v, _, _ in edges]
        for (wc, wv), (zc, zv) in zip(word.message_history, zero.message_history):
            for got, base in ((wc, zc), (wv, zv)):
                if base is not None:
                    assert list(got) == [
                        translate_mask(f, int(m), ce) for m, ce in zip(base, edge_c)
                    ]
        if word.status == "success":
            assert [s.mask for s in word.estimate] == [1 << cv for cv in c]


_LIMITED_TRIALS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from pecldpc import GF, PartialErasureChannel, run_trials
try:
    run_trials(PartialErasureChannel(GF(4), 2, 0.5), n=10**9, d_v=3, d_c=6, trials=1,
               max_iters=10, seed=0)
except ValueError as exc:
    print(exc)
"""


def test_run_trials_refuses_oversized_runs():
    # the bounds the CLI had, now in the library: the edge-message array
    # of n=10**9 is refused before any graph is built (in a child process
    # under a 1 GiB limit, where an unchecked allocation would fail), and
    # a trial count beyond the cell budget before any trial runs
    src = Path(pecldpc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _LIMITED_TRIALS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "edge-message array" in proc.stdout
    with pytest.raises(ValueError, match="trials exceed"):
        run_trials(channel(4, 2, 0.5), n=12, d_v=3, d_c=6, trials=10**12, max_iters=10, seed=0)


def test_each_trial_graph_is_freed_before_the_next_is_built(monkeypatch):
    # a graph kept across the next build would double the graph memory
    # at the point where a large run peaks
    real, graphs, alive = pecldpc.simulation.build_regular, [], []

    def build_regular(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in graphs))
        g = real(*args, **kwargs)
        graphs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(pecldpc.simulation, "build_regular", build_regular)
    run_trials(channel(4, 2, 0.6), n=60, d_v=3, d_c=6, trials=4, max_iters=20, seed=3)
    assert alive == [0, 0, 0, 0]
