"""End-to-end transmit/decode Monte Carlo trials.

Transmits the all-zero codeword (the channel noise is independent of
the codeword, so nothing is lost), applies the partial-erasure channel,
decodes, and aggregates success statistics.  Every trial draws a fresh
configuration-model graph, so the estimate targets the ensemble
average that density evolution predicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budget
from .channel import PartialErasureChannel
from .combinatorics import as_int
from .decoder import STATUS_SUCCESS, decode
from .ldpc import build_regular
from .symbol_sets import set_bytes


@dataclass
class TrialReport:
    n: int
    d_v: int
    d_c: int
    q: int
    M: int
    epsilon: float
    trials: int
    successes: int
    avg_iterations: float
    residual_symbol_error_rate: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


def run_trials(
    channel: PartialErasureChannel,
    *,
    n: int,
    d_v: int,
    d_c: int,
    trials: int,
    max_iters: int,
    seed: int,
) -> TrialReport:
    """Decode ``trials`` all-zero transmissions, each on a fresh
    (d_v, d_c)-regular graph of ``n`` variables, and aggregate.

    Each trial runs on its own generator seeded by (seed, trial index),
    so reports are reproducible regardless of execution order.  A run is
    refused (ValueError) before any graph is built when ``trials`` or
    ``n`` is not an integer of at least 1, ``max_iters`` or ``seed`` not
    one of at least 0, or ``d_v`` or ``d_c`` not one of at least 2, or
    when its trials or its edge-message arrays would pass the work
    budget: n * d_v sets of ``set_bytes(q)`` may take 2**-6 of
    ``budget.BYTES``, as a decode peaks at 40-95 times that array (the
    graph, the other message arrays, the pass temporaries and, above
    q = 12, the spectra).
    """
    trials, max_iters = as_int(trials, "trials", 1), as_int(max_iters, "max_iters", 0)
    n, d_v, d_c = as_int(n, "n"), as_int(d_v, "d_v", 2), as_int(d_c, "d_c", 2)
    seed = as_int(seed, "seed", 0)
    # a trial costs four numpy calls at the least (its generator, graph,
    # channel draw and decode): 2**20, which at q = 4, n = 10,000 (~14 ms
    # a trial on one x86-64 core) take about four hours
    budget.over(trials, budget.ITEMS, f"{trials} trials exceed what a run may ask")
    if n < 1:
        raise ValueError(f"need at least one variable node, got n={n}")
    need = n * d_v * set_bytes(channel.field.q)
    budget.over(need, budget.BYTES >> 6, f"n={n}, d_v={d_v}: {need} bytes per edge-message array")

    successes = 0
    total_iters = 0
    unresolved = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        g = build_regular(n, d_v, d_c, channel.field, rng)
        received = channel.transmit_zero_word(g.n, rng)
        result = decode(g, received, max_iters=max_iters)
        if result.status == STATUS_SUCCESS:
            successes += 1
        total_iters += result.iterations
        post = result.posterior
        unresolved += int(np.count_nonzero(post & (post - 1)))  # masks of 2+ elements

    return TrialReport(
        n=n,
        d_v=d_v,
        d_c=d_c,
        q=channel.field.q,
        M=channel.M,
        epsilon=channel.epsilon,
        trials=trials,
        successes=successes,
        avg_iterations=total_iters / trials,
        residual_symbol_error_rate=unresolved / (trials * n),
    )
