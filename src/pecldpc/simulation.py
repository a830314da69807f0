"""End-to-end transmit/decode Monte Carlo trials.

Transmits the all-zero codeword (the channel noise is independent of
the codeword, so nothing is lost), applies the partial-erasure channel,
decodes, and aggregates success statistics.  By default every trial
draws a fresh configuration-model graph so the estimate targets the
ensemble average that density evolution predicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PartialErasureChannel
from .decoder import STATUS_SUCCESS, decode
from .ldpc import TannerGraph, build_regular

# trials one run may ask for: a million resolve a frame error rate near
# 1e-5 (ten failures) and take about four hours at q = 4, n = 10,000
# (~14 ms a trial on one x86-64 core), so a larger count is refused
# rather than left to run for days
MAX_TRIALS = 10**6


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
    trials: int,
    max_iters: int,
    seed: int,
    n: int | None = None,
    d_v: int | None = None,
    d_c: int | None = None,
    graph: TannerGraph | None = None,
) -> TrialReport:
    """Decode ``trials`` all-zero transmissions and aggregate.

    Give either a fixed ``graph`` or ensemble parameters (n, d_v, d_c);
    with ensemble parameters a fresh graph is drawn per trial.  Each
    trial runs on its own generator seeded by (seed, trial index), so
    reports are reproducible regardless of execution order.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} trials exceed the limit of {MAX_TRIALS}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    if graph is None:
        if n is None or d_v is None or d_c is None:
            raise ValueError("give a graph or all of n, d_v, d_c")
    else:
        n, d_v, d_c = graph.n, int(graph.var_degrees.max()), int(graph.chk_degrees.max())

    successes = 0
    total_iters = 0
    unresolved = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        g = graph if graph is not None else build_regular(n, d_v, d_c, channel.field, rng)
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
