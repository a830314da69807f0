#!/usr/bin/env python3
"""Does a finite code believe the asymptotic threshold?

Density evolution describes infinite codes.  This script decodes actual
n=4000 codes across a grid of erasure rates and shows the success rate
collapsing right around the predicted threshold.
"""

from pecldpc import (
    GF,
    DeConfig,
    DegreeDistribution,
    PartialErasureChannel,
    SumsetSizeModel,
    run_trials,
    threshold_search,
)

field = GF(4)
M = 2
ch0 = PartialErasureChannel(field, M, 0.0)

th = threshold_search(
    DeConfig(ch0, DegreeDistribution.regular(3, 6), SumsetSizeModel("exact"))
)
print(f"density-evolution threshold, q=4, M=2, (3,6): {th:.4f}")

print("\nfinite-length trials (n=4000, 30 trials each):")
print("eps     success  avg iters  residual unresolved rate")
for delta in (-0.10, -0.05, -0.02, 0.0, 0.02, 0.05, 0.10):
    eps = th + delta
    rep = run_trials(
        ch0.with_epsilon(eps),
        n=4000, d_v=3, d_c=6, trials=30, max_iters=200, seed=97,
    )
    print(
        f"{eps:.3f}   {rep.success_rate:5.0%}   {rep.avg_iterations:8.1f}"
        f"   {rep.residual_symbol_error_rate:.4f}"
    )

print("\nbelow the threshold nearly every run resolves; above it the")
print("decoder freezes at a large fixed point almost immediately.  The")
print("soft edge right at the threshold is the finite-length effect.")
