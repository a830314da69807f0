"""Count the decoder's work on the benchmark's simulation workloads.

Replays sim-q4 and sim-q16 (the q, M, n, eps, trial counts and
``max_iters`` of ``bench/workloads.py``, on the (D_V, D_C)-regular
ensemble; eps point i runs ``run_trials`` with seed i) and prints, per
workload, the work the decodes did:

- decodes and iterations;
- check slots and variable slots computed: the node slots the check
  pass folds with the layout's ``leave_one_out_sumsets`` and the
  variable pass with ``leave_one_out``;
- check and variable messages changed: the edges each pass hands on to
  the next as changed;
- entries scaled by the layout's ``scaled``, in the check pass (the
  check outputs scaled by the inverted labels) and elsewhere (the
  channel sets and changed variable messages scaled by the negated
  labels);
- the largest ``tracemalloc`` peak of a single decode: the most memory
  one decode held at once above what was allocated when it began,
  numpy's arrays included.  Unlike peak RSS, it does not move with the
  layout of the C heap or with numpy's cache of freed small buffers.

The counts come from wrapping the field's layout methods and the
decoder's names for its fold and its node marks, so they hold for any
version of the decoder that calls them the same way.

    python tools/decode_work.py

The package is imported from the checkout's ``src/`` unless
``PYTHONPATH`` names another copy first.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# appended, so that a PYTHONPATH copy of the package comes first
sys.path += [str(ROOT / "src"), str(ROOT / "bench")]

import workloads as wl  # noqa: E402

WORKLOADS = ("sim-q4", "sim-q16")


def work(workload: str, scale: str = "full") -> Counter:
    """The decoder's work counts over one replay of ``workload``."""
    import pecldpc
    from pecldpc import decoder, simulation
    from pecldpc.symbol_sets import set_layout

    p = wl.SIM[scale][workload]
    field = pecldpc.GF(p["q"])
    layout = set_layout(field)  # the instance decode() looks up
    counts = Counter()
    in_check_pass = False
    real_decode, real_fold, real_nodes_of = simulation.decode, decoder.leave_one_out, decoder._nodes_of
    real_sumsets, real_scaled = layout.leave_one_out_sumsets, layout.scaled

    def counting_decode(*args, **kw):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        r = real_decode(*args, **kw)
        counts["decodes"] += 1
        counts["iterations"] += r.iterations
        peak = tracemalloc.get_traced_memory()[1] - start
        counts["decode peak bytes"] = max(counts["decode peak bytes"], peak)
        return r

    def counting_sumsets(ys):
        nonlocal in_check_pass
        in_check_pass = True
        counts["check slots"] += ys.shape[0] * ys.shape[1]
        return real_sumsets(ys)

    def counting_fold(op, rows, head=None):
        nonlocal in_check_pass
        in_check_pass = False
        counts["variable slots"] += rows.shape[0] * rows.shape[1]
        return real_fold(op, rows, head)

    def counting_nodes_of(edges, node_of_edge, n_nodes):
        # the check pass marks the variables of its changed edges, and
        # the variable pass the checks of its own
        kind = "check" if in_check_pass else "variable"
        counts[f"{kind} messages changed"] += edges.size
        return real_nodes_of(edges, node_of_edge, n_nodes)

    def counting_scaled(sets, factors):
        kind = "check pass" if in_check_pass else "elsewhere"
        counts[f"scaled ({kind})"] += np.size(factors)
        return real_scaled(sets, factors)

    simulation.decode, decoder.leave_one_out, decoder._nodes_of = (
        counting_decode, counting_fold, counting_nodes_of)
    layout.leave_one_out_sumsets, layout.scaled = counting_sumsets, counting_scaled
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for i, eps in enumerate(p["eps"]):
            channel = pecldpc.PartialErasureChannel(field, p["M"], eps)
            pecldpc.run_trials(channel, n=p["n"], d_v=wl.D_V, d_c=wl.D_C,
                               trials=p["trials"], max_iters=p["max_iters"], seed=i)
    finally:
        simulation.decode, decoder.leave_one_out, decoder._nodes_of = (
            real_decode, real_fold, real_nodes_of)
        del layout.leave_one_out_sumsets, layout.scaled
        if not tracing:
            tracemalloc.stop()
    return counts


KEYS = ("decodes", "iterations", "check slots", "variable slots", "check messages changed",
        "variable messages changed", "scaled (check pass)", "scaled (elsewhere)")


def main() -> int:
    for workload in WORKLOADS:
        counts = work(workload)
        print(f"{workload}: " + ", ".join(f"{k} {counts[k]}" for k in KEYS)
              + f", largest decode peak {counts['decode peak bytes'] / 1024:.0f} KB (tracemalloc)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
