"""The decoder work counter in tools/ counts what each pass computed,
changed and scaled, and leaves the package as it found it."""

import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from pecldpc import GF, decoder, simulation
from pecldpc.symbol_sets import leave_one_out, set_layout

TOOL = Path(__file__).resolve().parents[1] / "tools" / "decode_work.py"
_spec = importlib.util.spec_from_file_location("decode_work", TOOL)
decode_work = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(decode_work)


@pytest.mark.parametrize("workload", decode_work.WORKLOADS)
def test_counts_on_the_smoke_workloads(workload):
    p = decode_work.wl.SIM["smoke"][workload]
    real_decode = simulation.decode
    counts = decode_work.work(workload, "smoke")
    assert counts["decodes"] == p["trials"] * len(p["eps"])
    assert counts["iterations"] >= counts["decodes"]
    # the check pass scales the outputs that changed, and only those
    assert 0 < counts["scaled (check pass)"] == counts["check messages changed"]
    assert counts["check messages changed"] < counts["check slots"]
    assert 0 < counts["variable messages changed"] < counts["variable slots"]
    # the channel sets, then each changed variable message, go to y
    edges = p["n"] * decode_work.wl.D_V
    assert counts["scaled (elsewhere)"] == (
        counts["decodes"] * (edges + 1) + counts["variable messages changed"]
    )
    # every wrapper is gone again
    layout = set_layout(GF(p["q"]))
    assert "scaled" not in vars(layout) and "leave_one_out_sumsets" not in vars(layout)
    assert decoder.leave_one_out is leave_one_out
    assert simulation.decode is real_decode


# recorded on the decoder before its gathers went through np.take on
# narrow indices; a speed change that alters what the decoder computes
# (one more iteration, slot or scaled entry) fails here
PINNED = {
    "sim-q4": {"decodes": 6, "iterations": 43, "check slots": 59388, "variable slots": 43266,
               "check messages changed": 18900, "variable messages changed": 8367,
               "scaled (check pass)": 18900, "scaled (elsewhere)": 29973},
    "sim-q16": {"decodes": 3, "iterations": 12, "check slots": 1956, "variable slots": 1989,
                "check messages changed": 1404, "variable messages changed": 527,
                "scaled (check pass)": 1404, "scaled (elsewhere)": 1070},
}


@pytest.mark.parametrize("workload", decode_work.WORKLOADS)
def test_counts_pinned_on_the_smoke_workloads(workload):
    tracing = tracemalloc.is_tracing()
    counts = decode_work.work(workload, "smoke")
    assert {k: counts[k] for k in decode_work.KEYS} == PINNED[workload]
    # a decode allocates its message arrays, so its peak is above zero;
    # the tool stops the tracing it started
    assert counts["decode peak bytes"] > 0
    assert tracemalloc.is_tracing() == tracing
