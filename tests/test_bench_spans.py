"""The benchmark's tracer wraps package names; a renamed or deleted name
must fail here, not only in the benchmark's own smoke run."""

import importlib.util
from pathlib import Path

import pecldpc

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    spans = _spans_module()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, pecldpc)
        patched = list(tracer._undo)
        assert patched
        for owner, attr, fn in patched:
            assert getattr(owner, attr) is not fn, attr
        # a call through a wrapped name is recorded as a span
        de = pecldpc.density_evolution
        de.common_member_intersection_dist((2, 2), 4)
        assert [span[2] for span in tracer.spans] == [
            "combinatorics.common_member_intersection_dist"
        ]
    finally:
        tracer.unpatch()
    for owner, attr, fn in patched:
        assert getattr(owner, attr) is fn, attr
