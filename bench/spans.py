"""Spans and counters recorded around the package's public names.

The tracer replaces a module attribute (or a class method) with a thin
wrapper, so calls the package makes through that name are recorded as
spans: (id, parent id, name, start, end).  A span name is
``<layer>.<function>``; the layer is the pecldpc module that owns the
function.  Nothing inside the package changes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = True
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap ``owner.attr`` so each call becomes a span called
        ``name``; ``on_result(counts, args, kwargs, result)`` may add
        counters from the call's arguments and result."""
        fn = getattr(owner, attr)
        clock = time.perf_counter
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def layer_self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name.split(".", 1)[0]] += end - start - child[sid]
        return dict(out)

    def span_seconds(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end in self.spans if n == name)

    def childless(self, name: str) -> int:
        """Number of ``name`` spans that made no traced call."""
        parents = {parent for _, parent, _, _, _ in self.spans}
        return sum(1 for sid, _, n, _, _ in self.spans if n == name and sid not in parents)

    def write(self, path, pass_index: int, origin: float) -> None:
        """Append this pass's spans as JSON lines, times relative to origin."""
        with open(path, "a") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([pass_index, sid, parent, name,
                                     round(start - origin, 9), round(end - origin, 9)]))
                fh.write("\n")


def install(tracer: Tracer, pecldpc) -> None:
    """Wrap every name through which one layer calls the next."""
    sim = pecldpc.simulation
    de = pecldpc.density_evolution
    ss = pecldpc.sumset_models

    def on_decode(counts, args, kwargs, result):
        counts["decoder.calls"] += 1
        counts["decoder.iterations"] += result.iterations
        counts["decoder.successes"] += result.status == pecldpc.STATUS_SUCCESS
        counts["decoder.edge_iters"] += args[0].n_edges * result.iterations

    def on_de_run(counts, args, kwargs, result):
        counts["density_evolution.probes"] += 1
        counts["density_evolution.iterations"] += result.iterations
        if not result.converged and result.iterations >= args[0].max_iters:
            counts["density_evolution.max_iters_hits"] += 1

    tracer.patch(sim, "run_trials", "simulation.run_trials")
    tracer.patch(sim, "build_regular", "ldpc.build_regular")
    tracer.patch(pecldpc.PartialErasureChannel, "transmit_zero_word", "channel.transmit_zero_word")
    tracer.patch(sim, "decode", "decoder.decode", on_decode)
    tracer.patch(de, "threshold_search", "density_evolution.threshold_search")
    tracer.patch(de, "run", "density_evolution.run", on_de_run)
    tracer.patch(pecldpc.SumsetSizeModel, "distribution", "sumset_models.distribution")
    for attr in ("exact_dist", "bound_dist", "balls_dist", "union_model_dist"):
        tracer.patch(ss, attr, f"sumset_models.{attr}")
    tracer.patch(de, "common_member_intersection_dist", "combinatorics.common_member_intersection_dist")
