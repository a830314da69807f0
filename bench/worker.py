"""One timed pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py ROOT WORKLOAD SCALE SEED INPUTS TRACED SPANS_PATH PASS

Imports pecldpc from ROOT/src, builds the fields (and, for the decoder,
the mask tables) the workload uses, runs the workload's calls through
the public API, checks every output, and prints one JSON object with
the pass's timings, counts and failures as its last stdout line.  The
simulation trials are drawn from (SEED, INPUTS), so the passes of one
run can each decode fresh inputs while a seed still fixes them all.  With
TRACED=1 the calls are recorded as spans (see spans.py), which are
appended to SPANS_PATH when the pass ends.  The pass times the
host-speed reference (see hostspeed.py) between its ops, or with
TRACED=1 only before and after its work, and also reports its times
scaled to the reference speed.

Starting each pass in a new interpreter keeps the package's module-level
caches cold at the start of every pass, as they are for each CLI call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import hostspeed as hs
import workloads as wl
from spans import Tracer, install

clock = time.perf_counter
# numpy is imported inside functions only: its import arrives with
# pecldpc's, inside setup()'s clock, as part of setup_s


def setup(root: Path, workload: str, scale: str):
    """Import the package and build the workload's fields and tables."""
    t0 = clock()
    sys.path.insert(0, str(root / "src"))
    import pecldpc
    import pecldpc.symbol_sets as symbol_sets

    src = (root / "src").resolve()
    if src not in Path(pecldpc.__file__).resolve().parents:
        raise SystemExit(f"imported pecldpc from {pecldpc.__file__}, not from {src}")
    import_s = clock() - t0

    fields, gf_s, tables_s = {}, 0.0, 0.0
    for q in wl.fields_of(workload, scale):
        t = clock()
        fields[q] = pecldpc.GF(q)
        gf_s += clock() - t
    if wl.spec(workload, scale)[0] == "sim":
        for q, field in fields.items():
            if q <= symbol_sets.MASK_TABLE_MAX_Q:
                t = clock()
                symbol_sets.mask_tables(field)
                tables_s += clock() - t
    return pecldpc, fields, {
        "setup_s": clock() - t0,
        "import_s": import_s,
        "gf_ms": gf_s * 1e3,
        "tables_ms": tables_s * 1e3,
    }


class TrialClock:
    """Marks trial boundaries inside run_trials and keeps each trial's
    decode outcome.  At each graph build (the first step of a trial) it
    times the host-speed reference, when given one, and reads the clock
    on both sides of it; one tuple per decode keeps the outcome.  Its
    cost outside the reference is negligible."""

    def __init__(self, sim, reference=None):
        # (clock before the reference, clock after it) at each trial start
        self.marks: list[tuple[float, float]] = []
        self.decoded: list[tuple[str, int]] = []
        build, decode = sim.build_regular, sim.decode

        def build_regular(*args, **kwargs):
            t0 = clock()
            if reference is not None:
                reference()
            self.marks.append((t0, clock()))
            return build(*args, **kwargs)

        def decode_and_keep(*args, **kwargs):
            result = decode(*args, **kwargs)
            self.decoded.append((result.status, result.iterations))
            return result

        sim.build_regular = build_regular
        sim.decode = decode_and_keep

    def reset(self) -> None:
        self.marks.clear()
        self.decoded.clear()


def check_point(pecldpc, ch, p, point_seed, report, decoded, replay_t) -> int:
    """Failed trials of one eps point: all of them if run_trials'
    report disagrees with the decodes it ran, else 1 if the replayed
    trial breaks a decoder invariant or disagrees with its run."""
    import numpy as np

    T = p["trials"]
    if len(decoded) != T or report.trials != T:
        return T
    successes = sum(status == pecldpc.STATUS_SUCCESS for status, _ in decoded)
    if report.successes != successes:
        return T
    if report.avg_iterations != sum(it for _, it in decoded) / T:
        return T
    if successes == T and report.residual_symbol_error_rate != 0:
        return T

    rng = np.random.default_rng([point_seed, replay_t])
    graph = pecldpc.build_regular(p["n"], wl.D_V, wl.D_C, ch.field, rng)
    received = ch.transmit_zero_word(p["n"], rng)
    result = pecldpc.decode(graph, received, max_iters=p["max_iters"])
    masks = [s.mask for s in result.estimate]
    ok = len(masks) == p["n"] and all(m & 1 for m in masks)  # symbol 0 was sent
    ok = ok and (result.status == pecldpc.STATUS_SUCCESS) == all(m == 1 for m in masks)
    ok = ok and (result.status, result.iterations) == decoded[replay_t]
    return 0 if ok else 1


def run_sim(pecldpc, fields, p, seed, inputs, trial_clock, reference, tracer, out) -> None:
    import numpy as np

    sim = pecldpc.simulation
    field = fields[p["q"]]
    T = p["trials"]
    for i, eps in enumerate(p["eps"]):
        ch = pecldpc.PartialErasureChannel(field, p["M"], eps)
        point_seed = (seed * 1000 + inputs) * len(p["eps"]) + i
        out["attempted"] += T
        trial_clock.reset()
        start = clock()
        try:
            report = sim.run_trials(ch, trials=T, max_iters=p["max_iters"], seed=point_seed,
                                    n=p["n"], d_v=wl.D_V, d_c=wl.D_C)
        except Exception:
            out["wall_s"] += clock() - start
            out["failed"] += T
            out["errors"].append(traceback.format_exc())
            continue
        end = clock()
        marks = trial_clock.marks
        refs = [t1 - t0 for t0, t1 in marks]
        wall = end - start - sum(refs)
        trials = [b[0] - a[1] for a, b in zip(marks, marks[1:] + [(end, end)])]
        out["wall_s"] += wall
        if reference is not None:
            refs.append(reference())
            out["ref_ms"] += [r * 1e3 for r in refs]
            # run_trials' own steps before the first and after the last trial
            rest = hs.scaled(wall - sum(trials), refs[0], refs[-1])
            trials = [hs.scaled(t, r0, r1) for t, r0, r1 in zip(trials, refs, refs[1:])]
            out["wall_scaled_s"] += sum(trials) + rest
        out["op_ms"] += [t * 1e3 for t in trials]
        decoded = list(trial_clock.decoded)
        out["decode_iterations"] += sum(it for _, it in decoded)

        tracer.enabled = False
        replay_t = int(np.random.default_rng([seed, inputs, i]).integers(T))
        try:
            bad = check_point(pecldpc, ch, p, point_seed, report, decoded, replay_t)
        except Exception:
            bad = 1
            out["errors"].append(traceback.format_exc())
        tracer.enabled = True
        if bad:
            out["errors"].append(f"eps={eps}: {bad} trial(s) failed the output check")
        out["failed"] += bad


def run_de(pecldpc, fields, searches, reference, out) -> None:
    de = pecldpc.density_evolution
    degrees = pecldpc.DegreeDistribution.regular(wl.D_V, wl.D_C)
    found = {}
    ref = reference() if reference is not None else None
    for q, M, kind in searches:
        cfg = pecldpc.DeConfig(
            channel=pecldpc.PartialErasureChannel(fields[q], M, 0.0),
            degrees=degrees,
            size_model=pecldpc.SumsetSizeModel(kind),
            max_iters=wl.DE_MAX_ITERS,
        )
        out["attempted"] += 1
        start = clock()
        try:
            th = de.threshold_search(cfg, tol_eps=wl.DE_TOL_EPS, check_monotone=True)
        except Exception:
            out["wall_s"] += clock() - start
            out["failed"] += 1
            out["errors"].append(traceback.format_exc())
            continue
        dt = clock() - start
        out["wall_s"] += dt
        if reference is not None:
            ref_before, ref = ref, reference()
            out["ref_ms"].append(ref_before * 1e3)
            dt = hs.scaled(dt, ref_before, ref)
            out["wall_scaled_s"] += dt
        out["op_ms"].append(dt * 1e3)
        found[(q, M, kind)] = th

    bad = set()
    for (q, M, kind), th in found.items():
        if abs(th - wl.EXPECTED_THRESHOLD[(q, M, kind)]) > wl.DE_TOL_EPS:
            bad.add((q, M, kind))
        if M == q and abs(th - wl.BEC_THRESHOLD) > wl.BEC_TOL:
            bad.add((q, M, kind))
        if kind == "exact":
            lower, upper = found.get((q, M, "bound-lower")), found.get((q, M, "bound-upper"))
            if lower is None or upper is None or not upper <= th <= lower:
                bad.add((q, M, kind))
    for key in sorted(bad):
        out["errors"].append(f"threshold {key} = {found[key]} failed its check")
    out["failed"] += len(bad)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    ls = tracer.layer_self_seconds()
    c = tracer.counts
    dec_s, de_s = ls.get("decoder", 0.0), ls.get("density_evolution", 0.0)
    n_spans = {}
    for _, _, name, _, _ in tracer.spans:
        n_spans[name] = n_spans.get(name, 0) + 1
    lookups = n_spans.get("sumset_models.distribution", 0)
    return {
        "ldpc.build_regular_ms": ls.get("ldpc", 0.0) * 1e3,
        "channel.transmit_ms": ls.get("channel", 0.0) * 1e3,
        "decoder.self_s": dec_s,
        "decoder.calls": c["decoder.calls"],
        "decoder.iterations": c["decoder.iterations"],
        "decoder.us_per_edge_iter": dec_s * 1e6 / c["decoder.edge_iters"] if c["decoder.edge_iters"] else 0.0,
        "decoder.success_ratio": c["decoder.successes"] / c["decoder.calls"] if c["decoder.calls"] else 0.0,
        "simulation.self_s": ls.get("simulation", 0.0),
        "density_evolution.self_s": de_s,
        "density_evolution.probes": c["density_evolution.probes"],
        "density_evolution.iterations": c["density_evolution.iterations"],
        "density_evolution.max_iters_hits": c["density_evolution.max_iters_hits"],
        "density_evolution.us_per_iter": (
            de_s * 1e6 / c["density_evolution.iterations"] if c["density_evolution.iterations"] else 0.0
        ),
        "sumset_models.self_s": ls.get("sumset_models", 0.0),
        "sumset_models.exact_s": tracer.span_seconds("sumset_models.exact_dist"),
        "sumset_models.exact_calls": n_spans.get("sumset_models.exact_dist", 0),
        "sumset_models.lookups": lookups,
        "sumset_models.hit_ratio": (
            tracer.childless("sumset_models.distribution") / lookups if lookups else 0.0
        ),
        "combinatorics.common_dist_s": ls.get("combinatorics", 0.0),
        "combinatorics.common_dist_calls": n_spans.get("combinatorics.common_member_intersection_dist", 0),
        "trace.self_coverage": sum(ls.values()) / wall_s if wall_s else 0.0,
    }


def main(argv: list[str]) -> int:
    root, workload, scale, seed, inputs, traced, spans_path, pass_index = argv
    root, traced = Path(root), traced == "1"
    seed, inputs, pass_index = int(seed), int(inputs), int(pass_index)
    pecldpc, fields, out = setup(root, workload, scale)
    import numpy

    out.update(
        traced=traced, wall_s=0.0, wall_scaled_s=0.0, op_ms=[], ref_ms=[], attempted=0, failed=0,
        errors=[], decode_iterations=0,
        versions={"pecldpc": pecldpc.__version__, "numpy": numpy.__version__},
    )
    # the host's speed just after set-up scales setup_s; traced passes
    # time no reference next to their ops, where it would land in a span
    kernel = hs.Reference()
    ref_start = kernel.median(5)
    out["setup_scaled_s"] = out["setup_s"] * hs.REF_S / ref_start
    reference = None if traced else kernel
    kind, params = wl.spec(workload, scale)
    trial_clock = TrialClock(pecldpc.simulation, reference) if kind == "sim" else None
    tracer = Tracer()
    if traced:
        install(tracer, pecldpc)
    else:
        tracer.enabled = False

    origin = clock()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if kind == "sim":
            run_sim(pecldpc, fields, params, seed, inputs, trial_clock, reference, tracer, out)
        else:
            run_de(pecldpc, fields, params, reference, out)
    out["warnings"] = [str(w.message) for w in caught]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if traced:
        tracer.unpatch()
        # scaled as a whole, from the kernel's speed before and after it
        out["wall_scaled_s"] = hs.scaled(out["wall_s"], ref_start, kernel.median(5))
        out["layers"] = layer_metrics(tracer, out["wall_s"])
        tracer.write(spans_path, pass_index, origin)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
