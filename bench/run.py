"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sim-q4 --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout of the repository: the package is
imported from the checkout's ``src/``, never from an installed copy.  A
run repeats the workload's pass, each in a fresh interpreter
(``worker.py``), for as long as another pass still fits in
``--seconds`` (at least one), and reports medians over the passes.
Pass k of an untraced run decodes the trials drawn from (seed, k), so
a run averages over several input sets and a seed fixes all of them;
the de-sweep is deterministic and uses no seed.  With ``--trace 1``
untraced and traced passes alternate, all on the inputs of pass 0, so
the per-layer counts repeat exactly; the traced passes give the
per-layer metrics, and the untraced ones the tracing overhead.  Every
process runs one thread: the BLAS thread variables are set to 1.

The end-to-end times are scaled to a reference host speed: an untraced
pass times a fixed kernel (hostspeed.py) between its ops and scales
each op by it, so that the host's own swings in speed stay out of the
figures.  The times as measured are printed as ``raw_setup_s`` and
``raw_wall_s``, next to ``host_speed``, the host's speed relative to
the reference.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Its metrics are the
``end_to_end`` list of BENCHMARK.json (``--trace 0``) or its
``per_layer`` list (``--trace 1``).  The lines before it print the
workload's own figures, e.g. ``symbols_per_s`` and ``trial_ms_p90`` on
the simulation workloads, and ``failed_frac``.  The full result, with
its provenance and every pass, is written to
``.bench_out/<workload>-<scale>-seed<seed>-trace<0|1>.json``; a traced
run also writes its spans to ``.bench_out/...spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed as hs
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# a run must end well inside 180 s whatever --seconds says
HARD_LIMIT_S = 170.0
# tail percentile per workload kind: the highest with >= 10 ops of one
# pass beyond it (120 or 100 trials; 43 searches)
TAIL_PCT = {"sim": 90, "de": 75}


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_pass(args, env, index: int, spans_path: Path, timeout: float) -> dict:
    traced = args.trace == 1 and index % 2 == 1
    inputs = 0 if args.trace else index
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT), args.workload, args.scale,
           str(args.seed), str(inputs), "1" if traced else "0", str(spans_path), str(index)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def end_to_end(kind: str, passes: list[dict]) -> dict[str, float]:
    """The end-to-end metrics: times scaled to the reference host speed
    (see hostspeed.py), medians over the run's passes and ops."""
    plain = [p for p in passes if not p["traced"]]
    ops = [ms for p in plain for ms in p["op_ms"]]
    return {
        "setup_s": statistics.median(p["setup_scaled_s"] for p in passes),
        "wall_s": statistics.median(p["wall_scaled_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "op_ms_p50": statistics.median(ops),
        "op_ms_tail": percentile(ops, TAIL_PCT[kind]),
    }


def named(kind: str, params, passes: list[dict], e2e: dict[str, float],
          failed_frac: float) -> dict[str, tuple]:
    """The workload's figures under their own names, with units; the
    ``raw_`` ones are as measured, before scaling to the reference speed."""
    plain = [p for p in passes if not p["traced"]]
    out = {
        "setup_s": (e2e["setup_s"], "s"),
        "wall_s": (e2e["wall_s"], "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        "failed_frac": (failed_frac, "ratio"),
        "raw_setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "raw_wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "host_speed": (hs.REF_S * 1e3 / statistics.median(
            ms for p in plain for ms in p["ref_ms"]), "ratio"),
    }
    if kind == "sim":
        symbols = params["trials"] * len(params["eps"]) * params["n"]
        out["symbols_per_s"] = (symbols / e2e["wall_s"], "1/s")
        out["trial_ms_p50"] = (e2e["op_ms_p50"], "ms")
        out[f"trial_ms_p{TAIL_PCT[kind]}"] = (e2e["op_ms_tail"], "ms")
    else:
        out["threshold_ms_p50"] = (e2e["op_ms_p50"], "ms")
        out[f"threshold_ms_p{TAIL_PCT[kind]}"] = (e2e["op_ms_tail"], "ms")
    return out


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["gf.construct_ms"] = statistics.median(p["gf_ms"] for p in passes)
    out["symbol_sets.mask_tables_ms"] = statistics.median(p["tables_ms"] for p in passes)
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_scaled_s"] for p in traced)
        / statistics.median(p["wall_scaled_s"] for p in plain) - 1.0
    )
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="'smoke' runs a shrunken copy of the workload")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "pecldpc" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'pecldpc'}; run inside a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}"
    spans_path = out_dir / f"{stem}.spans.jsonl"
    spans_path.unlink(missing_ok=True)

    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    passes: list[dict] = []
    step = 2 if args.trace else 1  # a traced run measures (untraced, traced) pairs
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        for _ in range(step):
            timeout = HARD_LIMIT_S - (time.perf_counter() - start)
            try:
                passes.append(run_pass(args, env, len(passes), spans_path, timeout))
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                print(f"pass {len(passes)} of {args.workload} failed: {exc}", file=sys.stderr)
                return 1
        now = time.perf_counter()
        longest = max(longest, now - t)
        if now - start + longest > min(args.seconds, HARD_LIMIT_S):
            break

    kind, params = wl.spec(args.workload, args.scale)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    e2e = end_to_end(kind, passes)
    figures = named(kind, params, passes, e2e, failed / attempted)
    layers = per_layer(passes) if args.trace else None
    values = layers or e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            **passes[0]["versions"],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "seed": args.seed,
            "git_commit": git_commit(ROOT),
            "thread_env": {v: env[v] for v in THREAD_VARS},
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "metrics": metrics,
        "spans": str(spans_path.relative_to(ROOT)) if args.trace else None,
        "passes": passes,
    }
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    for name, (value, unit) in figures.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for p in passes:
        for err in p["errors"]:
            print(err, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
