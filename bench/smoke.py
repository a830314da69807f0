"""Smoke check of the benchmark harness.

    python3 bench/smoke.py

Runs the shrunken ('smoke') copy of every workload, untraced and
traced, and checks that the result line lists every metric of
BENCHMARK.json with its unit, that no op failed (failed_frac 0), that
the workload's own figures are printed with their units, and that the
traced layer self times cover at least 90% of the traced wall time.
Exits 1 and names each problem if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIGURES = {
    "sim": {"symbols_per_s": "1/s", "trial_ms_p50": "ms", "trial_ms_p90": "ms"},
    "de": {"threshold_ms_p50": "ms", "threshold_ms_p75": "ms"},
}
COMMON = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
          "raw_setup_s": "s", "raw_wall_s": "s", "host_speed": "ratio"}


def check(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{name} value {m['value']!r}")
    if trace and result["metrics"]["trace.self_coverage"]["value"] < 0.9:
        problems.append("layer self times cover less than 90% of the traced wall time")

    printed = {}
    for line in lines[:-1]:
        wl_name, name, value, unit = line.split()
        printed[name] = (float(value), unit)
    figures = {**COMMON, **FIGURES[wl.spec(workload, "smoke")[0]]}
    for name, unit in figures.items():
        if name not in printed or printed[name][1] != unit:
            problems.append(f"figure {name} [{unit}] not printed")
    if printed.get("failed_frac", (None,))[0] != 0:
        problems.append("failed_frac is not 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
