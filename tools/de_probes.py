"""Record every density-evolution probe of the benchmark's de-sweep.

Runs the de-sweep's threshold searches (the search list and settings of
``bench/workloads.py``, as the benchmark worker runs them) and prints
the totals: searches, probes, iterations, certificate tries (the
evaluations of F that ``DeResult.tries`` counts) and the cells the
probes charged to their searches' work budgets.  With ``--out FILE`` it
also writes one JSON line per probe, in probe order: the search, the
eps, whether the probe started from a run above it (``run``'s
``above``), its start failure probability, ``converged``, the stop
reason, iterations, tries, the cells it charged (its search's first
probe pays for the tables too), the sha256 of the trajectory's
``float.hex`` text and that text itself.

    python tools/de_probes.py [--out probes.jsonl]
    python tools/de_probes.py --compare A.jsonl B.jsonl

``--compare`` pairs the probes of two record files in order.  It reports
each pair whose search or eps differ, each change of verdict or stop
reason, and how each pair's trajectories relate: identical, one a
prefix of the other, apart (they part after a common start) or
restarted (their first entries differ, or only one probe started from
a run above it, so their start laws differ), and each pair whose
charged cells differ.  A record without ``above`` (an older file)
started from the start law, and one without ``cells`` is not compared
by its charge.  It exits 1 if any search, eps, verdict, stop reason or
charge differs or any trajectories part after a common start.

The package is imported from the checkout's ``src/`` unless
``PYTHONPATH`` names another copy first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# appended, so that a PYTHONPATH copy of the package comes first
sys.path += [str(ROOT / "src"), str(ROOT / "bench")]

import workloads as wl  # noqa: E402


def record() -> list[dict]:
    """One record per probe of the de-sweep's searches, in probe order."""
    import pecldpc
    from pecldpc import budget
    from pecldpc import density_evolution as de

    degrees = pecldpc.DegreeDistribution.regular(wl.D_V, wl.D_C)
    fields = {q: pecldpc.GF(q) for q in wl.fields_of("de-sweep", "full")}
    probes, real_run = [], de.run
    search = None

    def recording_run(cfg, **kw):
        # inside the search's scope: its budget is the one open
        left = budget.current().left
        r = real_run(cfg, **kw)
        text = " ".join(pe.hex() for _, pe in r.trajectory)
        probes.append({
            "search": search, "eps": cfg.channel.epsilon.hex(),
            "above": kw.get("above") is not None, "start": r.trajectory[0][1].hex(),
            "converged": r.converged, "stop_reason": r.stop_reason,
            "iterations": r.iterations, "tries": r.tries, "cells": left - budget.current().left,
            "sha256": hashlib.sha256(text.encode()).hexdigest(), "trajectory": text,
        })
        return r

    de.run = recording_run
    try:
        for q, M, kind in wl.DE["full"]:
            search = f"{q},{M},{kind}"
            cfg = pecldpc.DeConfig(
                channel=pecldpc.PartialErasureChannel(fields[q], M, 0.0),
                degrees=degrees,
                size_model=pecldpc.SumsetSizeModel(kind),
                max_iters=wl.DE_MAX_ITERS,
            )
            de.threshold_search(cfg, tol_eps=wl.DE_TOL_EPS, check_monotone=True)
    finally:
        de.run = real_run
    return probes


def compare(a: list[dict], b: list[dict]) -> bool:
    """Print how the probes of ``b`` differ from ``a``'s; True if no
    search, eps, verdict, stop reason or charge differs and no two
    trajectories part after a common start."""
    kinds = {"identical": 0, "prefix": 0, "extension": 0, "apart": 0, "restarted": 0}
    bad = len(a) != len(b)
    if bad:
        print(f"probe counts differ: {len(a)} vs {len(b)}")
    for n, (x, y) in enumerate(zip(a, b)):
        where = f"probe {n} ({x['search']} at eps {float.fromhex(x['eps'])!r})"
        if (x["search"], x["eps"]) != (y["search"], y["eps"]):
            print(f"{where}: B probes {y['search']} at eps {float.fromhex(y['eps'])!r}")
            bad = True
            continue
        for key in ("converged", "stop_reason", "cells"):
            if x.get(key, y.get(key)) != y.get(key, x.get(key)):
                print(f"{where}: {key} {x[key]} -> {y[key]}")
                bad = True
        tx, ty = x["trajectory"].split(), y["trajectory"].split()
        if tx == ty:
            kinds["identical"] += 1
        elif ty == tx[: len(ty)]:
            kinds["prefix"] += 1
        elif tx == ty[: len(tx)]:
            kinds["extension"] += 1
        elif tx[0] != ty[0] or x.get("above", False) != y.get("above", False):
            kinds["restarted"] += 1
        else:
            kinds["apart"] += 1
            print(f"{where}: trajectories part at iteration "
                  f"{next(i for i, (p, r) in enumerate(zip(tx, ty)) if p != r)}")
            bad = True
    print(f"probes {len(a)} vs {len(b)}; B's trajectory against A's: "
          + ", ".join(f"{v} {k}" for k, v in kinds.items()))
    if all("cells" in p for p in a + b):
        print(f"cells {sum(p['cells'] for p in a)} vs {sum(p['cells'] for p in b)}")
    return not bad


def totals(probes: list[dict]) -> str:
    searches = len({p["search"] for p in probes})
    iterations = sum(p["iterations"] for p in probes)
    tries = sum(p["tries"] for p in probes)
    cells = sum(p["cells"] for p in probes)
    return (f"searches {searches}, probes {len(probes)}, iterations {iterations}, "
            f"tries {tries}, cells {cells}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write one JSON line per probe here")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two record files instead of running the searches")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = ([json.loads(line) for line in p.read_text().splitlines()] for p in args.compare)
        return 0 if compare(a, b) else 1
    probes = record()
    if args.out:
        args.out.write_text("".join(json.dumps(p) + "\n" for p in probes))
    print(totals(probes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
