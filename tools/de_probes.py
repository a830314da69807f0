"""Record every density-evolution probe of the benchmark's de-sweep.

Runs the de-sweep's threshold searches (the search list and settings of
``bench/workloads.py``, as the benchmark worker runs them) and prints
the totals: searches, probes, iterations and certificate tries (the
evaluations of F that ``DeResult.tries`` counts).  With ``--out FILE``
it also writes one JSON line per probe, in probe order: the search, the
eps, ``converged``, the stop reason, iterations, tries, the sha256 of
the trajectory's ``float.hex`` text and that text itself.

    python tools/de_probes.py [--out probes.jsonl]
    python tools/de_probes.py --compare A.jsonl B.jsonl

``--compare`` pairs the probes of two record files in order.  It reports
each pair whose search or eps differ, each verdict change, and how each
pair's trajectories relate: identical, one a prefix of the other, or
apart.  It exits 1 if any search, eps or verdict differs or any
trajectories part.

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
    from pecldpc import density_evolution as de

    degrees = pecldpc.DegreeDistribution.regular(wl.D_V, wl.D_C)
    fields = {q: pecldpc.GF(q) for q in wl.fields_of("de-sweep", "full")}
    probes, real_run = [], de.run
    search = None

    def recording_run(cfg):
        r = real_run(cfg)
        text = " ".join(pe.hex() for _, pe in r.trajectory)
        probes.append({
            "search": search, "eps": cfg.channel.epsilon.hex(), "converged": r.converged,
            "stop_reason": r.stop_reason, "iterations": r.iterations, "tries": r.tries,
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
    search, eps or verdict differs and no two trajectories part."""
    kinds = {"identical": 0, "prefix": 0, "extension": 0, "apart": 0}
    bad = len(a) != len(b)
    if bad:
        print(f"probe counts differ: {len(a)} vs {len(b)}")
    for n, (x, y) in enumerate(zip(a, b)):
        where = f"probe {n} ({x['search']} at eps {float.fromhex(x['eps'])!r})"
        if (x["search"], x["eps"]) != (y["search"], y["eps"]):
            print(f"{where}: B probes {y['search']} at eps {float.fromhex(y['eps'])!r}")
            bad = True
            continue
        if x["converged"] != y["converged"]:
            print(f"{where}: converged {x['converged']} -> {y['converged']}")
            bad = True
        tx, ty = x["trajectory"].split(), y["trajectory"].split()
        if tx == ty:
            kinds["identical"] += 1
        elif ty == tx[: len(ty)]:
            kinds["prefix"] += 1
        elif tx == ty[: len(tx)]:
            kinds["extension"] += 1
        else:
            kinds["apart"] += 1
            print(f"{where}: trajectories part at iteration "
                  f"{next(i for i, (p, r) in enumerate(zip(tx, ty)) if p != r)}")
            bad = True
    print(f"probes {len(a)} vs {len(b)}; B's trajectory against A's: "
          + ", ".join(f"{v} {k}" for k, v in kinds.items()))
    return not bad


def totals(probes: list[dict]) -> str:
    searches = len({p["search"] for p in probes})
    iterations = sum(p["iterations"] for p in probes)
    tries = sum(p["tries"] for p in probes)
    return f"searches {searches}, probes {len(probes)}, iterations {iterations}, tries {tries}"


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
