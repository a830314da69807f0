"""Command-line entry point.

Subcommands mirror the analysis surface: ``capacity`` evaluates the
closed form over an epsilon grid, ``threshold`` runs density-evolution
bisection per size model, ``simulate`` runs finite-length Monte Carlo
trials, ``pm-table`` dumps sumset-size distributions, ``decode-trace``
replays one decoding run from graph/received files.  Everything emits
CSV (header comment line with the invocation and seed, then a header
row); identical flags and seed give byte-identical output.

Exit codes: 0 ok; 2 a validation error or a refusal by the work
budget (``budget``); 3 an exact law whose orbit chain would take more
than its share of the budget, a refusal that ``--mc-samples`` cures by
sampling the law instead.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from . import budget
from .channel import PartialErasureChannel
from .decoder import DecodingInconsistency, decode
from .density_evolution import DeConfig, threshold_search
from .gf import GF
from .ldpc import DegreeDistribution, TannerGraph
from .simulation import run_trials
from .sumset_models import (
    MODEL_KINDS,
    EnumerationBudgetError,
    SumsetSizeModel,
)
from .symbol_sets import SymbolSet


def _parse_eps(args) -> list[float]:
    if (args.eps is None) == (args.eps_grid is None):
        raise ValueError("give exactly one of --eps or --eps-grid start:stop:step")
    if args.eps is not None:
        grid = [args.eps]
    else:
        try:
            start, stop, step = (float(tok) for tok in args.eps_grid.split(":"))
        except ValueError:
            raise ValueError(f"bad --eps-grid {args.eps_grid!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError("eps grid bounds and step must be finite")
        if step <= 0 or stop < start:
            raise ValueError("eps grid needs step > 0 and stop >= start")
        # the grid has about (stop - start) / step + 1 points (inf when
        # step is subnormal); count them before building the list
        if not (stop - start) / step < budget.ITEMS:
            raise ValueError(f"eps grid would exceed {budget.ITEMS} points")
        grid = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-9:
                break
            grid.append(min(v, 1.0))
            k += 1
    for v in grid:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"epsilon {v} outside [0, 1]")
    return grid


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}") from None


def _models(args) -> list[SumsetSizeModel]:
    """The --model list as models, built before any work: an unknown
    kind is refused by the model itself."""
    mc = {} if args.mc_samples is None else dict(mc_samples=args.mc_samples, mc_seed=args.seed)
    kinds = (tok.strip() for tok in args.model.split(","))
    return [SumsetSizeModel(kind, **(mc if kind == "exact" else {})) for kind in kinds if kind]


def _emit(args, invocation: list[str], header: list[str], rows) -> None:
    # record what was computed, not where it was written: drop --out in
    # every spelling argparse accepts (--out PATH, --out=PATH and any
    # unambiguous prefix such as --ou PATH)
    echo = []
    skip = False
    for tok in invocation:
        if skip:
            skip = False
            continue
        name, eq, _ = tok.partition("=")
        if len(name) > 2 and "--out".startswith(name):
            skip = not eq
            continue
        echo.append(tok)
    # rows may be a generator: each is written as it comes, so a long
    # decode trace is never held whole as rows or text
    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        fh.write("# pecldpc " + " ".join(echo) + f" seed={args.seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            # floats to 12 significant digits (numpy floats are floats too)
            writer.writerow([format(x, ".12g") if isinstance(x, float) else str(x) for x in row])
    finally:
        if args.out:
            fh.close()


# -- subcommands -------------------------------------------------------------


def _cmd_capacity(args, argv):
    field = GF(args.q)
    rows = []
    for m in _parse_int_list(args.M, "--M"):
        for eps in _parse_eps(args):
            ch = PartialErasureChannel(field, m, eps)
            rows.append((args.q, m, eps, ch.capacity(), ch.capacity("bits")))
    _emit(args, argv, ["q", "M", "epsilon", "capacity_qary", "capacity_bits"], rows)
    return 0


def _cmd_threshold(args, argv):
    field = GF(args.q)
    degrees = DegreeDistribution.regular(args.dv, args.dc)
    models = _models(args)
    rows = []
    for m in _parse_int_list(args.M, "--M"):
        for model in models:
            cfg = DeConfig(
                channel=PartialErasureChannel(field, m, 0.0),
                degrees=degrees,
                size_model=model,
                max_iters=args.max_iters,
            )
            th = threshold_search(cfg, tol_eps=args.tol, check_monotone=args.check_monotone)
            rows.append((args.q, m, args.dv, args.dc, model.kind, th))
    _emit(args, argv, ["q", "M", "d_v", "d_c", "model", "epsilon_threshold"], rows)
    return 0


def _cmd_simulate(args, argv):
    field = GF(args.q)
    ms, grid = _parse_int_list(args.M, "--M"), _parse_eps(args)
    # each (M, eps) point runs its own trials: cap the run, not each call
    budget.over(len(ms) * len(grid) * args.trials, budget.ITEMS, "a run's trials exceed its share")
    rows = []
    for m in ms:
        for eps in grid:
            report = run_trials(
                PartialErasureChannel(field, m, eps),
                n=args.n,
                d_v=args.dv,
                d_c=args.dc,
                trials=args.trials,
                max_iters=args.max_iters,
                seed=args.seed,
            )
            rows.append(
                (
                    args.q, m, args.dv, args.dc, args.n, eps,
                    report.trials, report.successes, report.success_rate,
                    report.avg_iterations, report.residual_symbol_error_rate,
                )
            )
    _emit(
        args,
        argv,
        [
            "q", "M", "d_v", "d_c", "n", "epsilon", "trials", "successes",
            "success_rate", "avg_iterations", "residual_symbol_error_rate",
        ],
        rows,
    )
    return 0


def _cmd_pm_table(args, argv):
    field = GF(args.q)
    # an empty --sizes is refused by the laws
    sizes = _parse_int_list(args.sizes, "--sizes")
    rows = []
    for model in _models(args):
        dist = model.distribution(sizes, field)
        for m, p in enumerate(dist, start=1):
            rows.append((args.q, "+".join(str(s) for s in sizes), m, float(p), model.kind))
    _emit(args, argv, ["q", "sizes", "m", "probability", "model"], rows)
    return 0


def _cmd_decode_trace(args, argv):
    with open(args.graph) as fh:
        text = fh.read()
    with open(args.received) as fh:
        lines = [line for line in fh if line.strip()]
    # check the variable count before the graph allocates per-node arrays;
    # from_text refuses a header that is not 'q n m'
    header = text.lstrip().split("\n", 1)[0].split()
    if len(header) == 3 and 0 <= int(header[1]) != len(lines):
        raise ValueError(f"graph has {header[1]} variables but {len(lines)} received sets")
    graph = TannerGraph.from_text(text)
    field = graph.field
    received = [SymbolSet.parse(field, line) for line in lines]
    result = decode(
        graph, received, max_iters=args.max_iters, record_messages=True
    )

    # (text, size) of each distinct mask, formatted once for the run
    labels = {}

    def label(mask: int) -> tuple[str, int]:
        if mask not in labels:
            s = SymbolSet.from_mask(field, mask)
            labels[mask] = (str(s), len(s))
        return labels[mask]

    def rows():
        for v, s in enumerate(received):
            yield (0, "channel", "", v, "", str(s), len(s))
        ends = list(zip(graph.edge_var.tolist(), graph.edge_chk.tolist()))
        for it, (ctv, vtc) in enumerate(result.message_history):
            for kind, msgs in (("ctv", ctv), ("vtc", vtc)):
                if msgs is None:
                    continue
                if it == 0 and kind == "vtc":
                    continue  # iteration-0 edge messages repeat the channel rows
                for e, ((v, c), mask) in enumerate(zip(ends, msgs)):
                    yield (it, kind, e, v, c, *label(mask))
        for v, mask in enumerate(result.posterior.tolist()):
            yield (result.iterations, "posterior", "", v, "", *label(mask))
        yield (result.iterations, "status", "", "", "", result.status, "")

    _emit(
        args,
        argv,
        ["iteration", "kind", "edge", "variable", "check", "message", "size"],
        rows(),
    )
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pecldpc",
        description="LDPC analysis tools for q-ary partial-erasure channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None, help="output CSV path")

    p = sub.add_parser("capacity", help="closed-form capacity over an epsilon grid")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--M", type=str, required=True, help="set size(s), comma separated")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps-grid", type=str, default=None, help="start:stop:step")
    common(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("threshold", help="density-evolution decoding thresholds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--M", type=str, required=True, help="set size(s), comma separated")
    p.add_argument("--dv", type=int, required=True)
    p.add_argument("--dc", type=int, required=True)
    p.add_argument("--model", type=str, default=",".join(MODEL_KINDS))
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-4, help="bisection tolerance")
    p.add_argument("--mc-samples", type=int, default=None)
    p.add_argument(
        "--check-monotone",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="probe a grid to confirm convergence is monotone in epsilon",
    )
    common(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("simulate", help="finite-length Monte Carlo decoding trials")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--M", type=str, required=True)
    p.add_argument("--dv", type=int, required=True)
    p.add_argument("--dc", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps-grid", type=str, default=None, help="start:stop:step")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-iters", type=int, default=100)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pm-table", help="sumset-size distribution tables")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--sizes", type=str, required=True, help="operand sizes, comma separated")
    p.add_argument("--model", type=str, default=",".join(MODEL_KINDS))
    p.add_argument("--mc-samples", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_pm_table)

    p = sub.add_parser("decode-trace", help="replay one decoding run with full messages")
    p.add_argument("--graph", type=str, required=True, help="graph file ('q n m' header)")
    p.add_argument("--received", type=str, required=True, help="one set per line")
    p.add_argument("--max-iters", type=int, default=100)
    common(p)
    p.set_defaults(func=_cmd_decode_trace)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, list(argv))
    except EnumerationBudgetError as exc:
        print(
            f"error: {exc}\nhint: pass --mc-samples to approximate the exact "
            "model by Monte Carlo",
            file=sys.stderr,
        )
        return 3
    except (ValueError, OSError, DecodingInconsistency) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
