"""Command-line entry point.

Subcommands mirror the analysis surface: ``capacity`` evaluates the
closed form over an epsilon grid, ``threshold`` runs density-evolution
bisection per size model (and warns on stderr when a model's check
tables fail the order check, so that the bisection's monotonicity in
epsilon is unproven), ``simulate`` runs finite-length Monte Carlo
trials, ``pm-table`` dumps sumset-size distributions, ``decode-trace``
replays one decoding run from graph/received files.  Everything emits
CSV (header comment line with the invocation and seed, then a header
row); identical flags and seed give byte-identical output.  The list
flags (``--M``, ``--sizes``, ``--model``) take comma-separated values
and refuse an empty list; ``--eps`` and ``--eps-grid`` exclude each
other, and one of them is required where they appear.

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
    # argparse takes exactly one of --eps and --eps-grid
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


def _list_of(item):
    """The argparse type of a comma-separated list of ``item`` values: a
    malformed or empty list is a usage error (exit 2)."""

    def parse(text: str) -> list:
        try:
            values = [item(tok.strip()) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad list {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        return values

    return parse


def _models(args) -> list[SumsetSizeModel]:
    """The --model list as models, built before any work: an unknown
    kind is refused by the model itself."""
    mc = {} if args.mc_samples is None else dict(mc_samples=args.mc_samples, mc_seed=args.seed)
    return [SumsetSizeModel(kind, **(mc if kind == "exact" else {})) for kind in args.model]


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


# -- subcommands: each returns its CSV header and rows -----------------------


def _cmd_capacity(args):
    field, grid = GF(args.q), _parse_eps(args)
    rows = []
    for m in args.M:
        for eps in grid:
            ch = PartialErasureChannel(field, m, eps)
            rows.append((args.q, m, eps, ch.capacity(), ch.capacity("bits")))
    return ["q", "M", "epsilon", "capacity_qary", "capacity_bits"], rows


def _cmd_threshold(args):
    field = GF(args.q)
    degrees = DegreeDistribution.regular(args.dv, args.dc)
    models = _models(args)
    rows = []
    for m in args.M:
        for model in models:
            ch = PartialErasureChannel(field, m, 0.0)
            cfg = DeConfig(channel=ch, degrees=degrees, size_model=model, max_iters=args.max_iters)
            th = threshold_search(cfg, tol_eps=args.tol, check_monotone=True)
            rows.append((args.q, m, args.dv, args.dc, model.kind, th))
    return ["q", "M", "d_v", "d_c", "model", "epsilon_threshold"], rows


def _cmd_simulate(args):
    field, grid = GF(args.q), _parse_eps(args)
    # each (M, eps) point runs its own trials: cap the run, not each call
    total = len(args.M) * len(grid) * args.trials
    budget.over(total, budget.ITEMS, "a run's trials exceed its share")
    rows = []
    for m in args.M:
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
    header = [
        "q", "M", "d_v", "d_c", "n", "epsilon", "trials", "successes",
        "success_rate", "avg_iterations", "residual_symbol_error_rate",
    ]
    return header, rows


def _cmd_pm_table(args):
    field = GF(args.q)
    rows = []
    for model in _models(args):
        dist = model.distribution(args.sizes, field)
        for m, p in enumerate(dist, start=1):
            rows.append((args.q, "+".join(map(str, args.sizes)), m, float(p), model.kind))
    return ["q", "sizes", "m", "probability", "model"], rows


def _cmd_decode_trace(args):
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
    result = decode(graph, received, max_iters=args.max_iters, record_messages=True)

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

    return ["iteration", "kind", "edge", "variable", "check", "message", "size"], rows()


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pecldpc",
        description="LDPC analysis tools for q-ary partial-erasure channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag that several subcommands share is declared once, on a
    # parent parser; --max-iters is not, as its default differs (DE 2000,
    # decoding 100)
    field, sizes, degrees, eps, models, io = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    field.add_argument("--q", type=int, required=True)
    ints = _list_of(int)
    sizes.add_argument("--M", type=ints, required=True, help="set size(s), comma separated")
    degrees.add_argument("--dv", type=int, required=True)
    degrees.add_argument("--dc", type=int, required=True)
    one_eps = eps.add_mutually_exclusive_group(required=True)
    one_eps.add_argument("--eps", type=float)
    one_eps.add_argument("--eps-grid", help="start:stop:step")
    models.add_argument("--model", type=_list_of(str), default=",".join(MODEL_KINDS))
    models.add_argument("--mc-samples", type=int)
    io.add_argument("--seed", type=int, default=0)
    io.add_argument("--out", help="output CSV path")

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, io])
        p.set_defaults(func=func)
        return p

    command("capacity", _cmd_capacity, "closed-form capacity over an epsilon grid",
            field, sizes, eps)

    p = command("threshold", _cmd_threshold, "density-evolution decoding thresholds",
                field, sizes, degrees, models)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-4, help="bisection tolerance")

    p = command("simulate", _cmd_simulate, "finite-length Monte Carlo decoding trials",
                field, sizes, degrees, eps)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-iters", type=int, default=100)

    p = command("pm-table", _cmd_pm_table, "sumset-size distribution tables", field, models)
    p.add_argument("--sizes", type=ints, required=True, help="operand sizes, comma separated")

    p = command("decode-trace", _cmd_decode_trace, "replay one decoding run with full messages")
    p.add_argument("--graph", required=True, help="graph file ('q n m' header)")
    p.add_argument("--received", required=True, help="one set per line")
    p.add_argument("--max-iters", type=int, default=100)

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
        header, rows = args.func(args)
        _emit(args, argv, header, rows)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
