"""Command-line entry point.

Subcommands mirror the analysis surface: ``capacity`` evaluates the
closed form over an epsilon grid, ``threshold`` runs density-evolution
bisection per size model, ``simulate`` runs finite-length Monte Carlo
trials, ``pm-table`` dumps sumset-size distributions, ``decode-trace``
replays one decoding run from graph/received files.  Everything emits
CSV (header comment line with the invocation and seed, then a header
row); identical flags and seed give byte-identical output.

Exit codes: 0 ok, 2 validation error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from .channel import PartialErasureChannel
from .decoder import decode
from .density_evolution import DeConfig, threshold_search
from .gf import GF
from .ldpc import DegreeDistribution, TannerGraph
from .simulation import MAX_TRIALS, run_trials
from .sumset_models import (
    MODEL_KINDS,
    EnumerationBudgetError,
    SumsetSizeModel,
)
from .symbol_sets import SymbolSet, set_bytes


MAX_EPS_POINTS = 10**6
# bytes of one edge-message array the decoder may hold: n * d_v sets of
# 2 bytes (uint16 masks) or q bytes (bool planes).  A decode peaks at
# 45-95 times this (graph arrays, the other message arrays, the pass
# temporaries and, for planes, the complex spectra), so 16 MiB keeps a
# simulate run near or below 1.5 GB while allowing n ~ 2.8e6 at q=4 and
# n ~ 21,800 at q=256 for d_v=3
MAX_SIM_MESSAGE_BYTES = 2**24
# checks a decode-trace graph may declare.  Its header sizes the per-node
# arrays before any edge is read; the variables must match the received
# sets, but nothing else bounds m.  2**22 admits every graph a simulate
# run may build (m = n * d_v / d_c with n * d_v <= 2**23 and d_c >= 2)
MAX_GRAPH_CHECKS = 2**22


class CliError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _parse_eps(args) -> list[float]:
    if (args.eps is None) == (args.eps_grid is None):
        raise CliError("give exactly one of --eps or --eps-grid start:stop:step")
    if args.eps is not None:
        grid = [args.eps]
    else:
        try:
            start, stop, step = (float(tok) for tok in args.eps_grid.split(":"))
        except ValueError:
            raise CliError(f"bad --eps-grid {args.eps_grid!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise CliError("eps grid bounds and step must be finite")
        if step <= 0 or stop < start:
            raise CliError("eps grid needs step > 0 and stop >= start")
        # the grid has about (stop - start) / step + 1 points (inf when
        # step is subnormal); count them before building the list
        if not (stop - start) / step < MAX_EPS_POINTS:
            raise CliError(f"eps grid would exceed {MAX_EPS_POINTS} points")
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
            raise CliError(f"epsilon {v} outside [0, 1]")
    return grid


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"bad {what} list {text!r}") from None


def _parse_models(text: str) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    for name in names:
        if name not in MODEL_KINDS:
            raise CliError(f"unknown model {name!r}; choose from {', '.join(MODEL_KINDS)}")
    return names


def _make_model(kind: str, args) -> SumsetSizeModel:
    if kind == "exact" and getattr(args, "mc_samples", None) is not None:
        return SumsetSizeModel(
            "exact", mc_samples=args.mc_samples, mc_seed=args.seed
        )
    return SumsetSizeModel(kind)


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
    buf = io.StringIO()
    buf.write("# pecldpc " + " ".join(echo) + f" seed={args.seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    rows = []
    for m in _parse_int_list(args.M, "--M"):
        for kind in _parse_models(args.model):
            cfg = DeConfig(
                channel=PartialErasureChannel(field, m, 0.0),
                degrees=degrees,
                size_model=_make_model(kind, args),
                max_iters=args.max_iters,
            )
            th = threshold_search(cfg, tol_eps=args.tol, check_monotone=args.check_monotone)
            rows.append((args.q, m, args.dv, args.dc, kind, th))
    _emit(args, argv, ["q", "M", "d_v", "d_c", "model", "epsilon_threshold"], rows)
    return 0


def _cmd_simulate(args, argv):
    field = GF(args.q)
    message_bytes = max(args.n, 0) * max(args.dv, 0) * set_bytes(args.q)
    if message_bytes > MAX_SIM_MESSAGE_BYTES:
        raise CliError(
            f"--n {args.n} with --dv {args.dv} needs {message_bytes} bytes per edge-message "
            f"array at q={args.q}, above the limit of {MAX_SIM_MESSAGE_BYTES}"
        )
    ms, grid = _parse_int_list(args.M, "--M"), _parse_eps(args)
    # each (M, eps) point runs its own trials: cap the run, not each factor
    total = len(ms) * len(grid) * args.trials
    if total > MAX_TRIALS:
        raise CliError(
            f"{len(ms)} M values x {len(grid)} eps points x {args.trials} trials: "
            f"{total} trials exceed the limit of {MAX_TRIALS} a run"
        )
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
    sizes = _parse_int_list(args.sizes, "--sizes")
    if not sizes:
        raise CliError("--sizes must list at least one set size")
    rows = []
    for kind in _parse_models(args.model):
        model = _make_model(kind, args)
        dist = model.distribution(sizes, field)
        for m, p in enumerate(dist, start=1):
            rows.append((args.q, "+".join(str(s) for s in sizes), m, float(p), kind))
    _emit(args, argv, ["q", "sizes", "m", "probability", "model"], rows)
    return 0


def _cmd_decode_trace(args, argv):
    with open(args.graph) as fh:
        text = fh.read()
    with open(args.received) as fh:
        lines = [line for line in fh if line.strip()]
    # check the header's sizes before the graph allocates per-node arrays;
    # from_text refuses a header that is not 'q n m'
    header = text.lstrip().split("\n", 1)[0].split()
    if len(header) == 3:
        n, m = int(header[1]), int(header[2])
        if 0 <= n != len(lines):
            raise CliError(f"graph has {n} variables but {len(lines)} received sets")
        if m > MAX_GRAPH_CHECKS:
            raise CliError(f"graph has {m} checks, above the limit of {MAX_GRAPH_CHECKS}")
    graph = TannerGraph.from_text(text)
    field = graph.field
    received = [SymbolSet.parse(field, line) for line in lines]
    result = decode(
        graph, received, max_iters=args.max_iters, record_messages=True
    )
    rows = []
    for v, s in enumerate(received):
        rows.append((0, "channel", "", v, "", str(s), len(s)))
    for it, (ctv, vtc) in enumerate(result.message_history):
        for kind, msgs in (("ctv", ctv), ("vtc", vtc)):
            if msgs is None:
                continue
            if it == 0 and kind == "vtc":
                continue  # iteration-0 edge messages repeat the channel rows
            for e in range(graph.n_edges):
                s = SymbolSet.from_mask(field, int(msgs[e]))
                rows.append(
                    (
                        it, kind, e,
                        int(graph.edge_var[e]), int(graph.edge_chk[e]),
                        str(s), len(s),
                    )
                )
    for v, s in enumerate(result.estimate):
        rows.append((result.iterations, "posterior", "", v, "", str(s), len(s)))
    rows.append((result.iterations, "status", "", "", "", result.status, ""))
    _emit(
        args,
        argv,
        ["iteration", "kind", "edge", "variable", "check", "message", "size"],
        rows,
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
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
