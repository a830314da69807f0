import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pecldpc
from pecldpc import GF, PartialErasureChannel, SymbolSet, build_regular
from pecldpc.cli import main
from pecldpc.sumset_models import sumset_bounds


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def rows_of(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))


# ---------------------------------------------------------
# capacity
# ---------------------------------------------------------
def test_capacity_values(tmp_path):
    code, text = run_cli(
        ["capacity", "--q", "4", "--M", "2", "--eps-grid", "0:1:0.5"], tmp_path
    )
    assert code == 0
    assert text.startswith("# pecldpc capacity")
    assert "seed=0" in text.splitlines()[0]
    rows = rows_of(text)
    assert rows[0] == ["q", "M", "epsilon", "capacity_qary", "capacity_bits"]
    caps = [float(r[3]) for r in rows[1:]]
    assert caps == [1.0, 0.75, 0.5]


def test_capacity_qec_column(tmp_path):
    code, text = run_cli(
        ["capacity", "--q", "5", "--M", "5", "--eps-grid", "0:1:0.25"], tmp_path
    )
    assert code == 0
    for r in rows_of(text)[1:]:
        assert float(r[3]) == pytest.approx(1 - float(r[2]), abs=1e-12)


# ---------------------------------------------------------
# threshold
# ---------------------------------------------------------
def test_threshold_rows(tmp_path):
    code, text = run_cli(
        [
            "threshold", "--q", "2", "--M", "2", "--dv", "3", "--dc", "6",
            "--model", "exact,balls", "--tol", "1e-3",
        ],
        tmp_path,
    )
    assert code == 0
    rows = rows_of(text)
    assert rows[0] == ["q", "M", "d_v", "d_c", "model", "epsilon_threshold"]
    ths = {r[4]: float(r[5]) for r in rows[1:]}
    assert set(ths) == {"exact", "balls"}
    for v in ths.values():
        assert abs(v - 0.4294) < 2e-3


def test_threshold_rejects_unusable_tolerance(capsys):
    args = [
        "threshold", "--q", "4", "--M", "2", "--dv", "3", "--dc", "6",
        "--model", "bound-upper",
    ]
    for tol in ("0", "-1", "1e-300", "nan", "1", "inf"):
        assert main(args + ["--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err


def test_iteration_limits_rejected(tmp_path, capsys):
    threshold = [
        "threshold", "--q", "4", "--M", "2", "--dv", "3", "--dc", "6", "--model", "exact",
    ]
    for iters in ("0", "-3"):
        assert main(threshold + ["--max-iters", iters]) == 2
        assert "max_iters" in capsys.readouterr().err
    simulate = [
        "simulate", "--q", "4", "--M", "2", "--n", "12", "--dv", "3", "--dc", "6",
        "--eps", "0.5", "--trials", "2",
    ]
    assert main(simulate + ["--max-iters", "-1"]) == 2
    assert "max_iters" in capsys.readouterr().err
    code, text = run_cli(simulate + ["--max-iters", "0"], tmp_path)
    assert code == 0 and rows_of(text)[1][9] == "0"  # avg_iterations


@pytest.mark.parametrize(
    "args",
    [
        ["pm-table", "--q", "4", "--sizes", "2,2", "--model", "exact", "--mc-samples", "10"],
        ["simulate", "--q", "4", "--M", "2", "--n", "12", "--dv", "3", "--dc", "6", "--eps", "0.5"],
    ],
    ids=["pm-table", "simulate"],
)
def test_negative_seed_refused(capsys, args):
    # pm-table exited 0, as the exact law drew nothing; simulate exited 2
    # with numpy's unnamed "expected non-negative integer"
    assert main(args + ["--seed", "-1"]) == 2
    assert "seed must be an integer of at least 0" in capsys.readouterr().err


# ---------------------------------------------------------
# pm-table
# ---------------------------------------------------------
def test_pm_table_exact_anchor(tmp_path):
    code, text = run_cli(
        ["pm-table", "--q", "4", "--sizes", "2,2", "--model", "exact"], tmp_path
    )
    assert code == 0
    rows = rows_of(text)
    probs = {int(r[2]): float(r[3]) for r in rows[1:]}
    assert probs[2] == pytest.approx(1 / 3, abs=1e-12)
    assert probs[3] == 0.0
    assert probs[4] == pytest.approx(2 / 3, abs=1e-12)
    assert rows[1][1] == "2+2"


def test_pm_table_monte_carlo_above_q64(tmp_path):
    # the exact law of (3, 3) at q=128 is over its share of the work
    # budget (its second step alone charges C(127, 2) pairs from each of
    # 21 orbits), so --mc-samples samples it
    code, text = run_cli(
        ["pm-table", "--q", "128", "--sizes", "3,3", "--model", "exact", "--mc-samples", "1000"],
        tmp_path,
    )
    assert code == 0
    probs = {int(r[2]): float(r[3]) for r in rows_of(text)[1:]}
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    b = sumset_bounds((3, 3), GF(128))
    assert all(b.lower <= m <= b.upper for m, p in probs.items() if p > 0)


def test_pm_table_all_models(tmp_path):
    code, text = run_cli(["pm-table", "--q", "5", "--sizes", "2,2"], tmp_path)
    assert code == 0
    models = {r[4] for r in rows_of(text)[1:]}
    assert models == {"exact", "bound-lower", "bound-upper", "balls", "union"}


# ---------------------------------------------------------
# simulate
# ---------------------------------------------------------
def test_simulate_no_erasures(tmp_path):
    code, text = run_cli(
        [
            "simulate", "--q", "4", "--M", "2", "--dv", "3", "--dc", "6",
            "--n", "60", "--eps", "0", "--trials", "4", "--seed", "5",
        ],
        tmp_path,
    )
    assert code == 0
    row = rows_of(text)[1]
    assert row[6] == "4" and row[7] == "4"  # trials == successes


def test_simulate_large_field(tmp_path):
    code, text = run_cli(
        [
            "simulate", "--q", "64", "--M", "2", "--dv", "3", "--dc", "6",
            "--n", "60", "--eps", "0.3", "--trials", "3", "--seed", "5",
        ],
        tmp_path,
    )
    assert code == 0
    row = rows_of(text)[1]
    assert row[0] == "64" and row[6] == "3" and row[7] == "3"


# ---------------------------------------------------------
# decode-trace
# ---------------------------------------------------------
@pytest.fixture
def worked_example_files(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("5 3 1\n0 0 2\n1 0 4\n2 0 3\n")
    received = tmp_path / "received.txt"
    received.write_text("0,1\n0,2,3\n0,1,2,3,4\n")
    return graph, received


def test_decode_trace_worked_example(tmp_path, worked_example_files):
    graph, received = worked_example_files
    code, text = run_cli(
        ["decode-trace", "--graph", str(graph), "--received", str(received)],
        tmp_path,
    )
    assert code == 0
    rows = rows_of(text)
    ctv1 = {
        (r[3], r[4]): r[5]
        for r in rows[1:]
        if r[0] == "1" and r[1] == "ctv"
    }
    assert ctv1[("2", "0")] == "{0,1,2,4}"
    status = [r for r in rows[1:] if r[1] == "status"]
    assert status[0][5] == "stalled"  # degree-1 variables cannot resolve


# ---------------------------------------------------------
# determinism and exit codes
# ---------------------------------------------------------
def test_byte_identical_reruns(tmp_path):
    cases = [
        ["capacity", "--q", "4", "--M", "2,4", "--eps-grid", "0:1:0.1"],
        ["pm-table", "--q", "5", "--sizes", "2,3"],
        [
            "simulate", "--q", "4", "--M", "2", "--dv", "3", "--dc", "6",
            "--n", "48", "--eps-grid", "0.2:0.6:0.2", "--trials", "3",
            "--seed", "7",
        ],
    ]
    for i, args in enumerate(cases):
        _, a = run_cli(args, tmp_path, name=f"a{i}.csv")
        _, b = run_cli(args, tmp_path, name=f"b{i}.csv")
        assert a == b and a


def test_out_spellings_write_identical_files(tmp_path):
    args = ["capacity", "--q", "4", "--M", "2", "--eps", "0.5"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    spellings = [["--out", str(paths[0])], [f"--out={paths[1]}"], ["--ou", str(paths[2])]]
    for path, out in zip(paths, spellings):
        assert main(args + out) == 0
    texts = [path.read_bytes() for path in paths]
    assert texts[0] == texts[1] == texts[2]
    assert b"--o" not in texts[0] and b".csv" not in texts[0]


@pytest.mark.parametrize(
    "args, rows",
    [
        (
            "--q 4 --M 2 --n 600 --eps-grid 0.7:0.85:0.05",
            [
                "4,2,3,6,600,0.7,20,20,1,8.15,0",
                "4,2,3,6,600,0.75,20,20,1,11.3,0",
                "4,2,3,6,600,0.8,20,15,0.75,20.7,0.136083333333",
                "4,2,3,6,600,0.85,20,0,0,11.15,0.680833333333",
            ],
        ),
        (
            "--q 16 --M 4 --n 240 --eps-grid 0.5:0.7:0.1",
            [
                "16,4,3,6,240,0.5,20,20,1,3.45,0",
                "16,4,3,6,240,0.6,20,20,1,5.4,0",
                "16,4,3,6,240,0.7,20,16,0.8,10.6,0.13",
            ],
        ),
    ],
    ids=["q4", "q16"],
)
def test_simulate_pinned_output(tmp_path, args, rows):
    # seeded output recorded when every decoder pass ran every node;
    # a decode that drifts from full flooding shows up here
    code, text = run_cli(
        ["simulate", *args.split(), "--dv", "3", "--dc", "6", "--trials", "20", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    data = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert data[1:] == rows


def test_validation_exit_code(tmp_path, capsys):
    assert main(["capacity", "--q", "6", "--M", "2", "--eps", "0.5"]) == 2
    assert "prime power" in capsys.readouterr().err
    assert main(["capacity", "--q", "4", "--M", "2"]) == 2  # missing eps
    assert main(["capacity", "--q", "4", "--M", "9", "--eps", "0.5"]) == 2
    assert main(["capacity", "--q", "4", "--M", "2", "--eps", "1.5"]) == 2
    assert main(["pm-table", "--q", "4", "--sizes", "2,2", "--model", "nope"]) == 2
    for samples in ("0", "-5"):
        pm = ["pm-table", "--q", "16", "--sizes", "8,8,8", "--model", "exact"]
        assert main(pm + ["--mc-samples", samples]) == 2
    assert main(["bogus-command"]) == 2


def test_oversized_eps_grid_refused(capsys):
    # 10**12 points: refused from the grid length, before any is built
    start = time.perf_counter()
    assert main(["capacity", "--q", "4", "--M", "2", "--eps-grid", "0:1:1e-12"]) == 2
    assert time.perf_counter() - start < 5
    assert "eps grid would exceed" in capsys.readouterr().err
    for grid in ("0:1:5e-324", "0:inf:0.1", "0:1:nan"):
        assert main(["capacity", "--q", "4", "--M", "2", "--eps-grid", grid]) == 2


# the CLI in a child process whose address space is capped at 1 GiB
_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from pecldpc.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_limited(args):
    """Exit code and stderr of the CLI under the 1 GiB limit, which must
    answer within 10 s."""
    src = Path(pecldpc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 10
    return proc.returncode, proc.stderr


# several CLI runs in one child process under the 1 GiB limit, one JSON
# line (exit code, seconds, stderr) per run; a run that raises prints its
# traceback into its own stderr and reads exit None
_LIMITED_BATCH = """
import contextlib, io, json, resource, sys, time, traceback
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from pecldpc.cli import main
for args in json.loads(sys.argv[1]):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except Exception:
            traceback.print_exc()
            code = None
    print(json.dumps([code, time.perf_counter() - start, err.getvalue()]), flush=True)
"""

_Q4 = "--q 4 --M 2"
_DEGREES = "--dv 3 --dc 6"
_EXTREME_ARGS = {
    "capacity": [
        f"{_Q4} --eps nan", f"{_Q4} --eps -0.5", "--q 4 --M 0 --eps 0.5", "--q 4 --M -2 --eps 0.5",
        "--q 1 --M 1 --eps 0.5", "--q 6 --M 2 --eps 0.5", "--q 257 --M 2 --eps 0.5",
        f"{_Q4} --eps-grid nan:1:0.1",
    ],
    "threshold": [
        # each DE iteration's cells, refused before any table is built;
        # when only multisets were counted these died of OverflowError
        # and MemoryError, or ran for 10 s to minutes
        f"{_Q4} --dv 3 --dc 1031", f"{_Q4} --dv 3 --dc 20000", "--q 4 --M 4 --dv 3 --dc 72",
        f"{_Q4} --dv 20000 --dc 6", f"{_Q4} --dv 100000 --dc 6",
        f"{_Q4} --dv {10**20} --dc 6", f"{_Q4} --dv 3 --dc {10**20}",
        f"{_Q4} --dv 0 --dc 6", f"{_Q4} --dv -3 --dc 6", f"{_Q4} --dv 3 --dc 0",
        f"{_Q4} --dv 3 --dc -6", f"--q 4 --M 0 {_DEGREES}", f"--q 4 --M -1 {_DEGREES}",
        f"{_Q4} {_DEGREES} --max-iters 0", f"{_Q4} {_DEGREES} --max-iters -5",
        f"{_Q4} {_DEGREES} --tol nan", f"{_Q4} {_DEGREES} --tol 0", f"{_Q4} {_DEGREES} --tol -1",
        f"--q 1 --M 1 {_DEGREES}", f"--q 6 --M 2 {_DEGREES}", f"--q 257 --M 2 {_DEGREES}",
        f"{_Q4} {_DEGREES} --model exact --mc-samples 0",
    ],
    "simulate": [
        f"{_Q4} {_DEGREES} --n {n} --eps 0.5 --trials 2" for n in (0, -12)
    ] + [
        f"{_Q4} {_DEGREES} --n 12 --eps 0.5 --trials {t}" for t in (0, -1)
    ] + [
        f"{_Q4} {_DEGREES} --n 12 --eps 0.5 --trials 2 --max-iters {i}" for i in (0, -1)
    ] + [
        f"{_Q4} --dv {dv} --dc {dc} --n 12 --eps 0.5 --trials 2"
        for dv, dc in ((0, 6), (-3, 6), (3, 0), (3, -6), (10**20, 6), (3, 10**20), (20000, 6))
    ] + [
        f"{_Q4} {_DEGREES} --n 12 --eps nan --trials 2", f"--q 4 --M 0 {_DEGREES} --n 12 --eps 0.5",
        f"--q 1 --M 1 {_DEGREES} --n 12 --eps 0.5", f"--q 6 --M 2 {_DEGREES} --n 12 --eps 0.5",
        f"--q 257 --M 2 {_DEGREES} --n 12 --eps 0.5",
    ],
    "pm-table": [
        "--q 4 --sizes 0,2", "--q 4 --sizes=-1,2", "--q 4 --sizes 5", "--q 4 --sizes ,",
        "--q 1 --sizes 1", "--q 6 --sizes 2,2", "--q 257 --sizes 2,2",
        "--q 16 --sizes 8,8,8 --model exact --mc-samples -1",
        "--q 31 --sizes 11,11,11", "--q 32 --sizes 17,17",
    ],
    "decode-trace": [
        "--graph {g} {received} --max-iters -1", "--graph {g} {received} --max-iters 0",
        f"--graph {{g}} {{received}} --max-iters {10**20}",
    ] + [
        f"--graph {{{name}}} {{received}}" for name in ("q1", "q6", "q257", "n_neg", "m_neg", "m0")
    ],
}
# decode-trace graph headers 'q n m' over the edges of a (3,6) graph of
# 12 variables at GF(4)
_HEADERS = {"g": "4 12 6", "q1": "1 12 6", "q6": "6 12 6", "q257": "257 12 6",
            "n_neg": "4 -12 6", "m_neg": "4 12 -6", "m0": "4 12 0"}


@pytest.mark.parametrize("command", list(_EXTREME_ARGS))
def test_extreme_arguments_bounded(command, tmp_path):
    # every subcommand on extreme arguments, under the 1 GiB limit: an
    # answer (0), a refusal (2) or the exact law's work cap (3), within
    # 10 s a run and never a traceback
    graph = build_regular(12, 3, 6, GF(4), np.random.default_rng(0))
    edges = graph.to_text().split("\n", 1)[1]
    paths = {"received": f"--received {tmp_path / 'r.txt'}"}
    (tmp_path / "r.txt").write_text("{0,1}\n" * graph.n)
    for name, header in _HEADERS.items():
        (tmp_path / name).write_text(f"{header}\n{edges}")
        paths[name] = tmp_path / name
    cases = [[command, *args.format(**paths).split()] for args in _EXTREME_ARGS[command]]
    src = Path(pecldpc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_BATCH, json.dumps(cases)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(cases)
    for args, (code, seconds, err) in zip(cases, results):
        assert code in (0, 2, 3) and "Traceback" not in err, (args, err)
        assert seconds < 10, (args, seconds)
        # every threshold case, the degree inputs among them, is refused
        assert code == 2 or command != "threshold", (args, err)


@pytest.mark.parametrize(
    "q, n",
    [(4, 10**9), (4, 3 * 10**6), (256, 10**5)],
    ids=["q4-1e9", "q4-3e6", "q256-1e5"],
)
def test_oversized_simulate_refused(q, n):
    # refused from the decoder's message bytes (n * d_v sets of 2 or q
    # bytes) before a graph is built; unchecked, each of these dies of
    # MemoryError under the limit, with a traceback and exit 1
    args = ["simulate", "--q", str(q), "--M", "2", "--dv", "3", "--dc", "6",
            "--n", str(n), "--eps", "0.5", "--trials", "1"]
    code, err = _run_limited(args)
    assert code == 2, err
    assert "edge-message array" in err


@pytest.mark.parametrize(
    "args, message",
    [
        # over the sample cap at every field: refused by the model
        ("pm-table --q 16 --sizes 3,3,3,3,3 --model exact --mc-samples 1000000000000",
         "at every field"),
        ("threshold --q 16 --M 3 --dv 3 --dc 6 --model exact --mc-samples 1000000000000",
         "at every field"),
        # 16-byte sets at GF(16): refused when the law, over the exact
        # law's work cap, is sampled
        ("pm-table --q 16 --sizes 8,8,8 --model exact --mc-samples 100000000",
         "above the limit"),
        ("simulate --q 4 --M 2 --dv 3 --dc 6 --n 1200 --eps 0.5 --trials 1000000000000",
         "trials exceed"),
        # each factor under its cap, their product 10**12 trials
        ("simulate --q 4 --M 2 --dv 3 --dc 6 --n 1200 --eps-grid 0:0.999999:0.000001 "
         "--trials 1000000", "trials exceed"),
    ],
    ids=["pm-table-mc", "threshold-mc", "pm-table-mc-q16", "simulate-trials",
         "simulate-grid-trials"],
)
def test_oversized_monte_carlo_refused(args, message):
    # unchecked, the sample counts die of MemoryError under the limit
    # (exit 1 with a traceback) and the trial count runs for days
    code, err = _run_limited(args.split())
    assert code == 2, err
    assert message in err


def test_large_field_de_runs_bounded():
    # the variable half is a chain on sizes 1..M, so d_v=4 at q=256 (once
    # refused at 2,829,056 size multisets) runs in bounded time and memory;
    # exact is left out, its law at GF(256) is over the enumeration budget
    code, err = _run_limited(["threshold", "--q", "256", "--M", "2", "--dv", "4", "--dc", "6",
                              "--model", "union,balls,bound-lower,bound-upper"])
    assert code == 0, err
    # (3,6) at M=16 is 77,520 check cells an iteration, under the cap
    code, err = _run_limited(["threshold", "--q", "16", "--M", "16", "--dv", "3", "--dc", "6",
                              "--model", "union"])
    assert code == 0, err
    # the check half still enumerates size multisets: C(44, 29) at M=16, d_c=30
    code, err = _run_limited(["threshold", "--q", "16", "--M", "16", "--dv", "3", "--dc", "30",
                              "--model", "union"])
    assert code == 2
    assert "size multisets" in err


def test_large_field_size_chain_runs_bounded():
    # the variable half's (256, 64**2) table of common-symbol laws: each
    # pairwise count is one chain step of positive terms (~50 s when the
    # counts came from an inclusion-exclusion)
    code, err = _run_limited(["threshold", "--q", "256", "--M", "64", "--dv", "3", "--dc", "2",
                              "--model", "bound-upper"])
    assert code == 0, err
    # a variable step at M=128 is priced budget.CALL + M(M+1)/budget.ENTRIES
    # cells, and the whole search charges ~81% of budget.CELLS
    code, err = _run_limited(["threshold", "--q", "256", "--M", "128", "--dv", "3", "--dc", "2",
                              "--model", "bound-upper"])
    assert code == 0, err


@pytest.mark.parametrize(
    "q, sizes",
    [(16, "8,8,8,8,8"), (32, "2,2,2,4"), (64, "3,3,3"), (128, "2"), (128, "2,2,2,2,2"),
     (256, "2"), (256, "50,50,50,50,50"), (256, "3"), (256, "1,3"), (31, "11,11,11"),
     (32, "17,17")],
)
def test_exact_law_runs_bounded(q, sizes, tmp_path):
    # the exact law answers (0) or is refused at its work cap (3) in
    # bounded time and memory at every field size; a law the bounds pin
    # is a point mass there and must be answered: one operand beside
    # translates (size 1) at its size ((3,) at q=256 was once refused at
    # the work cap), and (11,11,11) at q=31 (Cauchy-Davenport) and
    # (17,17) at q=32 (17 + 17 > 32) at q, both once refused too
    pinned = {"2": 2, "3": 3, "1,3": 3, "11,11,11": 31, "17,17": 32}
    out = tmp_path / "law.csv"
    code, err = _run_limited(
        ["pm-table", "--q", str(q), "--sizes", sizes, "--model", "exact", "--out", str(out)]
    )
    assert code in (0, 3), err
    if sizes in pinned:
        assert code == 0, err
        probability = [float(r[3]) for r in rows_of(out.read_text())[1:]]
        assert probability == [float(m == pinned[sizes]) for m in range(1, q + 1)]


@pytest.mark.parametrize(
    "q, sizes, model, codes",
    [(256, "50,50,50,50,50", "union", (0,)), (64, "16,16,16,16,16", "balls", (0,)),
     (256, "2,128", "union", (0,)), (256, "50,50,50,50,50", "balls", (0, 2, 3))],
    ids=["256-50,50,50,50,50-union", "64-16,16,16,16,16-balls", "256-2,128-union",
         "256-50,50,50,50,50-balls"],
)
def test_coverage_models_run_bounded(q, sizes, model, codes):
    # 50**4 batches of 50 and 16**5 balls: the coverage walk stops at the
    # first step that leaves its vector unchanged, where it once walked
    # every step (still running at 30 s, and 6.2 s); the 256 x 256
    # coverage matrix for batches of 128 took over 10 s when its
    # pairwise counts came from an inclusion-exclusion.  50**5 balls at
    # q=256 walk 190,351 steps before one returns its input (~5 s), so
    # each step is charged to the work budget
    code, err = _run_limited(["pm-table", "--q", str(q), "--sizes", sizes, "--model", model])
    assert code in codes, err


@pytest.mark.parametrize(
    "args",
    [
        # 816 exact laws, each under the law's share of the budget: the
        # table is charged to one budget, not to 816
        "--q 16 --M 16 --dv 3 --dc 4 --model exact",
        # the check matmul (T*q) and forming H(w) (q*M*(M+1)) each iteration
        "--q 256 --M 128 --dv 3 --dc 3 --model bound-upper",
        # the coverage walks of 5,984 laws
        "--q 64 --M 32 --dv 3 --dc 4 --model balls",
        "--q 256 --M 2 --dv 3 --dc 362 --model union",
    ],
)
def test_threshold_overruns_bounded(args):
    # products no single factor's cap saw: each ran 8 s to minutes
    # before every costly path charged one work budget
    code, err = _run_limited(["threshold", *args.split()])
    assert code in (0, 2, 3) and "Traceback" not in err, err


@pytest.mark.parametrize(
    "header, message",
    [("4 1000000000 1", "received sets"), ("4 3 100000000000", "checks, above the limit")],
    ids=["n-1e9", "m-1e11"],
)
def test_oversized_graph_header_refused(tmp_path, header, message):
    # refused from the header before the graph's per-node arrays exist;
    # unchecked, each dies of MemoryError under the limit (exit 1)
    graph = tmp_path / "graph.txt"
    graph.write_text(header + "\n0 0 1\n")
    received = tmp_path / "received.txt"
    received.write_text("0,1\n0\n0\n")
    code, err = _run_limited(["decode-trace", "--graph", str(graph), "--received", str(received)])
    assert code == 2, err
    assert message in err


def _trace_files(tmp_path, n):
    """A (3,6) graph of n variables at q=4 and its received sets at
    M=2, eps 0.8, written for decode-trace."""
    f = GF(4)
    rng = np.random.default_rng(1)
    graph = build_regular(n, 3, 6, f, rng)
    graph.save(tmp_path / "graph.txt")
    masks = PartialErasureChannel(f, 2, 0.8).transmit_zero_word(graph.n, rng)
    received = tmp_path / "received.txt"
    received.write_text("".join(str(SymbolSet.from_mask(f, m)) + "\n" for m in masks.tolist()))
    return ["--graph", str(tmp_path / "graph.txt"), "--received", str(received)]


def test_oversized_trace_refused(tmp_path):
    # 100,000 variables: unchecked, a trace held whole died of
    # MemoryError under the limit (exit 1 after ~17 s); refused from
    # 2 * E * --max-iters before decoding
    code, err = _run_limited(["decode-trace", *_trace_files(tmp_path, 100_000)])
    assert code == 2, err
    assert "trace rows, above the limit" in err


def test_moderate_trace_runs_bounded(tmp_path):
    # 2,000 variables at the default --max-iters: 1.2M worst-case rows,
    # under the cap; the decode stops early and its CSV is streamed
    out = tmp_path / "trace.csv"
    code, err = _run_limited(["decode-trace", *_trace_files(tmp_path, 2000), "--out", str(out)])
    assert code == 0, err
    assert out.read_text().rstrip().rsplit("\n", 1)[-1].endswith(",status,,,,success,")


def test_trace_pinned(tmp_path, capsys):
    # the 2,000-variable trace at default flags, every line after the
    # invocation comment (which names the tmp paths), as recorded when
    # each row built and formatted its own SymbolSet
    assert main(["decode-trace", *_trace_files(tmp_path, 2000)]) == 0
    comment, body = capsys.readouterr().out.split("\n", 1)
    assert comment.startswith("# pecldpc decode-trace")
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest == "7bf29084c71362c7497741fded5b0c26a8bca29c9ca7cbd9cba3dd580868140d"


def test_negative_graph_size_exit_code(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("4 -3 1\n")
    received = tmp_path / "received.txt"
    received.write_text("0,1\n")
    args = ["decode-trace", "--graph", str(graph), "--received", str(received)]
    assert main(args) == 2
    assert "graph sizes must be nonnegative" in capsys.readouterr().err


def test_simulate_refuses_empty_codes(capsys):
    # n = 0 divided by zero (exit 1), n = -6 failed in numpy's allocator
    for n in ("0", "-6"):
        args = ["simulate", "--q", "4", "--M", "2", "--dv", "3", "--dc", "6", "--n", n]
        assert main(args + ["--eps", "0.5", "--trials", "2"]) == 2
        assert f"n={n}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "graph, received",
    [("4 2 1\n0 0 1\n1 0 1\n", "{}\n0\n"), ("4 2 1\n0 0 1\n1 0 1\n", "1,2\n0\n")],
    ids=["empty-set", "no-codeword"],
)
def test_inconsistent_received_exit_code(tmp_path, capsys, graph, received):
    # received sets that admit no codeword are a validation error, not
    # an uncaught DecodingInconsistency (exit 1)
    (tmp_path / "graph.txt").write_text(graph)
    (tmp_path / "received.txt").write_text(received)
    args = ["--graph", str(tmp_path / "graph.txt"), "--received", str(tmp_path / "received.txt")]
    assert main(["decode-trace", *args]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edge", ["0 0 99999999999999999999999", "99999999999999999999999 0 1"])
def test_graph_entries_beyond_int64_exit_code(tmp_path, capsys, edge):
    # an edge entry numpy cannot hold raised a raw OverflowError (exit 1)
    (tmp_path / "graph.txt").write_text(f"4 2 1\n{edge}\n1 0 1\n")
    (tmp_path / "received.txt").write_text("0,1\n0\n")
    args = ["--graph", str(tmp_path / "graph.txt"), "--received", str(tmp_path / "received.txt")]
    assert main(["decode-trace", *args]) == 2
    assert "64-bit" in capsys.readouterr().err


def test_budget_exit_code(tmp_path, capsys):
    args = ["pm-table", "--q", "16", "--sizes", "8,8,8", "--model", "exact"]
    assert main(args + ["--out", str(tmp_path / "x.csv")]) == 3
    assert "--mc-samples" in capsys.readouterr().err
    code = main(
        args + ["--mc-samples", "20000", "--seed", "1", "--out", str(tmp_path / "y.csv")]
    )
    assert code == 0


def test_stdout_default(capsys):
    assert main(["capacity", "--q", "4", "--M", "2", "--eps", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# pecldpc capacity")
    assert "0.75" in out


# every subcommand's option strings and their defaults
_ALL_MODELS = "exact,bound-lower,bound-upper,balls,union"
_OUTPUT = {("--seed",): 0, ("--out",): None}
_OPTIONS = {
    "capacity": {("--q",): None, ("--M",): None, ("--eps",): None, ("--eps-grid",): None},
    "threshold": {
        ("--q",): None, ("--M",): None, ("--dv",): None, ("--dc",): None,
        ("--model",): _ALL_MODELS, ("--mc-samples",): None, ("--max-iters",): 2000,
        ("--tol",): 1e-4,
    },
    "simulate": {
        ("--q",): None, ("--M",): None, ("--dv",): None, ("--dc",): None, ("--n",): None,
        ("--eps",): None, ("--eps-grid",): None, ("--trials",): 100, ("--max-iters",): 100,
    },
    "pm-table": {
        ("--q",): None, ("--sizes",): None, ("--model",): _ALL_MODELS, ("--mc-samples",): None,
    },
    "decode-trace": {("--graph",): None, ("--received",): None, ("--max-iters",): 100},
}


def test_subcommand_options_pinned():
    from argparse import _SubParsersAction

    from pecldpc.cli import _build_parser

    (sub,) = [a for a in _build_parser()._actions if isinstance(a, _SubParsersAction)]
    assert set(sub.choices) == set(_OPTIONS)
    for name, parser in sub.choices.items():
        options = {
            tuple(a.option_strings): a.default
            for a in parser._actions
            if a.option_strings and a.dest != "help"
        }
        assert options == {**_OPTIONS[name], **_OUTPUT}, name


@pytest.mark.parametrize(
    "args",
    [
        "capacity --q 4 --M , --eps 0.5",
        "threshold --q 4 --M , --dv 3 --dc 6",
        "threshold --q 4 --M 2 --dv 3 --dc 6 --model ,",
        "simulate --q 4 --M , --dv 3 --dc 6 --n 12 --eps 0.5",
        "pm-table --q 4 --sizes 2,2 --model ,",
        "pm-table --q 4 --sizes ,",
    ],
)
def test_empty_lists_refused(args, capsys):
    # an empty --M or --model list once wrote a header-only CSV and exit 0
    assert main(args.split()) == 2
    captured = capsys.readouterr()
    assert "empty list" in captured.err and not captured.out


@pytest.mark.parametrize("command", ["capacity", "simulate"])
def test_eps_flags_exclude_each_other(command, capsys):
    args = [command, "--q", "4", "--M", "2"]
    if command == "simulate":
        args += ["--dv", "3", "--dc", "6", "--n", "12", "--trials", "1"]
    assert main(args) == 2
    assert "--eps" in capsys.readouterr().err
    assert main(args + ["--eps", "0.5", "--eps-grid", "0:1:0.5"]) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert main(args + ["--eps", "0.5", "--out", os.devnull]) == 0
