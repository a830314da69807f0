import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pecldpc
from pecldpc import GF
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
            "--model", "exact,balls", "--tol", "1e-3", "--no-check-monotone",
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
        "--model", "bound-upper", "--no-check-monotone",
    ]
    for tol in ("0", "-1", "1e-300", "nan"):
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
    # the exact law of (3, 3) at q=128 is over the work cap (its first
    # step alone charges C(127, 2) * 128**2 > 10**8), so --mc-samples
    # samples it
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
    # the check half still enumerates size multisets: C(44, 29) at M=16, d_c=30
    code, err = _run_limited(["threshold", "--q", "16", "--M", "16", "--dv", "3", "--dc", "30",
                              "--model", "union"])
    assert code == 2
    assert "size multisets" in err


@pytest.mark.parametrize(
    "q, sizes",
    [(16, "8,8,8,8,8"), (32, "2,2,2,4"), (64, "3,3,3"), (128, "2"), (128, "2,2,2,2,2"),
     (256, "2"), (256, "50,50,50,50,50"), (256, "3"), (256, "1,3")],
)
def test_exact_law_runs_bounded(q, sizes, tmp_path):
    # the exact law answers (0) or is refused at its work cap (3) in
    # bounded time and memory at every field size; a law of one operand
    # beside translates (size 1) is a point mass at its size and must be
    # answered: (3,) at q=256 was once refused at the work cap
    out = tmp_path / "law.csv"
    code, err = _run_limited(
        ["pm-table", "--q", str(q), "--sizes", sizes, "--model", "exact", "--out", str(out)]
    )
    assert code in (0, 3), err
    if sizes in ("2", "3", "1,3"):
        assert code == 0, err
        probability = {int(r[2]): float(r[3]) for r in rows_of(out.read_text())[1:]}
        assert probability[int(sizes[-1])] == 1


@pytest.mark.parametrize(
    "q, sizes, model", [(256, "50,50,50,50,50", "union"), (64, "16,16,16,16,16", "balls")]
)
def test_coverage_models_run_bounded(q, sizes, model):
    # 50**4 batches of 50 and 16**5 balls: the coverage walk stops at the
    # first step that leaves its vector unchanged, where it once walked
    # every step (still running at 30 s, and 6.2 s)
    code, err = _run_limited(["pm-table", "--q", str(q), "--sizes", sizes, "--model", model])
    assert code == 0, err


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


def test_negative_graph_size_exit_code(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("4 -3 1\n")
    received = tmp_path / "received.txt"
    received.write_text("0,1\n")
    args = ["decode-trace", "--graph", str(graph), "--received", str(received)]
    assert main(args) == 2
    assert "graph sizes must be nonnegative" in capsys.readouterr().err


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
