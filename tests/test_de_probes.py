"""The de-sweep probe recorder in tools/ compares two record files probe
by probe: searches, eps, verdicts and how the trajectories relate."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "de_probes.py"
_spec = importlib.util.spec_from_file_location("de_probes", TOOL)
de_probes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(de_probes)


def probe(trajectory, converged=True, eps=0.5, search="4,2,exact"):
    text = " ".join(pe.hex() for pe in trajectory)
    return {"search": search, "eps": eps.hex(), "converged": converged, "trajectory": text}


def test_compare_relates_trajectories(capsys):
    a = [probe([1.0, 0.5, 0.25]), probe([1.0, 0.5]), probe([1.0]), probe([0.75, 0.5])]
    b = [probe([1.0, 0.5]), probe([1.0, 0.5, 0.25]), probe([1.0]), probe([0.75, 0.5])]
    assert de_probes.compare(a, b)
    assert "2 identical, 1 prefix, 1 extension, 0 apart" in capsys.readouterr().out


def test_compare_flags_every_difference(capsys):
    a = [probe([1.0, 0.5])]
    for b in (
        [probe([1.0, 0.5], converged=False)],
        [probe([1.0, 0.25])],
        [probe([1.0, 0.5], eps=0.25)],
        [probe([1.0, 0.5], search="4,3,exact")],
        [],
    ):
        assert not de_probes.compare(a, b), b
    out = capsys.readouterr().out
    assert "converged True -> False" in out and "part at iteration 1" in out
    assert "probe counts differ: 1 vs 0" in out
