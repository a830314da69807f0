"""The de-sweep probe recorder in tools/ compares two record files probe
by probe: searches, eps, verdicts and how the trajectories relate."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "de_probes.py"
_spec = importlib.util.spec_from_file_location("de_probes", TOOL)
de_probes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(de_probes)


def probe(trajectory, converged=True, eps=0.5, search="4,2,exact", stop_reason="basin", **kw):
    text = " ".join(pe.hex() for pe in trajectory)
    return {"search": search, "eps": eps.hex(), "converged": converged,
            "stop_reason": stop_reason, "trajectory": text, **kw}


def test_compare_relates_trajectories(capsys):
    a = [probe([1.0, 0.5, 0.25]), probe([1.0, 0.5]), probe([1.0]), probe([0.75, 0.5])]
    b = [probe([1.0, 0.5]), probe([1.0, 0.5, 0.25]), probe([1.0]), probe([0.75, 0.5])]
    assert de_probes.compare(a, b)
    assert "2 identical, 1 prefix, 1 extension, 0 apart" in capsys.readouterr().out


def test_compare_flags_every_difference(capsys):
    a = [probe([1.0, 0.5])]
    for b in (
        [probe([1.0, 0.5], converged=False)],
        [probe([1.0, 0.5], stop_reason="converged")],
        [probe([1.0, 0.25])],
        [probe([1.0, 0.5], eps=0.25)],
        [probe([1.0, 0.5], search="4,3,exact")],
        [],
    ):
        assert not de_probes.compare(a, b), b
    out = capsys.readouterr().out
    assert "converged True -> False" in out and "part at iteration 1" in out
    assert "stop_reason basin -> converged" in out
    assert "probe counts differ: 1 vs 0" in out


def test_compare_counts_a_new_start_as_restarted(capsys):
    # a probe from above starts lower, or from another law of equal pe:
    # no parting, as long as the verdict and stop reason hold
    a = [probe([1.0, 0.5, 0.25]), probe([0.5, 0.25])]
    b = [probe([0.75, 0.25], above=True), probe([0.5, 0.125], above=True)]
    assert de_probes.compare(a, b)
    assert "0 apart, 2 restarted" in capsys.readouterr().out
    # equal starts from equal laws part after it
    assert not de_probes.compare(a[1:], [probe([0.5, 0.125], above=False)])
    assert "part at iteration 1" in capsys.readouterr().out
    assert not de_probes.compare(a[:1], [probe([0.75, 0.25], stop_reason="certified")])


def test_record_marks_probes_started_from_above():
    # every de-sweep table passes the order check, so each search's first
    # probe, at eps 1, starts from the start law and every later one from
    # the latest probe above it that did not converge
    probes = de_probes.record()
    assert probes
    for n, p in enumerate(probes):
        first = n == 0 or probes[n - 1]["search"] != p["search"]
        assert p["above"] is not first
        assert p["start"] == p["trajectory"].split()[0]
        assert float.fromhex(p["start"]) <= float.fromhex(p["eps"])


def test_compare_flags_a_charge(capsys):
    # a pair whose charges differ fails; a record without a charge (an
    # older file) is not compared by it
    a = [probe([1.0, 0.5], cells=100), probe([1.0], cells=40)]
    assert de_probes.compare(a, [probe([1.0, 0.5], cells=100), probe([1.0], cells=40)])
    assert "cells 140 vs 140" in capsys.readouterr().out
    assert not de_probes.compare(a, [probe([1.0, 0.5], cells=100), probe([1.0], cells=41)])
    out = capsys.readouterr().out
    assert "cells 40 -> 41" in out and "cells 140 vs 141" in out
    assert de_probes.compare(a, [probe([1.0, 0.5]), probe([1.0])])
    assert "cells" not in capsys.readouterr().out


def test_record_charges_each_search_in_full():
    # a search's probes charge, between them, all that the search charges
    # to its budget, the first one its tables too, and each probe some
    import pecldpc
    from pecldpc import budget

    probes = de_probes.record()
    assert "cells " + str(sum(p["cells"] for p in probes)) in de_probes.totals(probes)
    wl = de_probes.wl
    for search in ("4,2,exact", "16,4,balls"):
        q, M, kind = search.split(",")
        ch = pecldpc.PartialErasureChannel(pecldpc.GF(int(q)), int(M), 0.0)
        cfg = pecldpc.DeConfig(ch, pecldpc.DegreeDistribution.regular(wl.D_V, wl.D_C),
                               pecldpc.SumsetSizeModel(kind), max_iters=wl.DE_MAX_ITERS)
        with budget.scope() as spend:
            pecldpc.threshold_search(cfg, tol_eps=wl.DE_TOL_EPS, check_monotone=True)
        cells = [p["cells"] for p in probes if p["search"] == search]
        assert sum(cells) == budget.CELLS - spend.left
        assert min(cells) > 0
