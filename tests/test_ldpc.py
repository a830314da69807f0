import hashlib
import math

import numpy as np
import pytest

from pecldpc import GF, DegreeDistribution, TannerGraph, build_regular
from pecldpc.ldpc import _padded_slots


# ---------------------------------------------------------
# Regular construction
# ---------------------------------------------------------
def test_regular_shape_small():
    g = build_regular(6, 3, 6, GF(5), np.random.default_rng(0))
    assert (g.n, g.m, g.n_edges) == (6, 3, 18)
    assert (g.var_degrees == 3).all()
    assert (g.chk_degrees == 6).all()


def test_regular_shape_large():
    g = build_regular(10_000, 3, 6, GF(4), np.random.default_rng(1))
    assert g.m == 5000
    assert (g.var_degrees == 3).all()
    assert (g.chk_degrees == 6).all()


def test_divisibility_rejected():
    with pytest.raises(ValueError):
        build_regular(5, 3, 6, GF(5), np.random.default_rng(0))
    with pytest.raises(ValueError):
        build_regular(6, 1, 6, GF(5), np.random.default_rng(0))


def test_labels_nonzero_and_uniform():
    g = build_regular(6000, 3, 6, GF(5), np.random.default_rng(9))
    labels = g.edge_label
    assert labels.min() >= 1 and labels.max() <= 4
    n = labels.size
    p = 1 / 4
    sigma = math.sqrt(p * (1 - p) * n)
    for a in range(1, 5):
        assert abs((labels == a).sum() - p * n) <= 3 * sigma


def test_socket_matching_is_permutation():
    # every check socket used exactly once => exact degrees, even with
    # parallel edges present
    g = build_regular(60, 3, 6, GF(4), np.random.default_rng(4))
    assert (np.bincount(g.edge_chk, minlength=g.m) == 6).all()
    assert (np.bincount(g.edge_var, minlength=g.n) == 3).all()


@pytest.mark.parametrize(
    "n, d_v, d_c, q, seed, digest",
    [
        (12, 3, 6, 4, 0, "3961a3920e94a797"),
        (60, 3, 6, 5, 7, "5fc03f815e5c7750"),
        (10_000, 3, 6, 4, 11, "e54f0bb89c4ea730"),
        (30, 2, 5, 13, 3, "046ab0ac65458256"),
        (64, 4, 8, 256, 21, "f4e6dac3a501a65c"),
    ],
)
def test_build_regular_draws_pinned(n, d_v, d_c, q, seed, digest):
    # recorded when the check sockets were drawn by
    # rng.permutation(chk_sockets): the edge arrays and the generator
    # state after the build must not move
    rng = np.random.default_rng(seed)
    g = build_regular(n, d_v, d_c, GF(q), rng)
    h = hashlib.sha256()
    for a in (g.edge_var, g.edge_chk, g.edge_label):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    h.update(rng.random().hex().encode())
    assert h.hexdigest()[:16] == digest


# ---------------------------------------------------------
# Slot layout
# ---------------------------------------------------------
@pytest.mark.parametrize("n, d_v, d_c, seed", [(12, 3, 6, 0), (60, 3, 4, 1), (500, 2, 5, 2)])
def test_regular_slots_match_sorted_layout(n, d_v, d_c, seed):
    g = build_regular(n, d_v, d_c, GF(4), np.random.default_rng(seed))
    chk_slots, var_slots = g.slots
    assert np.array_equal(np.sort(chk_slots, axis=0), _padded_slots(g.edge_chk, g.chk_degrees))
    assert np.array_equal(np.sort(var_slots, axis=0), _padded_slots(g.edge_var, g.var_degrees))


def test_irregular_slots_are_padded():
    # node 2 and check 1 have no edges; the pad is the sentinel E = 5
    g = TannerGraph(GF(4), [0, 1, 1, 3, 0], [0, 2, 0, 0, 2], [1, 2, 3, 1, 2], n=4, m=3)
    chk_slots, var_slots = g.slots
    assert chk_slots.tolist() == [[0, 5, 1], [2, 5, 4], [3, 5, 5]]
    assert var_slots.tolist() == [[0, 1, 5, 3], [4, 2, 5, 5]]


def test_slots_read_only_and_built_once():
    for g in (
        build_regular(12, 3, 6, GF(4), np.random.default_rng(0)),
        TannerGraph(GF(5), [0, 1, 2], [0, 0, 0], [2, 4, 3]),
    ):
        slots = g.slots
        assert g.slots is slots
        for a in slots:
            with pytest.raises(ValueError):
                a[0, 0] = 0


# ---------------------------------------------------------
# Parity checks
# ---------------------------------------------------------
def worked_graph():
    return TannerGraph(GF(5), [0, 1, 2], [0, 0, 0], [2, 4, 3])


def test_check_satisfied_examples():
    g = worked_graph()
    assert g.check_satisfied([0, 0, 0], 0)
    assert g.check_satisfied([1, 0, 1], 0)  # 2*1 + 4*0 + 3*1 = 5 = 0 mod 5
    assert not g.check_satisfied([1, 1, 0], 0)  # 2 + 4 = 6 = 1 mod 5


def test_all_zero_satisfies_every_check():
    g = build_regular(30, 3, 6, GF(8), np.random.default_rng(2))
    zero = np.zeros(g.n, dtype=int)
    for j in range(g.m):
        assert g.check_satisfied(zero, j)


def test_graph_validation():
    f = GF(5)
    with pytest.raises(ValueError):
        TannerGraph(f, [0, 1], [0, 0], [0, 2])  # zero label
    with pytest.raises(ValueError):
        TannerGraph(f, [0, 1], [0, 0], [2, 5])  # label outside field
    with pytest.raises(ValueError):
        TannerGraph(f, [0, 3], [0, 0], [1, 2], n=2)  # var index out of range
    with pytest.raises(ValueError, match="check index"):
        TannerGraph(f, [0, 1], [0, 2], [1, 2], m=2)
    with pytest.raises(ValueError, match="index-aligned"):
        TannerGraph(f, [0, 1], [0], [1, 2])
    with pytest.raises(ValueError):
        worked_graph().check_satisfied([0, 0], 0)
    # float and bool entries were truncated to indices and labels, and
    # n=2.5 to n=2
    for edges in ([0.5, 1.7], [True, False]):
        with pytest.raises(ValueError, match="64-bit integers"):
            TannerGraph(f, edges, [0, 0], [1, 2])
    with pytest.raises(ValueError, match="64-bit integers"):
        TannerGraph(f, [0, 1], [0, 0], [1.0, 2.0])
    g = build_regular(12, 3, 6, f, np.random.default_rng(1))
    for bad in (2.5, True, float("nan")):
        for name in ("n", "m"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                TannerGraph(f, [0, 1], [0, 0], [1, 2], **{name: bad})
        for k, name in enumerate(("n", "d_v", "d_c")):
            args = [12, 3, 6]
            args[k] = bad
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                build_regular(*args, f, np.random.default_rng(1))
        # a check index that names no check found no edges: True
        with pytest.raises(ValueError, match="check index must be an integer"):
            g.check_satisfied(np.zeros(g.n, dtype=int), bad)
    with pytest.raises(ValueError, match="check index"):
        g.check_satisfied(np.zeros(g.n, dtype=int), g.m)
    # n=12.0 raised a raw AxisError
    with pytest.raises(ValueError, match="n must be an integer"):
        build_regular(12.0, 3, 6, f, np.random.default_rng(1))


# ---------------------------------------------------------
# Serialization
# ---------------------------------------------------------
def test_text_round_trip(tmp_path):
    g = build_regular(12, 3, 4, GF(4), np.random.default_rng(5))
    text = g.to_text()
    assert text.splitlines()[0] == "4 12 9"
    g2 = TannerGraph.from_text(text)
    assert g2.field == g.field
    assert np.array_equal(g2.edge_var, g.edge_var)
    assert np.array_equal(g2.edge_chk, g.edge_chk)
    assert np.array_equal(g2.edge_label, g.edge_label)

    path = tmp_path / "graph.txt"
    g.save(path)
    g3 = TannerGraph.load(path)
    assert g3.to_text() == text


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        TannerGraph.from_text("")
    with pytest.raises(ValueError):
        TannerGraph.from_text("5 2\n0 0 1\n")
    with pytest.raises(ValueError):
        TannerGraph.from_text("5 2 1\n0 0\n")


@pytest.mark.parametrize("text", ["4 -3 1\n", "4 3 -1\n", "4 -1 -1\n"])
def test_negative_graph_sizes_rejected(text):
    with pytest.raises(ValueError, match="graph sizes must be nonnegative"):
        TannerGraph.from_text(text)


# ---------------------------------------------------------
# Degree distributions
# ---------------------------------------------------------
def test_degree_distribution_regular():
    d = DegreeDistribution.regular(3, 6)
    assert d.lambda_coeffs == {3: 1.0}
    assert d.rho_coeffs == {6: 1.0}


def test_degree_distribution_validation():
    with pytest.raises(ValueError):
        DegreeDistribution({3: 0.5}, {6: 1.0})  # lambda does not sum to 1
    with pytest.raises(ValueError):
        DegreeDistribution({1: 1.0}, {6: 1.0})  # degree below 2
    with pytest.raises(ValueError):
        DegreeDistribution({3: 1.5, 4: -0.5}, {6: 1.0})  # negative fraction
    with pytest.raises(ValueError, match="empty"):
        DegreeDistribution({}, {6: 1.0})
    # each gave a silent answer (a NaN fraction passes the sum check, and
    # a search on it returned threshold 0.0) or a raw TypeError later
    for lam in ({3: math.nan}, {3: math.inf}, {3: True}, {3: "1"}, {2.5: 1.0}, {True: 1.0}):
        with pytest.raises(ValueError):
            DegreeDistribution(lam, {6: 1.0})
    DegreeDistribution({2: 0.4, 3: 0.6}, {5: 0.25, 6: 0.75})  # valid irregular


def test_from_text_refuses_oversized_header():
    # the header sizes the per-node arrays before any edge is read, so a
    # graph of more nodes than the byte budget holds is refused first
    with pytest.raises(ValueError, match="checks, above the limit"):
        TannerGraph.from_text("4 3 100000000000\n0 0 1\n")
