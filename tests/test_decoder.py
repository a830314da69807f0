import hashlib

import numpy as np
import pytest

from pecldpc import (
    GF,
    DecodingInconsistency,
    PartialErasureChannel,
    SymbolSet,
    TannerGraph,
    build_regular,
    ctv_message,
    decode,
    vtc_message,
)
import pecldpc.decoder as decoder
import pecldpc.ldpc as ldpc
from pecldpc.symbol_sets import MaskTables, SetPlanes, mask_dtype, set_layout

from oracles import brute_ctv
from test_cross_validation import assert_decode_matches_reference


def S(field, *elems):
    return SymbolSet(field, elems)


# ---------------------------------------------------------
# Message rules
# ---------------------------------------------------------
def test_ctv_worked_example():
    # one check over GF(5), labels 2,4,3; v1 in {0,1}, v2 in {0,2,3}
    f = GF(5)
    incoming = [(S(f, 0, 1), 2), (S(f, 0, 2, 3), 4)]
    out = ctv_message(incoming, 3, f)
    assert frozenset(out) == {0, 1, 2, 4}
    assert frozenset(out) == brute_ctv(f, incoming, 3)


def test_ctv_singletons_and_full_set():
    f = GF(4)
    assert list(ctv_message([(S(f, 0), 1), (S(f, 0), 3)], 2, f)) == [0]
    out = ctv_message([(SymbolSet.full(f), 1), (S(f, 2), 3)], 2, f)
    assert len(out) == 4


def test_ctv_matches_bruteforce_randomized():
    rng = np.random.default_rng(8)
    for q in (4, 5, 8, 13):
        f = GF(q)
        for _ in range(40):
            incoming = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, min(q, 4) + 1))
                elems = rng.choice(q, size=size, replace=False)
                incoming.append(
                    (S(f, *(int(e) for e in elems)), int(rng.integers(1, q)))
                )
            out_label = int(rng.integers(1, q))
            got = ctv_message(incoming, out_label, f)
            assert frozenset(got) == brute_ctv(f, incoming, out_label)


def test_ctv_rejects_zero_labels():
    f = GF(5)
    incoming = [(S(f, 0, 1), 2), (S(f, 3), 4)]
    with pytest.raises(ValueError):
        ctv_message(incoming, 0, f)
    for k in range(len(incoming)):
        bad = list(incoming)
        bad[k] = (bad[k][0], 0)
        with pytest.raises(ValueError):
            ctv_message(bad, 3, f)


@pytest.mark.parametrize("bad", [1.5, True, float("nan")])
def test_ctv_labels_must_be_integers(bad):
    # 1.5 raised a raw TypeError, and True passed as the label 1
    f = GF(5)
    with pytest.raises(ValueError, match="edge label must be an integer"):
        ctv_message([(S(f, 0, 1), bad)], 1, f)
    with pytest.raises(ValueError, match="edge label must be an integer"):
        ctv_message([(S(f, 0, 1), 2)], bad, f)


def test_ctv_refuses_sets_of_another_field():
    with pytest.raises(ValueError, match="different fields"):
        ctv_message([(SymbolSet(GF(4), [0, 1]), 1)], 1, GF(5))


def test_vtc_refuses_sets_of_another_field():
    with pytest.raises(ValueError, match="different fields"):
        vtc_message(SymbolSet(GF(5), [0, 1]), [SymbolSet(GF(4), [0, 1, 3])])


def test_vtc_examples():
    f = GF(5)
    assert list(vtc_message(S(f, 0, 1), [S(f, 0, 2, 3), S(f, 0, 1, 4)])) == [0]
    assert list(vtc_message(S(f, 2), [SymbolSet.full(f)])) == [2]
    assert vtc_message(S(f, 1, 3), []) == S(f, 1, 3)
    with pytest.raises(DecodingInconsistency):
        vtc_message(S(f, 1, 2), [S(f, 3, 4)])
    with pytest.raises(ValueError, match="nonempty"):
        vtc_message(SymbolSet(f), [S(f, 0)])


def test_ctv_without_incoming_edges():
    # a degree-1 check pins its variable to 0
    for q in (4, 5):
        assert ctv_message([], 1, GF(q)) == S(GF(q), 0)


# ---------------------------------------------------------
# decode: end-to-end behavior
# ---------------------------------------------------------
def worked_graph():
    return TannerGraph(GF(5), [0, 1, 2], [0, 0, 0], [2, 4, 3])


def test_decode_no_erasures_is_immediate():
    g = build_regular(12, 3, 6, GF(4), np.random.default_rng(0))
    received = [S(g.field, 0) for _ in range(g.n)]
    res = decode(g, received)
    assert res.status == "success"
    assert res.iterations == 0
    assert all(list(s) == [0] for s in res.estimate)
    assert res.vtc_resolved


def test_decode_single_erasure_resolves_in_one_iteration():
    g = worked_graph()
    f = g.field
    received = [S(f, 0), S(f, 0), SymbolSet.full(f)]
    res = decode(g, received)
    assert res.status == "success"
    assert res.iterations == 1
    assert [list(s) for s in res.estimate] == [[0], [0], [0]]


def test_decode_all_erased_qec_stalls():
    g = build_regular(12, 3, 6, GF(4), np.random.default_rng(1))
    received = [SymbolSet.full(g.field) for _ in range(g.n)]
    res = decode(g, received, max_iters=20)
    assert res.status == "stalled"
    assert all(len(s) == g.field.q for s in res.estimate)


def test_decode_worked_example_trace():
    g = worked_graph()
    f = g.field
    received = [S(f, 0, 1), S(f, 0, 2, 3), SymbolSet.full(f)]
    res = decode(g, received, record_messages=True)
    ctv1 = res.message_history[1][0]
    assert SymbolSet.from_mask(f, int(ctv1[2])) == S(f, 0, 1, 2, 4)


def test_decode_inconsistent_input_raises():
    g = worked_graph()
    f = g.field
    # v1=1, v2=2 force v3 = -(2+8)/3 = 0, but the corrupt channel set
    # for v3 excludes 0, so its posterior intersection comes out empty
    received = [S(f, 1), S(f, 2), S(f, 1, 2)]
    with pytest.raises(DecodingInconsistency):
        decode(g, received)
    with pytest.raises(DecodingInconsistency):
        decode(g, [S(f, 0), SymbolSet(f), S(f, 0)])


def test_received_length_checked():
    g = worked_graph()
    with pytest.raises(ValueError):
        decode(g, [S(g.field, 0)])
    with pytest.raises(ValueError, match="does not match"):
        decode(g, [S(GF(4), 0)] * g.n)


def small_graph(q):
    return build_regular(12, 3, 6, GF(q), np.random.default_rng(q))


@pytest.mark.parametrize(
    "q, bad",
    [
        (4, 0x30),  # bits 4 and 5 name no element of GF(4)
        (4, 70000),  # wider than the uint16 masks of the table layout
        (4, -1),
        (16, 1 << 20),
        (67, 1 << 67),
    ],
)
def test_received_mask_outside_field_rejected(q, bad):
    g = small_graph(q)
    masks = [1] * g.n
    masks[3] = bad
    with pytest.raises(ValueError):
        decode(g, masks)
    if bad >= 0 and bad < 1 << 63:
        with pytest.raises(ValueError):
            decode(g, np.array(masks, dtype=np.int64))


@pytest.mark.parametrize("q", [4, 64])
@pytest.mark.parametrize("bad", [2**70, 2**64])
@pytest.mark.parametrize("as_masks", [list, lambda m: np.array(m, dtype=object)],
                         ids=["list", "object-array"])
def test_received_mask_past_64_bits_rejected(q, bad, as_masks):
    # refused as outside the field, not an OverflowError of the uint64 cast
    g = small_graph(q)
    masks = [1] * g.n
    masks[0] = bad
    with pytest.raises(ValueError, match=f"outside GF\\({q}\\)"):
        decode(g, as_masks(masks))


def test_iteration_limit():
    g = small_graph(4)
    received = PartialErasureChannel(g.field, 2, 0.5).transmit_zero_word(
        g.n, np.random.default_rng(3)
    )
    with pytest.raises(ValueError, match="max_iters"):
        decode(g, received, max_iters=-1)
    # zero iterations: the posterior is the channel output
    res = decode(g, received, max_iters=0)
    assert res.iterations == 0
    assert [s.mask for s in res.estimate] == [int(m) for m in received]
    # a count that is not an integer answered (2.5 and True as a bound on
    # the loop, NaN as zero iterations)
    for bad in (2.5, True, float("nan")):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            decode(g, received, max_iters=bad)


def test_received_masks_must_be_integers():
    g = small_graph(4)
    with pytest.raises(ValueError):
        decode(g, np.ones(g.n))
    with pytest.raises(ValueError):
        decode(g, [1.0] * g.n)
    with pytest.raises(ValueError):
        decode(g, np.ones((g.n, 1), dtype=np.uint16))


def test_received_mask_array_dtypes_agree():
    g = small_graph(4)
    masks = PartialErasureChannel(g.field, 2, 0.5).transmit_zero_word(
        g.n, np.random.default_rng(2)
    )
    want = [s.mask for s in decode(g, masks).estimate]
    for dtype in (np.uint8, np.int16, np.uint64, object):
        got = decode(g, masks.astype(dtype)).estimate
        assert [s.mask for s in got] == want
    with pytest.raises(DecodingInconsistency):
        decode(g, np.zeros(g.n, dtype=np.uint32))


@pytest.mark.parametrize("q", [4, 16, 128])
def test_posterior_is_a_mask_array(q):
    g = small_graph(q)
    received = PartialErasureChannel(g.field, 3, 0.5).transmit_zero_word(
        g.n, np.random.default_rng(4)
    )
    res = decode(g, received, max_iters=10)
    assert res.posterior.dtype == mask_dtype(q)
    assert res.posterior.shape == (g.n,)
    assert [s.mask for s in res.estimate] == res.posterior.tolist()
    assert all(s.field == g.field for s in res.estimate)


# sha256 of (status, iterations, posterior, message_history,
# vtc_size_history) over four (3,6) decodes of 60 variables per field,
# as recorded when SetPlanes converted masks by & and an integer matmul
DECODE_DIGESTS = {
    32: "1b5a3c93f432551c46f471fb7404f256b241c100648607aef043c8c60bf66068",
    81: "2f05acfbe50a9b86402f07c8fede61cbd7982566ed8d9b89004635a62efef56d",
    128: "e24b1d05c00142d5618d9a86bbb3d5ee90638da26b226e1bfa9e5146d1c077ff",
    256: "f0a873a85a549d59144ee75516d2db46e968fb4acc9838366a685f6e6d4ace1b",
}


@pytest.mark.parametrize("q", sorted(DECODE_DIGESTS))
def test_planes_decodes_pinned(q):
    f = GF(q)
    rng = np.random.default_rng(q)
    h = hashlib.sha256()
    for M, eps in ((4, 0.6), (4, 0.9), (q // 2, 0.6), (q // 2, 0.95)):
        g = build_regular(60, 3, 6, f, rng)
        received = PartialErasureChannel(f, M, eps).transmit_zero_word(g.n, rng)
        r = decode(g, received, max_iters=30, record_messages=True)
        hist = [x.tolist() for x in r.vtc_size_history]
        h.update(repr((r.status, r.iterations, r.posterior.tolist(), r.message_history, hist)).encode())
    assert h.hexdigest() == DECODE_DIGESTS[q]


def decode_digest(q):
    """The digest of test_planes_decodes_pinned for GF(q)."""
    f = GF(q)
    rng = np.random.default_rng(q)
    h = hashlib.sha256()
    for M, eps in ((4, 0.6), (4, 0.9), (q // 2, 0.6), (q // 2, 0.95)):
        g = build_regular(60, 3, 6, f, rng)
        received = PartialErasureChannel(f, M, eps).transmit_zero_word(g.n, rng)
        r = decode(g, received, max_iters=30, record_messages=True)
        hist = [x.tolist() for x in r.vtc_size_history]
        h.update(repr((r.status, r.iterations, r.posterior.tolist(), r.message_history, hist)).encode())
    return h.hexdigest()


# the same digest for the fields of the word layout, as recorded when the
# check pass scaled every output it computed before comparing it with ctv
WORD_DECODE_DIGESTS = {
    4: "391f30013c83d5d9d37a9c3867476a6a71f1d4f52c2fd626c891029ff5503bc9",
    8: "0790deda568b5f48d180d63ec58993976e1f23218a4ab2dfa119f39781a8b057",
    9: "472589be97d776bcf4b8b8216315314f2261872e6c00de2f6c22d77bd6eed239",
    13: "2b4bdeeadd2d76e200fe5cc1b71cf87527395b642706ddfee578d6977d9a7163",
    16: "4a2700f68436f326191aef4fe75bf9ab2b1cf14ccd3345500e6c7290638bbf75",
}


@pytest.mark.parametrize("q", sorted(WORD_DECODE_DIGESTS))
def test_word_decodes_pinned(q):
    assert type(set_layout(GF(q))) is MaskTables
    assert decode_digest(q) == WORD_DECODE_DIGESTS[q]


def test_object_masks_may_hold_numpy_integers():
    # a np.uint8 mask once overflowed SetPlanes' Python-int & at q = 128
    g = TannerGraph(GF(128), [0, 1], [0, 0], [1, 1], n=2, m=1)
    got = decode(g, np.array([np.uint8(3), 3], dtype=object), record_messages=True)
    want = decode(g, np.array([3, 3], dtype=object), record_messages=True)
    assert_same_result(got, want)
    assert got.posterior.tolist() == [3, 3]


@pytest.mark.parametrize("q", [16, 32, 128])
def test_edgeless_empty_graph_decodes(q):
    g = TannerGraph(GF(q), [], [], [], n=0, m=0)
    res = decode(g, np.zeros(0, dtype=mask_dtype(q)), record_messages=True)
    assert (res.status, res.iterations, res.posterior.shape) == ("success", 0, (0,))
    assert res.message_history == [(None, [])]


# ---------------------------------------------------------
# Invariants on randomized traces
# ---------------------------------------------------------
def random_trace_case(rng):
    q = int(rng.choice([2, 3, 4, 5]))
    f = GF(q)
    M = int(rng.integers(2, q + 1))
    d_v, d_c = 3, 6
    n = int(rng.choice([6, 12, 18]))
    g = build_regular(n, d_v, d_c, f, rng)
    ch = PartialErasureChannel(f, M, float(rng.uniform(0, 1)))
    received = ch.transmit_zero_word(n, rng)
    return g, received


def test_monotone_shrinkage_and_zero_membership():
    rng = np.random.default_rng(123)
    for _ in range(150):
        g, received = random_trace_case(rng)
        res = decode(g, received, max_iters=30, record_messages=True)
        prev = None
        for ctv, vtc in res.message_history:
            if ctv is not None:
                assert all(int(m) & 1 for m in ctv)  # 0 in every CTV message
            assert all(int(m) & 1 for m in vtc)
            if prev is not None:
                # shrinkage: each new VTC message is a subset of the old
                assert all(
                    int(new) | int(old) == int(old) for new, old in zip(vtc, prev)
                )
            prev = vtc
        assert all(0 in s for s in res.estimate)
        if res.status == "success":
            assert all(list(s) == [0] for s in res.estimate)


def test_full_erasure_message_sizes_two_point():
    # M=q: every message has size 1 or q at every iteration
    rng = np.random.default_rng(77)
    f = GF(4)
    g = build_regular(24, 3, 6, f, rng)
    ch = PartialErasureChannel(f, 4, 0.5)
    received = ch.transmit_zero_word(g.n, rng)
    res = decode(g, received, max_iters=30, record_messages=True)
    for ctv, vtc in res.message_history:
        for arr in (ctv, vtc):
            if arr is None:
                continue
            sizes = {int(m).bit_count() for m in arr}
            assert sizes <= {1, 4}


def test_stall_is_fixed_point():
    rng = np.random.default_rng(5)
    f = GF(4)
    g = build_regular(18, 3, 6, f, rng)
    ch = PartialErasureChannel(f, 4, 0.95)
    received = ch.transmit_zero_word(g.n, rng)
    res = decode(g, received, max_iters=50, record_messages=True)
    if res.status == "stalled" and res.iterations < 50:
        last, prev = res.message_history[-1][1], res.message_history[-2][1]
        assert [int(x) for x in last] == [int(x) for x in prev]


# ---------------------------------------------------------
# Slot layout
# ---------------------------------------------------------
def assert_same_result(a, b):
    assert (a.status, a.iterations, a.vtc_resolved) == (b.status, b.iterations, b.vtc_resolved)
    assert a.posterior.dtype == b.posterior.dtype
    assert a.posterior.tolist() == b.posterior.tolist()
    assert [h.tolist() for h in a.vtc_size_history] == [h.tolist() for h in b.vtc_size_history]
    assert a.message_history == b.message_history


def irregular_graph(field, rng):
    # variable degrees 2, 3 and 5, checks of degree 6-8 and one check
    # with no edges, so both slot arrays hold sentinel pads
    var_deg = rng.choice([2, 3, 5], size=60)
    n_edges = int(var_deg.sum())
    chk_deg = np.full(30, n_edges // 30)
    chk_deg[: n_edges - chk_deg.sum()] += 1
    return TannerGraph(
        field,
        np.repeat(np.arange(60), var_deg),
        rng.permutation(np.repeat(np.arange(30), chk_deg)),
        rng.integers(1, field.q, size=n_edges),
        n=60,
        m=31,
    )


def one_sided_graph(field, rng, padded):
    """A graph of 48 edges whose ``padded`` side ("check" or "variable")
    mixes degrees, so its slot array holds sentinel pads, while the
    other side's nodes share one degree, so its array holds none: 16
    variables of degree 3 and 9 checks of degree 4-7, or 16 variables
    of degree 2-4 and 8 checks of degree 6."""
    if padded == "check":
        var_deg, chk_deg = [3] * 16, [4, 5, 6, 7] * 2 + [4]
    else:
        var_deg, chk_deg = [2, 3, 4] * 4 + [2, 3, 4, 3], [6] * 8
    return TannerGraph(
        field,
        np.repeat(np.arange(16), rng.permutation(var_deg)),
        rng.permutation(np.repeat(np.arange(len(chk_deg)), chk_deg)),
        rng.integers(1, field.q, size=48),
        n=16,
        m=len(chk_deg),
    )


@pytest.mark.parametrize("padded", ["check", "variable"])
@pytest.mark.parametrize("q", [4, 13, 32])
def test_one_sided_pads_agree_with_reference(q, padded):
    # each pass masks the pad slots only when its own slot array holds
    # pads: a pad's output written to the sentinel edge would corrupt it
    rng = np.random.default_rng(70 + q)
    f = GF(q)
    for eps in (0.4, 0.7, 0.95):
        g = one_sided_graph(f, rng, padded)
        chk_slots, var_slots = g.slots
        assert (chk_slots.size > g.n_edges) == (padded == "check")
        assert (var_slots.size > g.n_edges) == (padded == "variable")
        received = PartialErasureChannel(f, 3, eps).transmit_zero_word(g.n, rng)
        sets = [SymbolSet.from_mask(f, int(m)) for m in received]
        assert_decode_matches_reference(g, sets, 20)


@pytest.mark.parametrize("q", [4, 5, 16, 27])
def test_decode_ignores_slot_order(q):
    # the order of a node's edges (and pads) within its slot column
    # must not change any part of the result
    rng = np.random.default_rng(q)
    f = GF(q)
    for g in (build_regular(60, 3, 6, f, rng), irregular_graph(f, rng)):
        received = PartialErasureChannel(f, min(3, q), 0.5).transmit_zero_word(g.n, rng)
        want = decode(g, received, max_iters=30, record_messages=True)
        shuffled = TannerGraph(f, g.edge_var, g.edge_chk, g.edge_label, n=g.n, m=g.m)
        shuffled._set_slots(*(rng.permuted(a, axis=0) for a in g.slots))
        assert_same_result(decode(shuffled, received, max_iters=30, record_messages=True), want)


@pytest.mark.parametrize("q", [13, 16])
def test_words_decode_as_planes(q, monkeypatch):
    # GF(13) and GF(16) decode on uint16 words; bool planes, the layout
    # of every larger field, must give the same result in every part
    rng = np.random.default_rng(50 + q)
    f = GF(q)
    assert type(set_layout(f)) is MaskTables
    for g in (build_regular(60, 3, 6, f, rng), irregular_graph(f, rng)):
        for eps in (0.4, 0.7):
            received = PartialErasureChannel(f, 4, eps).transmit_zero_word(g.n, rng)
            want = decode(g, received, max_iters=30, record_messages=True)
            with monkeypatch.context() as patch:
                patch.setattr(decoder, "set_layout", SetPlanes)
                got = decode(g, received, max_iters=30, record_messages=True)
            assert_same_result(got, want)
            assert want.iterations >= 2


def test_decode_sorts_each_graph_at_most_once(monkeypatch):
    calls = []
    real = ldpc._padded_slots
    monkeypatch.setattr(
        ldpc, "_padded_slots", lambda *args: calls.append(1) or real(*args)
    )
    f = GF(4)
    rng = np.random.default_rng(8)
    g = build_regular(60, 3, 6, f, rng)
    received = PartialErasureChannel(f, 2, 0.6).transmit_zero_word(g.n, rng)
    for _ in range(2):
        decode(g, received)
    assert calls == []  # a build_regular graph never sorts
    g = TannerGraph(f, g.edge_var, g.edge_chk, g.edge_label, n=g.n, m=g.m)
    for _ in range(2):
        decode(g, received)
    assert len(calls) == 2  # one sort per slot array, on the first decode


# ---------------------------------------------------------
# decode() vs the frozenset reference decoder
# ---------------------------------------------------------
def test_kernels_agree():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g, received = random_trace_case(rng)
        sets = [SymbolSet.from_mask(g.field, int(m)) for m in received]
        assert_decode_matches_reference(g, sets, 20)


def test_vtc_size_history_shape():
    g = worked_graph()
    f = g.field
    received = [S(f, 0, 1), S(f, 0, 2, 3), SymbolSet.full(f)]
    res = decode(g, received)
    # iteration 0 edge messages are the channel sets: sizes 2, 3, 5
    assert res.vtc_size_history[0].tolist() == [0, 0, 1, 1, 0, 1]
    assert all(h.sum() == g.n_edges for h in res.vtc_size_history)
