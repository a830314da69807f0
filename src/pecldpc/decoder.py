"""Set-valued message passing for LDPC codes on partial-erasure channels.

Messages are subsets of GF(q).  A check node tells a neighbor every
value consistent with its parity equation given the other neighbors'
sets (a scaled sumset); a variable node intersects what it hears with
its channel set.  Messages only ever shrink, and they always contain
the transmitted symbol, so decoding either resolves every variable to
a singleton or stalls at a fixed point.

One flooding loop serves every field: it runs on whole arrays of edge
messages in the set layout of ``symbol_sets.set_layout`` (uint16 masks
with table lookups for small q, bool planes above), computing each
node's leave-one-out sumsets and intersections as prefix/suffix folds
over the edges sorted by node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF
from .ldpc import TannerGraph
from .symbol_sets import SymbolSet, mask_dtype, set_layout, sumset

STATUS_SUCCESS = "success"
STATUS_STALLED = "stalled"


class DecodingInconsistency(RuntimeError):
    """A message intersection came out empty: the received sets cannot
    all contain one codeword symbol, so the input data is corrupt."""


def ctv_message(incoming, out_label: int, field: GF) -> SymbolSet:
    """Check-to-variable message.

    ``incoming`` holds (set, label) pairs for the check's other edges;
    the result is every value of the target variable that satisfies the
    parity equation: the sumset of the incoming sets scaled by
    -label/out_label.
    """
    incoming = list(incoming)
    for label in [out_label] + [label for _, label in incoming]:
        if not 0 < label < field.q:
            raise ValueError(f"edge labels must be nonzero elements of GF({field.q})")
    if not incoming:
        return SymbolSet.from_mask(field, 1)  # the parity pins the target to 0
    return sumset([s.scale(field.neg(h)) for s, h in incoming]).scale(field.inv(out_label))


def vtc_message(channel_info: SymbolSet, incoming_ctv) -> SymbolSet:
    """Variable-to-check message: channel set intersected with the
    other edges' check messages.  Raises DecodingInconsistency if the
    intersection is empty."""
    if not channel_info:
        raise ValueError("channel information must be nonempty")
    mask = channel_info.mask
    for s in incoming_ctv:
        mask &= s.mask
    if mask == 0:
        raise DecodingInconsistency("empty variable-to-check message")
    return SymbolSet.from_mask(channel_info.field, mask)


@dataclass
class DecodeResult:
    """Outcome of a decoding run.

    ``status`` is 'success' when every posterior set (channel info
    intersected with all incoming check messages) is a singleton, else
    'stalled'.  ``vtc_resolved`` additionally reports whether every
    edge message reached size 1.  ``vtc_size_history[l][s]`` counts
    edge messages of size s after iteration l.  ``message_history`` is
    populated only on request with (ctv, vtc) mask sequences per
    iteration (ctv is None at iteration 0).
    """

    status: str
    estimate: list[SymbolSet]
    iterations: int
    vtc_resolved: bool
    vtc_size_history: list[np.ndarray]
    message_history: list | None = None

    def size_history_rows(self) -> list[tuple[int, int, int]]:
        """(iteration, size, count) rows of the edge-message size
        histogram, ready for CSV dumping."""
        rows = []
        for it, hist in enumerate(self.vtc_size_history):
            for size, count in enumerate(hist):
                if size and count:
                    rows.append((it, size, int(count)))
        return rows


class _GraphIndex:
    """Sorted edge views plus fold-step index arrays for one graph."""

    def __init__(self, graph: TannerGraph):
        f = graph.field
        labels = graph.edge_label

        self.by_chk = np.argsort(graph.edge_chk, kind="stable")
        self.by_var = np.argsort(graph.edge_var, kind="stable")
        self.sfac = f.neg_table[labels[self.by_chk]].astype(np.int64)
        self.ofac = f.inv_table[labels[self.by_chk]].astype(np.int64)
        self.var_sorted = graph.edge_var[self.by_var]

        self.pre_c, self.suf_c = _fold_steps(graph.chk_degrees)
        self.pre_v, self.suf_v = _fold_steps(graph.var_degrees)

        deg_v = graph.var_degrees
        off_v = np.concatenate(([0], np.cumsum(deg_v)))
        has = deg_v > 0
        self.last_pos_v = (off_v[:-1] + deg_v - 1)[has]
        self.last_vars = np.flatnonzero(has)


def _fold_steps(degrees: np.ndarray):
    """(prefix, suffix) step lists; each step is (targets, sources) in
    the sorted-edge coordinate system."""
    off = np.concatenate(([0], np.cumsum(degrees)))[:-1]
    maxdeg = int(degrees.max()) if degrees.size else 0
    pre = []
    for p in range(1, maxdeg):
        tgt = off[degrees > p] + p
        pre.append((tgt, tgt - 1))
    suf = []
    for p in range(maxdeg - 2, -1, -1):
        tgt = off[degrees > p + 1] + p
        suf.append((tgt, tgt + 1))
    return pre, suf


def decode(
    graph: TannerGraph,
    received,
    max_iters: int = 100,
    *,
    record_messages: bool = False,
) -> DecodeResult:
    """Run flooding-schedule decoding until every posterior is a
    singleton, the edge messages reach a fixed point, or ``max_iters``.

    ``received`` is one channel output per variable, as SymbolSets or
    as a bitmask array.  Masks that are not integers, are negative or
    name an element outside the field raise ValueError; an empty set
    raises DecodingInconsistency.  Zero ``max_iters`` returns the channel
    sets as the posterior; a negative one raises ValueError.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    sets = set_layout(graph.field)
    gi = _GraphIndex(graph)
    n_edges = graph.n_edges

    chan = sets.encode(_received_masks(graph, received))
    vtc = chan[graph.edge_var]
    vtc_sizes = sets.sizes(vtc)
    posterior = chan
    post_sizes = sets.sizes(posterior)
    history = [np.bincount(vtc_sizes, minlength=graph.field.q + 1)]
    msgs = [(None, sets.to_masks(vtc).tolist())] if record_messages else None

    iterations = 0
    while iterations < max_iters and not bool((post_sizes == 1).all()):
        iterations += 1
        # check pass: leave-one-out sumsets of the negated-label scaled sets
        y = sets.scaled(vtc[gi.by_chk], gi.sfac)
        pre = sets.zero_sets(n_edges)
        for tgt, src in gi.pre_c:
            pre[tgt] = sets.sumsets(pre[src], y[src])
        suf = sets.zero_sets(n_edges)
        for tgt, src in gi.suf_c:
            suf[tgt] = sets.sumsets(suf[src], y[src])
        ctv = np.empty_like(vtc)
        ctv[gi.by_chk] = sets.scaled(sets.sumsets(pre, suf), gi.ofac)

        # variable pass: leave-one-out intersections with the channel set
        c = ctv[gi.by_var]
        pre = sets.full_sets(n_edges)
        for tgt, src in gi.pre_v:
            pre[tgt] = pre[src] & c[src]
        suf = sets.full_sets(n_edges)
        for tgt, src in gi.suf_v:
            suf[tgt] = suf[src] & c[src]
        new_vtc = np.empty_like(vtc)
        new_vtc[gi.by_var] = chan[gi.var_sorted] & pre & suf

        posterior = chan.copy()
        posterior[gi.last_vars] = (
            chan[gi.last_vars] & pre[gi.last_pos_v] & c[gi.last_pos_v]
        )

        new_sizes = sets.sizes(new_vtc)
        post_sizes = sets.sizes(posterior)
        if not (new_sizes.all() and post_sizes.all()):
            raise DecodingInconsistency("received sets admit no common codeword")

        history.append(np.bincount(new_sizes, minlength=graph.field.q + 1))
        if record_messages:
            msgs.append((sets.to_masks(ctv).tolist(), sets.to_masks(new_vtc).tolist()))

        if np.array_equal(new_vtc, vtc):
            break
        vtc, vtc_sizes = new_vtc, new_sizes

    resolved = bool((post_sizes == 1).all())
    return DecodeResult(
        status=STATUS_SUCCESS if resolved else STATUS_STALLED,
        estimate=[
            SymbolSet.from_mask(graph.field, m) for m in sets.to_masks(posterior).tolist()
        ],
        iterations=iterations,
        vtc_resolved=bool((vtc_sizes == 1).all()),
        vtc_size_history=history,
        message_history=msgs,
    )


def _received_masks(graph: TannerGraph, received) -> np.ndarray:
    """The channel sets as validated masks: uint64 for q <= 64, Python
    ints in an object array above."""
    q = graph.field.q
    if isinstance(received, np.ndarray):
        masks = received
    else:
        items = list(received)
        if any(isinstance(s, SymbolSet) and s.field.q != q for s in items):
            raise ValueError("received set field does not match the graph")
        masks = np.array(
            [s.mask if isinstance(s, SymbolSet) else s for s in items], dtype=object
        )
    if masks.ndim != 1 or len(masks) != graph.n:
        raise ValueError(f"expected {graph.n} received sets, got shape {masks.shape}")
    if masks.dtype == object:
        if not all(isinstance(m, (int, np.integer)) for m in masks):
            raise ValueError("received masks must be integers")
    elif masks.dtype.kind not in "iu":
        raise ValueError(f"received masks must be integers, not {masks.dtype}")
    if (masks < 0).any():
        raise ValueError("received masks must be nonnegative")
    masks = masks.astype(mask_dtype(q))
    if (masks >> q).any():
        raise ValueError(f"a received mask names an element outside GF({q})")
    if not masks.all():
        raise DecodingInconsistency("empty channel set")
    return masks
