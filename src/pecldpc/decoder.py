"""Set-valued message passing for LDPC codes on partial-erasure channels.

Messages are subsets of GF(q).  A check node tells a neighbor every
value consistent with its parity equation given the other neighbors'
sets (a scaled sumset); a variable node intersects what it hears with
its channel set.  Messages only ever shrink, and they always contain
the transmitted symbol, so decoding either resolves every variable to
a singleton or stalls at a fixed point.

One flooding loop serves every field: it runs on whole arrays of edge
messages in the set layout of ``symbol_sets.set_layout`` (uint16 masks
with table lookups for small q, bool planes above).  Each node's edges
form one padded column of a (max degree, nodes) slot array, which the
graph builds once and keeps (``TannerGraph.slots``); the pad is a
sentinel edge slot holding the identity of the node's operation ({0}
for sumsets, the full set for intersections), so neither pass has a
case for the degrees.  Both are one ``symbol_sets.leave_one_out`` fold
down the rows: the check pass through the layout's
``leave_one_out_sumsets``, the variable pass with ``&`` and the channel
sets as head.  A node's outputs depend only on its inputs, so
after the first iteration a pass runs only the nodes with an input that
changed in the pass before; the others keep their outputs, and the
decode is the same as a full flooding pass.  Each pass finds the real
edge slots whose output changed as flat indices into its slot block,
and gathers their edge ids and new sets through those indices alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .gf import GF
from .ldpc import TannerGraph
from .symbol_sets import SymbolSet, intersect, leave_one_out, mask_dtype, set_layout, sumset

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
    if any(s.field.q != field.q for s, _ in incoming):
        raise ValueError("sets belong to different fields")
    if not incoming:
        return SymbolSet.from_mask(field, 1)  # the parity pins the target to 0
    return sumset([s.scale(field.neg(h)) for s, h in incoming]).scale(field.inv(out_label))


def vtc_message(channel_info: SymbolSet, incoming_ctv) -> SymbolSet:
    """Variable-to-check message: channel set intersected with the
    other edges' check messages.  Raises DecodingInconsistency if the
    intersection is empty."""
    if not channel_info:
        raise ValueError("channel information must be nonempty")
    out = intersect([channel_info, *incoming_ctv])
    if not out:
        raise DecodingInconsistency("empty variable-to-check message")
    return out


@dataclass
class DecodeResult:
    """Outcome of a decoding run.

    ``status`` is 'success' when every posterior set (channel info
    intersected with all incoming check messages) is a singleton, else
    'stalled'.  ``posterior`` holds those sets as one mask per variable,
    in the dtype of ``mask_dtype(field.q)``; the ``estimate`` property
    gives them as SymbolSets.  ``vtc_resolved`` additionally reports
    whether every edge message reached size 1.  ``vtc_size_history[l][s]``
    counts edge messages of size s after iteration l.  ``message_history``
    is populated only on request with (ctv, vtc) mask sequences per
    iteration (ctv is None at iteration 0).
    """

    status: str
    posterior: np.ndarray
    field: GF
    iterations: int
    vtc_resolved: bool
    vtc_size_history: list[np.ndarray]
    message_history: list | None = None

    @property
    def estimate(self) -> list[SymbolSet]:
        """The posterior sets as SymbolSets, built on each access."""
        return [SymbolSet.from_mask(self.field, m) for m in self.posterior.tolist()]

    def size_history_rows(self) -> list[tuple[int, int, int]]:
        """(iteration, size, count) rows of the edge-message size
        histogram, ready for CSV dumping."""
        rows = []
        for it, hist in enumerate(self.vtc_size_history):
            for size, count in enumerate(hist):
                if size and count:
                    rows.append((it, size, int(count)))
        return rows


def _differs(new: np.ndarray, old: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Flag per entry of ``index``: do the sets it addresses in ``new``
    and ``old`` differ?  (Bool planes carry one more axis than masks.)"""
    differ = new != old
    return differ.any(axis=-1) if differ.ndim > index.ndim else differ


def _rows(sets: np.ndarray) -> np.ndarray:
    """A (D, n) block of sets as one run of D * n sets."""
    return sets.reshape((-1,) + sets.shape[2:])


def _nodes_of(edges: np.ndarray, node_of_edge: np.ndarray, n_nodes: int) -> np.ndarray:
    """Sorted distinct nodes the given edges attach to."""
    mark = np.zeros(n_nodes, dtype=bool)
    mark[node_of_edge[edges]] = True
    return np.flatnonzero(mark)


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
    field = graph.field
    sets = set_layout(field)
    n_edges = graph.n_edges
    chk_slots, var_slots = graph.slots
    labels = np.append(graph.edge_label, 1)  # any nonzero label for the sentinel
    sfac = field.neg_table[labels].astype(np.intp)
    ofac = field.inv_table[labels].astype(np.intp)

    chan = sets.encode(_received_masks(graph, received))
    # edge message arrays end in the sentinel slot: {0}, the sumset
    # identity, in vtc and in y (vtc scaled by the negated labels);
    # the full set, the intersection identity, in ctv
    vtc = np.concatenate([chan[graph.edge_var], sets.zero_sets(1)])
    y = sets.scaled(vtc, sfac)
    ctv = sets.full_sets(n_edges + 1)  # no check heard yet
    posterior = chan.copy()
    unresolved = int(np.count_nonzero(sets.sizes(chan) != 1))
    hist = np.bincount(sets.sizes(vtc[:n_edges]), minlength=field.q + 1)
    history = [hist.copy()]
    msgs = [(None, sets.to_masks(vtc[:n_edges]).tolist())] if record_messages else None

    # A node's outputs depend on its inputs alone, so after the first
    # pass only nodes with a changed input run; the others keep theirs.
    active_chk = np.arange(graph.m)
    iterations = 0
    while iterations < max_iters and unresolved:
        iterations += 1
        # check pass: leave-one-out sumsets of the scaled inputs
        slots = np.take(chk_slots, active_chk, axis=1)
        out = sets.scaled(sets.leave_one_out_sumsets(y[slots]), ofac[slots])
        # flat indices of the real slots whose message changed
        hit = np.flatnonzero(_differs(out, ctv[slots], slots) & (slots < n_edges))
        edges = slots.reshape(-1)[hit]
        ctv[edges] = _rows(out)[hit]
        active_var = _nodes_of(edges, graph.edge_var, graph.n)

        # variable pass: leave-one-out intersections with the channel set
        slots = np.take(var_slots, active_var, axis=1)
        cs = ctv[slots]
        out = np.array(leave_one_out(operator.and_, cs, head=chan[active_var]))
        post = out[-1] & cs[-1]
        hit = np.flatnonzero(_differs(out, vtc[slots], slots) & (slots < n_edges))
        edges = slots.reshape(-1)[hit]
        new = _rows(out)[hit]
        new_sizes = sets.sizes(new)
        moved = _differs(post, posterior[active_var], active_var)
        moved_vars = active_var[moved]
        post = post[moved]
        post_sizes = sets.sizes(post)
        if not (new_sizes.all() and post_sizes.all()):
            raise DecodingInconsistency("received sets admit no common codeword")
        # posteriors only shrink, and one of size 1 cannot move without
        # emptying, so every moved posterior had 2+ members before
        unresolved -= int(np.count_nonzero(post_sizes == 1))
        posterior[moved_vars] = post

        hist -= np.bincount(sets.sizes(vtc[edges]), minlength=field.q + 1)
        hist += np.bincount(new_sizes, minlength=field.q + 1)
        history.append(hist.copy())
        vtc[edges] = new
        y[edges] = sets.scaled(new, sfac[edges])
        if record_messages:
            msgs.append(
                (sets.to_masks(ctv[:n_edges]).tolist(), sets.to_masks(vtc[:n_edges]).tolist())
            )

        if not edges.size:  # no vtc message changed: a fixed point
            break
        active_chk = _nodes_of(edges, graph.edge_chk, graph.m)

    return DecodeResult(
        status=STATUS_STALLED if unresolved else STATUS_SUCCESS,
        posterior=sets.to_masks(posterior),
        field=field,
        iterations=iterations,
        vtc_resolved=bool(hist[1] == n_edges),
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
