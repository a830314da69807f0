"""Tanner graphs for GF(q) LDPC codes.

Graphs come from the configuration model: variable and check sockets
are matched by a uniform random permutation and every edge carries an
independent uniform nonzero label.  Parallel edges are kept, as the
ensemble defines them.

Each graph also owns the decoder's view of its edges: ``slots`` gives
(check slots, variable slots), padded (max degree, nodes) arrays whose
column v lists node v's edge ids.  They are built once per graph and
are read-only: ``build_regular`` derives them in O(E) from its socket
permutation, so its graphs never sort; any other graph sorts its edges
once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from pathlib import Path

import numpy as np

from . import budget
from .combinatorics import as_int, is_real
from .gf import GF


class TannerGraph:
    """Bipartite variable/check graph with nonzero GF(q) edge labels.

    Edge arrays are index-aligned: edge e connects variable
    ``edge_var[e]`` to check ``edge_chk[e]`` with label ``edge_label[e]``.
    Do not change them after construction: the degrees and slot arrays
    derived from them are kept.

    Refused (ValueError): edge arrays that do not hold 64-bit integers
    (floats, bools, Python ints beyond 64 bits) or are not 1-d and
    aligned, labels that are not nonzero field elements, indices outside
    the graph, and ``n`` or ``m`` that is not a nonnegative integer.
    Without them, ``n`` and ``m`` are one more than the largest index.
    """

    def __init__(self, field: GF, edge_var, edge_chk, edge_label, n=None, m=None):
        # integer arrays are not copied; an empty list holds floats
        raw = [np.asarray(a) for a in (edge_var, edge_chk, edge_label)]
        if any(a.size and a.dtype.kind not in "iu" for a in raw):
            kinds = ", ".join(str(a.dtype) for a in raw)
            raise ValueError(f"edge entries must be 64-bit integers, got {kinds} arrays")
        ev, ec, el = (np.asarray(a, dtype=np.int64) for a in raw)
        if not (ev.shape == ec.shape == el.shape) or ev.ndim != 1:
            raise ValueError("edge arrays must be 1-d and index-aligned")
        if ev.size and ((el < 1).any() or (el >= field.q).any()):
            raise ValueError("edge labels must be nonzero field elements")
        self.field = field
        self.edge_var = ev
        self.edge_chk = ec
        self.edge_label = el
        self.n = as_int(n, "n") if n is not None else int(ev.max()) + 1 if ev.size else 0
        self.m = as_int(m, "m") if m is not None else int(ec.max()) + 1 if ec.size else 0
        if self.n < 0 or self.m < 0:
            raise ValueError(f"graph sizes must be nonnegative, got n={self.n}, m={self.m}")
        # a node takes its degree, its slots and the decoder's per-node
        # arrays, at most ~2**8 bytes, so BYTES holds 2**22 of each kind
        budget.over(max(self.n, self.m), budget.BYTES >> 8, f"{self.n} variables, {self.m} checks")
        if ev.size and (ev.min() < 0 or ev.max() >= self.n):
            raise ValueError("variable index out of range")
        if ec.size and (ec.min() < 0 or ec.max() >= self.m):
            raise ValueError("check index out of range")
        self.var_degrees = np.bincount(ev, minlength=self.n)
        self.chk_degrees = np.bincount(ec, minlength=self.m)
        self._slots = None

    @property
    def n_edges(self) -> int:
        return self.edge_var.size

    @property
    def slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(check slots, variable slots): (max(1, max degree), nodes)
        read-only arrays whose column v lists node v's edge ids, padded
        with the sentinel slot E (the number of edges).  The order of
        the ids within a column is unspecified."""
        if self._slots is None:
            self._set_slots(
                _padded_slots(self.edge_chk, self.chk_degrees),
                _padded_slots(self.edge_var, self.var_degrees),
            )
        return self._slots

    def _set_slots(self, chk_slots: np.ndarray, var_slots: np.ndarray) -> None:
        for slots in (chk_slots, var_slots):
            slots.flags.writeable = False
        self._slots = (chk_slots, var_slots)

    def check_satisfied(self, assignment, j: int) -> bool:
        """True iff the label-weighted GF(q) sum over check j is zero."""
        assignment = np.asarray(assignment)
        if assignment.shape != (self.n,):
            raise ValueError(f"assignment must have length {self.n}")
        if as_int(j, "check index", 0) >= self.m:
            raise ValueError(f"check index {j} outside the graph's {self.m} checks")
        f = self.field
        acc = 0
        for e in np.flatnonzero(self.edge_chk == j):
            acc = f.add(acc, f.mul(int(self.edge_label[e]), int(assignment[self.edge_var[e]])))
        return acc == 0

    # -- serialization: header "q n m", then one "v c label" line per edge --

    def to_text(self) -> str:
        lines = [f"{self.field.q} {self.n} {self.m}"]
        for v, c, h in zip(self.edge_var, self.edge_chk, self.edge_label):
            lines.append(f"{v} {c} {h}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TannerGraph":
        rows = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not rows or len(rows[0]) != 3:
            raise ValueError("expected header line 'q n m'")
        q, n, m = (int(x) for x in rows[0])
        ev, ec, el = [], [], []
        for row in rows[1:]:
            if len(row) != 3:
                raise ValueError(f"bad edge line {' '.join(row)!r}")
            ev.append(int(row[0]))
            ec.append(int(row[1]))
            el.append(int(row[2]))
        return cls(GF(q), ev, ec, el, n=n, m=m)

    def save(self, path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def load(cls, path) -> "TannerGraph":
        return cls.from_text(Path(path).read_text())

    def __repr__(self) -> str:
        return (
            f"TannerGraph(q={self.field.q}, n={self.n}, m={self.m}, "
            f"edges={self.n_edges})"
        )


def _padded_slots(node_of_edge: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """(max(1, max degree), nodes) array whose column v lists node v's
    edge ids in increasing order, padded with the sentinel slot E (the
    number of edges)."""
    n_nodes, n_edges = degrees.size, node_of_edge.size
    # sorting the distinct keys node * E + edge is a stable sort by node,
    # several times faster than argsort(kind="stable") on int64
    keys = np.sort(node_of_edge * n_edges + np.arange(n_edges))
    nodes = keys // n_edges
    rank = np.arange(n_edges) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    slots = np.full((max(1, int(degrees.max(initial=0))), n_nodes), n_edges, dtype=np.intp)
    slots.ravel()[rank * n_nodes + nodes] = keys - nodes * n_edges
    return slots


def build_regular(
    n: int, d_v: int, d_c: int, field: GF, rng: np.random.Generator
) -> TannerGraph:
    """Configuration-model (d_v, d_c)-regular graph on n variables.

    Requires n*d_v divisible by d_c.  Variable sockets are laid out in
    variable order and matched to a random permutation of check
    sockets; labels are uniform over the nonzero field elements.  The
    slot arrays come from the same permutation, without a sort.
    ValueError unless n is an integer of at least 0 and d_v and d_c are
    integers of at least 2.
    """
    n, d_v, d_c = as_int(n, "n", 0), as_int(d_v, "d_v", 2), as_int(d_c, "d_c", 2)
    if (n * d_v) % d_c != 0:
        raise ValueError(f"n*d_v = {n * d_v} not divisible by d_c = {d_c}")
    m = n * d_v // d_c
    n_edges = n * d_v
    edge_var = np.repeat(np.arange(n), d_v)
    # edge e takes check socket perm[e], which belongs to check
    # perm[e] // d_c: the same draws and output as permuting the sockets
    # np.repeat(np.arange(m), d_c) with rng.permutation
    perm = rng.permutation(n_edges)
    edge_chk = perm // d_c
    edge_label = rng.integers(1, field.q, size=n_edges)
    graph = TannerGraph(field, edge_var, edge_chk, edge_label, n=n, m=m)
    # check c holds sockets c*d_c .. c*d_c + d_c - 1, so its edges are the
    # inverse permutation there; variable v holds edges v*d_v .. v*d_v + d_v - 1
    socket_edge = np.empty(n_edges, dtype=np.intp)
    socket_edge[perm] = np.arange(n_edges)
    graph._set_slots(
        np.ascontiguousarray(socket_edge.reshape(m, d_c).T),
        np.arange(0, n_edges, d_v, dtype=np.intp) + np.arange(d_v, dtype=np.intp)[:, None],
    )
    return graph


@dataclass(frozen=True)
class DegreeDistribution:
    """Edge-perspective degree fractions for variables and checks.

    ``lambda_coeffs[i]`` (``rho_coeffs[i]``) is the fraction of edges
    attached to degree-i variable (check) nodes; each map sums to 1 and
    uses degrees >= 2.
    """

    lambda_coeffs: dict[int, float]
    rho_coeffs: dict[int, float]

    def __post_init__(self):
        for name, coeffs in (("lambda", self.lambda_coeffs), ("rho", self.rho_coeffs)):
            if not coeffs:
                raise ValueError(f"{name} coefficients are empty")
            for deg, frac in coeffs.items():
                as_int(deg, f"{name} degree", 2)
                # a NaN fraction would pass the sum check below
                if not is_real(frac) or not 0 <= frac < inf:
                    raise ValueError(f"{name}_{deg} must be finite and nonnegative, got {frac!r}")
            if abs(sum(coeffs.values()) - 1.0) > 1e-9:
                raise ValueError(f"{name} coefficients must sum to 1")

    @classmethod
    def regular(cls, d_v: int, d_c: int) -> "DegreeDistribution":
        return cls({d_v: 1.0}, {d_c: 1.0})
