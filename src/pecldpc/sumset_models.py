"""Size distribution of a sumset of random fixed-size subsets of GF(q).

The check-node output of the set decoder is a sumset of its incoming
sets, so the density evolution needs, for every tuple of incoming set
sizes, the distribution of the sumset size.  No closed form is known;
this module provides

* hard bounds on the realized size (``sumset_bounds``) and the two
  degenerate point-mass distributions built from them,
* the exact distribution as a chain on AGL(1, q) orbits: for a != 0
  the map S -> aS + b keeps a uniform operand uniform, so the sizes
  still to come have the same law below every partial sumset of one
  orbit.  The chain keeps one integer count per orbit, adds one operand
  at a time through the field's set layout, and is charged against
  DEFAULT_WORK_CAP as it runs; the Monte Carlo estimate stands in for
  laws over that cap,
* two absorbing-Markov-chain approximations driven by the coverage
  transition matrix: a per-sum occupancy model ("balls") and a
  per-translate model ("union"),

plus `SumsetSizeModel`, a frozen value naming the law the density
evolution uses.

All distributions are length-q vectors indexed by size-1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from numbers import Integral
from typing import Sequence

import numpy as np

from .combinatorics import binom, intersection_dist
from .gf import GF
from .symbol_sets import index_masks, mask_dtype, set_bytes, set_layout

DEFAULT_WORK_CAP = 10**8
DEFAULT_MC_SAMPLES = 10**6
# bound on the (sample, element) cells the Monte Carlo law draws at once
# (chunk rows times q, at least one row): each of a chunk's temporaries
# holds one float or complex per cell, a few MB at every q
_MC_CELLS = 1 << 18
# bytes of the (samples, q) set array a Monte Carlo law keeps (samples
# times set_bytes(q)); 256 MiB admits DEFAULT_MC_SAMPLES at every
# q <= 256 (244 MiB of bool rows at q = 256) and refuses counts whose
# array could never be allocated
MAX_MC_SET_BYTES = 2**28

MODEL_KINDS = ("exact", "bound-lower", "bound-upper", "balls", "union")


class EnumerationBudgetError(RuntimeError):
    """The exact law's orbit chain would exceed the work cap."""


@dataclass(frozen=True)
class SumsetBounds:
    """Provable bounds on the size of a sumset with given operand sizes.

    ``forced_full`` is true when two operands alone already cover the
    field (|S_a| + |S_b| > q), which pins the sumset size to exactly q;
    both bounds collapse to q in that case.
    """

    lower: int
    upper: int
    forced_full: bool


def _norm_sizes(sizes: Sequence[int], q: int) -> tuple[int, ...]:
    t = tuple(sorted(sizes))
    if not t:
        raise ValueError("size tuple must be nonempty")
    if t[0] < 1 or t[-1] > q:
        raise ValueError(f"sizes {t} out of range for GF({q})")
    return t


def sumset_bounds(sizes: Sequence[int], field: GF) -> SumsetBounds:
    q = field.q
    t = _norm_sizes(sizes, q)
    if len(t) >= 2 and t[-1] + t[-2] > q:
        return SumsetBounds(lower=q, upper=q, forced_full=True)
    k = len(t)
    lower = max(t[-1], min(field.p, sum(t) - k + 1))
    upper = min(q, prod(t))
    return SumsetBounds(lower=lower, upper=upper, forced_full=False)


def _delta(q: int, size: int) -> np.ndarray:
    out = np.zeros(q)
    out[size - 1] = 1.0
    return out


def bound_dist(sizes: Sequence[int], field: GF, which: str) -> np.ndarray:
    """Point mass at the upper ('upper', pessimistic) or lower ('lower',
    optimistic) sumset-size bound; at q when two sets force full coverage."""
    if which not in ("upper", "lower"):
        raise ValueError(f"which must be 'upper' or 'lower', got {which!r}")
    b = sumset_bounds(sizes, field)
    if b.forced_full:
        return _delta(field.q, field.q)
    return _delta(field.q, b.upper if which == "upper" else b.lower)


# -- exact distribution ------------------------------------------------------


@lru_cache(maxsize=None)
def _orbit_step(field: GF, key: int, size: int) -> tuple[tuple[int, int], ...]:
    """(orbit key, count) of key + B over the size-``size`` subsets B of
    GF(q) that hold 0; by translation, their law is that over all of them.

    The key of a set is the least mask among its images under the affine
    maps that send x to 0 and y to 1, over the ordered pairs of members
    (x, y) whose difference y - x recurs most in the set.  An affine map
    scales every difference alike, so these images are the same for every
    set of an AGL(1, q) orbit.  A set of more than q/2 members takes the
    complement of its complement's key (the full set: the full mask)."""
    q, sets = field.q, set_layout(field)
    subsets = [(0, *c) for c in combinations(range(1, q), size - 1)]
    state = sets.encode(np.array([key], dtype=mask_dtype(q)))
    masks = sets.to_masks(sets.sumsets(state, sets.from_members(np.array(subsets))))
    bits = ((masks[:, None] >> np.arange(q, dtype=masks.dtype)) & 1).astype(bool)
    flip = bits.sum(axis=1) * 2 > q
    bits ^= flip[:, None]
    sizes = bits.sum(axis=1)
    keys = np.zeros(len(masks), dtype=object)
    for k in set(sizes.tolist()) - {0}:
        members = np.nonzero(bits[sizes == k])[1].reshape(-1, k)
        # ordered pairs of distinct members; a singleton pairs with itself,
        # and inv_table[0] = 0 maps it to {0}
        x, y = np.nonzero(~np.eye(k, dtype=bool) | (k == 1))
        diff = field.add_table[members[:, y], field.neg_table[members[:, x]]]
        cell = np.arange(len(diff))[:, None] * q + diff
        reps = np.bincount(cell.ravel())[cell]
        row, pair = np.nonzero(reps == reps.max(axis=1, keepdims=True))
        shifted = field.add_table[members[row], field.neg_table[members[row, x[pair]], None]]
        # of two same-size sets, the lesser mask has the lesser members
        # read from the top: sort each image descending, then take the
        # least image of each set (row is sorted, and first in the lexsort)
        images = -np.sort(-field.mul_table[shifted, field.inv_table[diff[row, pair], None]], axis=1)
        order = np.lexsort([*images.T[::-1], row])
        keys[sizes == k] = index_masks(images[order][np.unique(row, return_index=True)[1]], q)
    keys[flip] ^= (1 << q) - 1
    return tuple(Counter(keys.tolist()).items())


def exact_dist_rational(sizes: Sequence[int], field: GF) -> tuple[Fraction, ...]:
    """Exact sumset-size distribution as rationals (length q, index
    size-1); EnumerationBudgetError as for ``exact_dist``."""
    q = field.q
    # a size-1 operand is a translate, whose step maps every orbit to
    # itself; one operand left (or none) is a point mass at its size
    t = tuple(s for s in _norm_sizes(sizes, q) if s > 1)
    if len(t) <= 1:
        return tuple(Fraction(int(s == max(t, default=1))) for s in range(1, q + 1))
    # orbit key -> number of operand choices so far, from {0}
    state, work = Counter({1: 1}), 0
    for s in t:
        # q * q per (orbit, subset) pair, the cells of the character
        # transform that forms one sumset of q-element rows; charged
        # whether or not the step is memoized
        work += len(state) * binom(q - 1, s - 1) * q * q
        if work > DEFAULT_WORK_CAP:
            raise EnumerationBudgetError(f"{t} in GF({q}): work cap ({DEFAULT_WORK_CAP}) exceeded")
        nxt = Counter()
        for key, count in state.items():
            nxt.update({orbit: count * c for orbit, c in _orbit_step(field, key, s)})
        state = nxt
    by_size = np.zeros(q + 1, dtype=object)
    np.add.at(by_size, [key.bit_count() for key in state], list(state.values()))
    # the counts sum to the number of operand choices
    return tuple(by_size[1:] * Fraction(1, sum(state.values())))


def exact_dist(sizes: Sequence[int], field: GF) -> np.ndarray:
    """Distribution of |sumset| when each operand is uniform among the
    size-|S_j| subsets of GF(q), exactly, by a chain on AGL(1, q) orbits.

    Operands of size 1 are translates and take no step, and a law with
    one other operand (or none) is a point mass at its size.  Each step
    is charged q**2 per (orbit, subset) pair, memoized or not, and the
    chain raises EnumerationBudgetError once the charge exceeds
    ``DEFAULT_WORK_CAP`` (read at call time), so whether a law is refused
    depends only on the sizes, q and the cap; ``monte_carlo_dist``
    estimates such laws.
    """
    return np.array([float(p) for p in exact_dist_rational(sizes, field)])


def monte_carlo_dist(
    sizes: Sequence[int], field: GF, samples: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Estimate of ``exact_dist`` from ``samples`` random assignments
    drawn from ``rng``; ValueError when their sets would take more than
    MAX_MC_SET_BYTES."""
    q = field.q
    t = _norm_sizes(sizes, q)
    if not isinstance(samples, Integral) or samples < 1:
        raise ValueError(f"monte_carlo needs a whole number of samples, at least 1, got {samples!r}")
    need = samples * set_bytes(q)
    if need > MAX_MC_SET_BYTES:
        raise ValueError(
            f"{samples} Monte Carlo samples need {need} bytes of sets "
            f"over GF({q}), above the limit of {MAX_MC_SET_BYTES}"
        )
    if rng is None:
        rng = np.random.default_rng()
    sets = set_layout(field)
    acc = sets.zero_sets(samples)  # {0}, the sumset identity
    rows = max(1, _MC_CELLS // q)
    for s in t:
        # draws in row chunks: consecutive rng.random calls continue one
        # stream, so the samples are those of a single (samples, q) call
        for lo in range(0, samples, rows):
            hi = min(lo + rows, samples)
            # uniform size-s subsets: the s smallest of q uniform keys, in
            # any order (a partial selection, not a full sort)
            picks = rng.random((hi - lo, q)).argpartition(s - 1, axis=1)[:, :s]
            acc[lo:hi] = sets.sumsets(acc[lo:hi], sets.from_members(picks))
    hist = np.bincount(sets.sizes(acc), minlength=q + 1)[1:]
    return hist / samples


# -- Markov coverage models --------------------------------------------------


@lru_cache(maxsize=None)
def _coverage_matrix_cached(step: int, q: int) -> np.ndarray:
    if not 1 <= step <= q:
        raise ValueError(f"step {step} outside [1, {q}]")
    gamma = np.zeros((q, q))
    for i in range(1, q + 1):
        t = intersection_dist((i, step), q)
        for m in range(len(t)):
            j = i + step - m
            if 1 <= j <= q:
                gamma[i - 1, j - 1] = t[m]
    return gamma


def coverage_transition_matrix(step: int, q: int) -> np.ndarray:
    """Transition matrix of the covered-bin count when one random
    step-sized subset is unioned into a current i-subset of a q-set.

    Entry [i-1, j-1] is the probability of moving from i covered bins to
    j = i + step - |overlap|; rows are stochastic, the matrix is upper
    triangular in the state order 1..q, and state q is absorbing.
    """
    return _coverage_matrix_cached(step, q).copy()


@lru_cache(maxsize=None)
def _chain_state(step: int, length: int, q: int) -> np.ndarray:
    """Row `step` of the coverage matrix power (length-1): occupancy
    distribution after `length` random step-subsets."""
    v = np.zeros(q)
    v[step - 1] = 1.0
    gamma = _coverage_matrix_cached(step, q)
    for _ in range(length - 1):
        # a step that returns its input would return it ever after
        if np.array_equal(v, v := v @ gamma):
            break
    return v


def occupancy_dist(n_balls: int, q: int) -> np.ndarray:
    """Distribution of the number of occupied bins after n_balls
    independent uniform throws into q bins."""
    if n_balls < 1:
        raise ValueError("need at least one ball")
    return _chain_state(1, n_balls, q).copy()


def _truncate_renorm(g: np.ndarray, lower: int) -> np.ndarray:
    out = g.copy()
    out[: lower - 1] = 0.0
    s = out.sum()
    if s <= 0:
        raise ArithmeticError("all mass below the lower bound; model degenerate")
    return out / s


def balls_dist(sizes: Sequence[int], field: GF) -> np.ndarray:
    """Occupancy approximation: each of the prod(sizes) sums lands in a
    uniform bin; mass below the provable lower bound is redistributed."""
    t = _norm_sizes(sizes, field.q)
    b = sumset_bounds(t, field)
    if b.forced_full:
        return _delta(field.q, field.q)
    n = prod(t)
    return _truncate_renorm(_chain_state(1, n, field.q), b.lower)


def union_model_dist(sizes: Sequence[int], field: GF) -> np.ndarray:
    """Refined occupancy approximation: the sums arrive as prod/max
    batches of max(sizes) distinct values each."""
    t = _norm_sizes(sizes, field.q)
    b = sumset_bounds(t, field)
    if b.forced_full:
        return _delta(field.q, field.q)
    d = t[-1]
    steps = prod(t) // d
    return _truncate_renorm(_chain_state(d, steps, field.q), b.lower)


# -- model selector ----------------------------------------------------------


@dataclass(frozen=True)
class SumsetSizeModel:
    """Names one sumset-size law: `kind` is one of MODEL_KINDS.  With an
    ``mc_seed``, the exact law falls back to ``mc_samples`` Monte Carlo
    draws seeded by (mc_seed, q, sizes) where the exact law is over its
    work cap.
    A model is a value: equal models give equal laws."""

    kind: str
    _: KW_ONLY
    mc_samples: int = DEFAULT_MC_SAMPLES
    mc_seed: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        # numpy integers are Integral too; a float count or seed would
        # fail deep inside the sampler
        if not isinstance(self.mc_samples, Integral) or self.mc_samples < 1:
            raise ValueError(f"mc_samples must be an integer of at least 1, got {self.mc_samples!r}")
        if self.mc_seed is not None and not isinstance(self.mc_seed, Integral):
            raise ValueError(f"mc_seed must be an integer or None, got {self.mc_seed!r}")
        # no set takes fewer than set_bytes(2) bytes, so a count over
        # this is refused by monte_carlo_dist at every field
        if self.mc_samples * set_bytes(2) > MAX_MC_SET_BYTES:
            raise ValueError(
                f"mc_samples {self.mc_samples} exceeds the Monte Carlo limit of "
                f"{MAX_MC_SET_BYTES} bytes of sets at every field"
            )

    def distribution(self, sizes: Sequence[int], field: GF) -> np.ndarray:
        """A fresh length-q law of the sumset size for ``sizes``."""
        t = _norm_sizes(sizes, field.q)
        # each law through its module-level name, so a wrapper put there
        # (a tracer, a test's counter) sees every call
        if self.kind == "exact":
            try:
                return exact_dist(t, field)
            except EnumerationBudgetError:
                if self.mc_seed is None:
                    raise
            rng = np.random.default_rng([self.mc_seed, field.q, *t])
            return monte_carlo_dist(t, field, self.mc_samples, rng)
        if self.kind == "bound-lower":
            return bound_dist(t, field, "lower")
        if self.kind == "bound-upper":
            return bound_dist(t, field, "upper")
        if self.kind == "balls":
            return balls_dist(t, field)
        return union_model_dist(t, field)
