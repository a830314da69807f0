"""Size distribution of a sumset of random fixed-size subsets of GF(q).

The check-node output of the set decoder is a sumset of its incoming
sets, so the density evolution needs, for every tuple of incoming set
sizes, the distribution of the sumset size.  No closed form is known;
this module provides

* hard bounds on the realized size (``sumset_bounds``) and the two
  degenerate point-mass distributions built from them,
* the exact distribution by enumeration over subset assignments,
  folded one operand at a time over the distinct partial sumsets with
  integer counts (so exhaustive cost grows with 2**q instead of with
  the raw assignment count) through the field's set layout, and its
  Monte Carlo estimate where enumeration is over budget,
* two absorbing-Markov-chain approximations driven by the coverage
  transition matrix: a per-sum occupancy model ("balls") and a
  per-translate model ("union"),

plus `SumsetSizeModel`, a frozen value naming the law the density
evolution uses.

All distributions are length-q vectors indexed by size-1.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Sequence

import numpy as np

from .combinatorics import binom, intersection_dist
from .gf import GF
from .symbol_sets import index_masks, set_bytes, set_layout

DEFAULT_WORK_CAP = 10**8
DEFAULT_MC_SAMPLES = 10**6
# bound on (state, subset) pairs the exact fold expands at once (block
# rows times subsets, at least one row); keeps each of its temporaries
# at a few MB in either set layout
_FOLD_BLOCK = 1 << 14
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
    """Exhaustive enumeration would exceed the configured work cap."""


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


def _subset_masks(q: int, size: int) -> np.ndarray:
    """Masks of every size-``size`` subset of GF(q)."""
    return index_masks(np.array(list(combinations(range(q), size))), q)


def exhaustive_work_estimate(sizes: Sequence[int], q: int) -> int:
    """Pessimistic op count for the distribution convolution."""
    return (1 << q) * sum(binom(q, s) for s in sizes[1:]) + binom(q, sizes[0])


@lru_cache(maxsize=None)
def _exact_dist_rational(sizes: tuple[int, ...], field: GF) -> tuple[Fraction, ...]:
    q = field.q
    sets = set_layout(field)
    total = prod(binom(q, s) for s in sizes)
    # a count never exceeds total, so int64 is exact below 2**63
    ctype = np.int64 if total < 2**63 else object
    # live sumset masks with their assignment counts; fold one operand
    # at a time, expanding each block of live states against every
    # subset by broadcasting and merging the sums into the next live
    # states, so memory stays O(2**q + block)
    keys = _subset_masks(q, sizes[0])
    counts = np.ones(len(keys), dtype=ctype)
    for s in sizes[1:]:
        states, weights = sets.encode(keys), counts
        subsets = sets.encode(_subset_masks(q, s))
        rows = max(1, _FOLD_BLOCK // len(subsets))
        keys, counts = keys[:0], counts[:0]
        for lo in range(0, len(states), rows):
            sums = sets.to_masks(sets.sumsets(states[lo : lo + rows, None], subsets[None]))
            block = np.broadcast_to(weights[lo : lo + rows, None], sums.shape)
            keys, counts = _merge_counts(
                np.concatenate([keys, sums.ravel()]), np.concatenate([counts, block.ravel()])
            )
    by_size = np.zeros(q + 1, dtype=ctype)
    np.add.at(by_size, sets.sizes(sets.encode(keys)), counts)
    return tuple(Fraction(int(c), total) for c in by_size[1:])


def _merge_counts(keys: np.ndarray, counts: np.ndarray):
    """Distinct keys, each with the summed counts of its copies."""
    uniq, where = np.unique(keys, return_inverse=True)
    merged = np.zeros(len(uniq), dtype=counts.dtype)
    np.add.at(merged, where, counts)
    return uniq, merged


def exact_dist_rational(sizes: Sequence[int], field: GF) -> tuple[Fraction, ...]:
    """Exact sumset-size distribution as rationals (length q, index size-1)."""
    return _exact_dist_rational(_norm_sizes(sizes, field.q), field)


def exact_dist(sizes: Sequence[int], field: GF) -> np.ndarray:
    """Distribution of |sumset| when each operand is uniform among the
    size-|S_j| subsets of GF(q), by exhaustive enumeration.

    Raises EnumerationBudgetError when the work estimate exceeds
    ``DEFAULT_WORK_CAP``; ``monte_carlo_dist`` estimates such laws.
    """
    t = _norm_sizes(sizes, field.q)
    if exhaustive_work_estimate(t, field.q) > DEFAULT_WORK_CAP:
        raise EnumerationBudgetError(
            f"exhaustive enumeration for sizes {t} over GF({field.q}) "
            f"exceeds the work cap ({DEFAULT_WORK_CAP}); use monte_carlo"
        )
    return np.array([float(p) for p in _exact_dist_rational(t, field)])


def monte_carlo_dist(
    sizes: Sequence[int], field: GF, samples: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Estimate of ``exact_dist`` from ``samples`` random assignments
    drawn from ``rng``; ValueError when their sets would take more than
    MAX_MC_SET_BYTES."""
    q = field.q
    t = _norm_sizes(sizes, q)
    if samples < 1:
        raise ValueError(f"monte_carlo needs at least one sample, got {samples}")
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
    if length > 1:
        gamma = _coverage_matrix_cached(step, q)
        for _ in range(length - 1):
            v = v @ gamma
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
    draws seeded by (mc_seed, q, sizes) where enumeration is over budget.
    A model is a value: equal models give equal laws."""

    kind: str
    _: KW_ONLY
    mc_samples: int = DEFAULT_MC_SAMPLES
    mc_seed: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be at least 1, got {self.mc_samples}")
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
