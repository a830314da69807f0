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
  the raw assignment count) through the field's set layout,
* two absorbing-Markov-chain approximations driven by the coverage
  transition matrix: a per-sum occupancy model ("balls") and a
  per-translate model ("union"),

plus a `SumsetSizeModel` selector that caches one distribution per
(field, sorted size tuple) the way the density evolution consumes them.

All distributions are length-q vectors indexed by size-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Sequence

import numpy as np

from .combinatorics import binom, intersection_dist
from .gf import GF
from .symbol_sets import index_masks, set_layout

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


def exact_dist(
    sizes: Sequence[int],
    field: GF,
    *,
    method: str = "exhaustive",
    samples: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
    work_cap: int = DEFAULT_WORK_CAP,
) -> np.ndarray:
    """Distribution of |sumset| when each operand is uniform among the
    size-|S_j| subsets of GF(q).

    method='exhaustive' enumerates exactly and raises
    EnumerationBudgetError when the work estimate exceeds ``work_cap``;
    method='monte_carlo' samples ``samples`` assignments from ``rng``.
    """
    t = _norm_sizes(sizes, field.q)
    if method == "exhaustive":
        if exhaustive_work_estimate(t, field.q) > work_cap:
            raise EnumerationBudgetError(
                f"exhaustive enumeration for sizes {t} over GF({field.q}) "
                f"exceeds the work cap ({work_cap}); use monte_carlo"
            )
        return np.array([float(p) for p in _exact_dist_rational(t, field)])
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    if samples < 1:
        raise ValueError(f"monte_carlo needs at least one sample, got {samples}")
    if rng is None:
        rng = np.random.default_rng()
    return _monte_carlo_dist(t, field, samples, rng)


def _monte_carlo_dist(
    sizes: tuple[int, ...], field: GF, samples: int, rng: np.random.Generator
) -> np.ndarray:
    q = field.q
    sets = set_layout(field)
    acc = sets.zero_sets(samples)  # {0}, the sumset identity
    rows = max(1, _MC_CELLS // q)
    for s in sizes:
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


class SumsetSizeModel:
    """Named strategy for the sumset-size distribution with a per-tuple
    cache; `kind` is one of MODEL_KINDS."""

    def __init__(
        self,
        kind: str,
        *,
        work_cap: int = DEFAULT_WORK_CAP,
        mc_samples: int = DEFAULT_MC_SAMPLES,
        mc_seed: int | None = None,
    ):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
        if mc_samples < 1:
            raise ValueError(f"mc_samples must be at least 1, got {mc_samples}")
        self.kind = kind
        self.work_cap = work_cap
        self.mc_samples = mc_samples
        self.mc_seed = mc_seed
        self._cache: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}

    @classmethod
    def exact(cls, **kw) -> "SumsetSizeModel":
        return cls("exact", **kw)

    @classmethod
    def bound_lower(cls) -> "SumsetSizeModel":
        return cls("bound-lower")

    @classmethod
    def bound_upper(cls) -> "SumsetSizeModel":
        return cls("bound-upper")

    @classmethod
    def balls(cls) -> "SumsetSizeModel":
        return cls("balls")

    @classmethod
    def union(cls) -> "SumsetSizeModel":
        return cls("union")

    def distribution(self, sizes: Sequence[int], field: GF) -> np.ndarray:
        t = _norm_sizes(sizes, field.q)
        key = (field.q, t)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.kind == "exact":
            try:
                dist = exact_dist(t, field, work_cap=self.work_cap)
            except EnumerationBudgetError:
                if self.mc_seed is None:
                    raise
                rng = np.random.default_rng([self.mc_seed, field.q, *t])
                dist = exact_dist(
                    t, field, method="monte_carlo", samples=self.mc_samples, rng=rng
                )
        elif self.kind == "bound-lower":
            dist = bound_dist(t, field, "lower")
        elif self.kind == "bound-upper":
            dist = bound_dist(t, field, "upper")
        elif self.kind == "balls":
            dist = balls_dist(t, field)
        else:
            dist = union_model_dist(t, field)
        self._cache[key] = dist
        return dist

    def __repr__(self) -> str:
        return f"SumsetSizeModel({self.kind!r})"
