"""Size distribution of a sumset of random fixed-size subsets of GF(q).

The check-node output of the set decoder is a sumset of its incoming
sets, so the density evolution needs, for every tuple of incoming set
sizes, the distribution of the sumset size.  No closed form is known;
this module provides

* hard bounds on the realized size (``sumset_bounds``) and the two
  degenerate point-mass distributions built from them.  Where the
  bounds meet (one operand beside translates, two operands covering
  the field, or Cauchy-Davenport reaching q) every law below is the
  point mass at that size,
* the exact distribution as a chain on AGL(1, q) orbits: for a != 0
  the map S -> aS + b keeps a uniform operand uniform, so the sizes
  still to come have the same law below every partial sumset of one
  orbit.  The chain keeps one integer count per orbit, adds one operand
  at a time through the field's set layout, and charges each step to
  the work budget before it runs; the Monte Carlo estimate stands in
  for laws over a sixteenth of the budget,
* two absorbing-Markov-chain approximations driven by the coverage
  transition matrix: a per-sum occupancy model ("balls") and a
  per-translate model ("union"),

plus `SumsetSizeModel`, a frozen value naming the law the density
evolution uses.

All distributions are length-q vectors indexed by size-1.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Sequence

import numpy as np

from . import budget
from .combinatorics import _counts, _law, _law_exact, _norm, as_int, binom
from .gf import GF
from .symbol_sets import index_masks, mask_dtype, masks_to_planes, set_bytes, set_layout

DEFAULT_MC_SAMPLES = 10**6

MODEL_KINDS = ("exact", "bound-lower", "bound-upper", "balls", "union")


class EnumerationBudgetError(RuntimeError):
    """The exact law's orbit chain would take more than a sixteenth of the
    work budget, which the Monte Carlo law can replace."""


@dataclass(frozen=True)
class SumsetBounds:
    """Provable bounds on the size of a sumset with given operand sizes.

    Where they meet, the size is pinned: two operands alone covering the
    field (|S_a| + |S_b| > q) give lower == upper == q.
    """

    lower: int
    upper: int


def _checked(sizes: Sequence[int], field: GF) -> tuple[tuple[int, ...], SumsetBounds]:
    """(sizes sorted as ints, their ``SumsetBounds``), or ValueError
    unless sizes is an iterable of integers in [1, q] with at least one.
    The one size check of every law here: each public law calls it once,
    and the helpers under it take the sorted tuple it returns."""
    t, q = _norm(sizes, field.q, 1)
    if len(t) >= 2 and t[-1] + t[-2] > q:
        return t, SumsetBounds(lower=q, upper=q)
    lower = max(t[-1], min(field.p, sum(t) - len(t) + 1))
    return t, SumsetBounds(lower=lower, upper=min(q, prod(t)))


def sumset_bounds(sizes: Sequence[int], field: GF) -> SumsetBounds:
    """Bounds on the size of the sumset of sets of the given sizes;
    ValueError as for ``_checked``."""
    return _checked(sizes, field)[1]


def _delta(q: int, size: int) -> np.ndarray:
    out = np.zeros(q)
    out[size - 1] = 1.0
    return out


def bound_dist(sizes: Sequence[int], field: GF, which: str) -> np.ndarray:
    """Point mass at the upper ('upper', pessimistic) or lower ('lower',
    optimistic) sumset-size bound."""
    if which not in ("upper", "lower"):
        raise ValueError(f"which must be 'upper' or 'lower', got {which!r}")
    b = sumset_bounds(sizes, field)
    return _delta(field.q, b.upper if which == "upper" else b.lower)


# -- exact distribution ------------------------------------------------------


def _orbit_step(field: GF, key: int, size: int) -> tuple[tuple[int, int], ...]:
    """(orbit key, count) of key + B over the size-``size`` subsets B of
    GF(q) that hold 0; by translation, their law is that over all of them.
    Charged ``_step_cells`` to the open budget, which builds each step
    once.

    The key of a set is the least mask among its images under the affine
    maps that send x to 0 and y to 1, over the ordered pairs of members
    (x, y) whose difference y - x recurs most in the set.  An affine map
    scales every difference alike, so these images are the same for every
    set of an AGL(1, q) orbit.  A set of more than q/2 members takes the
    complement of its complement's key (the full set: the full mask)."""
    q, sets = field.q, set_layout(field)
    budget.current().charge(_step_cells(key.bit_count(), size, q), "an orbit step")
    subsets = [(0, *c) for c in combinations(range(1, q), size - 1)]
    state = sets.encode(np.array([key], dtype=mask_dtype(q)))
    masks = sets.to_masks(sets.sumsets(state, sets.from_members(np.array(subsets))))
    bits = masks_to_planes(masks, q)
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


def _step_cells(a: int, s: int, q: int) -> int:
    """Cells of one orbit step from a set of ``a`` members through its
    C(q-1, s-1) size-``s`` subsets: 2**8 numpy calls for the step, and
    for each subset 40 per field element for the sumset and 8 per cube of
    the size k of the flipped sumset, whose ordered member pairs and their
    images the key reads; k is taken as the size of a union of ``a``
    uniform s-sets, m = q (1 - (1 - s/q)**a), or of its complement."""
    m = q * (1 - (1 - s / q) ** a)
    return 2**8 * budget.CALL + binom(q - 1, s - 1) * (40 * q + int(8 * min(m, q - m) ** 3))


def _exact_counts(sizes: Sequence[int], field: GF) -> list[int]:
    """Operand choices by sumset size (length q, index size-1), from the
    orbit chain; EnumerationBudgetError as for ``exact_dist``."""
    q = field.q
    t, b = _checked(sizes, field)
    if b.lower == b.upper:
        return [int(s == b.lower) for s in range(1, q + 1)]
    # a size-1 operand is a translate, whose step maps every orbit to
    # itself; with the bounds apart, two or more larger operands are left
    t = tuple(s for s in t if s > 1)
    # orbit key -> number of operand choices so far, from {0}
    state, work = Counter({1: 1}), 0
    with budget.scope():
        for s in t:
            # the law alone, every step priced as if built cold
            work += sum(_step_cells(key.bit_count(), s, q) for key in state)
            what = f"the chain of {t} in GF({q}): {work} cells, over work cap ({budget.CELLS}) / 16"
            budget.over(work, budget.CELLS >> 4, what, EnumerationBudgetError)
            nxt = Counter()
            for key, count in state.items():
                nxt.update({o: count * c for o, c in budget.table(_orbit_step, field, key, s)})
            state = nxt
    counts = [0] * q
    for key, count in state.items():
        counts[key.bit_count() - 1] += count
    return counts


def exact_dist_rational(sizes: Sequence[int], field: GF) -> tuple[Fraction, ...]:
    """Exact sumset-size distribution as rationals (length q, index
    size-1); EnumerationBudgetError as for ``exact_dist``."""
    return _law_exact(_exact_counts(sizes, field))


def exact_dist(sizes: Sequence[int], field: GF) -> np.ndarray:
    """Distribution of |sumset| when each operand is uniform among the
    size-|S_j| subsets of GF(q), exactly, by a chain on AGL(1, q) orbits.

    Where ``sumset_bounds`` meet, the law is the point mass there and
    takes no step; otherwise operands of size 1 are translates and take
    no step either.  Each step is priced per (orbit, subset) pair by
    ``_step_cells`` and charged to the work budget before it runs, once
    per budget; the chain raises EnumerationBudgetError
    once its steps would take more than a sixteenth of ``budget.CELLS``
    (read at call time), so whether a law is refused depends only on the
    sizes, q and the budget; ``monte_carlo_dist`` estimates such laws.
    Each entry is one integer division of counts, the float of its
    rational.
    """
    return _law(_exact_counts(sizes, field))


def monte_carlo_dist(
    sizes: Sequence[int], field: GF, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Estimate of ``exact_dist`` from ``samples`` random assignments
    drawn from ``rng``; ValueError when their sets would take more than
    a quarter of ``budget.BYTES``, which leaves room for their sizes and
    the draws' chunks."""
    t, q = _norm(sizes, field.q, 1)
    samples = as_int(samples, "samples", 1)
    need = samples * set_bytes(q)
    budget.over(need, budget.BYTES >> 2, f"{samples} Monte Carlo samples: {need} bytes of sets")
    sets = set_layout(field)
    acc = sets.zero_sets(samples)  # {0}, the sumset identity
    # chunks of BYTES >> 12 (sample, element) cells, at least one row:
    # each of a chunk's temporaries holds one float or complex per cell
    rows = max(1, (budget.BYTES >> 12) // q)
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


def coverage_transition_matrix(step: int, q: int) -> np.ndarray:
    """Transition matrix of the covered-bin count when one random
    step-sized subset is unioned into a current i-subset of a q-set.

    Entry [i-1, j-1] is the probability of moving from i covered bins to
    j = i + step - |overlap|; rows are stochastic, the matrix is upper
    triangular in the state order 1..q, and state q is absorbing.
    ValueError when step or q is not an integer of at least 1, when step
    exceeds q, or when the matrix would take more than ``budget.BYTES``.
    """
    # as ints: a numpy integer q would wrap around in 8*q*q
    step, q = as_int(step, "step", 1), as_int(q, "q", 1)
    if step > q:
        raise ValueError(f"step {step} outside [1, {q}]")
    budget.over(8 * q * q, budget.BYTES, f"a coverage matrix of {q} bins, in bytes")
    gamma = np.zeros((q, q))
    for i in range(1, q + 1):
        # (i, step) sorted and in [1, q]: the law of intersection_dist
        t = _law(_counts((min(i, step), max(i, step)), q))
        for m in range(len(t)):
            j = i + step - m
            if 1 <= j <= q:
                gamma[i - 1, j - 1] = t[m]
    return gamma


class _Walk:
    """A coverage walk of step-sized subsets into q bins, kept per work
    budget: the lengths its calls have ended at, ascending, from length 1
    (the point mass at ``step``), their states, and the length from
    which it stands still (a step there returned its input), once it has
    reached one."""

    def __init__(self, step: int, q: int):
        v = np.zeros(q)
        v[step - 1] = 1.0
        self.lengths, self.states, self.still = [1], [v], None


def _chain_state(step: int, length: int, q: int) -> np.ndarray:
    """Row `step` of the coverage matrix power (length-1): occupancy
    distribution after `length` random step-subsets.  The open budget
    keeps one walk per (step, q): a call walks on from the longest state
    it holds at a length up to ``length`` and keeps the state it ends on,
    so it charges only the steps it adds.  Each step, a q x q product and
    a compare, is charged five numpy calls and q*q matrix entries before
    it runs.  The state returned is the walk's own: callers copy it
    before writing."""
    with budget.scope() as spend:
        # the matrix first: it refuses a step or q that no walk can take
        gamma = budget.table(coverage_transition_matrix, step, q)
        walk = budget.table(_Walk, step, q)
        if walk.still is not None:
            length = min(length, walk.still)
        i = bisect_right(walk.lengths, length) - 1
        n, v = walk.lengths[i], walk.states[i]
        while n < length:
            spend.charge(5 * budget.CALL + q * q // budget.ENTRIES, "a coverage-walk step")
            n += 1
            # a step that returns its input would return it ever after
            if (v == (v := v @ gamma)).all():
                walk.still = n
                break
        if n > walk.lengths[i]:
            walk.lengths.insert(i + 1, n)
            walk.states.insert(i + 1, v)
    return v


def occupancy_dist(n_balls: int, q: int) -> np.ndarray:
    """Distribution of the number of occupied bins after n_balls
    independent uniform throws into q bins; ValueError as for
    ``coverage_transition_matrix``, and when n_balls is not an integer of
    at least 1."""
    return _chain_state(1, as_int(n_balls, "n_balls", 1), q).copy()


def _truncate_renorm(g: np.ndarray, lower: int) -> np.ndarray:
    out = g.copy()
    out[: lower - 1] = 0.0
    s = out.sum()
    if s <= 0:
        raise ArithmeticError("all mass below the lower bound; model degenerate")
    return out / s


def _coverage_dist(sizes: Sequence[int], field: GF, batched: bool) -> np.ndarray:
    # the prod(sizes) sums in batches of one (balls) or max(sizes) (union)
    t, b = _checked(sizes, field)
    if b.lower == b.upper:
        return _delta(field.q, b.lower)
    d = t[-1] if batched else 1
    return _truncate_renorm(_chain_state(d, prod(t) // d, field.q), b.lower)


def balls_dist(sizes: Sequence[int], field: GF) -> np.ndarray:
    """Occupancy approximation: each of the prod(sizes) sums lands in a
    uniform bin; mass below the provable lower bound is redistributed."""
    return _coverage_dist(sizes, field, batched=False)


def union_model_dist(sizes: Sequence[int], field: GF) -> np.ndarray:
    """Refined occupancy approximation: the sums arrive as prod/max
    batches of max(sizes) distinct values each."""
    return _coverage_dist(sizes, field, batched=True)


# -- model selector ----------------------------------------------------------


@dataclass(frozen=True)
class SumsetSizeModel:
    """Names one sumset-size law: `kind` is one of MODEL_KINDS.  With an
    ``mc_seed``, the exact law falls back to ``mc_samples`` Monte Carlo
    draws seeded by (mc_seed, q, sizes) where the exact law is over its
    share of the work budget.  ``mc_samples`` must be an integer of at
    least 1 and ``mc_seed`` one of at least 0 (ValueError).
    A model is a value: equal models give equal laws."""

    kind: str
    _: KW_ONLY
    mc_samples: int = DEFAULT_MC_SAMPLES
    mc_seed: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        # a float count or seed would fail deep inside the sampler
        samples = as_int(self.mc_samples, "mc_samples", 1)
        if self.mc_seed is not None:
            as_int(self.mc_seed, "mc_seed", 0)
        # no set takes fewer than set_bytes(2) bytes, so a count over
        # this is refused by monte_carlo_dist at every field
        budget.over(samples * set_bytes(2), budget.BYTES >> 2, "set bytes at every field")

    def distribution(self, sizes: Sequence[int], field: GF) -> np.ndarray:
        """A fresh length-q law of the sumset size for ``sizes``."""
        # each law through its module-level name, so a wrapper put there
        # (a tracer, a test's counter) sees every call; the law checks
        # the sizes, once, so they pass on as given
        if self.kind == "exact":
            try:
                return exact_dist(sizes, field)
            except EnumerationBudgetError:
                if self.mc_seed is None:
                    raise
            # the seed reads the sizes sorted, in any order they came
            t = _norm(sizes, field.q, 1)[0]
            rng = np.random.default_rng([self.mc_seed, field.q, *t])
            return monte_carlo_dist(t, field, self.mc_samples, rng)
        if self.kind == "bound-lower":
            return bound_dist(sizes, field, "lower")
        if self.kind == "bound-upper":
            return bound_dist(sizes, field, "upper")
        if self.kind == "balls":
            return balls_dist(sizes, field)
        return union_model_dist(sizes, field)
