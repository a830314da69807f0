"""Exact counting for intersections of fixed-size subsets.

Everything here is plain combinatorics over an abstract q-element
universe (no field structure).  Counts are exact big integers built
from an inclusion-exclusion over the size of a forced common subset;
probabilities are ratios of those counts, available both as exact
`Fraction` vectors and as float vectors for the density-evolution
loops.  Results are memoized on the sorted size tuple since callers
re-query the same tuples across iterations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the valid range."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def _norm(sizes: Sequence[int], q: int) -> tuple[int, ...]:
    t = tuple(sorted(sizes))
    if not t:
        raise ValueError("size tuple must be nonempty")
    if t[0] < 0 or t[-1] > q:
        raise ValueError(f"sizes {t} out of range for a {q}-element universe")
    return t


@lru_cache(maxsize=None)
def _counts(sizes: tuple[int, ...], q: int) -> tuple[int, ...]:
    mu = sizes[0]

    def ways_with_common(l: int) -> int:
        # ordered tuples of subsets that all contain one fixed l-subset,
        # summed over the binom(q, l) choices of that subset
        out = binom(q, l)
        for s in sizes:
            out *= binom(q - l, s - l)
        return out

    counts = []
    for m in range(mu + 1):
        total = 0
        for i in range(mu - m + 1):
            term = ways_with_common(m + i) * binom(m + i, m)
            total += -term if i % 2 else term
        counts.append(total)
    return tuple(counts)


def intersection_count(sizes: Sequence[int], m: int, q: int) -> int:
    """Number of ordered tuples of subsets (of the given sizes, inside a
    q-element universe) whose intersection has size exactly m."""
    t = _norm(sizes, q)
    if not 0 <= m <= t[0]:
        raise ValueError(f"m={m} outside [0, {t[0]}]")
    return _counts(t, q)[m]


def intersection_counts(sizes: Sequence[int], q: int) -> list[int]:
    """All counts for m = 0 .. min(sizes)."""
    return list(_counts(_norm(sizes, q), q))


@lru_cache(maxsize=None)
def _dist_exact(sizes: tuple[int, ...], q: int) -> tuple[Fraction, ...]:
    counts = _counts(sizes, q)
    total = sum(counts)
    return tuple(Fraction(c, total) for c in counts)


def intersection_dist_exact(sizes: Sequence[int], q: int) -> tuple[Fraction, ...]:
    """Distribution of the intersection size of uniform random subsets
    with the given sizes; entry m is P(|intersection| = m), m = 0..min."""
    return _dist_exact(_norm(sizes, q), q)


def intersection_dist(sizes: Sequence[int], q: int) -> np.ndarray:
    return np.array([float(p) for p in intersection_dist_exact(sizes, q)])


@lru_cache(maxsize=None)
def _common_dist_exact(sizes: tuple[int, ...], q: int) -> tuple[Fraction, ...]:
    mu = sizes[0]
    if mu < 1:
        raise ValueError("all sizes must be >= 1")
    out = [Fraction(0)] * (mu + 1)
    if mu == 1:
        out[1] = Fraction(1)
        return tuple(out)
    # condition every set on containing one shared fixed symbol: drop
    # that symbol and count intersections in the remaining q-1 elements
    shifted = _counts(tuple(s - 1 for s in sizes), q - 1)
    total = sum(shifted)
    for m in range(1, mu + 1):
        out[m] = Fraction(shifted[m - 1], total)
    return tuple(out)


def common_member_intersection_dist_exact(
    sizes: Sequence[int], q: int
) -> tuple[Fraction, ...]:
    """Distribution of the intersection size when the subsets are
    uniform among those containing one shared symbol.

    Entry m is P(|intersection| = m) for m = 0..min(sizes); entry 0 is
    always zero since the shared symbol survives the intersection.
    """
    return _common_dist_exact(_norm(sizes, q), q)


def common_member_intersection_dist(sizes: Sequence[int], q: int) -> np.ndarray:
    return np.array(
        [float(p) for p in common_member_intersection_dist_exact(sizes, q)]
    )
