"""Exact counting for intersections of fixed-size subsets.

Everything here is plain combinatorics over an abstract q-element
universe (no field structure).  Counts are exact big integers built by
a chain that meets one set at a time: a size-s set meets a fixed i-set
in exactly j members in binom(i, j) * binom(q - i, s - j) ways, so each
step is a sum of positive terms.  The chain starts from one fixed
smallest set, so its counts lack that set's binom(q, mu) choices, a
factor that cancels in every law; the count functions multiply it back
once.  Probabilities are ratios of those counts, available both as
exact `Fraction` vectors and as float vectors for the
density-evolution loops, each entry one integer division.
Nothing here is memoized: the callers that re-read laws keep what they
build (density evolution its size chain, the coverage models their
matrices).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from numbers import Integral, Real
from typing import Sequence

import numpy as np


def binom(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the valid range."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def as_int(value, name: str, least: int | None = None) -> int:
    """``value`` as an int, or ValueError if it is not an integer (a
    numpy integer is one, a bool is not) or lies below ``least``.  Every
    count, size, degree, index and seed of the public API passes here."""
    whole = isinstance(value, Integral) and not isinstance(value, bool)
    if not whole or (least is not None and value < least):
        at_least = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """Whether ``value`` is a real number (a numpy float is one, a bool
    is not); NaN and the infinities are, so callers bound it."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _norm(sizes: Sequence[int], q: int, least: int = 0) -> tuple[tuple[int, ...], int]:
    """(sizes sorted, q) as ints, or ValueError unless sizes is iterable,
    there is a size and each lies in [least, q]."""
    q = as_int(q, "q")
    try:
        sizes = iter(sizes)
    except TypeError:
        raise ValueError(f"sizes must be an iterable of integers, got {sizes!r}") from None
    t = tuple(sorted(as_int(s, "a size") for s in sizes))
    if not t:
        raise ValueError("size tuple must be nonempty")
    if t[0] < least or t[-1] > q:
        raise ValueError(f"sizes must be >= {least} and <= q={q}, got {t}")
    return t, q


def _counts(sizes: tuple[int, ...], q: int) -> tuple[int, ...]:
    # the counts over one fixed smallest set, each 1/binom(q, mu) of the
    # true count: that set alone is its own intersection; then meet one
    # more set at a time
    mu = sizes[0]
    counts = [0] * mu + [1]
    for s in sizes[1:]:
        nxt = [0] * (mu + 1)
        for i, c in enumerate(counts):
            if c:
                # a size-s set meets a fixed i-set in exactly j members
                # in binom(i, j) * binom(q - i, s - j) ways
                for j in range(min(i, s) + 1):
                    nxt[j] += c * binom(i, j) * binom(q - i, s - j)
        counts = nxt
    return tuple(counts)


def intersection_count(sizes: Sequence[int], m: int, q: int) -> int:
    """Number of ordered tuples of subsets (of the given sizes, inside a
    q-element universe) whose intersection has size exactly m."""
    t, q = _norm(sizes, q)
    if as_int(m, "m", 0) > t[0]:
        raise ValueError(f"m={m} above the least size {t[0]}")
    return binom(q, t[0]) * _counts(t, q)[m]


def intersection_counts(sizes: Sequence[int], q: int) -> list[int]:
    """All counts for m = 0 .. min(sizes)."""
    t, q = _norm(sizes, q)
    return [binom(q, t[0]) * c for c in _counts(t, q)]


def _common_counts(sizes: Sequence[int], q: int) -> tuple[int, ...]:
    t, q = _norm(sizes, q, 1)
    return (0,) + _counts(tuple(s - 1 for s in t), q - 1)


def _law_exact(counts: Sequence[int]) -> tuple[Fraction, ...]:
    total = sum(counts)
    return tuple(Fraction(c, total) for c in counts)


def _law(counts: Sequence[int]) -> np.ndarray:
    # int / int is correctly rounded, so each entry is float() of its
    # Fraction: the same value, without reducing it first
    total = sum(counts)
    return np.array([c / total for c in counts])


def intersection_dist_exact(sizes: Sequence[int], q: int) -> tuple[Fraction, ...]:
    """Distribution of the intersection size of uniform random subsets
    with the given sizes; entry m is P(|intersection| = m), m = 0..min."""
    return _law_exact(_counts(*_norm(sizes, q)))


def intersection_dist(sizes: Sequence[int], q: int) -> np.ndarray:
    return _law(_counts(*_norm(sizes, q)))


def common_member_intersection_dist_exact(
    sizes: Sequence[int], q: int
) -> tuple[Fraction, ...]:
    """Distribution of the intersection size when the subsets are
    uniform among those containing one shared symbol.

    Entry m is P(|intersection| = m) for m = 0..min(sizes); entry 0 is
    always zero since the shared symbol survives the intersection.
    Dropping that symbol leaves uniform subsets, one smaller each, of the
    other q - 1 elements, so entry m is entry m - 1 of their law.
    """
    return _law_exact(_common_counts(sizes, q))


def common_member_intersection_dist(sizes: Sequence[int], q: int) -> np.ndarray:
    return _law(_common_counts(sizes, q))
