"""GF(q) arithmetic for q prime or a prime power, q <= 256.

Field elements are plain integers in [0, q-1].  For an extension field
GF(p^s) the integer's base-p digits are the coefficients of the
polynomial representative (digit k = coefficient of x^k), so element 0
is the additive identity and element 1 the multiplicative identity in
every supported field.

All arithmetic is table-driven.  The constructor builds the (q, s)
array of every element's digits and derives, from it alone and in one
path for prime and extension fields, full q x q add/mul tables plus
neg/inv vectors: sums and negations digitwise mod p, products as
sum_k b_k (x^k a) with x^k a from shift-and-reduce steps through the
reduction polynomial.  This keeps the decoder and the sumset
enumeration free of polynomial arithmetic, which is left only in the
search for the reduction polynomial.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .combinatorics import as_int

MAX_Q = 256


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic
    a = list(a)
    d = len(mod) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * mod[j]) % p
    return a[:d]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not any(_poly_mod(poly, divisor, p)):
                return False
    return True


def _find_reduction_poly(p: int, s: int) -> tuple[int, ...]:
    """Smallest (by base-p value of the low coefficients) monic
    irreducible polynomial of degree s over GF(p)."""
    for value in range(p**s):
        coeffs = []
        v = value
        for _ in range(s):
            coeffs.append(v % p)
            v //= p
        poly = coeffs + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError(f"no irreducible polynomial of degree {s} over GF({p})")


class GF:
    """Finite field GF(q) with precomputed operation tables.

    Parameters
    ----------
    q : int
        Field order, 2 <= q <= 256, prime or prime power; a numpy
        integer is one, a bool or a float is refused (ValueError).

    Attributes
    ----------
    q, p, s : int
        Order, characteristic and extension degree (q = p^s).
    reduction_poly : tuple[int, ...]
        Coefficients (ascending degree, monic) of the irreducible
        polynomial used for s > 1; empty tuple for prime fields.
    digits : ndarray, shape (q, s)
        Read-only base-p digits of every element: digits[a, k] is the
        coefficient of x^k in a.
    add_table, mul_table : ndarray
        q x q operation tables.
    neg_table, inv_table : ndarray
        Negation for all elements; inverse for nonzero elements
        (entry 0 of inv_table is unused).
    """

    def __init__(self, q: int):
        q = as_int(q, "q", 2)
        if q > MAX_Q:
            raise ValueError(f"q must be at most {MAX_Q}, got {q}")
        p = _smallest_prime_factor(q)
        s = 0
        n = q
        while n % p == 0:
            n //= p
            s += 1
        if n != 1:
            raise ValueError(f"q={q} is not a prime power")

        self.q = q
        self.p = p
        self.s = s
        self.reduction_poly: tuple[int, ...] = () if s == 1 else _find_reduction_poly(p, s)
        self._build_tables()

    def _build_tables(self) -> None:
        q, p, s = self.q, self.p, self.s
        weights = p ** np.arange(s)
        digits = np.arange(q)[:, None] // weights % p
        # shifted[k] = digits of x^k * a for every a: multiplying by x
        # moves each digit up one place and folds the carry out of place
        # s back in through x^s = -(r_0 + r_1 x + ... + r_{s-1} x^{s-1})
        low = np.array(self.reduction_poly[:-1], dtype=digits.dtype)
        shifted = [digits]
        for _ in range(s - 1):
            prev = shifted[-1]
            up = np.pad(prev[:, :-1], ((0, 0), (1, 0)))
            shifted.append((up - prev[:, -1:] * low) % p)
        # a * b = sum_k b_k (x^k a), digitwise mod p
        prod_digits = np.einsum("kaj,bk->abj", np.stack(shifted), digits) % p
        mul = prod_digits @ weights
        units = mul[1:] == 1
        bad = np.flatnonzero(units.sum(axis=1) != 1)
        if bad.size:
            raise RuntimeError(
                f"element {bad[0] + 1} of GF({q}) has no unique inverse; "
                f"reduction polynomial {self.reduction_poly} is not irreducible"
            )

        digits.setflags(write=False)
        self.digits = digits
        self.add_table = ((digits[:, None] + digits[None]) % p @ weights).astype(np.int16)
        self.mul_table = mul.astype(np.int16)
        self.neg_table = ((-digits) % p @ weights).astype(np.int16)
        self.inv_table = np.concatenate([[0], units.argmax(axis=1)]).astype(np.int16)
        # plain nested lists: ~5x faster than ndarray scalar indexing for
        # the scalar element operations below, which the scalar API
        # (ctv_message, TannerGraph.check_satisfied) and the test oracles
        # call in loops
        self._add_rows = self.add_table.tolist()
        self._mul_rows = self.mul_table.tolist()
        self._neg_list = self.neg_table.tolist()
        self._inv_list = self.inv_table.tolist()

    # -- element operations -------------------------------------------------
    # each checks its elements by chained comparisons (~30 ns; as_int
    # would take ~1 us), as a list index would wrap a negative element,
    # and turns the TypeError of a float index into the same ValueError;
    # a bool passes both, so identity tests with True and False refuse
    # it (~10 ns an element, cheaper than a type() call)

    def _refuse(self, *elements):
        raise ValueError(f"elements must be integers in [0, {self.q}), got {elements!r}")

    def add(self, a: int, b: int) -> int:
        try:
            if 0 <= a < self.q and 0 <= b < self.q and (
                a is not True and a is not False and b is not True and b is not False
            ):
                return self._add_rows[a][b]
        except TypeError:
            pass
        self._refuse(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        try:
            if 0 <= a < self.q and 0 <= b < self.q and (
                a is not True and a is not False and b is not True and b is not False
            ):
                return self._mul_rows[a][b]
        except TypeError:
            pass
        self._refuse(a, b)

    def neg(self, a: int) -> int:
        try:
            if 0 <= a < self.q and a is not True and a is not False:
                return self._neg_list[a]
        except TypeError:
            pass
        self._refuse(a)

    def inv(self, a: int) -> int:
        if a == 0 and a is not False:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        try:
            if 0 < a < self.q and a is not True:
                return self._inv_list[a]
        except TypeError:
            pass
        self._refuse(a)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF)
            and other.q == self.q
            and other.reduction_poly == self.reduction_poly
        )

    def __hash__(self) -> int:
        return hash((self.q, self.reduction_poly))

    def __repr__(self) -> str:
        if self.s == 1:
            return f"GF({self.q})"
        terms = []
        for k in range(self.s, -1, -1):
            c = 1 if k == self.s else self.reduction_poly[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{k}" if c == 1 else f"{c}x^{k}")
        return f"GF({self.q}, poly={'+'.join(terms)})"
