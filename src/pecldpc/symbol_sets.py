"""Subsets of GF(q) and the set arithmetic of the package.

A single set is a :class:`SymbolSet`: an int whose bit i is 1 iff
field element i is a member, so intersection is ``&``.  The two
field-aware operations, scaling by a nonzero element and the sumset,
exist only in the set-array layout :func:`set_layout` picks for the
field: uint16 masks with table lookups (:class:`MaskTables`) for
q <= MASK_TABLE_MAX_Q, and (n, q) bool planes (:class:`SetPlanes`)
above, whose sumsets are products of additive-character spectra (the
transform of the FFT-BP check node).  Both offer the same operations
(encode, from_members, zero_sets, full_sets, scaled, sumsets,
leave_one_out_sumsets, sizes, to_masks) and intersect with ``&``, so
the decoder's check pass, the exact and Monte Carlo sumset laws and the
SymbolSet operations all run the same code on either.

Both node updates of the decoder are leave-one-out folds over one
commutative set operation, and :func:`leave_one_out` is the only
prefix/suffix fold: each layout's ``leave_one_out_sumsets`` passes it
its sumset (the planes layout, a product of spectra that re-thresholds
to stay exact), and the decoder's variable pass passes ``&`` with the
channel sets as head.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gf import GF

# pairwise sumset table is 4**q entries; 12 keeps it at 32 MB of uint16
MASK_TABLE_MAX_Q = 12
# bound on beta * q for every product of spectra SetPlanes maps back
_SPECTRAL_BOUND = 2**36


def mask_dtype(q: int):
    """Dtype of the mask arrays layouts encode from and return: uint64
    for q <= 64, Python ints in an object array above."""
    return np.uint64 if q <= 64 else object


def set_bytes(q: int) -> int:
    """Bytes one set takes in the layout of ``set_layout`` for GF(q):
    a uint16 mask up to MASK_TABLE_MAX_Q, a row of q bools above."""
    return 2 if q <= MASK_TABLE_MAX_Q else q


def index_masks(members: np.ndarray, q: int) -> np.ndarray:
    """Mask of each row of distinct element indices, in the dtype of
    ``mask_dtype(q)``."""
    dtype = mask_dtype(q)
    bits = np.left_shift(np.ones(1, dtype), members.astype(dtype))
    return np.bitwise_or.reduce(bits, axis=1)


class SymbolSet:
    """A nonempty-or-empty subset of GF(q) with value semantics."""

    __slots__ = ("field", "mask")

    def __init__(self, field: GF, elements: Iterable[int] = ()):
        mask = 0
        for e in elements:
            if not 0 <= e < field.q:
                raise ValueError(f"element {e} outside GF({field.q})")
            mask |= 1 << e
        self.field = field
        self.mask = mask

    @classmethod
    def from_mask(cls, field: GF, mask: int) -> "SymbolSet":
        s = cls.__new__(cls)
        s.field = field
        s.mask = mask
        return s

    @classmethod
    def full(cls, field: GF) -> "SymbolSet":
        return cls.from_mask(field, (1 << field.q) - 1)

    @classmethod
    def parse(cls, field: GF, text: str) -> "SymbolSet":
        """Parse '0,2,3' or '{0,2,3}' (whitespace tolerated)."""
        body = text.strip().strip("{}").strip()
        if not body:
            return cls(field)
        return cls(field, (int(tok) for tok in body.split(",")))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, e: int) -> bool:
        return bool((self.mask >> e) & 1)

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymbolSet)
            and other.mask == self.mask
            and other.field.q == self.field.q
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.mask))

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self) + "}"

    def __repr__(self) -> str:
        return f"SymbolSet(q={self.field.q}, {self})"

    def scale(self, a: int) -> "SymbolSet":
        """{a*x : x in self}; a must be a nonzero field element."""
        if not 0 < a < self.field.q:
            raise ValueError(f"scaling by {a} is not invertible in GF({self.field.q})")
        sets = set_layout(self.field)
        out = sets.scaled(_encode(self.field, [self.mask]), np.array([a]))
        return SymbolSet.from_mask(self.field, int(sets.to_masks(out)[0]))


def _encode(field: GF, masks: list[int]) -> np.ndarray:
    """Python-int masks as sets in the field's layout."""
    return set_layout(field).encode(np.array(masks, dtype=mask_dtype(field.q)))


def _check_family(sets: Sequence[SymbolSet]) -> GF:
    if not sets:
        raise ValueError("empty set family")
    field = sets[0].field
    for s in sets[1:]:
        if s.field.q != field.q:
            raise ValueError("sets belong to different fields")
    return field


def sumset(sets: Sequence[SymbolSet]) -> SymbolSet:
    """{sum_j x_j : x_j in S_j} under field addition, folded pairwise."""
    field = _check_family(sets)
    for s in sets:
        if not s:
            raise ValueError("sumset of an empty set is undefined")
    layout = set_layout(field)
    operands = _encode(field, [s.mask for s in sets])
    acc = operands[:1]
    for k in range(1, len(operands)):
        acc = layout.sumsets(acc, operands[k : k + 1])
    return SymbolSet.from_mask(field, int(layout.to_masks(acc)[0]))


def intersect(sets: Sequence[SymbolSet]) -> SymbolSet:
    field = _check_family(sets)
    mask = sets[0].mask
    for s in sets[1:]:
        mask &= s.mask
    return SymbolSet.from_mask(field, mask)


def leave_one_out(op, rows, head=None, tail=None) -> list:
    """Output j of D ``rows`` under the commutative, associative ``op``:
    head op x_0 ... x_{j-1} op x_{j+1} ... x_{D-1} op tail, from one
    prefix and one suffix pass.  A missing head or tail (None) is the
    identity, and no output pays an ``op`` call for it; a single row with
    neither has nothing to fold and gives [None]."""

    def join(a, b):
        return b if a is None else a if b is None else op(a, b)

    deg = len(rows)
    pre, suf = [head], [tail]  # pre[j] = head op x_0..x_{j-1}; suf reversed
    for j in range(1, deg):
        pre.append(join(pre[-1], rows[j - 1]))
        suf.append(join(rows[deg - j], suf[-1]))
    return [join(a, b) for a, b in zip(pre, reversed(suf))]


class MaskTables:
    """Set-array layout for q <= MASK_TABLE_MAX_Q: one uint16 mask per
    set, with every field-aware operation a whole-array table lookup.

    Attributes
    ----------
    pair_sum : ndarray, shape (2**q, 2**q)
        pair_sum[a, b] = sumset mask of a and b.
    scale : ndarray, shape (q, 2**q)
        scale[a, m] = mask of {a * y : y in m}; row 0 unused.
    popcount : ndarray, shape (2**q,)
    """

    def __init__(self, field: GF):
        q = field.q
        if q > MASK_TABLE_MAX_Q:
            raise ValueError(f"mask tables limited to q <= {MASK_TABLE_MAX_Q}")
        n = 1 << q
        masks = np.arange(n, dtype=np.uint32)
        bit = [(masks >> x) & 1 for x in range(q)]

        def image(row) -> np.ndarray:
            # mask of {row[y] : y in m} for every mask m
            acc = np.zeros(n, dtype=np.uint32)
            for y in range(q):
                acc |= bit[y] << np.uint32(int(row[y]))
            return acc.astype(np.uint16)

        pair = np.zeros((n, n), dtype=np.uint16)
        for x in range(q):
            pair[bit[x] == 1] |= image(field.add_table[x])[None, :]

        scale = np.zeros((q, n), dtype=np.uint16)
        for a in range(1, q):
            scale[a] = image(field.mul_table[a])

        pc = np.zeros(n, dtype=np.uint8)
        for x in range(q):
            pc += bit[x].astype(np.uint8)

        self.q = q
        self.full_mask = n - 1
        self.pair_sum = pair
        self.scale = scale
        self.popcount = pc

    def encode(self, masks: np.ndarray) -> np.ndarray:
        return masks.astype(np.uint16)

    def from_members(self, members: np.ndarray) -> np.ndarray:
        """The sets whose members are the rows of distinct element
        indices ``members``."""
        return self.encode(index_masks(members, self.q))

    def zero_sets(self, n: int) -> np.ndarray:
        return np.ones(n, dtype=np.uint16)

    def full_sets(self, n: int) -> np.ndarray:
        return np.full(n, self.full_mask, dtype=np.uint16)

    # both lookups index the flattened table: one gather at (row << q) | col
    # takes half the time of indexing the 2-d table with two index arrays
    def scaled(self, sets: np.ndarray, factors: np.ndarray) -> np.ndarray:
        return self.scale.ravel()[(np.asarray(factors, dtype=np.intp) << self.q) | sets]

    def sumsets(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.pair_sum.ravel()[(a.astype(np.intp) << self.q) | b]

    def leave_one_out_sumsets(self, ys: np.ndarray) -> np.ndarray:
        """(D, n) masks whose row j holds, per column, the sumset of
        every row of ``ys`` but row j ({0} for a single row)."""
        if len(ys) == 1:
            return self.zero_sets(ys.shape[1])[None]
        return np.array(leave_one_out(self.sumsets, ys))

    def sizes(self, sets: np.ndarray) -> np.ndarray:
        return self.popcount[sets]

    def to_masks(self, sets: np.ndarray) -> np.ndarray:
        return sets.astype(np.uint64)


class SetPlanes:
    """Set-array layout for q > MASK_TABLE_MAX_Q: n sets are an (n, q)
    bool array whose row r has column x set iff x is in set r.

    Scaling gathers columns through a q x q table.  Sumsets go through
    the characters of the additive group of GF(p^s), which is Z_p^s in
    the base-p digits of the element indices: character c maps x to
    w**<c, x>, with w = exp(2 pi i / p) and <c, x> the dot product mod p
    of rows c and x of ``field.digits``.  Their q x q matrix W is the
    real +-1 Walsh-Hadamard matrix for p = 2 and complex otherwise.  For
    sets A_1..A_k as bool rows, the spectra A_i @ W multiply
    elementwise, and the product mapped back by conj(W) / q gives, for
    each z, the number N(z) of tuples in A_1 x ... x A_k that sum to z.
    So the sumset is {z : N(z) > 1/2}.

    Exactness.  Every count and spectrum entry is at most
    B = prod |A_i|; each factor carries beta = prod max(|A_i|, 2), which
    bounds B and also the number of factors k by log2(beta).  One
    invariant: every product the layout forms keeps beta * q <= 2**36
    (_SPECTRAL_BOUND).  ``_times`` multiplies two factors only once
    beta_a * beta_b meets it; until then it re-thresholds the larger
    one: maps it back, takes > 1/2 and transforms again, which yields
    its exact sets, a fresh factor of beta <= q, and restarts its error.
    Two fresh factors meet the bound (q**3 <= 2**36), so that takes at
    most two re-thresholds.  Every spectrum mapped back, a product or
    one set's own, thus has beta * q <= 2**36:
    - p = 2: the spectra and their products are integers, and the
      partial sums of the inverse multiples of 1/q, all at most beta in
      magnitude.  As beta * q <= 2**36 < 2**53, float64 holds every one
      exactly, and N(z) comes out exact.
    - odd p: each spectrum entry errs by at most q * 2**-52 * |A_i|, the
      product of k of them (with its k roundings) by k * q * 2**-51 * B,
      and the inverse adds q * 2**-52 * B.  With k <= 35, each N(z) is
      off by at most (k + 1) * q * 2**-51 * beta <= 36 * 2**-15 < 2**-9,
      far below 1/2.
    Pairwise sumsets (beta * q <= q**3) never need the re-threshold.
    """

    def __init__(self, field: GF):
        q, p = field.q, field.p
        self.q = q
        # _div[a, z] = z / a: member z of a * B is member z / a of B
        self._div = field.mul_table[field.inv_table].astype(np.intp)
        # _bits[x] = mask of {x}
        self._bits = np.array([1 << x for x in range(q)], dtype=mask_dtype(q))
        phase = field.digits @ field.digits.T % p
        if p == 2:
            self._chars = 1.0 - 2.0 * phase
        else:
            self._chars = np.exp(2j * np.pi * np.arange(p) / p)[phase]
        self._inverse = self._chars.conj() / q
        self._limit = _SPECTRAL_BOUND // q  # on beta of every product formed

    def encode(self, masks: np.ndarray) -> np.ndarray:
        """Planes of valid masks given in the dtype of ``mask_dtype(q)``."""
        return (masks[:, None] & self._bits) != 0

    def from_members(self, members: np.ndarray) -> np.ndarray:
        """The sets whose members are the rows of distinct element
        indices ``members``."""
        sets = np.zeros((len(members), self.q), dtype=bool)
        np.put_along_axis(sets, members, True, axis=1)
        return sets

    def zero_sets(self, n: int) -> np.ndarray:
        sets = np.zeros((n, self.q), dtype=bool)
        sets[:, 0] = True
        return sets

    def full_sets(self, n: int) -> np.ndarray:
        return np.ones((n, self.q), dtype=bool)

    def scaled(self, sets: np.ndarray, factors: np.ndarray) -> np.ndarray:
        # one flat gather: the set of factors[i] starts at offset i * q,
        # ~2x faster than take_along_axis on the decoder's stacks
        offsets = np.arange(0, np.size(factors) * self.q, self.q)
        return np.take(sets, self._div[factors] + offsets.reshape(np.shape(factors) + (1,)))

    def sumsets(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._sets((a @ self._chars) * (b @ self._chars))

    def leave_one_out_sumsets(self, ys: np.ndarray) -> np.ndarray:
        """(D, n, q) planes whose row j holds, per column, the sumset of
        every row of ``ys`` but row j ({0} for a single row): the spectra
        folded by ``_times``, one inverse transform for all outputs."""
        if len(ys) == 1:
            return self.zero_sets(ys.shape[1])[None]
        spectra = ys @ self._chars
        # beta factor of each input row: its largest set size, at least 2
        bounds = np.maximum(spectra[..., 0].real.max(axis=1, initial=0), 2).tolist()
        out = leave_one_out(self._times, list(zip(spectra, bounds)))
        return self._sets(np.array([s for s, _ in out]))

    def _times(self, a, b):
        """Product of two (spectra, beta) factors; while beta_a * beta_b
        is over the bound, the larger factor is re-thresholded."""
        (sa, beta_a), (sb, beta_b) = a, b
        while beta_a * beta_b > self._limit:
            if beta_a >= beta_b:
                sa, beta_a = self._rethreshold(sa)
            else:
                sb, beta_b = self._rethreshold(sb)
        return sa * sb, beta_a * beta_b

    def _sets(self, spectra: np.ndarray) -> np.ndarray:
        """The sets whose tuple counts ``spectra`` hold: N(z) > 1/2."""
        return (spectra @ self._inverse).real > 0.5

    def _rethreshold(self, spectra: np.ndarray):
        """The exact sets behind a product of spectra, transformed
        again, with their beta."""
        spectra = self._sets(spectra) @ self._chars
        return spectra, max(2.0, spectra[:, 0].real.max(initial=0))

    def sizes(self, sets: np.ndarray) -> np.ndarray:
        return sets.sum(axis=-1)

    def to_masks(self, sets: np.ndarray) -> np.ndarray:
        """Masks of the sets, in the dtype of ``mask_dtype(q)``."""
        return sets.astype(self._bits.dtype) @ self._bits


@lru_cache(maxsize=None)
def mask_tables(field: GF) -> MaskTables:
    return MaskTables(field)


@lru_cache(maxsize=None)
def set_layout(field: GF) -> MaskTables | SetPlanes:
    """The set-array layout of a field: mask tables up to
    MASK_TABLE_MAX_Q, bool planes above."""
    return mask_tables(field) if field.q <= MASK_TABLE_MAX_Q else SetPlanes(field)
