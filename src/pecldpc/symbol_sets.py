"""Subsets of GF(q) and the set arithmetic of the package.

A single set is a :class:`SymbolSet`: an int whose bit i is 1 iff
field element i is a member, so intersection is ``&``.  The two
field-aware operations, scaling by a nonzero element and the sumset,
exist only in the set-array layout :func:`set_layout` picks for the
field: one uint16 word per set (:class:`MaskTables`) for
q <= MASK_TABLE_MAX_Q (16), and (n, q) bool planes (:class:`SetPlanes`)
above, whose sumsets are products of additive-character spectra (the
transform of the FFT-BP check node).  Words scale and count through
small tables; their sumsets are lookups in a 4**q pair table up to
PAIR_TABLE_MAX_Q (12), and above it, at GF(13) and GF(16), the planes
layout's spectral kernel on the words unpacked.  Both offer the same
operations (encode, from_members, zero_sets, full_sets, scaled,
sumsets, leave_one_out_sumsets, sizes, to_masks) and intersect with
``&``, so the decoder's check pass, the exact and Monte Carlo sumset
laws and the SymbolSet operations all run the same code on either.
Masks and planes convert only through :func:`masks_to_planes` and
:func:`planes_to_masks`, over one flat byte run (~10x faster than by axis).

Both node updates of the decoder are leave-one-out folds over one
commutative set operation, and :func:`leave_one_out` is the only
prefix/suffix fold: each layout's ``leave_one_out_sumsets`` passes it
its sumset (the planes layout, and the words above PAIR_TABLE_MAX_Q
through it, a product of spectra that re-thresholds to stay exact),
and the decoder's variable pass passes ``&`` with the channel sets as
head.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .combinatorics import as_int
from .gf import GF

# fields whose sets fit one uint16 word take the mask layout
MASK_TABLE_MAX_Q = 16
# pairwise sumset table is 4**q entries; 12 keeps it at 32 MB of uint16
PAIR_TABLE_MAX_Q = 12
# bound on beta * q for every product of spectra SetPlanes maps back
_SPECTRAL_BOUND = 2**36


def mask_dtype(q: int):
    """Dtype of the mask arrays layouts encode from and return: uint64
    for q <= 64, Python ints in an object array above."""
    return np.uint64 if q <= 64 else object


def set_bytes(q: int) -> int:
    """Bytes the memory caps charge per set of GF(q): 2, one uint16
    word, up to PAIR_TABLE_MAX_Q, and q above.  GF(13) and GF(16) keep
    their sets in words too, but their sumsets expand every set into a
    row of q bools and q-entry spectra, so they are charged as planes."""
    return 2 if q <= PAIR_TABLE_MAX_Q else q


def index_masks(members: np.ndarray, q: int) -> np.ndarray:
    """Mask of each row of distinct element indices, in the dtype of
    ``mask_dtype(q)``."""
    dtype = mask_dtype(q)
    bits = np.left_shift(np.ones(1, dtype), members.astype(dtype))
    return np.bitwise_or.reduce(bits, axis=1)


def masks_to_planes(masks: np.ndarray, q: int) -> np.ndarray:
    """(..., q) bool planes of uint16 words, uint64 or Python-int masks;
    bit x of a mask is bit x % 8 of its byte x // 8, little-endian."""
    if masks.dtype == object:  # int() admits numpy integers too
        width = -(-q // 8)
        octets = np.frombuffer(b"".join(int(m).to_bytes(width, "little") for m in masks.flat), "u1")
    else:
        words = np.ascontiguousarray(masks, dtype=masks.dtype.newbyteorder("<"))
        width, octets = words.itemsize, words.view(np.uint8)
    bits = np.unpackbits(octets, bitorder="little").view(bool)
    return bits.reshape(masks.shape + (8 * width,))[..., :q]


def planes_to_masks(planes: np.ndarray, dtype) -> np.ndarray:
    """Masks of (..., q) bool planes: ``dtype`` words, or Python ints for object."""
    shape, q = planes.shape[:-1], planes.shape[-1]
    width = -(-q // 8) if dtype is object else np.dtype(dtype).itemsize
    if q < 8 * width:
        planes = np.concatenate([planes, np.zeros(shape + (8 * width - q,), bool)], axis=-1)
    octets = np.packbits(planes.reshape(-1), bitorder="little")
    if dtype is object:
        ints = [int.from_bytes(row, "little") for row in octets.reshape(-1, width)]
        return np.array(ints, dtype=object).reshape(shape)
    return octets.view(f"<u{width}").reshape(shape).astype(dtype, copy=False)


class SymbolSet:
    """A nonempty-or-empty subset of GF(q) with value semantics."""

    __slots__ = ("field", "mask")

    def __init__(self, field: GF, elements: Iterable[int] = ()):
        mask = 0
        for e in elements:
            # as an int: 1 << np.int64(e) wraps at 64 bits
            e = as_int(e, "element", 0)
            if e >= field.q:
                raise ValueError(f"element {e} outside GF({field.q})")
            mask |= 1 << e
        self.field = field
        self.mask = mask

    @classmethod
    def from_mask(cls, field: GF, mask: int) -> "SymbolSet":
        """The set whose members are the 1 bits of ``mask``, an integer in
        [0, 2**q) (ValueError otherwise)."""
        s = cls.__new__(cls)
        s.field = field
        s.mask = as_int(mask, "a set mask", 0)
        if s.mask >> field.q:
            raise ValueError(f"set mask {mask:#x} names an element outside GF({field.q})")
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
        e = as_int(e, "element")
        return e >= 0 and bool((self.mask >> e) & 1)

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
        if as_int(a, "scale factor", 1) >= self.field.q:
            raise ValueError(f"scale factor {a} outside GF({self.field.q})")
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


def leave_one_out(op, rows, head=None) -> list:
    """Output j of D ``rows`` under the commutative, associative ``op``:
    head op x_0 ... x_{j-1} op x_{j+1} ... x_{D-1}, from one prefix and
    one suffix pass.  A missing head (None) is the identity, and no
    output pays an ``op`` call for it; a single row without a head has
    nothing to fold and gives [None]."""

    def join(a, b):
        return b if a is None else a if b is None else op(a, b)

    deg = len(rows)
    pre, suf = [head], [None]  # pre[j] = head op x_0..x_{j-1}; suf reversed
    for j in range(1, deg):
        pre.append(join(pre[-1], rows[j - 1]))
        suf.append(join(rows[deg - j], suf[-1]))
    return [join(a, b) for a, b in zip(pre, reversed(suf))]


class MaskTables:
    """Set-array layout for q <= MASK_TABLE_MAX_Q: one uint16 word per
    set, whose bit x is 1 iff x is a member, so sets intersect with
    ``&`` and compare with ``!=``.  Scaling and sizes are table lookups;
    so are sumsets up to PAIR_TABLE_MAX_Q.  Above it (GF(13) and GF(16))
    the 4**q pair table would not fit: sumsets unpack the words to bool
    planes, run the spectral kernel of :class:`SetPlanes` and pack the
    result back.  Every lookup is one ``np.take`` on a flattened table,
    at an index in the narrowest dtype that holds it, never intp.

    Attributes
    ----------
    pair_sum : ndarray, shape (2**q, 2**q), or None above PAIR_TABLE_MAX_Q
        pair_sum[a, b] = sumset mask of a and b.
    scale : tuple of ndarrays, each of shape (q, 2**w)
        one table per w-bit chunk of a word (w = q up to
        PAIR_TABLE_MAX_Q, one byte above): scale[k][a, c] = mask of
        {a * y : y a member named by chunk value c at bit k * w}; the
        image of a set is the OR over its chunks.  Row 0 unused.
    popcount : ndarray, shape (2**q,)
    """

    def __init__(self, field: GF):
        q = field.q
        if q > MASK_TABLE_MAX_Q:
            raise ValueError(f"mask tables limited to q <= {MASK_TABLE_MAX_Q}")
        # chunk width: a whole word up to PAIR_TABLE_MAX_Q, a byte above,
        # so no table above it has more than 2**16 entries
        width = q if q <= PAIR_TABLE_MAX_Q else 8
        bits = masks_to_planes(np.arange(1 << width, dtype=np.uint16), width)

        def images(perms, low: int = 0) -> np.ndarray:
            # [k, c] = mask of {perms[k, low + y] : bit y of chunk value c}
            planes = np.zeros((len(perms), len(bits), q), dtype=bool)
            np.put_along_axis(planes, perms[:, None, low : low + width], bits[:, : q - low], axis=2)
            return planes_to_masks(planes, np.uint16)

        self.scale = tuple(images(field.mul_table, low) for low in range(0, q, width))
        for table in self.scale:
            table[0] = 0  # scaling by zero: unused, and its columns collide

        # word hi << width | lo has pc[hi] + pc[lo] members (hi = 0 for q <= width)
        pc = bits.sum(axis=1, dtype=np.uint8)
        self.popcount = (pc[: 1 << (q - width), None] + pc).ravel()
        if q <= PAIR_TABLE_MAX_Q:
            self.pair_sum, self._planes = np.zeros((1 << q, 1 << q), dtype=np.uint16), None
            for x, shifts in enumerate(images(field.add_table)):
                self.pair_sum[bits[:, x]] |= shifts
        else:
            self.pair_sum, self._planes = None, SetPlanes(field)
        self.q = q
        self.full_mask = (1 << q) - 1
        self._width = width
        # the pair index (a << q) | b is 2q bits: uint16 up to GF(8);
        # scaling indices are at most (q - 1) << w | 2**w - 1 (22,527 at
        # GF(11)), uint16 at every q
        self._pair_index = np.uint16 if 2 * q <= 16 else np.uint32

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

    # one gather at (row << w) | col takes half the time of indexing a 2-d
    # table with two index arrays, and np.take on the narrow index, never
    # cast to intp, cuts that to under a quarter: at 30,000 entries (q = 4,
    # numpy 2.4, a 2-core x86-64 VM) scaled takes ~16 us, against ~72 us
    # through an intp index and fancy indexing
    def scaled(self, sets: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Each set of ``sets`` scaled by the nonzero element of
        ``factors`` at its position (one factor per set)."""
        rows = np.array(factors, dtype=np.uint16)  # a fresh index to build in
        rows <<= self._width
        if len(self.scale) == 1:
            rows |= sets
            return self.scale[0].take(rows)
        lo, hi = self.scale
        out = lo.take(rows | (sets & 0xFF))
        rows |= sets >> 8
        out |= hi.take(rows)
        return out

    def sumsets(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._planes is None:
            index = a.astype(self._pair_index)
            index <<= self.q
            return self.pair_sum.take(index | b)  # | broadcasts a single set
        planes = self._planes.sumsets(masks_to_planes(a, self.q), masks_to_planes(b, self.q))
        return planes_to_masks(planes, np.uint16)

    def leave_one_out_sumsets(self, ys: np.ndarray) -> np.ndarray:
        """(D, n) masks whose row j holds, per column, the sumset of
        every row of ``ys`` but row j ({0} for a single row)."""
        if len(ys) == 1:
            return self.zero_sets(ys.shape[1])[None]
        if self._planes is None:
            return np.array(leave_one_out(self.sumsets, ys))
        planes = self._planes.leave_one_out_sumsets(masks_to_planes(ys, self.q))
        return planes_to_masks(planes, np.uint16)

    def sizes(self, sets: np.ndarray) -> np.ndarray:
        return self.popcount.take(sets)

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
        phase = field.digits @ field.digits.T % p
        if p == 2:
            self._chars = 1.0 - 2.0 * phase
        else:
            self._chars = np.exp(2j * np.pi * np.arange(p) / p)[phase]
        self._inverse = self._chars.conj() / q
        self._limit = _SPECTRAL_BOUND // q  # on beta of every product formed

    def encode(self, masks: np.ndarray) -> np.ndarray:
        """Planes of valid masks given in the dtype of ``mask_dtype(q)``."""
        return masks_to_planes(masks, self.q)

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
        return planes_to_masks(sets, mask_dtype(self.q))


@lru_cache(maxsize=None)
def mask_tables(field: GF) -> MaskTables:
    return MaskTables(field)


@lru_cache(maxsize=None)
def set_layout(field: GF) -> MaskTables | SetPlanes:
    """The set-array layout of a field: mask tables up to
    MASK_TABLE_MAX_Q, bool planes above."""
    return mask_tables(field) if field.q <= MASK_TABLE_MAX_Q else SetPlanes(field)
