"""The q-ary partial-erasure channel.

The channel either delivers the transmitted symbol intact (probability
1 - epsilon) or replaces it by a uniformly chosen M-element subset of
GF(q) that contains it (probability epsilon).  M = q recovers the plain
q-ary erasure channel.
"""

from __future__ import annotations

import math

import numpy as np

from .combinatorics import as_int, binom, is_real
from .gf import GF
from .symbol_sets import SymbolSet, index_masks, mask_dtype


class PartialErasureChannel:
    """Partial-erasure channel over GF(q) with set size M.

    Parameters
    ----------
    field : GF
    M : int
        Size of the revealed set on an erasure event, 2 <= M <= q.
    epsilon : float
        Partial-erasure probability, a real number in [0, 1].
    """

    def __init__(self, field: GF, M: int, epsilon: float):
        M = as_int(M, "M", 2)
        if M > field.q:
            raise ValueError(f"M must be at most q; got M={M}, q={field.q}")
        if not is_real(epsilon) or not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be a real number in [0, 1], got {epsilon!r}")
        self.field = field
        self.M = M
        self.epsilon = float(epsilon)
        # number of distinct supersets that can replace one symbol
        self.i_max = binom(field.q - 1, M - 1)

    def with_epsilon(self, epsilon: float) -> "PartialErasureChannel":
        return PartialErasureChannel(self.field, self.M, epsilon)

    def transmit(self, x: int, rng: np.random.Generator) -> SymbolSet:
        """One channel use: {x} or a uniform M-superset of x, drawn as
        the output for a zero symbol translated by x (a uniform set
        holding x is x plus a uniform set holding 0)."""
        f = self.field
        if not 0 <= as_int(x, "symbol") < f.q:
            raise ValueError(f"symbol {x} outside GF({f.q})")
        zero = SymbolSet.from_mask(f, int(self.transmit_zero_word(1, rng)[0]))
        return SymbolSet(f, (f.add(x, e) for e in zero))

    def transmit_zero_word(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Channel outputs for an all-zero codeword as a bitmask array,
        in the dtype of ``mask_dtype(q)``; ``n`` is an integer of at
        least 0 (ValueError otherwise).

        Vectorized companion draw: the M-1 smallest of q-1 uniform keys
        per erased row pick the companions, so every (M-1)-subset of the
        nonzero symbols is equally likely.  Only which keys are smallest
        matters, not their order, so a partial selection suffices.
        """
        q, n = self.field.q, as_int(n, "n", 0)
        masks = np.ones(n, dtype=mask_dtype(q))
        erased = rng.random(n) < self.epsilon
        k = int(erased.sum())
        if k == 0:
            return masks
        if self.M == q:
            masks[erased] = (1 << q) - 1
            return masks
        keys = rng.random((k, q - 1))
        if self.M == 2:
            picks = keys.argmin(axis=1)[:, None] + 1
        else:
            picks = keys.argpartition(self.M - 2, axis=1)[:, : self.M - 1] + 1
        masks[erased] |= index_masks(picks, q)
        return masks

    def capacity(self, units: str = "qary") -> float:
        """Channel capacity, 1 - epsilon * log_q(M), in q-ary symbols
        per use ('qary') or bits per use ('bits')."""
        c = 1.0 - self.epsilon * math.log(self.M) / math.log(self.field.q)
        if units == "qary":
            return c
        if units == "bits":
            return c * math.log2(self.field.q)
        raise ValueError(f"unknown units {units!r}")

    def conditional_entropy(self) -> float:
        """H(output | input) in q-ary units; continuous limits at the
        endpoints (0 at epsilon=0, log_q(i_max) at epsilon=1)."""
        eps = self.epsilon
        lq = math.log(self.field.q)
        h = 0.0
        if eps < 1.0:
            h -= (1.0 - eps) * math.log(1.0 - eps) / lq
        if eps > 0.0:
            h -= eps * math.log(eps / self.i_max) / lq
        return h

    def __repr__(self) -> str:
        return (
            f"PartialErasureChannel(q={self.field.q}, M={self.M}, "
            f"epsilon={self.epsilon})"
        )
