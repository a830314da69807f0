"""Independent brute-force oracles shared by the test modules.

Everything here enumerates or iterates directly from definitions and
never calls into the package code paths it is used to check.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, lcm, prod

import numpy as np

from pecldpc import GF


def subsets_of_size(q: int, size: int) -> list[frozenset]:
    return [frozenset(c) for c in combinations(range(q), size)]


def pinned_subsets(q: int, size: int) -> list[frozenset]:
    """All size-`size` subsets of range(q) that contain 0."""
    return [frozenset({0} | {e + 1 for e in c}) for c in combinations(range(q - 1), size - 1)]


def brute_intersection_counts(sizes, q: int) -> list[int]:
    """Counts of ordered subset tuples by intersection size."""
    mu = min(sizes)
    counts = [0] * (mu + 1)
    pools = [subsets_of_size(q, s) for s in sizes]
    for combo in product(*pools):
        inter = combo[0]
        for s in combo[1:]:
            inter = inter & s
        counts[len(inter)] += 1
    return counts


def brute_common_member_dist(sizes, q: int) -> list[Fraction]:
    """Intersection-size law when every subset must contain 0."""
    mu = min(sizes)
    counts = [0] * (mu + 1)
    pools = [pinned_subsets(q, s) for s in sizes]
    total = 0
    for combo in product(*pools):
        inter = combo[0]
        for s in combo[1:]:
            inter = inter & s
        counts[len(inter)] += 1
        total += 1
    return [Fraction(c, total) for c in counts]


def gf_sumset(field: GF, a: frozenset, b: frozenset) -> frozenset:
    return frozenset(field.add(x, y) for x in a for y in b)


def gf_scale(field: GF, a: frozenset, c: int) -> frozenset:
    return frozenset(field.mul(c, x) for x in a)


def mask_elements(mask: int) -> frozenset:
    """The set whose bit-vector is ``mask``."""
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def brute_sumset_dist(sizes, field: GF, pinned: bool = False) -> list[Fraction]:
    """Sumset-size law over all assignments; length q, index size-1."""
    q = field.q
    pools = [
        (pinned_subsets(q, s) if pinned else subsets_of_size(q, s)) for s in sizes
    ]
    counts = [0] * q
    total = 0
    for combo in product(*pools):
        acc = combo[0]
        for s in combo[1:]:
            acc = gf_sumset(field, acc, s)
        counts[len(acc) - 1] += 1
        total += 1
    return [Fraction(c, total) for c in counts]


def brute_ctv(field: GF, incoming, out_label: int) -> set[int]:
    """All target-variable values satisfying the parity equation, by
    direct enumeration of assignments of the other variables."""
    values = set()
    pools = [sorted(s) for s, _ in incoming]
    labels = [h for _, h in incoming]
    for assign in product(*pools):
        acc = 0
        for v, h in zip(assign, labels):
            acc = field.add(acc, field.mul(h, v))
        values.add(field.mul(field.neg(acc), field.inv(out_label)))
    return values


def random_codeword(field: GF, edges, n: int, m: int, rng) -> list[int]:
    """A random nonzero codeword of the GF(q) code whose parity checks
    are the label-weighted (variable, check, label) edges, by Gaussian
    elimination with the field's operation tables; free symbols are
    drawn uniformly from ``rng`` (a numpy Generator)."""
    add = field.add_table.tolist()
    mul = field.mul_table.tolist()
    neg = field.neg_table.tolist()
    inv = field.inv_table.tolist()
    H = [[0] * n for _ in range(m)]
    for v, c, h in edges:
        H[c][v] = add[H[c][v]][h]  # parallel edges add their labels
    pivots = []
    for col in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, m) if H[i][col]), None)
        if pr is None:
            continue
        H[r], H[pr] = H[pr], H[r]
        s = inv[H[r][col]]
        H[r] = [mul[s][x] for x in H[r]]
        for i in range(m):
            if i != r and H[i][col]:
                f = neg[H[i][col]]
                H[i] = [add[a][mul[f][b]] for a, b in zip(H[i], H[r])]
        pivots.append(col)
    free = [col for col in range(n) if col not in set(pivots)]
    if not free:
        raise ValueError("the code has only the zero codeword")
    x = [0] * n
    while not any(x[col] for col in free):
        for col in free:
            x[col] = int(rng.integers(field.q))
    for i, col in enumerate(pivots):
        acc = 0
        for j in free:
            acc = add[acc][mul[H[i][j]][x[j]]]
        x[col] = neg[acc]
    for c in range(m):  # every check of the original graph holds
        acc = 0
        for v, c2, h in edges:
            if c2 == c:
                acc = add[acc][mul[h][x[v]]]
        assert acc == 0
    return x


def translate_mask(field: GF, mask: int, c: int) -> int:
    """Mask of {x + c : x in mask}."""
    out = 0
    for x in range(field.q):
        if mask >> x & 1:
            out |= 1 << field.add(x, c)
    return out


def bec_trajectory(eps: float, d_v: int, d_c: int, iters: int) -> list[float]:
    """Scalar erasure recursion for a regular code, including term 0."""
    pe = eps
    out = [pe]
    for _ in range(iters):
        pe = eps * (1.0 - (1.0 - pe) ** (d_c - 1)) ** (d_v - 1)
        out.append(pe)
    return out


def bec_threshold(d_v: int, d_c: int, tol: float = 1e-6) -> float:
    """Bisection on the scalar recursion."""

    def converges(eps: float) -> bool:
        pe = eps
        for _ in range(5000):
            pe = eps * (1.0 - (1.0 - pe) ** (d_c - 1)) ** (d_v - 1)
            if pe < 1e-10:
                return True
        return False

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return lo


def exact_de_trajectory(
    field: GF, M: int, eps: Fraction, lam: dict, rho: dict, iters: int
) -> list[float]:
    """Density evolution in exact rational arithmetic: P(variable-to-check
    size > 1) after 0..iters iterations, each rounded once to float, for
    edge-perspective degree fractions ``lam``/``rho`` (degree -> Fraction).

    Every incoming size tuple is enumerated in order; the check half
    weights it by the brute-force sumset-size law, the variable half by
    the brute-force intersection law of sets sharing the sent symbol,
    with the channel's M-set.  A vector is kept as integer numerators
    over one common denominator and never reduced: reducing rationals of
    ~10^5 bits by gcd would cost far more than the recursion itself.
    """
    q = field.q

    def half(fracs, max_size, law):
        """Coefficient numerators of fracs[d] * law(sorted t) over one
        common denominator, for every degree d and ordered tuple t."""
        coef = {
            t: [frac * p for p in law(tuple(sorted(t)))]
            for d, frac in fracs.items()
            for t in product(range(1, max_size + 1), repeat=d - 1)
        }
        den = lcm(*(c.denominator for cs in coef.values() for c in cs))
        return {t: [int(c * den) for c in cs] for t, cs in coef.items()}, den

    check = half(rho, M, cache(lambda t: brute_sumset_dist(t, field)))
    var = half(
        {d: eps * f for d, f in lam.items()},
        q,
        cache(lambda t: brute_common_member_dist(t + (M,), q)[1:]),
    )

    def mix(nums, den, coef_den):
        """sum over ordered t of prod(nums[t] / den) * coef[t], as
        (numerators, denominator)."""
        coef, cden = coef_den
        top = max(map(len, coef))
        out = [0] * q
        for t, cs in coef.items():
            weight = den ** (top - len(t)) * prod(nums[s - 1] for s in t)
            for m, c in enumerate(cs):
                out[m] += weight * c
        return out, cden * den**top

    e, E = eps.numerator, eps.denominator
    nums, den = [E - e] + [0] * (q - 1), E
    nums[M - 1] += e
    out = [(den - nums[0]) / den]
    for _ in range(iters):
        nums, den = mix(*mix(nums, den, check), var)
        # plus 1 - eps on size 1: the symbols the channel left clean
        nums = [x * E for x in nums]
        nums[0] += (E - e) * den
        den *= E
        out.append((den - nums[0]) / den)
    return out


def occupancy_exact(n_balls: int, q: int) -> list[Fraction]:
    """P(exactly m bins occupied after n_balls uniform throws), via the
    surjection count sum; length q, index m-1."""
    out = []
    for m in range(1, q + 1):
        surj = sum(
            (-1) ** j * comb(m, j) * (m - j) ** n_balls for j in range(m + 1)
        )
        out.append(Fraction(comb(q, m) * surj, q**n_balls))
    return out


def brute_stochastically_le(a, b, margin=0.0) -> bool:
    """Whether law ``a`` lies below law ``b`` in stochastic order: every
    partial sum of a is at least b's plus ``margin``, all in exact
    rationals (each float converted exactly)."""
    margin = Fraction(margin)
    cdf_a = cdf_b = Fraction(0)
    for x, y in zip(a, b, strict=True):
        cdf_a += Fraction(x)
        cdf_b += Fraction(y)
        if cdf_a < cdf_b + margin:
            return False
    return True


def multiset_raises(max_size: int, k: int) -> list[tuple[tuple, tuple]]:
    """Every (t, u): t a sorted k-tuple of sizes 1..max_size and u the
    sorted tuple with one of t's draws raised by one."""
    tuples = {t for t in product(range(1, max_size + 1), repeat=k) if list(t) == sorted(t)}
    out = set()
    for t in tuples:
        for j in range(k):
            u = tuple(sorted(t[:j] + (t[j] + 1,) + t[j + 1 :]))
            if u in tuples:
                out.add((t, u))
    return sorted(out)


def numpy_below(older, old, z, M: int):
    """The law y below z that the divergence certificate extrapolates
    from three iterates, by its numpy formula: CDFs over sizes 1..M-1 by
    cumsum, steps by diff, rho = max|d_2| / max|d_1|, t = 1.5*rho/(1-rho)
    + 1, and y's CDF the running maximum of min(C + max(t*d_2, 0), 1);
    None when the steps do not shrink.  y as a list of M floats."""
    c = np.cumsum([older[: M - 1], old[: M - 1], z[: M - 1]], axis=1)
    d = np.diff(c, axis=0)
    prev, top = np.abs(d).max(axis=1).tolist()
    if not top < prev:
        return None
    t = 1.5 * (top / prev) / (1.0 - top / prev) + 1.0
    cdf = np.maximum.accumulate(np.minimum(c[2] + np.maximum(t * d[1], 0.0), 1.0))
    return np.diff(cdf, prepend=0.0, append=1.0).tolist()


def bec_map(eps, lam: dict, rho: dict, x):
    """eps lambda(1 - rho(1 - x)), the binary-erasure density-evolution
    map, from its definition; x a float, a Fraction or a numpy array."""
    y = 1 - sum(f * (1 - x) ** (d - 1) for d, f in rho.items())
    return eps * sum(f * y ** (d - 1) for d, f in lam.items())


def bec_least_fixed_point(eps: float, lam: dict, rho: dict) -> float:
    """A point just below the least positive fixed point of ``bec_map``
    (inf if the map lies below x on all of (0, 1]): the first of 2**20
    grid points where the map reaches x, then 80 bisection steps in
    exact rationals between it and the grid point before."""
    xs = np.arange(1, 2**20 + 1) / 2**20
    hits = np.flatnonzero(bec_map(eps, lam, rho, xs) >= xs)
    if not hits.size:
        return float("inf")
    e = Fraction(eps)
    la, rh = ({d: Fraction(f) for d, f in c.items()} for c in (lam, rho))
    lo, hi = Fraction(int(hits[0]), 2**20), Fraction(int(hits[0]) + 1, 2**20)
    for _ in range(80):
        mid = (lo + hi) / 2
        if bec_map(e, la, rh, mid) >= mid:
            hi = mid
        else:
            lo = mid
    return float(lo)
