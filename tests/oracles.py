"""Independent brute-force oracles shared by the test modules.

Everything here enumerates or iterates directly from definitions and
never calls into the package code paths it is used to check.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

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
