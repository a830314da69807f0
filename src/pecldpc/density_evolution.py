"""Density evolution on message-size distributions.

The asymptotic state of the set decoder is captured by two probability
vectors over message sizes: check-to-variable sizes 1..q, and
variable-to-check sizes 1..M (a variable message lies inside the
channel's set).  One iteration pushes the variable-to-check vector
through the check nodes (weighting each multiset of incoming sizes by a
sumset-size model) and back through the variable nodes (intersecting
the channel's set with the incoming sets).

The check half is a draw-index kernel.  A check of degree d draws d-1
incoming sizes; the T size multisets of those draws are stored as a
(d-1, T) array of size indices, row j holding every multiset's j-th
draw, so the multisets' probability weights are
``np.multiply.reduce(dist[draws], axis=0)``: one gather and one product,
taken left to right over the draws, no powers.  Row t of the (T, q)
matrix is multiset t's sumset-size law times its multinomial
coefficient (the number of ordered draws behind it), so one matmul
turns the weights into the output law.

The variable half is a Markov chain on the message size.  A size-i set
holding the sent symbol, intersected with a size-s set uniform among
those holding it, keeps j symbols with probability
``common_member_intersection_dist((i, s), q)[j]``, and given its size
the result is again uniform.  So with H(w) = sum_s w_s H_s, a degree-d
variable's output is (1-eps) e_1 + eps e_M H(w)^(d-1).  The q matrices
H_s are held as one (q, M*(M+1)) array whose rows carry one more
column, each row's mass, so one vector-matrix product forms H(w)
together with its mass column; row M's mass is the check output's
mass.  Row M of H(w) is carried d-2 more vector-matrix steps along it,
and as the mass column rides along, the output comes with its own mass:
neither half is summed to renormalise it.  Sizes never exceed M, so
nothing grows with q beyond that array.

H(w) = (weights @ matrix) @ chain, so while the check tables are small
(T * M*(M+1) entries summed over the check degrees, at most 2**12)
``run`` folds the chain into them: row t of a folded table is row t of
the check matrix times the chain, and one product turns the weights
straight into H(w) with its mass column.  Larger tables keep the two
products, whose folded form would cost more than the call it saves.

``run`` renormalises by Python floats: H(w) is never divided; each
variable term's scale eps*lambda_d is multiplied by (1/w_sum)**(d-1),
one factor per product along H(w), and the output is divided by its
mass once, its size-1 entry recomputed from the same floats.

A run that cannot converge is ended by a proof.  The map F is monotone
in stochastic order once its tables pass an order check (a check law
rises with each incoming size, the size chain's laws with both sizes),
so a law y below the current iterate with F(y) above y bounds every
later failure probability from below by pe(y) (see ``run``).  A run
whose tables fail the check (a Monte Carlo law, say) says so in
``DeResult.certifiable`` and stops by the other rules alone.

A run that must converge is ended by a proof too.  Once its tables keep
singletons (a check law of all-singleton inputs, and each size-chain
law of a singleton, is e_1), the failure probability obeys pe_{l+1} <=
eps lambda(1 - rho(1 - pe_l)), the binary-erasure (BEC) recursion
(Richardson and Urbanke, Modern Coding Theory, ch. 3), and any pe_l
below that map's least positive fixed point converges to 0.  A lower
envelope of the BEC curve, built once per degree distribution for the
process, gives each run a proven point x_lo below that fixed point; the
run stops at the first pe below it (see ``run``).  Tables that fail the
check leave the run to ``CONVERGENCE_TOL``.

A bisection probe starts from the probe above it.  By the same order,
the last iterate of a probe at a higher eps that did not converge lies
above the same-index iterate of every probe below it, so a probe may
start from the meet of that iterate and its own start law (``run``'s
``above``): its iterates are then sandwiched between the cold run's
later and same-index iterates, it reaches the basin no later, and every
verdict reached by proof stays as it was.  ``threshold_search`` passes
its latest probe that did not converge once the tables pass the order
check.

The check tables, and the order and singleton verdicts on them and on
the size chain, are built once per work budget (``budget``): a
threshold search builds them for its first probe, and a model is a
value, so equal models share them.  The size chain is kept for the process and charged once per
budget as if it were built.  ``run`` folds the check degree fractions
into copies of the tables once per call.  Each table, each order or
singleton check and every probe's map evaluations are charged to the
budget before they are computed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate, combinations_with_replacement
from math import comb, factorial, inf, prod

import numpy as np

from . import budget
from .channel import PartialErasureChannel
from .combinatorics import as_int, common_member_intersection_dist, is_real
from .gf import GF
from .ldpc import DegreeDistribution
from .sumset_models import SumsetSizeModel

CONVERGENCE_TOL = 1e-10
FIXED_POINT_TOL = 1e-13
# the divergence certificate is tried once a step of the failure
# probability falls below CERTIFY_TOL; the gap to the next try is 4
# iterations and doubles after each try that does not certify, up to
# CERTIFY_MAX_GAP
CERTIFY_TOL = 1e-4
CERTIFY_MAX_GAP = 32
# a certified point's successor lies this far above it in every CDF
# entry; a table is ordered up to ORDER_SLACK, its CDFs' rounding
CERTIFY_MARGIN = 1e-13
ORDER_SLACK = 1e-15


def stochastically_le(a, b, margin: float = 0.0) -> bool:
    """Whether every law in ``a`` lies below its law in ``b`` in
    stochastic order, the laws running along the last axis: each CDF
    entry of a is at least b's plus ``margin`` (a negative margin is a
    slack)."""
    return bool((np.cumsum(a, axis=-1) >= np.cumsum(b, axis=-1) + margin).all())


def _iteration_cells(q: int, M: int, checks=(), variables=()) -> int:
    """Cells of one DE iteration over these check and variable degrees,
    or ValueError, before any table is built, when that passes a 1024th
    of ``budget.CELLS``: a search must afford a thousand iterations.  The
    check half gathers T = C(M + d_c - 2, d_c - 1) size multisets of
    d_c - 1 draws, a cell each, and multiplies them into rows of q
    entries; forming H(w) is q*M*(M+1) entries, and each of the variable
    half's d_v - 2 steps a numpy call and M*(M+1) entries, all summed
    over the degrees, with eight numpy calls for the rest of the
    iteration.  A folded iteration (tables of at most 2**12 entries) is
    priced as if unfolded, a little above its cost."""
    width, steps = M * (M + 1), sum(d - 2 for d in variables)
    cells = budget.CALL * (8 + steps) + width * (steps + q) // budget.ENTRIES
    cells += sum(comb(M + d - 2, d - 1) * (d - 1 + q // budget.ENTRIES) for d in checks)
    budget.over(cells, budget.CELLS >> 10, f"{cells} cells an iteration at M={M} (size multisets)")
    return cells


def initial_vtc_dist(channel: PartialErasureChannel) -> np.ndarray:
    """Iteration-0 sizes: 1 on a clean symbol, M on a partial erasure."""
    z = np.zeros(channel.field.q)
    z[0] = 1.0 - channel.epsilon
    z[channel.M - 1] += channel.epsilon
    return z


@cache
def _weight_tables(max_size: int, k: int):
    """All size multisets of k draws from 1..max_size: the tuples, their
    (k, T) draw indices into a size vector (column t is tuple t), and
    their multinomial coefficients (the number of ordered tuples behind
    each multiset)."""
    tuples = tuple(combinations_with_replacement(range(1, max_size + 1), k))
    draws = np.ascontiguousarray(np.array(tuples, dtype=np.intp).T - 1)
    multinom = [factorial(k) // prod(factorial(t.count(s)) for s in set(t)) for t in tuples]
    # a float holds no integer of 1024 bits or more
    budget.over(max(multinom).bit_length(), 1023, f"multinomials of {k} draws, in bits")
    multinom = np.array(multinom, float)
    draws.setflags(write=False)
    multinom.setflags(write=False)
    return tuples, draws, multinom


def _check_matrices(field: GF, M: int, d_c: int, model: SumsetSizeModel):
    """(draws, matrix) of the check half: row t is the sumset-size law of
    multiset t times its multinomial.  Each law is charged eight numpy
    calls, besides what the law itself charges.

    Law entries below the least normal float are zeroed: the coverage
    walks' tails underflow into subnormals (371,562 of the 992,256
    entries of the q=64, M=16, d_c=6 balls table), and every product
    over a table holding them runs several times slower."""
    tuples, draws, multinom = _weight_tables(M, d_c - 1)
    budget.current().charge(len(tuples) * 8 * budget.CALL, f"a check table of {len(tuples)} laws")
    laws = np.stack([model.distribution(t, field) for t in tuples])
    laws[laws < np.finfo(float).tiny] = 0.0
    mat = multinom[:, None] * laws
    mat.setflags(write=False)
    return draws, mat


def _check_ordered(field: GF, M: int, d_c: int, model: SumsetSizeModel) -> bool:
    """Whether raising any one draw of a multiset by one never lowers the
    check table's law in stochastic order.  Raising the last draw of each
    size keeps a multiset sorted, so those steps are all of them, and in
    the lexicographic order of the multisets, raising draw j (size s) of
    k = d_c - 1 moves C(M - s + k - j - 2, k - j - 1) rows down.  Each
    draw is charged eight numpy calls and each law entry compared 8
    cells (two gathers, two sums and a comparison)."""
    k = d_c - 1
    _, draws, multinom = _weight_tables(M, k)
    laws = budget.table(_check_matrices, field, M, d_c, model)[1]
    # the multisets whose draw j is the last of its size, below M
    lows = [np.flatnonzero(draws[j] < (draws[j + 1] if j + 1 < k else M - 1)) for j in range(k)]
    pairs = sum(map(len, lows))
    budget.current().charge(k * 8 * budget.CALL + pairs * field.q * 8, f"the order of {pairs} laws")
    laws = laws / multinom[:, None]
    for j, low in enumerate(lows):
        rows = np.array([comb(M - s + k - j - 3, k - j - 1) for s in range(M - 1)], dtype=np.intp)
        if not stochastically_le(laws[low], laws[low + rows[draws[j, low]]], -ORDER_SLACK):
            return False
    return True


@cache
def _size_chain(q: int, M: int) -> np.ndarray:
    """H_1..H_q as one (q, M*(M+1)) array of M blocks of M+1 entries:
    entry (s-1, (i-1)*(M+1) + j-1) is the chance that a size-i set
    holding the sent symbol, intersected with a size-s set uniform among
    those holding it, keeps j symbols, and entry (s-1, (i-1)*(M+1) + M)
    is the float sum of those M chances, the row's mass."""
    chain = np.zeros((q, M, M + 1))
    for s in range(1, q + 1):
        # the law of (i, s) is the law of (s, i): each pair is met once
        for i in range(1, min(s, M) + 1):
            law = common_member_intersection_dist((i, s), q)[1:]
            chain[s - 1, i - 1, : len(law)] = law
            if s <= M:
                chain[i - 1, s - 1, : len(law)] = law
    chain[:, :, M] = chain[:, :, :M].sum(axis=2)
    chain = chain.reshape(q, M * (M + 1))
    chain.setflags(write=False)
    return chain


def _chain(q: int, M: int) -> np.ndarray:
    """``_size_chain(q, M)``, kept for the process but charged as a cold
    build of the laws it computes, one per unordered size pair (i <= s,
    i <= M), q*M - M(M-1)/2 of them: each eight numpy calls, and each of
    a law's i big-integer terms 4q cells, as the integers grow with q."""
    laws = q * M - M * (M - 1) // 2
    terms = sum(min(s, M) * (min(s, M) + 1) // 2 for s in range(1, q + 1))
    budget.current().charge(laws * 8 * budget.CALL + terms * 4 * q, f"the size chain, M={M}")
    return _size_chain(q, M)


def _chain_ordered(q: int, M: int) -> bool:
    """Whether the size chain's laws H_{s,i} rise in stochastic order with
    the incoming size s and with the message size i.  Each of the q*M*M
    entries, compared twice, is charged 16 cells."""
    budget.current().charge(q * M * M * 16, f"the order of the size chain, M={M}")
    laws = budget.table(_chain, q, M).reshape(q, M, M + 1)[:, :, :M]
    return stochastically_le(laws[:-1], laws[1:], -ORDER_SLACK) and stochastically_le(
        laws[:, :-1], laws[:, 1:], -ORDER_SLACK
    )


def _keeps_singletons(field: GF, M: int, d_c: int, model: SumsetSizeModel) -> bool:
    """Whether a singleton stays one: the check table's law of the
    all-size-1 multiset (its row 0, of multinomial 1) is e_1, and so are
    the size chain's laws H_{1,i} (a set met by a singleton) and H_{s,1}
    (a singleton met by any set), exactly.  Then a check output is a
    singleton whenever all its inputs are, and a variable output whenever
    the channel is clean or any incoming message is one.  Charged four
    numpy calls."""
    budget.current().charge(4 * budget.CALL, f"the singletons of M={M}, d_c={d_c}")
    law = budget.table(_check_matrices, field, M, d_c, model)[1][0]
    laws = budget.table(_chain, field.q, M).reshape(field.q, M, M + 1)[:, :, :M]
    one = np.eye(1, M)[0]
    singles = (laws[0] == one).all() and (laws[:, 0] == one).all()
    return law[0] == 1.0 and not law[1:].any() and singles


@cache
def _bec_envelope(lam: tuple, rho: tuple):
    """(lefts, rising), a lower envelope of the binary-erasure (BEC)
    curve c(x) = x / lambda(1 - rho(1 - x)) of these (degree, fraction)
    pairs, each set of fractions divided by its sum.  ``rising`` rises,
    and c >= -rising[k] on (lefts[k], lefts[k+1]] (on (lefts[k], 1] for
    the last k), so c > eps on (0, lefts[k]] for the first k with
    -rising[k] <= eps.

    The bounds come from cells covering (0, 1], each the larger of two.
    On a cell [a, b], c >= a / lambda(1 - rho(1 - b)), as lambda(1 - rho(1
    - x)) rises with x; and 1 - rho(1 - y) <= rho'(1) y (1 - rho(1 - y) is
    concave), so c(y) >= y / lambda(rho'(1) y) >= b / lambda(rho'(1) b), as
    y / lambda(rho'(1) y) falls with y.  The second bound carries the cell
    at 0, and it reaches 1 / (lambda_2 rho'(1)) near 0, so a minimum of c
    at 0+ (a stability-limited ensemble) is met too.  Only the cells where
    the running minimum of the bounds falls are kept: lefts[k] is such a
    cell's left end and -rising[k] that minimum.

    The cells start geometric, 2**12 of them from 2**-32 to 1.  Six times
    over, the 512 cells whose bounds lie lowest below the least value of
    c at a cell end are cut in eight, so the envelope's minimum comes
    close to c's, the BEC threshold, where it lies inside (0, 1].  1 - (1
    - x)**k is taken as -expm1(k log1p(-x)), free of cancellation near
    0, and each bound is lowered by 2**-26 of itself against float
    rounding and the fractions' sums, which lie within 1e-9 of 1.  A
    build takes a few milliseconds a degree and is not charged: ``run``
    asks for it only after ``_iteration_cells`` has bounded the
    degrees."""
    lam_sum, rho_sum = sum(f for _, f in lam), sum(f for _, f in rho)
    slope = sum(f / rho_sum * (d - 1) for d, f in rho)

    def g(x):  # lambda(1 - rho(1 - x))
        u = sum(f / rho_sum * -np.expm1((d - 1) * np.log1p(-x)) for d, f in rho)
        return sum(f / lam_sum * u ** (d - 1) for d, f in lam)

    def bounds(edges):  # each cell's bound, the cell (0, edges[0]] first
        # lambda(rho'(1) b) / b at each right end b
        linear = sum(f / lam_sum * slope * (slope * edges) ** (d - 2) for d, f in lam)
        return np.maximum(np.concatenate([[0.0], edges[:-1] / g(edges[1:])]), 1.0 / linear)

    edges = np.geomspace(2.0**-32, 1.0, 2**12 + 1)
    # a bound is infinite where g or lambda underflows, and log1p(-1) is -inf
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(6):
            bound = bounds(edges)[1:]
            low = np.flatnonzero(bound < (edges / g(edges)).min())
            low = low[np.argsort(bound[low])[:512]]
            cuts = edges[low, None] + (edges[low + 1] - edges[low])[:, None] * np.arange(1, 8) / 8
            edges = np.sort(np.concatenate([edges, cuts.ravel()]))
        bound = bounds(edges)
    floor = np.minimum.accumulate(bound * (1.0 - 2.0**-26))
    falls = np.flatnonzero(floor < np.concatenate([[inf], floor[:-1]]))
    lefts = np.concatenate([[0.0], edges[:-1]])[falls]
    return lefts, -floor[falls]


def _basin_edge(lam: dict, rho: dict, eps: float) -> float:
    """A proven lower bound x_lo of the least positive fixed point x* of
    the BEC map x -> eps lambda(1 - rho(1 - x)): the left end of the first
    cell of ``_bec_envelope`` whose bound reaches eps, so that c > eps,
    and the map lies below x, on (0, x_lo).  0 where the map rises above
    x next to 0; inf when eps lies below the whole envelope, as below the
    BEC threshold min c."""
    lefts, rising = _bec_envelope(tuple(sorted(lam.items())), tuple(sorted(rho.items())))
    k = int(np.searchsorted(rising, -eps))
    return float(lefts[k]) if k < len(lefts) else inf


def _folds(M: int, checks) -> bool:
    """Whether ``run`` folds the size chain into the check tables of these
    degrees: while the folded tables hold at most 2**12 entries, sum(T) *
    M*(M+1), which cost no more than the chain product they remove (a
    gemv call is worth ~2**12 entries of a small one)."""
    return sum(comb(M + d - 2, d - 1) for d in checks) * M * (M + 1) <= 2**12


def _folded_check(field: GF, M: int, d_c: int, model: SumsetSizeModel):
    """(draws, folded matrix) of the check half with the size chain folded
    in: row t is row t of the check matrix times the chain, so weights @
    folded is H(w) with its mass column.  It is built row by row, as a
    2-D product would pull in the BLAS's gemm buffer for a table this
    small."""
    draws, mat = budget.table(_check_matrices, field, M, d_c, model)
    chain = budget.table(_chain, field.q, M)
    folded = np.stack([np.dot(row, chain) for row in mat])
    folded.setflags(write=False)
    return draws, folded


def _mix(dist: np.ndarray, terms, out=None) -> np.ndarray:
    """Sum over (draws, matrix) terms of weights @ matrix, where a
    multiset's weight is the product of ``dist`` over its draws; written
    into ``out`` when it is given."""
    first = True
    for draws, mat in terms:
        weights = np.multiply.reduce(dist[draws], axis=0)
        if first:
            out = np.dot(weights, mat, out=out)
            first = False
        else:
            out += np.dot(weights, mat)
    return out


def _variable_half(h: np.ndarray, terms, w_sum: float) -> np.ndarray:
    """The eps part of the variable output from H(w) as an (M, M+1) array
    h whose column M holds each row's mass, and whose mass is w_sum: per
    (steps, scale) term, row M of h (the channel's M-set after one step)
    carried ``steps`` more steps along h and scaled by
    scale * (1/w_sum)**(steps+1), which renormalises H(w) by a float;
    summed over the terms.  Entry M of the result is its mass, carried
    along in h's mass column."""
    z = None
    for steps, scale in terms:
        v = (scale * (1.0 / w_sum) ** (steps + 1)) * h[-1]
        for _ in range(steps):
            v = np.dot(v[:-1], h)
        z = v if z is None else z + v
    return z


def _size_vector(v, q: int, name: str) -> np.ndarray:
    """``v`` as a float size distribution over 1..q, or ValueError."""
    arr = np.asarray(v)
    if arr.dtype.kind not in "biuf" or arr.shape != (q,):
        raise ValueError(f"{name} must be a 1-D real array of length q={q}, got shape {arr.shape}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise ValueError(f"{name} entries must be finite and nonnegative")
    return arr


def check_update(
    z: np.ndarray, d_c: int, model: SumsetSizeModel, field: GF, M: int
) -> np.ndarray:
    """Size distribution of a check output given the incoming edge-size
    distribution z (length q, supported on 1..M)."""
    d_c, M = as_int(d_c, "check degree", 2), as_int(M, "M", 1)
    if M > field.q:
        raise ValueError(f"M must be at most q={field.q}, got {M}")
    z = _size_vector(z, field.q, "z")
    if z[M:].any():
        raise ValueError("variable-to-check sizes cannot exceed M")
    _iteration_cells(field.q, M, checks=[d_c])
    return _mix(z, [budget.table(_check_matrices, field, M, d_c, model)])


def variable_update(w: np.ndarray, d_v: int, channel: PartialErasureChannel) -> np.ndarray:
    """Size distribution of a variable output given the incoming
    check-size distribution w (length q)."""
    d_v = as_int(d_v, "variable degree", 2)
    q, M, eps = channel.field.q, channel.M, channel.epsilon
    w = _size_vector(w, q, "w")
    _iteration_cells(q, M, variables=[d_v])
    h = np.dot(w, budget.table(_chain, q, M)).reshape(M, M + 1)
    z = _variable_half(h, [(d_v - 2, eps)], 1.0)
    z[0] += 1.0 - eps
    return np.pad(z[:M], (0, q - M))


def _below(older: np.ndarray, old: np.ndarray, z: np.ndarray, M: int):
    """A size law y below z in stochastic order, as a list of M floats, a
    step along the last three iterates past their limit, or None if their
    steps do not shrink.  With C the CDF of z over sizes 1..M-1 and d = C
    - C(old), rho = max|d| / max|C(old) - C(older)|; y's CDF is the
    running maximum of min(max(C, C + t*d), 1) for t = 1.5*rho/(1-rho) +
    1, a geometric step beyond the limit of steps shrinking by rho, and
    the inner max keeps y below z where d has an entry below 0.  Each CDF
    is a running sum of Python floats, left to right, as numpy's cumsum
    takes it: a try costs no numpy call on these few entries."""
    c0, c1, c = (list(accumulate(v.tolist()[: M - 1])) for v in (older, old, z))
    d = [b - a for a, b in zip(c1, c)]
    prev = max(abs(b - a) for a, b in zip(c0, c1))
    top = max(map(abs, d))
    if not top < prev:
        return None
    t = 1.5 * (top / prev) / (1.0 - top / prev) + 1.0
    # max(C, C + t*d) is C + max(t*d, 0), bit for bit
    cdf = list(accumulate((min(x + max(t * e, 0.0), 1.0) for x, e in zip(c, d)), max))
    return [b - a for a, b in zip([0.0, *cdf], [*cdf, 1.0])]


def _meet(z0: np.ndarray, w) -> np.ndarray:
    """The greatest size law below both z0 and w (M entries each) in
    stochastic order: its CDF is the larger of theirs at each size below
    M, capped at 1, each CDF a running sum of Python floats, left to
    right, as ``_below`` takes it."""
    cdfs = zip(accumulate(z0.tolist()[:-1]), accumulate(w[:-1]))
    cdf = [min(max(a, b), 1.0) for a, b in cdfs]
    return np.array([b - a for a, b in zip([0.0, *cdf], [*cdf, 1.0])])


def _rises(y, fy, M: int) -> bool:
    """Whether the law ``fy`` lies above ``y`` by ``CERTIFY_MARGIN`` in
    every CDF entry over sizes 1..M-1: ``stochastically_le(y[:M-1],
    fy[:M-1], CERTIFY_MARGIN)`` on Python floats, bit for bit."""
    cdfs = zip(accumulate(y[: M - 1]), accumulate(fy[: M - 1]))
    return all(a >= b + CERTIFY_MARGIN for a, b in cdfs)


@dataclass
class DeConfig:
    """One density-evolution run: ``run`` stops when the failure
    probability falls below ``CONVERGENCE_TOL`` or into the BEC basin
    (a proof that it converges), on a stable non-trivial fixed point (a
    step below ``FIXED_POINT_TOL``), when a certificate proves that it
    cannot converge (tried once a step falls below ``CERTIFY_TOL``), or
    after ``max_iters`` iterations.  The tolerances are module
    constants, read on every call.  A ``max_iters``
    that is not an integer of at least 1 (a float, a bool, 0) is refused
    (ValueError): every probe with eps > 0 would fail."""

    channel: PartialErasureChannel
    degrees: DegreeDistribution
    size_model: SumsetSizeModel
    max_iters: int = 2000

    def __post_init__(self):
        as_int(self.max_iters, "max_iters", 1)


@dataclass
class DeResult:
    """``trajectory`` records (iteration, failure probability = P(size
    of a variable-to-check message > 1)).  ``stop_reason`` says which
    stop rule ended the run: ``"converged"`` (below
    ``CONVERGENCE_TOL``), ``"basin"`` (below the BEC map's least fixed
    point, a proof that the run converges), ``"fixed_point"`` (a stable
    non-trivial fixed point), ``"certified"`` (a proof that the run
    cannot converge) or ``"max_iters"`` (the iteration budget ran out
    first); ``converged`` holds for the first two.  ``tries`` counts the
    certificate's evaluations of F, each charged as an iteration and
    none counted in ``iterations``.  ``certifiable`` says whether the
    run's tables passed the order check, so that the certificate was
    tried; a table that fails it (a noisy Monte Carlo law, say) leaves
    the run to the other rules.  ``monotone`` and ``mass_ok`` flag the
    runtime sanity checks (warned about, never silently dropped);
    ``mass_drift`` is the largest |mass - 1| of either half's output
    before it was renormalised, each mass read from the size chain's
    mass column, and ``mass_ok`` is ``mass_drift <= 1e-9``.  ``config``
    is the run's configuration, its eps among it, and ``last`` its last
    iterate, a law over sizes 1..M: a run that did not converge can
    start a run below it (``run``'s ``above``)."""

    converged: bool
    iterations: int
    tries: int
    trajectory: list[tuple[int, float]]
    stop_reason: str
    certifiable: bool = True
    monotone: bool = True
    mass_ok: bool = True
    mass_drift: float = 0.0
    config: DeConfig | None = None
    last: tuple[float, ...] = ()


def _check_above(cfg: DeConfig, above) -> None:
    """ValueError unless ``above`` may start a run of ``cfg``: the result
    of a run that did not converge, at a higher eps, on tables that pass
    the order check and equal ``cfg``'s (the same field, M, degree
    distribution and model)."""
    if not isinstance(above, DeResult) or above.config is None:
        raise ValueError(f"above must be the DeResult of a run, got {above!r:.80}")
    a, ch = above.config, cfg.channel
    if above.converged or not above.certifiable:
        raise ValueError("above must be a run that did not converge, on tables that pass the order check")
    if not a.channel.epsilon > ch.epsilon:
        raise ValueError(f"above must be a run at an eps above {ch.epsilon}, got {a.channel.epsilon}")
    if (a.channel.field, a.channel.M, a.degrees, a.size_model) != (
        ch.field, ch.M, cfg.degrees, cfg.size_model
    ):
        raise ValueError("above must be a run on the same field, M, degree distribution and model")


def run(cfg: DeConfig, *, above: DeResult | None = None) -> DeResult:
    """Iterate density evolution until the failure probability drops
    below ``CONVERGENCE_TOL`` or into the basin, a fixed point is
    detected, divergence is certified, or ``max_iters`` is reached.  The
    run takes as many map evaluations as the open budget's cells allow
    and raises ValueError if it needs more; its tables, and then its
    evaluations (iterations and certificate tries alike), are charged to
    that budget.  It starts from the channel's start law z_0, or, given
    ``above`` (checked by ``_check_above``, ValueError otherwise), from
    the meet of z_0 and ``above``'s last iterate.

    The certificate.  The map F is monotone in stochastic order when its
    tables pass the order check: a check law rises with each incoming
    size (``_check_ordered``), the size chain's laws H_{s,i} rise with s
    and i (``_chain_ordered``), and mixing with the fixed (1-eps) e_1
    keeps order (Richardson and Urbanke, Modern Coding Theory, ch. 3-4,
    argue the same for degraded channels).  So if y <=st z_l and F(y)
    >=st y, then z_{l+k} >=st F^k(y) >=st y for every k: the failure
    probability never falls below pe(y), and if pe(y) > 10 *
    ``CONVERGENCE_TOL`` the run cannot converge.  Once a step of the
    failure probability falls below ``CERTIFY_TOL``, a try builds y from
    the last three iterates (``_below``) and certifies if CDF(F(y)) <=
    CDF(y) - ``CERTIFY_MARGIN`` on every size 1..M-1 (``_rises``).  The
    next try comes 4 iterations later, and the gap doubles after each
    try, up to ``CERTIFY_MAX_GAP``, as most tries fail, on the plateaus
    of converging runs.  Fewer tries change no verdict: a run that a
    skipped try would have certified cannot converge, so a later try,
    the fixed-point stop or ``max_iters`` ends it.  A try sums its CDFs
    as Python floats, left to right as ``stochastically_le`` sums them,
    so its only numpy work is the one evaluation F(y).  The margin,
    1e-13, stands against float error: F sums a few products over M <= 4
    entries on de-sweep, off by ~1e-15, and the tables are ordered up to
    ``ORDER_SLACK`` = 1e-15.  Runs whose tables fail the check are never
    certified.

    The basin.  When the tables keep singletons (``_keeps_singletons``),
    a check output is a singleton whenever all its inputs are, and a
    variable output whenever the channel is clean or any incoming check
    message is one, because every message holds the sent symbol.  So
    pe_{l+1} <= f(pe_l) for the BEC map f(x) = eps lambda(1 - rho(1 -
    x)), which rises with x.  Below its least positive fixed point x*,
    f(x) < x, so a pe_l < x* gives pe_{l+k} <= f^k(pe_l) -> 0: the run
    converges.  ``_basin_edge`` reads x_lo <= x* from a lower envelope
    of the BEC curve x / lambda(1 - rho(1 - x)), once a run; the run
    stops (``"basin"``) at the first pe < x_lo, at iteration 0 when eps
    lies below the envelope, as below the BEC threshold.  The bound
    holds up to float rounding, as the certificate does: the envelope
    is lowered by 2**-26 of itself.

    The start from above.  Let w be the last iterate of a run at eps' >
    eps on the same tables, which pass the order check.  F_eps rises with
    eps, and F(z_0) <=st z_0 (F(z) is (1-eps) e_1 plus eps times a law on
    1..M), so no run's iterates rise and F_eps'(w) <=st w; and w >=st
    z'_L >=st z_L for some L, by induction over the runs above it, each
    started from z'_0 or from above in turn.  The meet U_0 of w and z_0
    (the larger CDF at each size, ``_meet``) then lies between, z_L <=st
    U_0 <=st z_0, and as F is monotone, z_{L+k} <=st U_k <=st z_k at
    every k; F(U_0) lies below both F(z_0) <=st z_0 and F_eps'(w) <=st
    w, so U_1 <=st U_0, and U never rises.  So pe(U_k) <= pe(z_k): a run
    that converges or enters the basin from z_0 does so no later from
    U_0 (unless the ``FIXED_POINT_TOL`` heuristic stops it first, as
    ``threshold_search`` notes); a y <=st U_l with F(y) >=st y lies below
    z_l too, so the run from U_0 certifies only what cannot converge
    from z_0; and as U_k lies above z_{L+k}, a run that cannot converge
    from z_0 does not converge from U_0.  It holds up to float rounding,
    as the basin and the certificate do: U_0's CDF is the max of two
    float CDFs, and the runs stay ordered to within ~1e-15."""
    if above is not None:
        _check_above(cfg, above)
    ch = cfg.channel
    field, M, eps = ch.field, ch.M, ch.epsilon

    rho, lam = cfg.degrees.rho_coeffs, cfg.degrees.lambda_coeffs
    price = _iteration_cells(field.q, M, rho, lam)
    with budget.scope() as spend:
        if _folds(M, rho):
            tables, chain = _folded_check, None
        else:
            tables, chain = _check_matrices, budget.table(_chain, field.q, M)
        built = {d: budget.table(tables, field, M, d, cfg.size_model) for d in rho}
        certifiable = budget.table(_chain_ordered, field.q, M) and all(
            budget.table(_check_ordered, field, M, d, cfg.size_model) for d in rho
        )
        keeps = all(budget.table(_keeps_singletons, field, M, d, cfg.size_model) for d in rho)
    if above is not None and not certifiable:
        raise ValueError("a run from above needs tables that pass the order check")
    # the run has converged once pe falls below x_lo
    x_lo = _basin_edge(lam, rho, eps) if keeps else 0.0
    # the degree fractions folded into copies of the tables, once per run
    chk = [(built[d][0], rho[d] * built[d][1]) for d in sorted(rho)]
    var = [(d - 2, eps * lam[d]) for d in sorted(lam)]
    h = np.empty((M, M + 1))  # H(w), rewritten in place each evaluation
    h_out = h.reshape(-1)
    clean = 1.0 - eps

    def step(z):
        # F(z) and the masses of its halves.  H(w) carries, in its mass
        # column, the check output's mass w_sum.  Mass is conserved
        # exactly in exact arithmetic, but the per-multiset products
        # amplify float drift exponentially, so both halves are
        # renormalised by their measured mass, as floats: H(w) inside the
        # variable terms' scales, z by one division with its size-1 entry
        # redone from the same float.  z keeps its mass in entry M, which
        # no draw reads
        if chain is None:
            _mix(z, chk, h_out)
        else:
            np.dot(_mix(z, chk), chain, out=h_out)
        w_sum = h.item(M - 1, M)
        zz = _variable_half(h, var, w_sum)
        z_sum = zz.item(M) + clean
        out = zz / z_sum
        out[0] = (zz.item(0) + clean) / z_sum
        return out, w_sum, z_sum

    z = initial_vtc_dist(ch)[:M]
    if above is not None:
        z = _meet(z, above.last)
    pe = 1.0 - z.item(0)
    trajectory = [(0, pe)]
    monotone = True
    drift = 0.0
    conv_tol, fp_tol, cert_tol = CONVERGENCE_TOL, FIXED_POINT_TOL, CERTIFY_TOL
    stop_reason = "converged" if pe < conv_tol else "basin" if pe < x_lo else "max_iters"
    left = spend.left // price  # map evaluations the budget affords
    allowed = min(cfg.max_iters, left)
    # the first try needs three iterates
    next_try, gap = (2 if certifiable else cfg.max_iters + 1), 4

    it = tries = 0
    old = z
    while stop_reason == "max_iters" and it < allowed:
        it += 1
        older, old = old, z
        z, w_sum, z_sum = step(z)
        drift = max(drift, abs(w_sum - 1.0), abs(z_sum - 1.0))

        new_pe = 1.0 - z.item(0)
        trajectory.append((it, new_pe))
        if new_pe > pe + 1e-12:
            monotone = False
        if new_pe < conv_tol:
            stop_reason = "converged"
        elif new_pe < x_lo:
            stop_reason = "basin"
        elif abs(new_pe - pe) < fp_tol:
            stop_reason = "fixed_point"
        elif it >= next_try and abs(new_pe - pe) < cert_tol and it + tries < left:
            next_try, gap = it + gap, min(2 * gap, CERTIFY_MAX_GAP)
            y = _below(older, old, z, M)
            if y is not None and 1.0 - y[0] > 10 * conv_tol:
                tries += 1
                allowed = min(allowed, left - tries)
                if _rises(y, step(np.array(y))[0].tolist(), M):
                    stop_reason = "certified"
        pe = new_pe

    # a run that spent its allowance without a verdict is charged one
    # evaluation more, which the budget cannot pay: it is refused
    short = stop_reason == "max_iters" and it < cfg.max_iters
    spend.charge((it + tries + short) * price, f"density evolution at eps={eps}")
    mass_ok = drift <= 1e-9
    if not mass_ok:
        warnings.warn("density evolution lost probability mass beyond 1e-9")
    if not monotone:
        warnings.warn("failure probability increased across an iteration")
    return DeResult(
        converged=stop_reason in ("converged", "basin"),
        iterations=it,
        tries=tries,
        trajectory=trajectory,
        stop_reason=stop_reason,
        certifiable=certifiable,
        monotone=monotone,
        mass_ok=mass_ok,
        mass_drift=drift,
        config=cfg,
        last=tuple(z.tolist()[:M]),
    )


def threshold_search(
    cfg: DeConfig,
    tol_eps: float = 1e-4,
    *,
    check_monotone: bool = False,
) -> float:
    """Largest erasure probability (to within ``tol_eps``) at which
    density evolution still converges, by bisection on [0, 1].  Each
    probe is a distinct epsilon, run once.  A ``tol_eps`` that is not a
    real number of at least 2**-52 is refused (ValueError).

    The bisection needs the verdict monotone in epsilon, and it is
    wherever the tables pass the order check (``DeResult.certifiable``):
    F_eps(z) = (1-eps) e_1 + eps G(z) with G free of eps and G(z) >=st
    e_1, so F_eps rises with eps, as does the start law (1-eps) e_1 +
    eps e_M; by induction z_l(eps1) <=st z_l(eps2) at every l when eps1
    < eps2 (Richardson and Urbanke, Modern Coding Theory, ch. 3-4), and
    so pe_l(eps1) <= pe_l(eps2).  A run whose failure probability falls
    below ``CONVERGENCE_TOL`` within ``max_iters`` at eps2 falls below it
    no later at eps1, where no certificate can stop it first; and as the
    basin's edge x_lo falls as eps rises, one that enters the basin at
    eps2 enters it no later at eps1.  The proof
    covers the exact map, up to float rounding.  It does not cover the
    ``FIXED_POINT_TOL`` stop, a heuristic that could in principle end a
    converging probe early.

    ``check_monotone`` warns, once, when the first probe reports that the
    tables fail the order check (noisy Monte Carlo laws, say), so that
    monotonicity in epsilon is unproven.  The order check depends on the
    tables alone, not on epsilon, so one probe decides it.

    The same order lets each probe start from the latest probe that did
    not converge, at the bracket's upper end: that probe's last iterate
    bounds every iterate of the probes below it (``run``'s ``above``),
    so a probe that converges from the start law converges no later
    from there, and one that the certificate or the basin decides keeps
    its verdict.  Tables that fail the order check start every probe
    from the start law.
    """
    # below 2**-52 the midpoint of two adjacent floats in [0, 1] is one
    # of them, so the bisection would never narrow to within tol_eps
    if not is_real(tol_eps) or not tol_eps >= 2.0**-52:
        raise ValueError(f"bisection tolerance must be a real number >= 2**-52, got {tol_eps!r}")

    def probe(eps: float, above=None) -> DeResult:
        return run(replace(cfg, channel=cfg.channel.with_epsilon(eps)), above=above)

    # every probe draws on the search's budget
    with budget.scope():
        top = probe(1.0)
        if check_monotone and not top.certifiable:
            warnings.warn(
                "convergence is not proven monotone in epsilon: the check tables "
                "fail the order check; the bisection threshold may be unreliable"
            )
        if top.converged:
            return 1.0
        # each probe starts from the latest one that did not converge,
        # at hi, once the tables pass the order check
        lo, hi, above = 0.0, 1.0, top
        while hi - lo > tol_eps:
            mid = 0.5 * (lo + hi)
            r = probe(mid, above if top.certifiable else None)
            if r.converged:
                lo = mid
            else:
                hi, above = mid, r
        return lo
