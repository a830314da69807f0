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

The matrices are built once per process (a model is a value, so equal
models share their check matrices and folded tables); ``run`` folds
the check degree fractions into copies of them once per call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import numpy as np

from .channel import PartialErasureChannel
from .combinatorics import common_member_intersection_dist
from .gf import GF
from .ldpc import DegreeDistribution
from .sumset_models import SumsetSizeModel

FIXED_POINT_TOL = 1e-13
# cells one DE iteration may take, a cell being one gathered and
# multiplied draw of the check half (~2-3 ns on one x86-64 core).  The
# check half's table for degree d_c holds T = C(M + d_c - 2, d_c - 1)
# size multisets of d_c - 1 draws each: T * (d_c - 1) cells, and a
# matrix of T rows of q floats cached for the life of the process.  The
# variable half carries an M-vector d_v - 2 steps through an M x (M+1)
# matrix per degree; a step is one numpy call, ~0.7 us up to M = 8 and
# ~10 us at M = 256, priced at 2**8 + M*M/16 cells.  Both halves are
# summed over their degrees.  The products that turn the
# check weights into H(w) are not charged: T * M*(M+1) entries per
# iteration when the size chain is folded into the check tables (at
# most 2**12, a call's price), otherwise T*q for the check matmul plus
# q*M*(M+1) for forming H(w) with its mass column.
# 2**17 admits (3, d_c) up to d_c = 362 at M = 2, 29 at M = 4, 6 at
# M = 16 and 3 at M = 256, and (d_v, 6) up to d_v = 513 at M = 2 and 198
# at M = 16: a threshold command at q = 4 with one model at these limits
# took 0.5-4.3 s on one x86-64 core
MAX_DRAW_CELLS = 2**17


# a numpy call's price in cells, and the gemv entries one cell buys
_CALL_CELLS = 2**8
_ENTRIES_PER_CELL = 16


def _charge(M: int, checks=(), variables=()) -> None:
    """ValueError, before any table is built, when one DE iteration over
    these check and variable degrees would take more than MAX_DRAW_CELLS
    cells."""
    cells = sum(comb(M + d - 2, d - 1) * (d - 1) for d in checks)
    cells += sum(d - 2 for d in variables) * (_CALL_CELLS + M * M // _ENTRIES_PER_CELL)
    if cells > MAX_DRAW_CELLS:
        raise ValueError(
            f"density evolution at M={M} with check degrees {sorted(checks)} and variable "
            f"degrees {sorted(variables)} takes {cells} cells an iteration (size multisets "
            f"times their draws, 2**8 + M*M/16 per variable step), over the cap of "
            f"{MAX_DRAW_CELLS}; use a smaller M or smaller degrees"
        )


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
    multinom = np.array(
        [factorial(k) // prod(factorial(t.count(s)) for s in set(t)) for t in tuples], float
    )
    draws.setflags(write=False)
    multinom.setflags(write=False)
    return tuples, draws, multinom


@cache
def _check_matrices(field: GF, M: int, d_c: int, model: SumsetSizeModel):
    """(draws, matrix) of the check half: row t is the sumset-size law of
    multiset t times its multinomial."""
    tuples, draws, multinom = _weight_tables(M, d_c - 1)
    mat = multinom[:, None] * np.stack([model.distribution(t, field) for t in tuples])
    mat.setflags(write=False)
    return draws, mat


@cache
def _size_chain(q: int, M: int) -> np.ndarray:
    """H_1..H_q as one (q, M*(M+1)) array of M blocks of M+1 entries:
    entry (s-1, (i-1)*(M+1) + j-1) is the chance that a size-i set
    holding the sent symbol, intersected with a size-s set uniform among
    those holding it, keeps j symbols, and entry (s-1, (i-1)*(M+1) + M)
    is the float sum of those M chances, the row's mass."""
    chain = np.zeros((q, M, M + 1))
    for s in range(1, q + 1):
        for i in range(1, M + 1):
            law = common_member_intersection_dist((i, s), q)
            chain[s - 1, i - 1, : len(law) - 1] = law[1:]
    chain[:, :, M] = chain[:, :, :M].sum(axis=2)
    chain = chain.reshape(q, M * (M + 1))
    chain.setflags(write=False)
    return chain


def _folds(M: int, checks) -> bool:
    """Whether ``run`` folds the size chain into the check tables of these
    degrees: while the folded tables' sum(T) * M*(M+1) entries, priced
    as gemv entries, cost no more than the chain product they remove,
    one numpy call."""
    entries = sum(comb(M + d - 2, d - 1) for d in checks) * M * (M + 1)
    return entries <= _CALL_CELLS * _ENTRIES_PER_CELL


@cache
def _folded_check(field: GF, M: int, d_c: int, model: SumsetSizeModel):
    """(draws, folded matrix) of the check half with the size chain folded
    in: row t is row t of the check matrix times the chain, so weights @
    folded is H(w) with its mass column.  The check matrix it is built
    from is not kept, as the folded path never reads it; and it is built
    row by row, as a 2-D product would pull in the BLAS's gemm buffer for
    a table this small."""
    draws, mat = _check_matrices.__wrapped__(field, M, d_c, model)
    chain = _size_chain(field.q, M)
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


def _scaled(pairs) -> list:
    """(draws, scale * matrix) for each (scale, (draws, matrix)) pair: the
    check half's degree fractions folded into its matrices once per run."""
    return [(draws, scale * mat) for scale, (draws, mat) in pairs]


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
    if d_c < 2:
        raise ValueError("check degree must be at least 2")
    if not 1 <= M <= field.q:
        raise ValueError(f"M must lie in 1..q={field.q}, got {M}")
    z = _size_vector(z, field.q, "z")
    if z[M:].any():
        raise ValueError("variable-to-check sizes cannot exceed M")
    _charge(M, checks=[d_c])
    return _mix(z, [_check_matrices(field, M, d_c, model)])


def variable_update(w: np.ndarray, d_v: int, channel: PartialErasureChannel) -> np.ndarray:
    """Size distribution of a variable output given the incoming
    check-size distribution w (length q)."""
    if d_v < 2:
        raise ValueError("variable degree must be at least 2")
    q, M, eps = channel.field.q, channel.M, channel.epsilon
    w = _size_vector(w, q, "w")
    _charge(M, variables=[d_v])
    h = np.dot(w, _size_chain(q, M)).reshape(M, M + 1)
    z = _variable_half(h, [(d_v - 2, eps)], 1.0)
    z[0] += 1.0 - eps
    return np.pad(z[:M], (0, q - M))


@dataclass
class DeConfig:
    channel: PartialErasureChannel
    degrees: DegreeDistribution
    size_model: SumsetSizeModel
    max_iters: int = 2000
    convergence_tol: float = 1e-10
    # stop early on a stable non-trivial fixed point; 0 disables
    fixed_point_tol: float = FIXED_POINT_TOL


@dataclass
class DeResult:
    """``trajectory`` records (iteration, failure probability = P(size
    of a variable-to-check message > 1)).  ``stop_reason`` says which
    stop rule ended the run: ``"converged"``, ``"fixed_point"`` (a
    stable non-trivial fixed point) or ``"max_iters"`` (the iteration
    budget ran out first).  ``monotone`` and ``mass_ok`` flag the runtime
    sanity checks (warned about, never silently dropped); ``mass_drift``
    is the largest |mass - 1| of either half's output before it was
    renormalised, each mass read from the size chain's mass column, and
    ``mass_ok`` is ``mass_drift <= 1e-9``."""

    converged: bool
    iterations: int
    trajectory: list[tuple[int, float]]
    stop_reason: str
    monotone: bool = True
    mass_ok: bool = True
    mass_drift: float = 0.0


def run(cfg: DeConfig) -> DeResult:
    """Iterate density evolution until the failure probability drops
    below ``convergence_tol``, a fixed point is detected, or
    ``max_iters`` is reached."""
    ch = cfg.channel
    field, M, eps = ch.field, ch.M, ch.epsilon

    rho, lam = cfg.degrees.rho_coeffs, cfg.degrees.lambda_coeffs
    _charge(M, checks=rho, variables=lam)
    if _folds(M, rho):
        tables, chain = _folded_check, None
    else:
        tables, chain = _check_matrices, _size_chain(field.q, M)
    chk = _scaled((rho[d], tables(field, M, d, cfg.size_model)) for d in sorted(rho))
    var = [(d - 2, eps * lam[d]) for d in sorted(lam)]
    h = np.empty((M, M + 1))  # H(w), rewritten in place each iteration
    h_out = h.reshape(-1)
    clean = 1.0 - eps

    z = initial_vtc_dist(ch)[:M]
    pe = 1.0 - z.item(0)
    trajectory = [(0, pe)]
    converged = pe < cfg.convergence_tol
    monotone = True
    drift = 0.0
    stop_reason = "max_iters"
    conv_tol, fp_tol = cfg.convergence_tol, cfg.fixed_point_tol

    for it in range(1, cfg.max_iters + 1):
        if converged:
            break
        # H(w) and, in its mass column, the check output's mass w_sum.
        # Mass is conserved exactly in exact arithmetic, but the
        # per-multiset products amplify float drift exponentially, so
        # both halves are renormalised by their measured mass, as floats:
        # H(w) inside the variable terms' scales, z by one division with
        # its size-1 entry redone from the same float.  z keeps its mass
        # in entry M, which no draw reads
        if chain is None:
            _mix(z, chk, h_out)
        else:
            np.dot(_mix(z, chk), chain, out=h_out)
        w_sum = h.item(M - 1, M)
        zz = _variable_half(h, var, w_sum)
        z_sum = zz.item(M) + clean
        z = zz / z_sum
        p1 = (zz.item(0) + clean) / z_sum
        z[0] = p1
        drift = max(drift, abs(w_sum - 1.0), abs(z_sum - 1.0))

        new_pe = 1.0 - p1
        trajectory.append((it, new_pe))
        if new_pe > pe + 1e-12:
            monotone = False
        if new_pe < conv_tol:
            converged = True
        elif fp_tol > 0 and abs(new_pe - pe) < fp_tol:
            stop_reason = "fixed_point"
            break
        pe = new_pe

    if converged:
        stop_reason = "converged"
    mass_ok = drift <= 1e-9
    if not mass_ok:
        warnings.warn("density evolution lost probability mass beyond 1e-9")
    if not monotone:
        warnings.warn("failure probability increased across an iteration")
    return DeResult(
        converged=converged,
        iterations=len(trajectory) - 1,
        trajectory=trajectory,
        stop_reason=stop_reason,
        monotone=monotone,
        mass_ok=mass_ok,
        mass_drift=drift,
    )


def threshold_search(
    cfg: DeConfig,
    tol_eps: float = 1e-4,
    *,
    check_monotone: bool = False,
) -> float:
    """Largest erasure probability (to within ``tol_eps``) at which
    density evolution still converges, by bisection on [0, 1].

    ``check_monotone`` additionally probes a coarse grid and warns if
    convergence is not monotone in epsilon (the bisection assumes it).
    Each epsilon is run at most once.
    """
    # below 2**-52 the midpoint of two adjacent floats in [0, 1] is one
    # of them, so the bisection would never narrow to within tol_eps
    if not tol_eps >= 2.0**-52:
        raise ValueError(f"bisection tolerance must be at least 2**-52, got {tol_eps}")
    if cfg.max_iters < 1:  # every probe with eps > 0 would fail
        raise ValueError(f"max_iters must be at least 1, got {cfg.max_iters}")

    @cache
    def converges(eps: float) -> bool:
        return run(replace(cfg, channel=cfg.channel.with_epsilon(eps))).converged

    if check_monotone:
        flags = [converges(e) for e in np.linspace(0.0, 1.0, 17)]
        last_true = max((i for i, f in enumerate(flags) if f), default=-1)
        first_false = next((i for i, f in enumerate(flags) if not f), len(flags))
        if last_true > first_false:
            warnings.warn(
                "density-evolution convergence is not monotone in epsilon; "
                "the bisection threshold may be unreliable"
            )

    if converges(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol_eps:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return lo
