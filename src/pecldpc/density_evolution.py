"""Density evolution on message-size distributions.

The asymptotic state of the set decoder is captured by two probability
vectors over message sizes 1..q: one for check-to-variable messages,
one for variable-to-check messages.  One iteration pushes the
variable-to-check vector through the check nodes (weighting each
multiset of incoming sizes by a sumset-size model) and back through the
variable nodes (weighting by the exact intersection-size law, with the
channel's M-set joining the intersection on an erasure event).

Each half is a draw-index kernel.  A node of degree d draws d-1 incoming
sizes; the T size multisets of those draws are stored as a (d-1, T)
array of size indices, row j holding every multiset's j-th draw, so the
multisets' probability weights are
``np.multiply.reduce(dist[draws], axis=0)``: one gather and one product,
taken left to right over the draws, no powers.  Row t of the half's
(T, q) matrix is multiset t's output size law times its multinomial
coefficient (the number of ordered draws behind it), so one matmul turns
the weights into the output law.  The matrices depend only on (field, M,
degree, model) and are built once per process, or, for the check
matrices, once per model for as long as it lives; ``run`` folds the
degree fractions (and, on the variable half, eps) into copies of them
once per call.  A half is thus one gather, one product and one matmul
per degree term, and an iteration adds only the two sums it
renormalises by.
"""

from __future__ import annotations

import warnings
import weakref
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
# size multisets one DE half may enumerate, each a row of q floats in a
# matrix cached for the life of the process: 2**16 admits the variable
# half of every d_v = 3 ensemble up to q = 256 (C(257, 2) = 32,896 rows)
# and d_v = 4 at every q <= 71, and keeps a matrix at most 128 MiB
MAX_SIZE_MULTISETS = 2**16


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
    count = comb(max_size + k - 1, k)
    if count > MAX_SIZE_MULTISETS:
        raise ValueError(
            f"density evolution would enumerate {count} size multisets of {k} "
            f"draws from 1..{max_size}, over the cap of {MAX_SIZE_MULTISETS}; "
            "use a smaller field, M or node degree"
        )
    tuples = tuple(combinations_with_replacement(range(1, max_size + 1), k))
    draws = np.ascontiguousarray(np.array(tuples, dtype=np.intp).T - 1)
    multinom = np.array(
        [factorial(k) // prod(factorial(t.count(s)) for s in set(t)) for t in tuples], float
    )
    draws.setflags(write=False)
    multinom.setflags(write=False)
    return tuples, draws, multinom


def _weighted_rows(table, rows: np.ndarray):
    """(draws, matrix) of one half from its ``_weight_tables`` entry and
    each multiset's output law: row t is scaled by its multinomial."""
    _, draws, multinom = table
    mat = multinom[:, None] * rows
    mat.setflags(write=False)
    return draws, mat


# model -> {(field, M, d_c): check matrices}; held weakly, so a model
# (and its own distribution cache) is freed once its caller drops it
_CHECK_MATRICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _check_matrices(field: GF, M: int, d_c: int, model: SumsetSizeModel):
    built = _CHECK_MATRICES.setdefault(model, {})
    key = (field, M, d_c)
    if key not in built:
        table = _weight_tables(M, d_c - 1)
        pmat = np.stack([model.distribution(t, field) for t in table[0]])
        built[key] = _weighted_rows(table, pmat)
    return built[key]


@cache
def _variable_matrices(field: GF, M: int, d_v: int):
    table = _weight_tables(field.q, d_v - 1)
    qmat = np.zeros((len(table[0]), field.q))
    for r, t in enumerate(table[0]):
        dist = common_member_intersection_dist(sorted(t + (M,)), field.q)
        qmat[r, : len(dist) - 1] = dist[1:]
    return _weighted_rows(table, qmat)


def _mix(dist: np.ndarray, terms) -> np.ndarray:
    """Sum over (draws, matrix) terms of weights @ matrix, where a
    multiset's weight is the product of ``dist`` over its draws."""
    out = None
    for draws, mat in terms:
        part = np.multiply.reduce(dist[draws], axis=0) @ mat
        if out is None:
            out = part
        else:
            out += part
    return out


def _scaled(pairs) -> list:
    """(draws, scale * matrix) for each (scale, (draws, matrix)) pair: a
    half's degree fraction (and, for the variable half, eps) folded into
    its matrices once per run."""
    return [(draws, scale * mat) for scale, (draws, mat) in pairs]


def _variable_output(w: np.ndarray, terms, eps: float) -> np.ndarray:
    """(1-eps) on size 1 plus the mixed intersection law, whose matrices
    already carry the factor eps."""
    z = _mix(w, terms)
    z[0] += 1.0 - eps
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
    return _mix(z, [_check_matrices(field, M, d_c, model)])


def variable_update(w: np.ndarray, d_v: int, channel: PartialErasureChannel) -> np.ndarray:
    """Size distribution of a variable output given the incoming
    check-size distribution w (length q)."""
    if d_v < 2:
        raise ValueError("variable degree must be at least 2")
    field, M, eps = channel.field, channel.M, channel.epsilon
    w = _size_vector(w, field.q, "w")
    return _variable_output(w, _scaled([(eps, _variable_matrices(field, M, d_v))]), eps)


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
    is the largest |sum - 1| of either half's output before it was
    renormalised, and ``mass_ok`` is ``mass_drift <= 1e-9``."""

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
    # the variable half first: its tables grow with q, so an oversized
    # one is refused before any sumset law of the check half is computed
    var = _scaled((eps * lam[d], _variable_matrices(field, M, d)) for d in sorted(lam))
    chk = _scaled((rho[d], _check_matrices(field, M, d, cfg.size_model)) for d in sorted(rho))

    z = initial_vtc_dist(ch)
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
        w = _mix(z, chk)
        # renormalize: mass is conserved exactly in exact arithmetic, but
        # the per-multiset products amplify float drift exponentially
        w_sum = float(np.add.reduce(w))
        w /= w_sum
        z = _variable_output(w, var, eps)
        z_sum = float(np.add.reduce(z))
        z /= z_sum
        drift = max(drift, abs(w_sum - 1.0), abs(z_sum - 1.0))

        new_pe = 1.0 - z.item(0)
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
