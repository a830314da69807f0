"""Density evolution on message-size distributions.

The asymptotic state of the set decoder is captured by two probability
vectors over message sizes 1..q: one for check-to-variable messages,
one for variable-to-check messages.  One iteration pushes the
variable-to-check vector through the check nodes (weighting each
multiset of incoming sizes by a sumset-size model) and back through the
variable nodes (weighting by the exact intersection-size law, with the
channel's M-set joining the intersection on an erasure event).

Each half is a degree-weighted mix of (weights @ matrix) terms whose
matrix rows are the per-size-multiset output distributions; a matrix
depends only on (field, M, degree, model) and is built once per process,
or, for the check matrices, once per model for as long as it lives.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations_with_replacement
from math import factorial, prod

import numpy as np

from .channel import PartialErasureChannel
from .combinatorics import common_member_intersection_dist
from .gf import GF
from .ldpc import DegreeDistribution
from .sumset_models import SumsetSizeModel

FIXED_POINT_TOL = 1e-13


def initial_vtc_dist(channel: PartialErasureChannel) -> np.ndarray:
    """Iteration-0 sizes: 1 on a clean symbol, M on a partial erasure."""
    z = np.zeros(channel.field.q)
    z[0] = 1.0 - channel.epsilon
    z[channel.M - 1] += channel.epsilon
    return z


@cache
def _weight_tables(max_size: int, k: int):
    """Exponent matrix and multinomial coefficients for all size
    multisets of k draws from 1..max_size."""
    sizes = range(1, max_size + 1)
    tuples = tuple(combinations_with_replacement(sizes, k))
    counts = np.array([[t.count(s) for s in sizes] for t in tuples], dtype=np.int64)
    multinom = np.array([factorial(k) // prod(map(factorial, c)) for c in counts], float)
    counts.setflags(write=False)
    multinom.setflags(write=False)
    return tuples, counts, multinom


# model -> {(field, M, d_c): check matrices}; held weakly, so a model
# (and its own distribution cache) is freed once its caller drops it
_CHECK_MATRICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _check_matrices(field: GF, M: int, d_c: int, model: SumsetSizeModel):
    built = _CHECK_MATRICES.setdefault(model, {})
    key = (field, M, d_c)
    if key not in built:
        tuples, counts, multinom = _weight_tables(M, d_c - 1)
        pmat = np.stack([model.distribution(t, field) for t in tuples])
        pmat.setflags(write=False)
        built[key] = counts, multinom, pmat
    return built[key]


@cache
def _variable_matrices(field: GF, M: int, d_v: int):
    tuples, counts, multinom = _weight_tables(field.q, d_v - 1)
    qmat = np.zeros((len(tuples), field.q))
    for r, t in enumerate(tuples):
        dist = common_member_intersection_dist(sorted(t + (M,)), field.q)
        qmat[r, : len(dist) - 1] = dist[1:]
    qmat.setflags(write=False)
    return counts, multinom, qmat


def _mix(dist: np.ndarray, terms) -> np.ndarray:
    """Sum over (degree fraction, matrices) terms of fraction * (weights @ matrix)."""
    out = 0.0
    for frac, (counts, multinom, mat) in terms:
        weights = multinom * np.prod(dist[None, : counts.shape[1]] ** counts, axis=1)
        out = out + frac * (weights @ mat)
    return out


def _variable_output(w: np.ndarray, terms, eps: float, q: int) -> np.ndarray:
    """(1-eps) on size 1 plus eps times the mixed intersection law."""
    z = np.zeros(q)
    z[0] = 1.0 - eps
    if eps > 0.0:
        z += eps * _mix(w, terms)
    return z


def check_update(
    z: np.ndarray, d_c: int, model: SumsetSizeModel, field: GF, M: int
) -> np.ndarray:
    """Size distribution of a check output given the incoming edge-size
    distribution z (supported on 1..M)."""
    if d_c < 2:
        raise ValueError("check degree must be at least 2")
    if z[M:].any():
        raise ValueError("variable-to-check sizes cannot exceed M")
    return _mix(z, [(1.0, _check_matrices(field, M, d_c, model))])


def variable_update(w: np.ndarray, d_v: int, channel: PartialErasureChannel) -> np.ndarray:
    """Size distribution of a variable output given the incoming
    check-size distribution w."""
    if d_v < 2:
        raise ValueError("variable degree must be at least 2")
    field, M, eps = channel.field, channel.M, channel.epsilon
    return _variable_output(w, [(1.0, _variable_matrices(field, M, d_v))], eps, field.q)


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
    of a variable-to-check message > 1)).  ``monotone`` and ``mass_ok``
    flag the runtime sanity checks (warned about, never silently
    dropped)."""

    converged: bool
    iterations: int
    trajectory: list[tuple[int, float]]
    monotone: bool = True
    mass_ok: bool = True


def run(cfg: DeConfig) -> DeResult:
    """Iterate density evolution until the failure probability drops
    below ``convergence_tol``, a fixed point is detected, or
    ``max_iters`` is reached."""
    ch = cfg.channel
    field, M, eps = ch.field, ch.M, ch.epsilon

    rho, lam = cfg.degrees.rho_coeffs, cfg.degrees.lambda_coeffs
    chk = [(rho[d], _check_matrices(field, M, d, cfg.size_model)) for d in sorted(rho)]
    var = [(lam[d], _variable_matrices(field, M, d)) for d in sorted(lam)]

    z = initial_vtc_dist(ch)
    pe = 1.0 - z[0]
    trajectory = [(0, pe)]
    converged = pe < cfg.convergence_tol
    monotone = True
    mass_ok = True
    iterations = 0

    for it in range(1, cfg.max_iters + 1):
        if converged:
            break
        w = _mix(z, chk)
        # renormalize: mass is conserved exactly in exact arithmetic, but
        # the per-multiset products amplify float drift exponentially
        w_sum = w.sum()
        if abs(w_sum - 1.0) > 1e-9:
            mass_ok = False
        w /= w_sum
        z = _variable_output(w, var, eps, field.q)
        z_sum = z.sum()
        if abs(z_sum - 1.0) > 1e-9:
            mass_ok = False
        z /= z_sum

        new_pe = 1.0 - z[0]
        trajectory.append((it, new_pe))
        iterations = it
        if new_pe > pe + 1e-12:
            monotone = False
        if new_pe < cfg.convergence_tol:
            converged = True
        elif cfg.fixed_point_tol > 0 and abs(new_pe - pe) < cfg.fixed_point_tol:
            break
        pe = new_pe

    if not mass_ok:
        warnings.warn("density evolution lost probability mass beyond 1e-9")
    if not monotone:
        warnings.warn("failure probability increased across an iteration")
    return DeResult(
        converged=converged,
        iterations=iterations,
        trajectory=trajectory,
        monotone=monotone,
        mass_ok=mass_ok,
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
