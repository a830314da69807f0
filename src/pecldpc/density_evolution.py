"""Density evolution on message-size distributions.

The asymptotic state of the set decoder is captured by two probability
vectors over message sizes 1..q: one for check-to-variable messages,
one for variable-to-check messages.  One iteration pushes the
variable-to-check vector through the check nodes (weighting each
multiset of incoming sizes by a sumset-size model) and back through the
variable nodes (weighting by the exact intersection-size law, with the
channel's M-set joining the intersection on an erasure event).

Each update is organized as (weights @ matrix) where the rows of the
matrix are the per-size-multiset output distributions; the matrices
depend only on (field, M, degree, model) and are built once per run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
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


def _multisets(max_size: int, k: int) -> list[tuple[int, ...]]:
    return list(combinations_with_replacement(range(1, max_size + 1), k))


def _weight_tables(max_size: int, k: int):
    """Exponent matrix and multinomial coefficients for all size
    multisets of k draws from 1..max_size."""
    tuples = _multisets(max_size, k)
    counts = np.zeros((len(tuples), max_size), dtype=np.int64)
    multinom = np.zeros(len(tuples))
    for r, t in enumerate(tuples):
        for s in t:
            counts[r, s - 1] += 1
        multinom[r] = factorial(k) // prod(factorial(int(c)) for c in counts[r] if c)
    return tuples, counts, multinom


def _check_matrices(field: GF, M: int, d_c: int, model: SumsetSizeModel):
    tuples, counts, multinom = _weight_tables(M, d_c - 1)
    pmat = np.stack([model.distribution(t, field) for t in tuples])
    return counts, multinom, pmat


def _variable_matrices(field: GF, M: int, d_v: int):
    q = field.q
    tuples, counts, multinom = _weight_tables(q, d_v - 1)
    qmat = np.zeros((len(tuples), q))
    for r, t in enumerate(tuples):
        dist = common_member_intersection_dist(sorted(t + (M,)), q)
        qmat[r, : len(dist) - 1] = dist[1:]
    return counts, multinom, qmat


def _apply(dist: np.ndarray, counts, multinom, mat) -> np.ndarray:
    weights = multinom * np.prod(dist[None, : counts.shape[1]] ** counts, axis=1)
    return weights @ mat


def check_update(
    z: np.ndarray, d_c: int, model: SumsetSizeModel, field: GF, M: int
) -> np.ndarray:
    """Size distribution of a check output given the incoming edge-size
    distribution z (supported on 1..M)."""
    if d_c < 2:
        raise ValueError("check degree must be at least 2")
    if z[M:].any():
        raise ValueError("variable-to-check sizes cannot exceed M")
    return _apply(z, *_check_matrices(field, M, d_c, model))


def variable_update(
    w: np.ndarray, d_v: int, channel: PartialErasureChannel
) -> np.ndarray:
    """Size distribution of a variable output given the incoming
    check-size distribution w."""
    if d_v < 2:
        raise ValueError("variable degree must be at least 2")
    field, M, eps = channel.field, channel.M, channel.epsilon
    z = np.zeros(field.q)
    z[0] = 1.0 - eps
    if eps > 0.0:
        z += eps * _apply(w, *_variable_matrices(field, M, d_v))
    return z


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

    chk = [
        (rho, _check_matrices(field, M, d, cfg.size_model))
        for d, rho in sorted(cfg.degrees.rho_coeffs.items())
    ]
    var = [
        (lam, _variable_matrices(field, M, d))
        for d, lam in sorted(cfg.degrees.lambda_coeffs.items())
    ]

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
        w = np.zeros(field.q)
        for rho, mats in chk:
            w += rho * _apply(z, *mats)
        # renormalize: mass is conserved exactly in exact arithmetic, but
        # the per-multiset products amplify float drift exponentially
        w_sum = w.sum()
        if abs(w_sum - 1.0) > 1e-9:
            mass_ok = False
        w /= w_sum
        z = np.zeros(field.q)
        z[0] = 1.0 - eps
        if eps > 0.0:
            for lam, mats in var:
                z += eps * lam * _apply(w, *mats)
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
    """
    # below 2**-52 the midpoint of two adjacent floats in [0, 1] is one
    # of them, so the bisection would never narrow to within tol_eps
    if not tol_eps >= 2.0**-52:
        raise ValueError(f"bisection tolerance must be at least 2**-52, got {tol_eps}")

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
