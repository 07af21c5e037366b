"""Stationary level distributions of bonus-malus chains.

Every stationary row solves the all-ones rank correction of ``I - P`` (one
linear solve, no matrix inversion), batched over transition matrices.  The
conditional field holds one row per (risk class, quadrature node) pair.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import SingularSystemError
from .model import ModelSpec, SeverityRule
from .quadrature import QuadratureGrid
from .transition import build_matrices, exceedance_profile

COND_WARN = 1e12
RESIDUAL_TOL = 1e-10


def _stationary_batch(Ps: np.ndarray) -> np.ndarray:
    """Solve the stationary system for a stack of transition matrices."""
    n = Ps.shape[-1]
    A = np.eye(n)[None, :, :] - Ps + 1.0
    try:
        rhs = np.ones((Ps.shape[0], n, 1))
        pis = np.linalg.solve(np.swapaxes(A, -1, -2), rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary batch solve failed: {exc}") from exc
    residual = np.max(np.abs(np.einsum("nij,ni->nj", Ps, pis) - pis))
    if not np.isfinite(residual) or residual > 1e-9:
        raise SingularSystemError(f"stationary batch residual {residual!r} too large")
    return pis


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic level chain.

    Warns when the rank-corrected system is ill-conditioned and rejects a
    solution whose fixed-point residual exceeds 1e-10.
    """
    P = np.asarray(P, dtype=float)
    rows = P.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > 1e-9 or np.min(P) < -1e-15:
        raise ValueError("matrix is not row-stochastic")
    A = np.eye(P.shape[0]) - P + 1.0
    cond = np.linalg.cond(A)
    if cond > COND_WARN:
        warnings.warn(
            f"stationary system condition number {cond:.3g} exceeds {COND_WARN:.0e}",
            RuntimeWarning,
            stacklevel=2,
        )
    pi = _stationary_batch(P[None])[0]
    residual = np.max(np.abs(pi @ P - pi))
    if not np.isfinite(residual) or residual > RESIDUAL_TOL:
        raise SingularSystemError(
            f"stationary residual {residual!r} exceeds {RESIDUAL_TOL}; chain is not unichain"
        )
    return pi


def conditional_stationary_field(
    model: ModelSpec, rule, grid: QuadratureGrid
) -> np.ndarray:
    """Stationary rows for every (risk class, quadrature node) pair.

    Returns an array of shape ``(classes, grid.size, levels)``.  A node
    enters only through its claim mean and its exceedance (zero under a
    frequency rule), so equal (mean, exceedance) pairs are solved once: a
    frequency rule needs one solve per distinct frequency effect.
    """
    classes = model.portfolio.classes
    out = np.empty((len(classes), grid.size, rule.levels))
    for ci, cls in enumerate(classes):
        freq_means = cls.freq_rate * grid.theta1
        if isinstance(rule, SeverityRule):
            exceed = exceedance_profile(rule.threshold, cls.sev_rate * grid.theta2, model.severity)
        else:
            exceed = np.zeros_like(freq_means)
        profiles, inverse = np.unique(
            np.column_stack([freq_means, exceed]), axis=0, return_inverse=True
        )
        Ps = build_matrices(rule, profiles[:, 0], profiles[:, 1])
        out[ci] = _stationary_batch(Ps)[inverse]
    return out
