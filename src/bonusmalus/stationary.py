"""Stationary level distributions of bonus-malus chains.

A claim-free year moves exactly one level down, so each level chain is
skip-free to the left and the flow across the cut between levels ``l`` and
``l+1`` balances: ``pi[l+1] * p0 = sum_{i<=l} pi[i] * T[l+1-i]``.  The rows
follow level by level (GTH elimination for M/G/1-type chains), batched over
profiles, with no matrix and no linear solve.

A field holds these rows for every (risk class, quadrature node) profile of
one rule.  Rules of one shape, ``(max_level, small_step, large_step)``,
differ only in their threshold, which enters only through each profile's
exceedance, so a field pass solves several of them at once: their (rule,
class) blocks are grouped into solves of up to ``_PROFILES`` profiles.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError
from .model import BmsRule, ModelSpec, _instance
from .quadrature import QuadratureGrid, severity_cdf
from .transition import jump_tails

# Profiles (class, node pairs) per stationary solve: whole (rule, class)
# blocks are grouped up to this many.  Wider solves run faster but raise peak
# memory.
_PROFILES = 2048


def _balance_residual(p0: np.ndarray, T: np.ndarray, pi: np.ndarray) -> float:
    """Largest entry of ``pi P - pi`` for the chains ``(p0, T)``; level-major arrays."""
    z = T.shape[0]
    flow = np.zeros_like(pi)
    flow[:z] = p0 * pi[1:]  # claim-free years move one level down
    flow[0] += p0 * pi[0]
    for g in range(1, z):  # jumps of exactly g levels that stay below the top
        flow[g:z] += pi[: z - g] * (T[g - 1] - T[g])
    flow[z] = (pi[:z] * T[::-1]).sum(axis=0) + pi[z] * T[0]  # the top absorbs longer jumps
    return float(np.max(np.abs(flow - pi)))


def _stationary_batch(p0: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Stationary rows ``(N, z+1)`` of the chains with no-claim mass ``p0`` and jump tails ``T``.

    Level-major: ``up[m-1]`` holds the flow across the cut below level ``m``
    from the levels solved so far.  Each step rescales both by ``p0 / (p0 + up)``
    instead of dividing by ``p0``: nothing is subtracted, no mass goes below
    zero, and with only elementwise work a row does not depend on the batch.
    A fixed-point residual above 1e-9 raises ``SingularSystemError``.
    """
    T = np.ascontiguousarray(T.T)
    z, n = T.shape
    pi = np.zeros((z + 1, n))
    pi[0] = 1.0
    up = T.copy()
    for lvl in range(z):
        total = p0 + up[lvl]
        scale = p0 / total
        pi[: lvl + 1] *= scale
        up[lvl + 1 :] *= scale
        pi[lvl + 1] = up[lvl] / total
        up[lvl + 1 :] += pi[lvl + 1] * T[: z - lvl - 1]
    pi /= np.add.accumulate(pi)[-1]  # summed in level order whatever the batch
    residual = _balance_residual(p0, T, pi)
    if not np.isfinite(residual) or residual > 1e-9:
        raise SingularSystemError(f"stationary batch residual {residual!r} too large")
    return pi.T


def conditional_stationary_field(
    model: ModelSpec, rule, grid: QuadratureGrid
) -> np.ndarray:
    """Stationary rows for every (risk class, quadrature node) pair.

    Returns an array of shape ``(classes, grid.size, levels)``: the one-rule
    field pass of ``_stationary_fields``.
    """
    _instance(model, ModelSpec, "model")
    _instance(rule, BmsRule, "rule")
    _instance(grid, QuadratureGrid, "grid")
    return _stationary_fields(model, [rule], grid)[0]


def _stationary_fields(model: ModelSpec, rules, grid: QuadratureGrid) -> np.ndarray:
    """Fields of several rules of one shape: ``(rules, classes, grid.size, levels)``.

    A profile is one class at one node under one rule, and enters only
    through its claim mean and its exceedance, so equal (mean, exceedance)
    pairs are solved once.  Claim sizes matter only where large claims move
    further than small ones; a rule with equal steps, of either type, needs
    one chain per distinct frequency effect, whatever its threshold.

    The (rule, class) blocks, rule-major, share solves, as many whole blocks
    as fit in ``_PROFILES`` profiles and never fewer than one: on a small grid
    the fixed cost of a call, not its width, sets the time.  A block is never
    split, since a grid of ``_PROFILES`` nodes or more is wide enough alone and
    splitting it would only make two solves of one block.  Every step is
    elementwise per profile, so a row does not depend on which blocks share
    its solve.
    """
    rule = rules[0]
    freq_rates, sev_rates = model.portfolio.freq_rates, model.portfolio.sev_rates
    classes = freq_rates.size
    out = np.empty((len(rules), classes, grid.size, rule.levels))
    blocks = out.reshape(-1, grid.size, rule.levels)  # a view: rule-major (rule, class) blocks
    sized = rule.large_step > rule.small_step
    thresholds = np.array([r.threshold for r in rules]) if sized else None
    per_solve = max(_PROFILES // grid.size, 1)
    for start in range(0, len(blocks), per_solve):
        group = slice(start, start + per_solve)
        which, cls = np.divmod(np.arange(len(blocks))[group], classes)
        freq_means = np.outer(freq_rates[cls], grid.theta1).ravel()
        exceed, keys = np.zeros_like(freq_means), freq_means
        if sized:
            sev_means = np.outer(sev_rates[cls], grid.theta2)
            exceed = severity_cdf(thresholds[which, None], sev_means, model.severity, upper=True)
            exceed = exceed.ravel()
            keys = freq_means + 1j * exceed  # one sort key per (mean, exceedance)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        p0, T = jump_tails(rule, freq_means[first], exceed[first])
        blocks[group] = _stationary_batch(p0, T)[inverse].reshape(-1, grid.size, rule.levels)
    return out
