"""Stationary level distributions of bonus-malus chains.

A claim-free year moves exactly one level down, so each level chain is
skip-free to the left and the flow across the cut between levels ``l`` and
``l+1`` balances: ``pi[l+1] * p0 = sum_{i<=l} pi[i] * T[l+1-i]``.  The rows
follow level by level (GTH elimination for M/G/1-type chains), batched over
profiles, with no matrix and no linear solve.

A field holds these rows for every (risk class, run) profile of one rule.
A run is a maximal stretch of consecutive grid nodes on which the effects
the rule's chain reads are equal: ``theta1`` under a rule with equal steps,
which never reads claim sizes, and ``(theta1, theta2)`` under a sized rule.
So on a theta1-major ``n x n`` grid an equal-step field holds ``n`` rows per
class, and a sized field too where ``theta2`` is constant in each ``theta1``
block (a correlation of +-1, or no severity-effect variance).  Equal
profiles that are not adjacent, in one class or in two, are solved apart.

Rules of one shape, ``(max_level, small_step, large_step)``, differ only in
their threshold, which enters only through each profile's exceedance, so a
field pass solves several of them at once: their (rule, class) blocks are
grouped into solves of up to ``_PROFILES`` profiles.  A solve's memory grows
with its width, so each stage works in place where it can and drops an
array as soon as it is spent.
"""

from __future__ import annotations

import numpy as np

from ._distributions import _row_sum
from .errors import SingularSystemError
from .model import ModelSpec
from .quadrature import QuadratureGrid, severity_cdf
from .transition import jump_tails

# Profiles (class, run pairs) per stationary solve: whole (rule, class)
# blocks are grouped up to this many.  Wider solves run faster but raise peak
# memory: a solve holds a few dozen floats per profile, about 1.7 MB above the
# result for the 18-class dat field at 32 nodes (3.2 MB at 8,192 profiles).
_PROFILES = 4096


def _balance_residual(p0: np.ndarray, T: np.ndarray, pi: np.ndarray) -> float:
    """Largest entry of ``pi P - pi`` for the chains ``(p0, T)``; level-major arrays.

    Worked in place in ``flow``, of ``pi``'s size, and one scratch array of ``T``'s.
    """
    z = T.shape[0]
    flow, scratch = np.empty_like(pi), np.empty_like(T)
    np.multiply(pi[1:], p0, out=flow[:z])  # claim-free years move one level down
    flow[0] += p0 * pi[0]
    for g in range(1, z):  # jumps of exactly g levels that stay below the top
        flow[g:z] += np.multiply(pi[: z - g], T[g - 1] - T[g], out=scratch[: z - g])
    flow[z] = _row_sum(np.multiply(pi[:z], T[::-1], out=scratch))  # the top absorbs longer jumps
    flow[z] += pi[z] * T[0]
    flow -= pi
    return float(np.max(np.abs(flow, out=flow)))


def _stationary_batch(p0: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Stationary rows ``(N, z+1)`` of the chains with no-claim mass ``p0`` and jump tails ``T``.

    Level-major, in one array: row ``m`` holds ``pi[m]`` once level ``m`` is
    solved and, until then, the flow across the cut below level ``m`` from
    the levels solved so far, which is what ``pi[m]`` is solved from.  Each
    step rescales both by ``p0 / (p0 + flow)`` instead of dividing by
    ``p0``: nothing is subtracted, no mass goes below zero, and with only
    elementwise work a row does not depend on the batch.  A fixed-point
    residual above 1e-9 raises ``SingularSystemError``.
    """
    T = np.ascontiguousarray(T.T)
    z, n = T.shape
    pi = np.empty((z + 1, n))
    pi[0] = 1.0
    pi[1:] = T
    for lvl in range(z):
        total = p0 + pi[lvl + 1]
        scale = p0 / total
        pi[: lvl + 1] *= scale
        pi[lvl + 2 :] *= scale
        pi[lvl + 1] /= total
        pi[lvl + 2 :] += pi[lvl + 1] * T[: z - lvl - 1]
    pi /= _row_sum(pi)  # summed in level order whatever the batch
    residual = _balance_residual(p0, T, pi)
    if not np.isfinite(residual) or residual > 1e-9:
        raise SingularSystemError(f"stationary batch residual {residual!r} too large")
    return pi.T


def _run_starts(grid: QuadratureGrid, sized: bool) -> np.ndarray:
    """First node of each run of ``grid``: of each maximal stretch of equal effects.

    The effects are ``theta1`` alone, or ``(theta1, theta2)`` under a
    ``sized`` rule, whose chains read claim sizes too.  Equal values that are
    not adjacent start runs of their own.
    """
    new = grid.theta1[1:] != grid.theta1[:-1]
    if sized:
        new |= grid.theta2[1:] != grid.theta2[:-1]
    return np.flatnonzero(np.r_[True, new])


def _stationary_fields(model: ModelSpec, rules, grid: QuadratureGrid) -> np.ndarray:
    """Fields of several rules of one shape: ``(rules, classes, runs, levels)``.

    A profile is one class at one run (``_run_starts``) under one rule, and
    enters only through its claim mean and its exceedance.  Claim sizes
    matter only where large claims move further than small ones; a rule with
    equal steps, of either type, needs one chain per run of equal frequency
    effect, whatever its threshold.

    The (rule, class) blocks, rule-major, share solves, as many whole blocks
    as fit in ``_PROFILES`` profiles and never fewer than one: on a small grid
    the fixed cost of a call, not its width, sets the time.  A block is never
    split, since a grid of ``_PROFILES`` runs or more is wide enough alone and
    splitting it would only make two solves of one block.  Every step is
    elementwise per profile, so a row does not depend on which blocks share
    its solve.
    """
    rule = rules[0]
    freq_rates, sev_rates = model.portfolio.freq_rates, model.portfolio.sev_rates
    classes = freq_rates.size
    sized = rule.large_step > rule.small_step
    starts = _run_starts(grid, sized)
    theta1, theta2 = grid.theta1[starts], grid.theta2[starts]
    out = np.empty((len(rules), classes, starts.size, rule.levels))
    blocks = out.reshape(-1, starts.size, rule.levels)  # a view: rule-major (rule, class) blocks
    thresholds = np.array([r.threshold for r in rules]) if sized else None
    per_solve = max(_PROFILES // starts.size, 1)
    for start in range(0, len(blocks), per_solve):
        group = slice(start, start + per_solve)
        which, cls = np.divmod(np.arange(len(blocks))[group], classes)
        freq_means = np.outer(freq_rates[cls], theta1).ravel()
        exceed = np.zeros_like(freq_means)
        if sized:
            sev_means = np.outer(sev_rates[cls], theta2)
            exceed = severity_cdf(thresholds[which, None], sev_means, model.severity, upper=True)
            exceed = exceed.ravel()
        rows = blocks[group].reshape(-1, rule.levels)  # a view of the group's whole blocks
        rows[...] = _stationary_batch(*jump_tails(rule, freq_means, exceed))
    return out
