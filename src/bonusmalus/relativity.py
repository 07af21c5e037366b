"""Optimal per-level relativities for bonus-malus premiums.

The premium of a policyholder in class ``k`` at level ``l`` is the a priori
premium times the level's relativity.  The optimal relativity minimizes the
expected squared distance between the premium and the policyholder's
conditional mean loss in steady state; it equals a ratio of premium-weighted
conditional moments of the random effects given the occupied level.

Three families are provided:

* ``optimal_relativity_frequency`` -- frequency-driven chain, frequency
  premium target (relativity predicts the frequency effect).
* ``optimal_relativity_dependent`` -- frequency-driven chain, aggregate-loss
  premium target; claim-size information enters only through the dependence
  between the two effects.
* ``optimal_relativity_severity`` -- severity-aware chain, aggregate-loss
  premium target; the level itself carries claim-size history.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LevelMismatchError
from .model import BmsRule, FreqRule, ModelSpec, SeverityRule
from .quadrature import DEFAULT_NODES, QuadratureGrid, build_grid, marginal_grid
from .stationary import conditional_stationary_field

MASS_FLOOR = 1e-14


@dataclass(frozen=True)
class RelativityTable:
    """Per-level relativities with their stationary distribution and score.

    ``relativities`` holds NaN at levels whose stationary mass is below
    1e-14 (the conditional moment there is undefined, not zero).
    """

    rule: BmsRule
    relativities: np.ndarray
    stationary: np.ndarray
    hmse_raw: float
    hmse_normalized: float
    family: str
    nodes: int

    @property
    def threshold(self) -> float | None:
        return self.rule.threshold if isinstance(self.rule, SeverityRule) else None

    @property
    def undefined_levels(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(~np.isfinite(self.relativities)))

    def scoring_relativities(self) -> np.ndarray:
        """Relativities with undefined levels zeroed for mass-weighted sums."""
        return np.nan_to_num(self.relativities, nan=0.0)


@dataclass(frozen=True)
class BalanceReport:
    """Normal-equation residuals of a relativity table.

    ``level_residuals`` are the premium-weighted conditional residuals of the
    target given each occupied level; ``global_lhs``/``global_rhs`` compare
    the premium collected against the expected loss over the whole portfolio.
    """

    level_residuals: np.ndarray
    global_lhs: float
    global_rhs: float

    @property
    def max_level_residual(self) -> float:
        finite = self.level_residuals[np.isfinite(self.level_residuals)]
        return float(np.max(np.abs(finite))) if finite.size else 0.0

    @property
    def global_gap(self) -> float:
        return abs(self.global_lhs - self.global_rhs)


@dataclass(frozen=True)
class _MomentField:
    """Per-level moment accumulators shared by relativity and score code.

    ``mass[l]``    -- P(L = l)
    ``prem_sq[l]`` -- E[premium_factor^2 ; L = l]
    ``target[l]``  -- E[premium_factor^2 * target ; L = l]
    ``second[l]``  -- E[premium_factor^2 * target^2 ; L = l]

    where the premium factor is the family's a priori rate (the frequency
    rate, or frequency times severity rate) and the target is the effect, or
    effect product, the relativity should track.
    """

    mass: np.ndarray
    prem_sq: np.ndarray
    target: np.ndarray
    second: np.ndarray
    norm: float


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=16)
def _joint_stationary(model: ModelSpec, rule: BmsRule, nodes: int):
    """Joint grid plus stationary rows per (class, node); cached across calls.

    Threshold scans and score evaluations hit the same (model, rule, nodes)
    keys repeatedly; the linear solves dominate cost and are reused here.
    The returned arrays are read-only, since every caller shares them.
    """
    grid = build_grid(model.effects, nodes)
    field = conditional_stationary_field(model, rule, grid)
    _read_only(grid.theta1, grid.theta2, grid.weights, field)
    return grid, field


@lru_cache(maxsize=128)
def _moment_field(model: ModelSpec, rule: BmsRule, nodes: int, family: str) -> _MomentField:
    """Per-level moments of one relativity family; cached, with read-only arrays.

    The ``"frequency"`` family targets the frequency effect with premium
    factor ``freq_rate**2`` and integrates over the frequency marginal alone,
    held as a grid whose severity effect is 1 (so the effect product is the
    frequency effect exactly).  The ``"aggregate"`` family targets the effect
    product with premium factor ``(freq_rate * sev_rate)**2`` on the joint grid.
    """
    if family == "frequency":
        theta1, w1 = marginal_grid(model.effects, 1, nodes)
        grid = QuadratureGrid(theta1, np.ones_like(theta1), w1, "frequency-marginal", nodes)
        field = conditional_stationary_field(model, rule, grid)
    else:
        grid, field = _joint_stationary(model, rule, nodes)
    prod = grid.theta1 * grid.theta2
    levels = rule.levels
    mass = np.zeros(levels)
    prem = np.zeros(levels)
    target = np.zeros(levels)
    second = np.zeros(levels)
    norm = 0.0
    for ci, cls in enumerate(model.portfolio.classes):
        rate = cls.freq_rate if family == "frequency" else cls.freq_rate * cls.sev_rate
        lam_sq = rate**2
        pis = field[ci]
        mass += cls.weight * (grid.weights @ pis)
        prem += cls.weight * lam_sq * (grid.weights @ pis)
        target += cls.weight * lam_sq * ((grid.weights * prod) @ pis)
        second += cls.weight * lam_sq * ((grid.weights * prod**2) @ pis)
        norm += cls.weight * lam_sq
    _read_only(mass, prem, target, second)
    return _MomentField(mass, prem, target, second, norm)


def unconditional_level_distribution(
    model: ModelSpec, rule: BmsRule, nodes: int = DEFAULT_NODES
) -> np.ndarray:
    """Level distribution of a randomly drawn policyholder in steady state.

    Frequency-driven rules integrate over the frequency effect marginal only;
    severity-aware rules require the full joint grid.  Read-only.
    """
    family = "frequency" if isinstance(rule, FreqRule) else "aggregate"
    return _moment_field(model, rule, nodes, family).mass


def _ratio(field: _MomentField) -> np.ndarray:
    defined = field.mass > MASS_FLOOR
    r = np.full(field.mass.shape, np.nan)
    r[defined] = field.target[defined] / field.prem_sq[defined]
    return r


def _hmse_from_field(field: _MomentField, relativities: np.ndarray) -> tuple[float, float]:
    r = np.nan_to_num(relativities, nan=0.0)
    # A mean square; near-degenerate effects cancel it to roundoff of either sign.
    raw = max(float(np.sum(field.second - 2.0 * r * field.target + r**2 * field.prem_sq)), 0.0)
    return raw, raw / field.norm


def optimal_relativity_frequency(
    model: ModelSpec, rule: FreqRule, nodes: int = DEFAULT_NODES
) -> RelativityTable:
    """Optimal relativities targeting next-year claim frequency.

    The table's score is the squared-error of the frequency target (claims
    squared), normalized by the mean squared frequency rate; aggregate-loss
    scores for such a table come from ``hmse_eval``.
    """
    if not isinstance(rule, FreqRule):
        raise LevelMismatchError("frequency relativities require a frequency-driven rule")
    field = _moment_field(model, rule, nodes, "frequency")
    r = _ratio(field)
    raw, normalized = _hmse_from_field(field, r)
    return RelativityTable(rule, r, field.mass, raw, normalized, "frequency", nodes)


def optimal_relativity_dependent(
    model: ModelSpec, rule: FreqRule, nodes: int = DEFAULT_NODES
) -> RelativityTable:
    """Optimal aggregate-loss relativities under a frequency-driven chain."""
    if not isinstance(rule, FreqRule):
        raise LevelMismatchError("the dependence-adjusted family requires a frequency-driven rule")
    field = _moment_field(model, rule, nodes, "aggregate")
    r = _ratio(field)
    raw, normalized = _hmse_from_field(field, r)
    return RelativityTable(rule, r, field.mass, raw, normalized, "aggregate", nodes)


def optimal_relativity_severity(
    model: ModelSpec, rule: SeverityRule, nodes: int = DEFAULT_NODES
) -> RelativityTable:
    """Optimal aggregate-loss relativities under a severity-aware chain."""
    if not isinstance(rule, SeverityRule):
        raise LevelMismatchError("the severity family requires a severity-aware rule")
    field = _moment_field(model, rule, nodes, "aggregate")
    r = _ratio(field)
    raw, normalized = _hmse_from_field(field, r)
    return RelativityTable(rule, r, field.mass, raw, normalized, "aggregate", nodes)


def balance_check(model: ModelSpec, table: RelativityTable) -> BalanceReport:
    """Normal-equation residuals of a computed table.

    At the optimum every defined level has zero premium-weighted residual and
    the portfolio-level premium identity holds up to quadrature roundoff.
    """
    field = _moment_field(model, table.rule, table.nodes, table.family)
    defined = field.mass > MASS_FLOOR
    residuals = np.full(field.mass.shape, np.nan)
    r = table.scoring_relativities()
    residuals[defined] = (field.target[defined] - r[defined] * field.prem_sq[defined]) / field.mass[
        defined
    ]
    global_lhs = float(np.sum(r * field.prem_sq))
    global_rhs = float(np.sum(field.target))
    return BalanceReport(residuals, global_lhs, global_rhs)
