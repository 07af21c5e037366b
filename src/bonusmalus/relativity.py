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

All three integrate over the same joint effect law: one stationary field per
(model, rule, node count) serves every family, which differ only in the
target they track and in their premium factor.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ModelValidationError
from .model import BmsRule, FreqRule, ModelSpec, SeverityRule, _instance, _number
from .quadrature import DEFAULT_NODES, QuadratureGrid, _read_only, build_grid
from .stationary import _PROFILES, _stationary_fields, conditional_stationary_field

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


# Stationary fields by (model, rule, nodes), least recently used first.  A
# field pass fills several entries at once, so the cache is kept here rather
# than by ``lru_cache``.
_FIELDS: OrderedDict = OrderedDict()
_FIELDS_KEPT = 16


@lru_cache(maxsize=16)
def _grid(effects, nodes: int) -> QuadratureGrid:
    """The read-only joint grid every field of ``(effects, nodes)`` shares."""
    grid = build_grid(effects, nodes)
    _read_only(grid.theta1, grid.theta2, grid.weights)
    return grid


def _shape(rule: BmsRule) -> tuple[int, int, int]:
    return rule.max_level, rule.small_step, rule.large_step


def _keep(model: ModelSpec, rule: BmsRule, nodes: int, field: np.ndarray) -> None:
    _read_only(field)
    _FIELDS[model, rule, nodes] = field
    if len(_FIELDS) > _FIELDS_KEPT:
        _FIELDS.popitem(last=False)


def _fields_for(model: ModelSpec, rules: list, nodes: int):
    """Yield ``rules`` in order, each once its stationary field is cached.

    A rule whose field is missing is solved in one field pass with the next
    missing rules of its shape, as many as one solve's ``_PROFILES`` profiles
    hold and no more than the cache keeps, so a pass holds no more at once
    than one solve.  Threshold scans, rule grids and the table verbs ask for
    all their rules this way.
    """
    _instance(model, ModelSpec, "model")
    nodes = _number(nodes, "nodes", whole=True)
    grid = _grid(model.effects, nodes)
    per_pass = max(_PROFILES // (model.portfolio.freq_rates.size * grid.size), 1)
    per_pass = min(per_pass, _FIELDS_KEPT)
    for i, rule in enumerate(rules):
        if (model, rule, nodes) not in _FIELDS:
            batch = [
                later
                for later in dict.fromkeys(rules[i:])
                if _shape(later) == _shape(rule) and (model, later, nodes) not in _FIELDS
            ][:per_pass]
            for solved, field in zip(batch, _stationary_fields(model, batch, grid)):
                _keep(model, solved, nodes, field)
        yield rule


def _joint_stationary(model: ModelSpec, rule: BmsRule, nodes: int):
    """Joint grid plus stationary rows per (class, node); cached across calls.

    Threshold scans and score evaluations hit the same (model, rule, nodes)
    keys repeatedly; the stationary rows dominate cost and are reused here.
    The returned arrays are read-only, since every caller shares them.
    """
    key = (model, rule, nodes)
    grid = _grid(model.effects, nodes)
    if key not in _FIELDS:
        _keep(model, rule, nodes, conditional_stationary_field(model, rule, grid))
    _FIELDS.move_to_end(key)
    return grid, _FIELDS[key]


@lru_cache(maxsize=128)
def _moment_field(model: ModelSpec, rule: BmsRule, nodes: int, family: str) -> _MomentField:
    """Per-level moments of one relativity family; cached, with read-only arrays.

    Every family reads the one joint stationary field of ``(model, rule,
    nodes)`` and contracts it over nodes, then classes, with no loop.  The
    ``"frequency"`` family targets the frequency effect with premium factor
    ``freq_rate**2``; the ``"aggregate"`` family targets the effect product
    with premium factor ``(freq_rate * sev_rate)**2``.
    """
    grid, field = _joint_stationary(model, rule, nodes)
    portfolio = model.portfolio
    if family == "frequency":
        target, rate = grid.theta1, portfolio.freq_rates
    else:
        target, rate = grid.theta1 * grid.theta2, portfolio.freq_rates * portfolio.sev_rates
    prem_sq = portfolio.weights * rate**2
    w = grid.weights
    by_class = np.stack([w, w * target, w * target**2]) @ field  # (class, moment, level)
    mass = portfolio.weights @ by_class[:, 0]
    prem, first, second = np.tensordot(prem_sq, by_class, axes=1)
    _read_only(mass, prem, first, second)
    return _MomentField(mass, prem, first, second, float(np.sum(prem_sq)))


def unconditional_level_distribution(
    model: ModelSpec, rule: BmsRule, nodes: int = DEFAULT_NODES
) -> np.ndarray:
    """Level distribution of a randomly drawn policyholder in steady state.

    The mass of the joint stationary field; every relativity table of
    ``(model, rule, nodes)`` carries these values as ``stationary``.  Read-only.
    """
    _instance(model, ModelSpec, "model")
    _instance(rule, BmsRule, "rule")
    return _moment_field(model, rule, _number(nodes, "nodes", whole=True), "aggregate").mass


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


def _table(model: ModelSpec, rule: BmsRule, nodes: int, family: str) -> RelativityTable:
    _instance(model, ModelSpec, "model")
    nodes = _number(nodes, "nodes", whole=True)
    field = _moment_field(model, rule, nodes, family)
    r = _ratio(field)
    raw, normalized = _hmse_from_field(field, r)
    return RelativityTable(rule, r, field.mass, raw, normalized, family, nodes)


def optimal_relativity_frequency(
    model: ModelSpec, rule: FreqRule, nodes: int = DEFAULT_NODES
) -> RelativityTable:
    """Optimal relativities targeting next-year claim frequency.

    The table's score is the squared-error of the frequency target (claims
    squared), normalized by the mean squared frequency rate; aggregate-loss
    scores for such a table come from ``hmse_eval``.
    """
    if not isinstance(rule, FreqRule):
        raise ModelValidationError("frequency relativities require a frequency-driven rule")
    return _table(model, rule, nodes, "frequency")


def optimal_relativity_dependent(
    model: ModelSpec, rule: FreqRule, nodes: int = DEFAULT_NODES
) -> RelativityTable:
    """Optimal aggregate-loss relativities under a frequency-driven chain."""
    if not isinstance(rule, FreqRule):
        raise ModelValidationError(
            "the dependence-adjusted family requires a frequency-driven rule"
        )
    return _table(model, rule, nodes, "aggregate")


def optimal_relativity_severity(
    model: ModelSpec, rule: SeverityRule, nodes: int = DEFAULT_NODES
) -> RelativityTable:
    """Optimal aggregate-loss relativities under a severity-aware chain."""
    if not isinstance(rule, SeverityRule):
        raise ModelValidationError("the severity family requires a severity-aware rule")
    return _table(model, rule, nodes, "aggregate")


def balance_check(model: ModelSpec, table: RelativityTable) -> BalanceReport:
    """Normal-equation residuals of a computed table.

    At the optimum every defined level has zero premium-weighted residual and
    the portfolio-level premium identity holds up to quadrature roundoff.
    """
    _instance(model, ModelSpec, "model")
    _instance(table, RelativityTable, "table")
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
