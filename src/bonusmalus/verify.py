"""Oracle agreement: analytic results versus the seeded simulator.

For one rule, ``check_rule`` computes the analytic stationary level
distribution, optimal relativities, and score, simulates the same model, and
requires agreement within three standard errors everywhere.  A deliberately
perturbed relativity table must fail, which the negative-control hook makes
testable.  The ``verify`` verb runs it once per configured rule.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOccupancyError, ModelValidationError
from .hmse import hmse_eval
from .model import BmsRule, ModelSpec, SeverityRule, _instance, _number
from .relativity import RelativityTable, _tables
from .simulate import (
    SimConfig,
    SimSummary,
    empirical_relativity,
    hmse_empirical,
    simulate_paths,
)

SIGMAS = 3.0


@dataclass(frozen=True)
class OracleCheck:
    """Agreement result for one rule configuration."""

    label: str
    failures: tuple[str, ...]
    level_gap_sigmas: float
    relativity_gap_sigmas: float
    hmse_gap_sigmas: float
    analytic: RelativityTable
    summary: SimSummary

    @property
    def passed(self) -> bool:
        return not self.failures


def check_rule(
    model: ModelSpec,
    rule,
    n_paths: int = 1_000_000,
    seed: int = 20260809,
    nodes: int = 64,
    burn_in_years: int = 120,
    perturb: dict[int, float] | None = None,
) -> OracleCheck:
    """Run one analytic-versus-simulation comparison.

    ``perturb`` adds offsets to the analytic relativities before comparison
    (negative control); the check is expected to fail then.  Its keys must be
    levels, whole numbers in ``[0, max_level]``, and its values numbers.
    """
    _instance(model, ModelSpec, "model")
    _instance(rule, BmsRule, "rule")
    perturb = _instance({} if perturb is None else perturb, Mapping, "perturb")
    perturb = dict(_perturbation(rule, lvl, delta) for lvl, delta in perturb.items())
    if _number(n_paths, "n_paths", whole=True) < 100_000:
        raise ModelValidationError("oracle comparisons need at least 1e5 paths")
    if _number(burn_in_years, "burn_in_years", whole=True) < 100:
        raise ModelValidationError("stationary estimates need at least 100 burn-in years")
    (table,) = _tables(model, [rule], nodes)
    relativities = table.relativities.copy()
    for lvl, delta in perturb.items():
        relativities[lvl] += delta
    analytic_levels = table.stationary
    analytic_hmse = hmse_eval(model, relativities, rule, nodes).hmse_raw

    summary = simulate_paths(
        SimConfig(model, rule, n_paths, seed, burn_in_years=burn_in_years)
    )
    failures: list[str] = []

    emp_levels = summary.level_distribution
    # A level no path visits has an empirical error of 0: take its analytic mass's binomial one.
    unseen_se = np.sqrt(analytic_levels * (1.0 - analytic_levels) / summary.counts.sum())
    level_se = np.maximum(np.where(summary.counts > 0, summary.level_se, unseen_se), 1e-15)
    level_sigmas = np.abs(emp_levels - analytic_levels) / level_se
    if not np.max(level_sigmas) <= SIGMAS:  # a NaN gap fails too
        worst = int(np.argmax(level_sigmas))
        failures.append(
            f"level distribution off at level {worst}: "
            f"analytic {analytic_levels[worst]:.6f} vs simulated {emp_levels[worst]:.6f} "
            f"({level_sigmas.max():.2f} sigma)"
        )

    rel_sigmas = 0.0
    try:
        emp_r, emp_se = empirical_relativity(summary)
    except InsufficientOccupancyError:
        failures.append("some levels under-visited; relativity comparison skipped")
    else:
        emp_se = np.maximum(emp_se, 1e-15)
        gaps = np.abs(np.nan_to_num(relativities, nan=0.0) - emp_r) / emp_se
        rel_sigmas = float(np.max(gaps))
        if not rel_sigmas <= SIGMAS:
            worst = int(np.argmax(gaps))
            failures.append(
                f"relativity off at level {worst}: analytic {relativities[worst]:.6f} "
                f"vs simulated {emp_r[worst]:.6f} ({rel_sigmas:.2f} sigma)"
            )

    emp_hmse, emp_hmse_se = hmse_empirical(summary, relativities)
    hmse_sigmas = abs(emp_hmse - analytic_hmse) / max(emp_hmse_se, 1e-300)
    if not hmse_sigmas <= SIGMAS:
        failures.append(
            f"score off: analytic {analytic_hmse:.6e} vs simulated {emp_hmse:.6e} "
            f"({hmse_sigmas:.2f} sigma)"
        )

    return OracleCheck(
        _rule_label(rule),
        tuple(failures),
        float(np.max(level_sigmas)),
        rel_sigmas,
        float(hmse_sigmas),
        table,
        summary,
    )


def _perturbation(rule, level, delta) -> tuple[int, float]:
    """A level of ``rule`` and a number to add to its relativity."""
    try:
        whole = _number(level, "perturb", whole=True)
    except ModelValidationError:
        whole = None
    if whole is None or not 0 <= whole <= rule.max_level:
        raise ModelValidationError(
            f"perturbed level {level!r} is not a level in [0, {rule.max_level}]"
        )
    return whole, _number(delta, "perturb")


def _rule_label(rule) -> str:
    if isinstance(rule, SeverityRule):
        return (
            f"-1/+{rule.small_step}/+{rule.large_step} at threshold {rule.threshold:g}"
        )
    return f"-1/+{rule.step}"
