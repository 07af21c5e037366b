"""Domain model for bonus-malus analysis under a bivariate random-effect risk model.

A policyholder is described by an a priori risk class (expected claim frequency
and expected claim size) and a pair of unobserved mean-one multipliers
``(theta1, theta2)`` acting on frequency and severity respectively.  The joint
law of the multipliers induces dependence between claim counts and claim sizes.

All types here are immutable after validation and safe to share across
concurrent workers.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .errors import (
    InconsistentHistoryError,
    InvalidRuleError,
    ModelValidationError,
    NonUnitEffectMeanError,
    NonUnitWeightsError,
)

WEIGHT_SUM_TOL = 1e-9
EFFECT_MEAN_TOL = 1e-8
MIXTURE_MEAN_TOL = 1e-12
MAX_CLAIM_COUNT = 2**53


@dataclass(frozen=True)
class RiskClass:
    """One a priori risk class.

    Parameters
    ----------
    weight : float
        Portfolio share of the class, in (0, 1].
    freq_rate : float
        Expected claims per year before the frequency effect.
    sev_rate : float
        Expected claim size (currency units) before the severity effect.
    """

    weight: float
    freq_rate: float
    sev_rate: float


@dataclass(frozen=True)
class Portfolio:
    """Non-empty ordered collection of risk classes with weights summing to one."""

    classes: tuple[RiskClass, ...]

    def __init__(self, classes) -> None:
        object.__setattr__(self, "classes", tuple(classes))

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.classes])

    @property
    def freq_rates(self) -> np.ndarray:
        return np.array([c.freq_rate for c in self.classes])

    @property
    def sev_rates(self) -> np.ndarray:
        return np.array([c.sev_rate for c in self.classes])


@dataclass(frozen=True)
class GammaSeverity:
    """Gamma claim sizes in mean parameterization.

    The shape is ``1 / dispersion`` and the rate ``shape / mean`` so that the
    conditional mean is ``sev_rate * theta2`` for every effect value.
    """

    dispersion: float

    @property
    def shape(self) -> float:
        return 1.0 / self.dispersion


@dataclass(frozen=True)
class PoissonSeverity:
    """Integer claim sizes, Poisson with conditional mean ``sev_rate * theta2``.

    Used by the closed-form credibility model; the compound of Poisson counts
    with Poisson sizes is the classical Neyman type A aggregate.
    """

    kind: str = field(default="poisson", init=False)


SeverityLaw = Union[GammaSeverity, PoissonSeverity]


@dataclass(frozen=True)
class LognormalCopulaEffects:
    """Lognormal effect marginals joined by a Gaussian copula.

    Each marginal is lognormal with log-variance ``log_var_i`` and log-mean
    ``-log_var_i / 2`` so its mean is exactly one.  ``corr`` is the
    correlation of the latent bivariate normal.  A zero log-variance collapses
    that marginal to the constant 1.
    """

    corr: float
    log_var1: float
    log_var2: float


@dataclass(frozen=True)
class MixtureExponentialEffects:
    """Two-component mixture of products of identical exponentials.

    With probability ``weight1`` both effects are independent exponentials
    with rate ``rate1``, otherwise with rate ``rate2``.  Marginal means equal
    one when ``weight1 / rate1 + (1 - weight1) / rate2 == 1``; unconditionally
    the two effects are positively dependent for interior ``weight1``.
    """

    weight1: float
    rate1: float
    rate2: float

    def marginal_mean(self) -> float:
        return self.weight1 / self.rate1 + (1.0 - self.weight1) / self.rate2


@dataclass(frozen=True)
class DegenerateEffects:
    """Both effects identically one (no residual heterogeneity)."""


RandomEffectJoint = Union[LognormalCopulaEffects, MixtureExponentialEffects, DegenerateEffects]


@dataclass(frozen=True)
class FreqRule:
    """Frequency-driven transition rule: down 1 per claim-free year, up ``step`` per claim."""

    max_level: int
    step: int

    @property
    def levels(self) -> int:
        return self.max_level + 1


@dataclass(frozen=True)
class SeverityRule:
    """Severity-aware transition rule with a claim-size threshold.

    A claim-free year moves one level down.  Each claim of size at most
    ``threshold`` moves ``small_step`` levels up, each larger claim
    ``large_step`` levels up, capped at ``max_level``.
    """

    max_level: int
    small_step: int
    large_step: int
    threshold: float

    @property
    def levels(self) -> int:
        return self.max_level + 1

    def with_threshold(self, threshold: float) -> "SeverityRule":
        return replace(self, threshold=threshold)


BmsRule = Union[FreqRule, SeverityRule]


@dataclass(frozen=True)
class ClaimHistory:
    """Observed per-year claim counts and, optionally, aggregate severities.

    Counts must be whole numbers in [0, 2**53] (exact in floating point) and
    aggregates finite non-negative numbers; anything else, booleans and
    strings included, raises ``InconsistentHistoryError`` on construction.
    ``validate`` checks that the two sequences agree.
    """

    counts: tuple[int, ...]
    aggregates: tuple[float, ...] | None = None

    def __init__(self, counts, aggregates=None) -> None:
        counts = tuple(_history_entry(n, whole=True) for n in counts)
        if aggregates is not None:
            aggregates = tuple(_history_entry(s, whole=False) for s in aggregates)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "aggregates", aggregates)

    @property
    def years(self) -> int:
        return len(self.counts)

    @property
    def total_count(self) -> int:
        return sum(self.counts)

    @property
    def total_aggregate(self) -> float:
        if self.aggregates is None:
            raise InconsistentHistoryError("history carries no aggregate severities")
        return sum(self.aggregates)

    def validate(self) -> "ClaimHistory":
        if self.aggregates is not None:
            if len(self.aggregates) != len(self.counts):
                raise InconsistentHistoryError("counts and aggregates differ in length")
            for t, (n, s) in enumerate(zip(self.counts, self.aggregates)):
                if n == 0 and s > 0:
                    raise InconsistentHistoryError(
                        f"year {t + 1} has no claims but positive aggregate severity"
                    )
            if not math.isfinite(self.total_aggregate):
                raise InconsistentHistoryError("aggregate severities overflow when summed")
        return self


def _history_entry(value, whole: bool):
    """A claim count (``whole``) or an aggregate severity, checked and converted."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not 0 <= value <= (MAX_CLAIM_COUNT if whole else sys.float_info.max)
        or (whole and value != int(value))
    ):
        raise InconsistentHistoryError(
            f"claim count {value!r} is not a whole number in [0, 2**53]"
            if whole
            else f"aggregate severity {value!r} is not a finite non-negative number"
        )
    return int(value) if whole else float(value)


@dataclass(frozen=True)
class ModelSpec:
    """Complete frequency-severity model for a portfolio."""

    portfolio: Portfolio
    severity: SeverityLaw
    effects: RandomEffectJoint


def _validate_rule(rule: BmsRule) -> None:
    if rule.max_level < 1:
        raise InvalidRuleError(f"need at least two levels, got max_level={rule.max_level}")
    if isinstance(rule, FreqRule):
        if rule.step < 1:
            raise InvalidRuleError("per-claim step must be a positive integer")
    elif isinstance(rule, SeverityRule):
        if rule.small_step < 1:
            raise InvalidRuleError("small-claim step must be a positive integer")
        if rule.large_step < rule.small_step:
            raise InvalidRuleError(
                f"large-claim step {rule.large_step} must be >= small-claim step {rule.small_step}"
            )
        if not rule.threshold > 0:
            raise InvalidRuleError("claim-size threshold must be positive")
    else:
        raise InvalidRuleError(f"unknown rule type {type(rule).__name__}")


def validate_rule(rule: BmsRule) -> BmsRule:
    """Check a transition rule's structural constraints and return it."""
    _validate_rule(rule)
    return rule


def _validate_effects(effects: RandomEffectJoint) -> None:
    if isinstance(effects, DegenerateEffects):
        return
    if isinstance(effects, LognormalCopulaEffects):
        if not -1.0 <= effects.corr <= 1.0:
            raise ModelValidationError(f"copula correlation {effects.corr} outside [-1, 1]")
        if effects.log_var1 < 0 or effects.log_var2 < 0:
            raise ModelValidationError("log-variances must be nonnegative")
        # Location -log_var/2 makes the marginal means exactly one; confirm by
        # quadrature as a guard against a misconfigured grid.
        from .quadrature import build_grid

        grid = build_grid(effects, 32)
        for mean in (grid.weights @ grid.theta1, grid.weights @ grid.theta2):
            if abs(mean - 1.0) > EFFECT_MEAN_TOL:
                raise NonUnitEffectMeanError(
                    f"quadrature marginal mean {mean!r} differs from 1 beyond {EFFECT_MEAN_TOL}"
                )
        return
    if isinstance(effects, MixtureExponentialEffects):
        if not 0.0 <= effects.weight1 <= 1.0:
            raise ModelValidationError(f"mixture weight {effects.weight1} outside [0, 1]")
        if not (0 < effects.rate1 < math.inf and 0 < effects.rate2 < math.inf):
            raise ModelValidationError("mixture rates must be positive and finite")
        if abs(effects.marginal_mean() - 1.0) > MIXTURE_MEAN_TOL:
            raise NonUnitEffectMeanError(
                f"mixture marginal mean {effects.marginal_mean()!r} is not 1: "
                "require weight1/rate1 + (1-weight1)/rate2 == 1"
            )
        if 0.0 < effects.weight1 < 1.0 and not effects.rate1 > effects.rate2:
            raise ModelValidationError("interior mixtures require rate1 > rate2")
        return
    raise ModelValidationError(f"unknown effects type {type(effects).__name__}")


def validate_model(spec: ModelSpec) -> ModelSpec:
    """Validate a model specification and return a normalized copy.

    Weights are renormalized when their sum is within 1e-9 of one, otherwise
    the portfolio is rejected.  Effect laws must have mean-one marginals
    (analytically for the mixture, by quadrature for the lognormal family).
    """
    classes = spec.portfolio.classes
    if not classes:
        raise ModelValidationError("portfolio has no risk classes")
    for cls in classes:
        if not 0.0 < cls.weight <= 1.0:
            raise NonUnitWeightsError(f"class weight {cls.weight} outside (0, 1]")
        if cls.freq_rate <= 0:
            raise ModelValidationError(f"frequency rate {cls.freq_rate} must be positive")
        if cls.sev_rate <= 0:
            raise ModelValidationError(f"severity rate {cls.sev_rate} must be positive")
    total = math.fsum(c.weight for c in classes)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise NonUnitWeightsError(f"class weights sum to {total!r}, expected 1")
    if total != 1.0:
        classes = tuple(replace(c, weight=c.weight / total) for c in classes)

    if isinstance(spec.severity, GammaSeverity) and spec.severity.dispersion <= 0:
        raise ModelValidationError("gamma severity dispersion must be positive")

    _validate_effects(spec.effects)
    return replace(spec, portfolio=Portfolio(classes))
