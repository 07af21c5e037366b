"""Domain model for bonus-malus analysis under a bivariate random-effect risk model.

A policyholder is described by an a priori risk class (expected claim frequency
and expected claim size) and a pair of unobserved mean-one multipliers
``(theta1, theta2)`` acting on frequency and severity respectively.  The joint
law of the multipliers induces dependence between claim counts and claim sizes.

Every type validates its values on construction, each number through one gate
(``_number``), raising a ``ModelValidationError`` that names the value it
rejects; instances are immutable and safe to share across concurrent workers.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import ModelValidationError

WEIGHT_SUM_TOL = 1e-9
EFFECT_MEAN_TOL = 1e-8
MIXTURE_MEAN_TOL = 1e-12
MAX_CLAIM_COUNT = 2**53
MAX_LEVEL = 1000  # bounds max_level and steps; a jump law holds profiles * max_level**2 floats


def _number(value, name: str, whole: bool = False):
    """``value`` as a float, or an int when ``whole``; range checks stay with the caller.

    A boolean, a string, ``None`` or an int beyond float range is not a number
    (though ``float(True)`` is 1.0); a fraction, NaN or infinity is not an integer.
    """
    integral = isinstance(value, numbers.Integral)
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real or (integral and abs(value) > sys.float_info.max):
        raise ModelValidationError(f"'{name}' must be a number, got {value!r}")
    if not whole:
        return float(value)
    if integral or float(value).is_integer():
        return int(value)
    raise ModelValidationError(f"'{name}' must be an integer, got {value!r}")


def _at_least(value, name: str, floor: int) -> int:
    """``value`` as an int of at least ``floor``."""
    value = _number(value, name, whole=True)
    if value < floor:
        raise ModelValidationError(f"{name} must be an integer of at least {floor}, got {value!r}")
    return value


def _store_numbers(obj, *names: str, whole: bool = False) -> None:
    """Replace each named field of the frozen dataclass ``obj`` by its ``_number``."""
    for name in names:
        object.__setattr__(obj, name, _number(getattr(obj, name), name, whole))


def _sequence(values, name: str) -> tuple:
    """The entries of ``values``; a string or a scalar is not a sequence."""
    if isinstance(values, Iterable) and not isinstance(values, str):
        return tuple(values)
    raise ModelValidationError(f"'{name}' must be a sequence, got {values!r}")


def _instance(value, kind, name: str):
    """``value`` itself if it is a ``kind`` (a class or a ``Union``), else raise."""
    if not isinstance(value, kind):
        raise ModelValidationError(f"unknown {name} type {type(value).__name__}")
    return value


def _vector(values, name: str) -> np.ndarray:
    """``values`` as a one-dimensional float array, itself if it is one.

    A scalar, a nest of sequences, ragged or not, and an array of booleans,
    strings or objects are refused.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # numpy refuses a ragged nest of sequences
        array = None
    if array is None or array.ndim != 1:
        raise ModelValidationError(f"'{name}' must be a flat sequence of numbers, got {values!r}")
    if array.dtype.kind not in "iuf":
        raise ModelValidationError(f"'{name}' must hold numbers, got an array of {array.dtype}")
    return array.astype(float, copy=False)


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

    def __post_init__(self) -> None:
        _store_numbers(self, "weight", "freq_rate", "sev_rate")
        if not 0.0 < self.weight <= 1.0:
            raise ModelValidationError(f"class weight {self.weight} outside (0, 1]")
        for name, value in (("frequency rate", self.freq_rate), ("severity rate", self.sev_rate)):
            if not 0.0 < value < math.inf:
                raise ModelValidationError(f"{name} {value} must be positive and finite")
        # The engines square both rates into premium factors.
        for rate in (self.freq_rate, self.freq_rate * self.sev_rate):
            if not 0.0 < rate * rate < math.inf:
                raise ModelValidationError(f"{self}: a squared premium rate leaves float range")


@dataclass(frozen=True)
class Portfolio:
    """Non-empty ordered risk classes; weights summing to within 1e-9 of one are renormalized."""

    classes: tuple[RiskClass, ...]

    def __init__(self, classes) -> None:
        classes = _sequence(classes, "classes")
        if not classes:
            raise ModelValidationError("portfolio has no risk classes")
        if not all(isinstance(c, RiskClass) for c in classes):
            raise ModelValidationError(f"portfolio classes {classes!r} are not all RiskClass")
        total = math.fsum(c.weight for c in classes)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ModelValidationError(f"class weights sum to {total!r}, expected 1")
        if total != 1.0:
            classes = tuple(replace(c, weight=c.weight / total) for c in classes)
        object.__setattr__(self, "classes", classes)

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

    def __post_init__(self) -> None:
        _store_numbers(self, "dispersion")
        if not (0.0 < self.dispersion < math.inf and self.shape < math.inf):
            raise ModelValidationError(
                "gamma severity dispersion and its inverse must be positive and finite"
            )

    @property
    def shape(self) -> float:
        return 1.0 / self.dispersion


@dataclass(frozen=True)
class PoissonSeverity:
    """Integer claim sizes, Poisson with conditional mean ``sev_rate * theta2``.

    The severity rules read it like the gamma law; the compound of Poisson
    counts with Poisson sizes is the classical Neyman type A aggregate, whose
    closed-form premiums ``MixtureBayesModel`` prices on its own.
    """


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

    def __post_init__(self) -> None:
        _store_numbers(self, "corr", "log_var1", "log_var2")
        if not -1.0 <= self.corr <= 1.0:
            raise ModelValidationError(f"copula correlation {self.corr} outside [-1, 1]")
        if not (0.0 <= self.log_var1 < math.inf and 0.0 <= self.log_var2 < math.inf):
            raise ModelValidationError("log-variances must be nonnegative and finite")
        # Location -log_var/2 makes the marginal means exactly one; confirm by
        # quadrature as a guard against a misconfigured grid.
        from .quadrature import build_grid

        grid = build_grid(self, 32)
        for mean in (grid.weights @ grid.theta1, grid.weights @ grid.theta2):
            if not abs(mean - 1.0) <= EFFECT_MEAN_TOL:
                raise ModelValidationError(
                    f"quadrature marginal mean {mean!r} differs from 1 beyond {EFFECT_MEAN_TOL}"
                )


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

    def __post_init__(self) -> None:
        _store_numbers(self, "weight1", "rate1", "rate2")
        if not 0.0 <= self.weight1 <= 1.0:
            raise ModelValidationError(f"mixture weight {self.weight1} outside [0, 1]")
        if not (0 < self.rate1 < math.inf and 0 < self.rate2 < math.inf):
            raise ModelValidationError("mixture rates must be positive and finite")
        if abs(self.marginal_mean() - 1.0) > MIXTURE_MEAN_TOL:
            raise ModelValidationError(
                f"mixture marginal mean {self.marginal_mean()!r} is not 1: "
                "require weight1/rate1 + (1-weight1)/rate2 == 1"
            )
        if 0.0 < self.weight1 < 1.0 and not self.rate1 > self.rate2:
            raise ModelValidationError("interior mixtures require rate1 > rate2")

    def marginal_mean(self) -> float:
        return self.weight1 / self.rate1 + (1.0 - self.weight1) / self.rate2


@dataclass(frozen=True)
class DegenerateEffects:
    """Both effects identically one (no residual heterogeneity)."""


RandomEffectJoint = Union[LognormalCopulaEffects, MixtureExponentialEffects, DegenerateEffects]


@dataclass(frozen=True)
class FreqRule:
    """Frequency-driven transition rule: down 1 per claim-free year, up ``step`` per claim.

    It reads as the severity-aware rule whose small and large steps are both ``step``.
    """

    max_level: int
    step: int

    def __post_init__(self) -> None:
        _check_scale(self, "step")

    @property
    def levels(self) -> int:
        return self.max_level + 1

    @property
    def small_step(self) -> int:
        return self.step

    @property
    def large_step(self) -> int:
        return self.step


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

    def __post_init__(self) -> None:
        _check_scale(self, "small_step", "large_step")
        if self.large_step < self.small_step:
            raise ModelValidationError(
                f"large-claim step {self.large_step} must be >= small-claim step {self.small_step}"
            )
        _store_numbers(self, "threshold")
        if not self.threshold > 0:
            raise ModelValidationError(
                f"claim-size threshold {self.threshold!r} must be a positive number"
            )

    @property
    def levels(self) -> int:
        return self.max_level + 1

    def with_threshold(self, threshold: float) -> "SeverityRule":
        return replace(self, threshold=threshold)


BmsRule = Union[FreqRule, SeverityRule]


def _check_scale(rule, *steps: str) -> None:
    """Store ``max_level`` and the named steps as ints in [1, MAX_LEVEL], or raise."""
    _store_numbers(rule, "max_level", *steps, whole=True)
    for name in ("max_level", *steps):
        if not 1 <= getattr(rule, name) <= MAX_LEVEL:
            raise ModelValidationError(
                f"{name} {getattr(rule, name)!r} is not an integer in [1, {MAX_LEVEL}]"
            )


@dataclass(frozen=True)
class ClaimHistory:
    """Observed per-year claim counts and, optionally, aggregate severities.

    Counts must be whole numbers in [0, 2**53] (exact in floating point) and
    aggregates finite non-negative numbers, one per count, zero in claim-free
    years and with a finite total; anything else, booleans and strings
    included, raises ``ModelValidationError`` on construction.
    """

    counts: tuple[int, ...]
    aggregates: tuple[float, ...] | None = None

    def __init__(self, counts, aggregates=None) -> None:
        counts = tuple(_history_entry(n, whole=True) for n in _sequence(counts, "counts"))
        if aggregates is not None:
            aggregates = _sequence(aggregates, "aggregates")
            aggregates = tuple(_history_entry(s, whole=False) for s in aggregates)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "aggregates", aggregates)
        if aggregates is not None:
            if len(aggregates) != len(counts):
                raise ModelValidationError("counts and aggregates differ in length")
            for t, (n, s) in enumerate(zip(counts, aggregates)):
                if n == 0 and s > 0:
                    raise ModelValidationError(
                        f"year {t + 1} has no claims but positive aggregate severity"
                    )
            if not math.isfinite(self.total_aggregate):
                raise ModelValidationError("aggregate severities overflow when summed")

    @property
    def years(self) -> int:
        return len(self.counts)

    @property
    def total_count(self) -> int:
        return sum(self.counts)

    @property
    def total_aggregate(self) -> float:
        if self.aggregates is None:
            raise ModelValidationError("history carries no aggregate severities")
        return sum(self.aggregates)


def _history_entry(value, whole: bool):
    """A claim count (``whole``) or an aggregate severity, checked and converted."""
    value = _number(value, "counts" if whole else "aggregates", whole)
    if not 0 <= value <= (MAX_CLAIM_COUNT if whole else sys.float_info.max):
        raise ModelValidationError(
            f"claim count {value!r} is not a whole number in [0, 2**53]"
            if whole
            else f"aggregate severity {value!r} is not a finite non-negative number"
        )
    return value


@dataclass(frozen=True)
class ModelSpec:
    """Complete frequency-severity model for a portfolio."""

    portfolio: Portfolio
    severity: SeverityLaw
    effects: RandomEffectJoint

    def __post_init__(self) -> None:
        for name, kind in (
            ("portfolio", Portfolio), ("severity", SeverityLaw), ("effects", RandomEffectJoint)
        ):
            _instance(getattr(self, name), kind, name)
