"""Closed-form credibility premiums for the Poisson-Poisson mixture model.

This companion model makes every a posteriori premium available in closed
form: claim counts are Poisson, individual claim sizes are Poisson (their
compound is the classical Neyman type A aggregate), and the two effects
follow a two-component mixture of products of identical exponentials.  Each
mixture component is conjugate, so a posterior is again a two-component
mixture of gamma products and premiums reduce to weighted ratios.

All mixture weights are computed in log space: the component evidence decays
geometrically in the total claim count, and histories with hundreds of claims
must not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError
from .model import ClaimHistory, MixtureExponentialEffects, _at_least, _instance, _store_numbers
from .quadrature import _branches


@dataclass(frozen=True)
class MixtureBayesModel:
    """Single-profile model with closed-form Bayesian premiums.

    ``unit_severity_effect`` replaces the severity effect by the constant 1
    while keeping the frequency effect's mixture marginal; claim sizes then
    carry no information about the effects and the full-history premium
    coincides with the frequency-history premium.  Validated on construction.
    """

    freq_rate: float
    sev_rate: float
    effects: MixtureExponentialEffects
    unit_severity_effect: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.effects, MixtureExponentialEffects):
            raise ModelValidationError(
                f"closed-form premiums need mixture effects, got {type(self.effects).__name__}"
            )
        _store_numbers(self, "freq_rate", "sev_rate")
        for name in ("freq_rate", "sev_rate"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ModelValidationError(f"{name} {value!r} must be positive and finite")
        if not isinstance(self.unit_severity_effect, bool):
            raise ModelValidationError(
                f"'unit_severity_effect' must be true or false, got {self.unit_severity_effect!r}"
            )

    def components(self) -> tuple[tuple[float, float], ...]:
        """(weight, rate) pairs of the active mixture components."""
        return tuple(_branches(self.effects))


def _posterior(model: MixtureBayesModel, total_count, years, total_aggregate=None):
    """Component weights and per-component gamma ``(shape, rate)`` of each effect.

    Arrays are (components, histories) or broadcast to it.  The frequency
    effect updates to ``(n + 1, c + freq_rate * years)`` and, given
    aggregates, the severity effect to ``(s + 1, c + sev_rate * n)``.  Without
    aggregates, or for a unit severity effect, the severity effect keeps its
    ``Exp(c)`` prior ``(1, c)``, whose evidence factor is exactly one.
    """
    comps = model.components()
    rates = np.array([c for _, c in comps])[:, None]
    n = np.asarray(total_count, dtype=float)
    shape1, rate1 = n + 1.0, rates + model.freq_rate * np.asarray(years, dtype=float)
    shape2, rate2 = 1.0, rates
    informed = total_aggregate is not None and not model.unit_severity_effect
    # Log evidence: log w, plus log c minus shape * log(rate) per updated effect.
    # Each (components, histories) array is built once and then worked in place.
    prior = np.array([[math.log(w) + (1 + informed) * math.log(c)] for w, c in comps])
    log_w = np.multiply(shape1, np.log(rate1))
    np.subtract(prior, log_w, out=log_w)
    if informed:
        shape2, rate2 = np.asarray(total_aggregate, dtype=float) + 1.0, rates + model.sev_rate * n
        with np.errstate(over="ignore"):
            evidence = np.log(rate2)
            log_w -= np.multiply(shape2, evidence, out=evidence)
    top = np.max(log_w, axis=0, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise ModelValidationError(
            f"posterior weights overflow at total aggregate {total_aggregate!r}"
        )
    log_w -= top
    weights = np.exp(log_w, out=log_w)
    weights /= np.sum(weights, axis=0, keepdims=True)
    return weights, (shape1, rate1), (shape2, rate2)


def _check_arguments(history, model) -> None:
    _instance(history, ClaimHistory, "history")
    _instance(model, MixtureBayesModel, "model")


def _premium(model: MixtureBayesModel, total_count, years, total_aggregate=None, aggregate=True):
    """Posterior mean of next year's aggregate loss, or claim count unless ``aggregate``."""
    weights, (shape1, rate1), (shape2, rate2) = _posterior(
        model, total_count, years, total_aggregate
    )
    scale, theta2_mean = model.freq_rate * model.sev_rate, 1.0
    if not aggregate:
        scale = model.freq_rate
    elif not model.unit_severity_effect:
        theta2_mean = np.divide(shape2, rate2, out=rate2)
    weights *= np.divide(shape1, rate1)
    weights *= theta2_mean
    total = np.sum(weights, axis=0)
    return np.multiply(scale, total, out=total)


def bayes_freq_premium(history: ClaimHistory, model: MixtureBayesModel) -> float:
    """Expected next-year claim count given the count history.

    The posterior over the frequency effect is a mixture of gammas with shape
    ``total_count + 1`` and rate ``component_rate + freq_rate * years``; the
    premium is the rate times the posterior mean.  An empty history returns
    the a priori rate only within the mixture's mean-one tolerance, not
    exactly: at ``freq_rate`` 0.37 and mixture 0.5/2.0/(2/3) it is off by
    -5.6e-17.
    """
    _check_arguments(history, model)
    return float(_premium(model, history.total_count, history.years, aggregate=False)[0])


def bayes_agg_premium_freqhist(history: ClaimHistory, model: MixtureBayesModel) -> float:
    """Expected next-year aggregate loss given the count history only.

    Claim sizes never enter, but the severity effect is revised through its
    dependence on the frequency effect: within each mixture component the
    severity effect stays at its component mean, and the count history
    reweights the components.  At the independent boundary mixtures this
    collapses to the severity rate times the frequency premium.
    """
    _check_arguments(history, model)
    return float(_premium(model, history.total_count, history.years)[0])


def bayes_agg_premium_fullhist(history: ClaimHistory, model: MixtureBayesModel) -> float:
    """Expected next-year aggregate loss given counts and aggregate sizes.

    Per component the posterior factorizes into a gamma for each effect:
    shape ``total_count + 1``, rate ``component_rate + freq_rate * years`` for
    the frequency effect and shape ``total_aggregate + 1``, rate
    ``component_rate + sev_rate * total_count`` for the severity effect.
    Under ``unit_severity_effect`` claim sizes are uninformative and the
    premium equals ``bayes_agg_premium_freqhist`` exactly, for every history.
    """
    _check_arguments(history, model)
    if history.years and history.aggregates is None:
        raise ModelValidationError("full-history premium needs aggregate severities")
    aggregate = history.total_aggregate if history.years else 0.0
    return float(_premium(model, history.total_count, history.years, aggregate)[0])


@dataclass(frozen=True)
class MseComparison:
    """Simulated prediction errors of the two history-conditioned premiums."""

    mse_full: float
    mse_freq: float
    diff_mean: float
    diff_se: float

    @property
    def one_sided_lower_95(self) -> float:
        """95% one-sided lower confidence bound on mse_freq - mse_full."""
        return self.diff_mean - 1.6449 * self.diff_se


def mse_comparison_mc(
    model: MixtureBayesModel, years: int, n_paths: int, seed: int
) -> MseComparison:
    """Monte Carlo comparison of full-history and count-history premiums.

    Simulates policyholder histories plus the following year's aggregate
    loss, prices both premiums per path, and reports the mean squared errors
    with a one-sided confidence bound on their gap.  Deterministic per seed;
    paths use independent chunked streams so chunking cannot change results.
    """
    _instance(model, MixtureBayesModel, "model")
    years = _at_least(years, "years", 0)
    n_paths = _at_least(n_paths, "n_paths", 1)
    seed = _at_least(seed, "seed", 0)
    chunk = 1 << 16
    sq_full = 0.0
    sq_freq = 0.0
    diff_sum = 0.0
    diff_sq_sum = 0.0
    done = 0
    while done < n_paths:
        size = min(chunk, n_paths - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, done // chunk)))
        theta1, theta2 = _draw_effects(model, rng, size)
        counts = rng.poisson(model.freq_rate * theta1, size=(years, size))
        total_n = counts.sum(axis=0)
        total_s = np.zeros(size)
        for t in range(years):
            total_s += rng.poisson(model.sev_rate * theta2 * counts[t])
        del counts
        next_n = rng.poisson(model.freq_rate * theta1)
        next_s = rng.poisson(model.sev_rate * theta2 * next_n).astype(float)
        del theta1, theta2, next_n

        prem_full = _premium(model, total_n, years, total_s)
        prem_freq = _premium(model, total_n, years)
        del total_n, total_s
        err_full = np.subtract(next_s, prem_full, out=prem_full)
        err_freq = np.subtract(next_s, prem_freq, out=prem_freq)
        del next_s
        err_full *= err_full
        err_freq *= err_freq
        sq_full += float(err_full.sum())
        sq_freq += float(err_freq.sum())
        diff = np.subtract(err_freq, err_full, out=err_freq)
        del err_full
        diff_sum += float(diff.sum())
        diff *= diff
        diff_sq_sum += float(diff.sum())
        done += size
    mse_full = sq_full / n_paths
    mse_freq = sq_freq / n_paths
    diff_mean = diff_sum / n_paths
    var = max(diff_sq_sum / n_paths - diff_mean**2, 0.0)
    return MseComparison(mse_full, mse_freq, diff_mean, math.sqrt(var / n_paths))


def _draw_effects(model: MixtureBayesModel, rng, size: int):
    comps = model.components()
    if len(comps) == 1:
        rate = comps[0][1]
        theta1 = rng.exponential(1.0 / rate, size)
        theta2 = rng.exponential(1.0 / rate, size)
    else:
        pick_second = rng.random(size) >= comps[0][0]
        rates = np.where(pick_second, comps[1][1], comps[0][1])
        theta1 = rng.exponential(1.0, size) / rates
        theta2 = rng.exponential(1.0, size) / rates
    if model.unit_severity_effect:
        theta2 = np.ones(size)
    return theta1, theta2
