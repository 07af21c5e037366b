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

from ._distributions import gamma_pdf
from .errors import InconsistentHistoryError, ModelValidationError
from .model import ClaimHistory, MixtureExponentialEffects, _validate_effects


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
        _validate_effects(self.effects)
        for name in ("freq_rate", "sev_rate"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ModelValidationError(f"{name} {value!r} must be positive and finite")

    def components(self) -> tuple[tuple[float, float], ...]:
        """(weight, rate) pairs of the active mixture components."""
        pairs = (
            (self.effects.weight1, self.effects.rate1),
            (1.0 - self.effects.weight1, self.effects.rate2),
        )
        return tuple((w, c) for w, c in pairs if w > 0.0)


def _count_log_weights(model: MixtureBayesModel, total_count, years):
    """Log posterior component masses given claim counts only.

    Component ``(w, c)`` has evidence ``w * c / (c + rate*T)**(n+1)`` up to a
    factor common to all components.
    """
    exposure = model.freq_rate * np.asarray(years, dtype=float)
    n = np.asarray(total_count, dtype=float)
    logs = [
        math.log(w) + math.log(c) - (n + 1.0) * np.log(c + exposure)
        for w, c in model.components()
    ]
    return np.stack(logs, axis=0)


def _normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    peak = np.max(log_w, axis=0, keepdims=True)
    w = np.exp(log_w - peak)
    return w / np.sum(w, axis=0, keepdims=True)


def bayes_freq_premium(history: ClaimHistory, model: MixtureBayesModel) -> float:
    """Expected next-year claim count given the count history.

    The posterior over the frequency effect is a mixture of gammas with shape
    ``total_count + 1`` and rate ``component_rate + freq_rate * years``; the
    premium is the rate times the posterior mean.  An empty history returns
    the a priori rate exactly.
    """
    history.validate()
    return float(
        _freq_premium_vec(model, np.array([history.total_count]), np.array([history.years]))[0]
    )


def _freq_premium_vec(model, total_count, years):
    weights = _normalize_log_weights(_count_log_weights(model, total_count, years))
    n = np.asarray(total_count, dtype=float)
    exposure = model.freq_rate * np.asarray(years, dtype=float)
    rates = np.array([c for _, c in model.components()])
    means = (n + 1.0)[None, :] / (rates[:, None] + exposure[None, :])
    return model.freq_rate * np.sum(weights * means, axis=0)


def bayes_agg_premium_freqhist(history: ClaimHistory, model: MixtureBayesModel) -> float:
    """Expected next-year aggregate loss given the count history only.

    Claim sizes never enter, but the severity effect is revised through its
    dependence on the frequency effect: within each mixture component the
    severity effect stays at its component mean, and the count history
    reweights the components.  At the independent boundary mixtures this
    collapses to the severity rate times the frequency premium.
    """
    history.validate()
    return float(
        _agg_freqhist_vec(model, np.array([history.total_count]), np.array([history.years]))[0]
    )


def _agg_freqhist_vec(model, total_count, years):
    weights = _normalize_log_weights(_count_log_weights(model, total_count, years))
    n = np.asarray(total_count, dtype=float)
    exposure = model.freq_rate * np.asarray(years, dtype=float)
    rates = np.array([c for _, c in model.components()])
    theta1_mean = (n + 1.0)[None, :] / (rates[:, None] + exposure[None, :])
    if model.unit_severity_effect:
        theta2_mean = np.ones((rates.size, 1))
    else:
        theta2_mean = (1.0 / rates)[:, None]
    return model.freq_rate * model.sev_rate * np.sum(weights * theta1_mean * theta2_mean, axis=0)


def bayes_agg_premium_fullhist(history: ClaimHistory, model: MixtureBayesModel) -> float:
    """Expected next-year aggregate loss given counts and aggregate sizes.

    Per component the posterior factorizes into a gamma for each effect:
    shape ``total_count + 1``, rate ``component_rate + freq_rate * years`` for
    the frequency effect and shape ``total_aggregate + 1``, rate
    ``component_rate + sev_rate * total_count`` for the severity effect.
    """
    history.validate()
    if history.aggregates is None:
        if history.years == 0:
            aggregate = 0.0
        else:
            raise InconsistentHistoryError("full-history premium needs aggregate severities")
    else:
        aggregate = history.total_aggregate
    return float(
        _agg_fullhist_vec(
            model,
            np.array([history.total_count]),
            np.array([aggregate]),
            np.array([history.years]),
        )[0]
    )


def _full_log_weights(model, total_count, total_aggregate, years):
    n = np.asarray(total_count, dtype=float)
    s = np.asarray(total_aggregate, dtype=float)
    freq_exposure = model.freq_rate * np.asarray(years, dtype=float)
    sev_exposure = model.sev_rate * n
    logs = [
        math.log(w)
        + 2.0 * math.log(c)
        - (n + 1.0) * np.log(c + freq_exposure)
        - (s + 1.0) * np.log(c + sev_exposure)
        for w, c in model.components()
    ]
    return np.stack(logs, axis=0)


def _agg_fullhist_vec(model, total_count, total_aggregate, years):
    if model.unit_severity_effect:
        # Claim sizes are uninformative about the effects; only the count
        # posterior remains and the severity factor is the constant 1.
        return model.sev_rate * _freq_premium_vec(model, total_count, years)
    weights = _normalize_log_weights(
        _full_log_weights(model, total_count, total_aggregate, years)
    )
    n = np.asarray(total_count, dtype=float)
    s = np.asarray(total_aggregate, dtype=float)
    freq_exposure = model.freq_rate * np.asarray(years, dtype=float)
    sev_exposure = model.sev_rate * n
    rates = np.array([c for _, c in model.components()])
    theta1_mean = (n + 1.0)[None, :] / (rates[:, None] + freq_exposure[None, :])
    theta2_mean = (s + 1.0)[None, :] / (rates[:, None] + sev_exposure[None, :])
    return model.freq_rate * model.sev_rate * np.sum(weights * theta1_mean * theta2_mean, axis=0)


def posterior_density(theta1, theta2, history: ClaimHistory, model: MixtureBayesModel):
    """Joint posterior density of the effects given a full claim history.

    A two-component mixture of products of gamma densities; with an empty
    history it reduces to the prior.  Not defined for the unit-severity
    variant, whose severity effect is a point mass.
    """
    if model.unit_severity_effect:
        raise InconsistentHistoryError("posterior density undefined for a unit severity effect")
    history.validate()
    if history.aggregates is None and history.years > 0:
        raise InconsistentHistoryError("posterior density needs aggregate severities")
    n = history.total_count
    s = history.total_aggregate if history.years > 0 else 0.0
    log_w = _full_log_weights(model, np.array([n]), np.array([s]), np.array([history.years]))
    weights = _normalize_log_weights(log_w)[:, 0]
    freq_exposure = model.freq_rate * history.years
    sev_exposure = model.sev_rate * n
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    out = np.zeros(np.broadcast(theta1, theta2).shape)
    for weight, (_, c) in zip(weights, model.components()):
        out = out + weight * gamma_pdf(theta1, n + 1.0, 1.0 / (c + freq_exposure)) * (
            gamma_pdf(theta2, s + 1.0, 1.0 / (c + sev_exposure))
        )
    return out if out.shape else float(out)


@dataclass(frozen=True)
class MseComparison:
    """Simulated prediction errors of the two history-conditioned premiums."""

    mse_full: float
    mse_freq: float
    diff_mean: float
    diff_se: float
    n_paths: int
    seed: int

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
        next_n = rng.poisson(model.freq_rate * theta1)
        next_s = rng.poisson(model.sev_rate * theta2 * next_n).astype(float)

        years_vec = np.full(size, years)
        prem_full = _agg_fullhist_vec(model, total_n, total_s, years_vec)
        prem_freq = _agg_freqhist_vec(model, total_n, years_vec)
        err_full = (next_s - prem_full) ** 2
        err_freq = (next_s - prem_freq) ** 2
        sq_full += float(err_full.sum())
        sq_freq += float(err_freq.sum())
        diff = err_freq - err_full
        diff_sum += float(diff.sum())
        diff_sq_sum += float((diff**2).sum())
        done += size
    mse_full = sq_full / n_paths
    mse_freq = sq_freq / n_paths
    diff_mean = diff_sum / n_paths
    var = max(diff_sq_sum / n_paths - diff_mean**2, 0.0)
    return MseComparison(
        mse_full, mse_freq, diff_mean, math.sqrt(var / n_paths), n_paths, seed
    )


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
