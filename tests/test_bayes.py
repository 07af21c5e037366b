"""Closed-form credibility premiums against posterior-integration oracles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from bonusmalus import (
    ClaimHistory,
    LognormalCopulaEffects,
    MixtureBayesModel,
    MixtureExponentialEffects,
    bayes_agg_premium_freqhist,
    bayes_agg_premium_fullhist,
    bayes_freq_premium,
    ModelValidationError,
    mse_comparison_mc,
)
from conftest import traced_peak
from oracles import freq_posterior_mean_quad, joint_posterior_moment_quad, posterior_density

INTERIOR = MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0)
SINGLE = MixtureExponentialEffects(1.0, 1.0, 5.0)  # boundary: one exponential component
# (freq_rate, sev_rate) pairs beside the default 0.5/3.0 for the unit-severity
# identity: whether the two aggregate premiums agree must not depend on how
# the rates happen to round.
UNIT_RATES = [(0.1, 3.0), (0.3, 7.0), (0.05, 40.0)]


def interior_model(freq_rate=0.5, sev_rate=3.0, unit_severity=False) -> MixtureBayesModel:
    return MixtureBayesModel(freq_rate, sev_rate, INTERIOR, unit_severity)


def random_histories(count: int, seed: int, mean_count=1.0, mean_size=3.0):
    rng = np.random.default_rng(seed)
    histories = []
    for _ in range(count):
        years = int(rng.integers(1, 7))
        counts = rng.poisson(mean_count, years).tolist()
        sizes = [int(rng.poisson(mean_size * n)) if n else 0 for n in counts]
        histories.append(ClaimHistory(counts, sizes))
    return histories


class TestModelValidation:
    @pytest.mark.parametrize(
        "freq_rate,sev_rate,effects",
        # Effects are built inside the test: an invalid one raises on construction.
        [
            (0.5, 3.0, lambda: MixtureExponentialEffects(1.5, 2.0, 2.0 / 3.0)),
            (0.5, 3.0, lambda: MixtureExponentialEffects(0.5, 2.0, 1.0)),
            (0.5, 3.0, lambda: MixtureExponentialEffects(0.5, -2.0, 2.0 / 3.0)),
            (0.5, 3.0, lambda: MixtureExponentialEffects(1.0, math.nan, 5.0)),
            (-0.5, 3.0, lambda: INTERIOR),
            (0.5, -3.0, lambda: INTERIOR),
            (0.5, math.nan, lambda: INTERIOR),
            (0.5, 3.0, lambda: LognormalCopulaEffects(0.0, 0.5, 0.5)),
        ],
        ids=[
            "weight",
            "mean",
            "negative_rate",
            "nan_rate",
            "negative_freq_rate",
            "negative_sev_rate",
            "nan_sev_rate",
            "not_a_mixture",
        ],
    )
    def test_invalid_models_rejected(self, freq_rate, sev_rate, effects):
        with pytest.raises(ModelValidationError):
            MixtureBayesModel(freq_rate, sev_rate, effects())


class TestFrequencyPremium:
    def test_empty_history_returns_a_priori_rate(self):
        # Exact up to the tolerance of the mean-one mixture constraint.
        model = interior_model()
        assert bayes_freq_premium(ClaimHistory([]), model) == pytest.approx(0.5, rel=1e-12)

    def test_single_component_credibility_form(self):
        # Boundary mixture: plain gamma-Poisson credibility with unit rate.
        model = MixtureBayesModel(0.5, 3.0, SINGLE)
        history = ClaimHistory([1, 0, 2])
        expected = 0.5 * (1 + 3) / (1.0 + 0.5 * 3)
        assert bayes_freq_premium(history, model) == pytest.approx(expected, rel=1e-14)

    def test_named_history_frozen_oracle_value(self):
        # Independent adaptive-quadrature oracle value for counts (1, 0, 2).
        model = interior_model()
        premium = bayes_freq_premium(ClaimHistory([1, 0, 2]), model)
        assert premium == pytest.approx(0.8155317505555223, rel=1e-10)

    def test_matches_quadrature_oracle_on_random_histories(self):
        model = interior_model()
        for history in random_histories(20, seed=101):
            oracle = model.freq_rate * freq_posterior_mean_quad(history, model)
            assert bayes_freq_premium(history, model) == pytest.approx(oracle, rel=1e-8)

    def test_strictly_increasing_in_each_year_count(self):
        model = interior_model()
        for history in random_histories(6, seed=7):
            base = bayes_freq_premium(history, model)
            for t in range(history.years):
                counts = list(history.counts)
                counts[t] += 1
                bumped = bayes_freq_premium(ClaimHistory(counts), model)
                assert bumped > base

    def test_survives_huge_claim_totals(self):
        model = interior_model()
        small = bayes_freq_premium(ClaimHistory([300]), model)
        large = bayes_freq_premium(ClaimHistory([500]), model)
        assert math.isfinite(small) and math.isfinite(large)
        assert large > small


class TestAggregatePremiumCountHistory:
    def test_boundary_mixture_is_product_form(self):
        model = MixtureBayesModel(0.5, 3.0, SINGLE)
        history = ClaimHistory([2, 0])
        assert bayes_agg_premium_freqhist(history, model) == pytest.approx(
            model.sev_rate * bayes_freq_premium(history, model), rel=1e-14
        )

    def test_dependence_raises_premium_above_product_form(self):
        # With positive effect dependence and a short, claim-heavy record the
        # joint premium exceeds the independence product on the same history.
        model = interior_model()
        for counts in ([1], [2, 0], [1, 1, 1], [0, 3], [2, 2, 2]):
            history = ClaimHistory(counts)
            product_form = model.sev_rate * bayes_freq_premium(history, model)
            assert bayes_agg_premium_freqhist(history, model) > product_form

    def test_named_single_claim_year_frozen_oracle_value(self):
        # Independent tensor-quadrature oracle value for counts (2,).
        model = interior_model()
        premium = bayes_agg_premium_freqhist(ClaimHistory([2]), model)
        assert premium == pytest.approx(4.644161152199299, rel=1e-10)

    def test_matches_quadrature_oracle_on_random_histories(self):
        model = interior_model()
        for history in random_histories(20, seed=202):
            oracle = (
                model.freq_rate
                * model.sev_rate
                * joint_posterior_moment_quad(history, model, use_sizes=False)
            )
            assert bayes_agg_premium_freqhist(history, model) == pytest.approx(
                oracle, rel=1e-8
            )


class TestAggregatePremiumFullHistory:
    def test_single_component_one_clean_year(self):
        model = MixtureBayesModel(0.5, 3.0, SINGLE)
        premium = bayes_agg_premium_fullhist(ClaimHistory([0], [0.0]), model)
        expected = 0.5 * 3.0 * (1.0 / (0.5 + 1.0)) * (1.0 / 1.0)
        assert premium == pytest.approx(expected, rel=1e-14)

    def test_named_history_frozen_oracle_value(self):
        # Independent tensor-quadrature oracle value for ((1,4),(0,0),(2,5)).
        model = interior_model()
        premium = bayes_agg_premium_fullhist(ClaimHistory([1, 0, 2], [4, 0, 5]), model)
        assert premium == pytest.approx(2.5167846927217914, rel=1e-10)

    def test_matches_quadrature_oracle_on_random_histories(self):
        model = interior_model()
        for history in random_histories(20, seed=303):
            oracle = (
                model.freq_rate
                * model.sev_rate
                * joint_posterior_moment_quad(history, model, use_sizes=True)
            )
            assert bayes_agg_premium_fullhist(history, model) == pytest.approx(
                oracle, rel=1e-8
            )

    def test_unit_severity_effect_equates_histories(self):
        # No severity heterogeneity: claim sizes carry no effect information.
        model = interior_model(unit_severity=True)
        history = ClaimHistory([1, 0, 2], [4, 0, 5])
        assert bayes_agg_premium_fullhist(history, model) == bayes_agg_premium_freqhist(
            history, model
        )

    @pytest.mark.parametrize("freq_rate,sev_rate", UNIT_RATES)
    def test_unit_severity_effect_equates_histories_exactly(self, freq_rate, sev_rate):
        model = interior_model(freq_rate, sev_rate, unit_severity=True)
        histories = random_histories(300, seed=404, mean_count=freq_rate * 4, mean_size=sev_rate)
        for history in [ClaimHistory([]), *histories]:
            assert bayes_agg_premium_fullhist(history, model) == bayes_agg_premium_freqhist(
                history, model
            )

    def test_missing_aggregates_rejected(self):
        with pytest.raises(ModelValidationError, match="needs aggregate severities"):
            bayes_agg_premium_fullhist(ClaimHistory([1, 2]), interior_model())

    def test_inconsistent_history_rejected(self):
        with pytest.raises(ModelValidationError, match="no claims but positive aggregate"):
            bayes_agg_premium_fullhist(ClaimHistory([0, 2], [3.0, 1.0]), interior_model())

    def test_overflowing_posterior_weights_rejected(self):
        # shape2 * log(rate2) overflows in every component: no weight is finite.
        history = ClaimHistory([1, 0, 2], [1e308, 0, 5])
        with pytest.raises(ModelValidationError, match=r"total aggregate 1e\+308"):
            bayes_agg_premium_fullhist(history, interior_model())
        with pytest.raises(ModelValidationError, match=r"total aggregate 1e\+308"):
            posterior_density(1.0, 1.0, history, interior_model())


class TestPosteriorDensity:
    def test_empty_history_is_the_prior(self):
        model = interior_model()
        grid = np.linspace(0.05, 6.0, 40)
        t1, t2 = np.meshgrid(grid, grid)
        w, c1, c2 = INTERIOR.weight1, INTERIOR.rate1, INTERIOR.rate2
        prior = w * c1**2 * np.exp(-c1 * (t1 + t2)) + (1 - w) * c2**2 * np.exp(-c2 * (t1 + t2))
        density = posterior_density(t1, t2, ClaimHistory([]), model)
        assert np.max(np.abs(density - prior)) < 1e-12

    def test_normalizes_to_one(self):
        model = interior_model()
        history = ClaimHistory([1, 0, 2], [4, 0, 5])

        inner = lambda t1: integrate.quad(
            lambda t2: posterior_density(t1, t2, history, model), 0, 60, limit=200
        )[0]
        total, _ = integrate.quad(inner, 0, 60, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_posterior_mean_reproduces_full_history_premium(self):
        model = interior_model()
        history = ClaimHistory([1, 0, 2], [4, 0, 5])

        inner = lambda t1: integrate.quad(
            lambda t2: t1 * t2 * posterior_density(t1, t2, history, model), 0, 60, limit=200
        )[0]
        moment, _ = integrate.quad(inner, 0, 60, limit=200)
        premium = model.freq_rate * model.sev_rate * moment
        assert premium == pytest.approx(
            bayes_agg_premium_fullhist(history, model), rel=1e-8
        )


# (history, frequency premium, count-history and full-history aggregate premiums)
PINNED_PREMIUMS = [
    (ClaimHistory([], []), 0.49999999999999994, 1.8749999999999996, 1.8749999999999996),
    (
        ClaimHistory([0, 2, 0], [0.0, 7.0, 0.0]),
        0.582650506193277,
        2.0873484955619706,
        2.0919632009483697,
    ),
    (ClaimHistory([400, 350], [1200.0, 1000.0]), 225.3, 1013.8500000000001, 660.9845527251186),
]


class TestPinnedPremiums:
    @pytest.mark.parametrize(
        "history,freq,freqhist,fullhist", PINNED_PREMIUMS, ids=["empty", "one-claim-year", "huge"]
    )
    def test_premiums_are_pinned_bit_for_bit(self, history, freq, freqhist, fullhist):
        model = interior_model()
        assert bayes_freq_premium(history, model) == freq
        assert bayes_agg_premium_freqhist(history, model) == freqhist
        assert bayes_agg_premium_fullhist(history, model) == fullhist


class TestMseComparison:
    def test_seeded_runs_are_identical(self):
        model = interior_model()
        a = mse_comparison_mc(model, years=3, n_paths=30_000, seed=5)
        b = mse_comparison_mc(model, years=3, n_paths=30_000, seed=5)
        assert dataclasses.astuple(a) == dataclasses.astuple(b)

    def test_seeded_run_is_pinned_bit_for_bit(self):
        # Two chunks, the second partial; the chunks' arrays are worked in
        # place, with the same operations on the same operands in order.
        result = mse_comparison_mc(interior_model(), years=3, n_paths=70_000, seed=5)
        assert dataclasses.astuple(result) == (
            20.383781112969107,
            29.2041083976676,
            8.820327284698484,
            0.5660173247538897,
        )

    def test_peak_memory_of_one_chunk_stays_under_10_mb(self):
        # One 65,536-path chunk at 5 years: 14.2 MB traced at the peak when
        # every intermediate array was kept to the chunk's end, 7.3 MB with
        # the draws dropped once used and the premiums built in place.
        model = interior_model()
        def run():
            return mse_comparison_mc(model, years=5, n_paths=1 << 16, seed=11)

        run()  # warm the caches
        _, peak, _ = traced_peak(run)
        assert peak < 10e6, peak

    def test_full_history_wins_at_95_percent_confidence(self):
        model = interior_model()
        result = mse_comparison_mc(model, years=3, n_paths=200_000, seed=17)
        assert result.mse_full <= result.mse_freq
        assert result.one_sided_lower_95 > 0.0

    def test_one_component_prior_reruns_and_full_history_is_not_worse(self):
        # A weight of one draws the effects from a single exponential.
        model = MixtureBayesModel(0.5, 3.0, SINGLE)
        assert len(model.components()) == 1
        a = mse_comparison_mc(model, years=3, n_paths=70_000, seed=29)
        b = mse_comparison_mc(model, years=3, n_paths=70_000, seed=29)
        assert dataclasses.astuple(a) == dataclasses.astuple(b)
        assert a.diff_se > 0.0
        assert a.diff_mean > -3.0 * a.diff_se

    def test_unit_severity_effect_shows_no_gap(self):
        model = interior_model(unit_severity=True)
        result = mse_comparison_mc(model, years=3, n_paths=50_000, seed=23)
        assert result.diff_mean == 0.0
        assert result.diff_se == 0.0

    @pytest.mark.parametrize("freq_rate,sev_rate", UNIT_RATES)
    def test_unit_severity_effect_shows_no_gap_at_any_rates(self, freq_rate, sev_rate):
        model = interior_model(freq_rate, sev_rate, unit_severity=True)
        result = mse_comparison_mc(model, years=3, n_paths=60_000, seed=23)
        assert result.diff_mean == 0.0
        assert result.diff_se == 0.0
