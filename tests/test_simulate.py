"""Simulator determinism, limiting behavior, and oracle agreement."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from bonusmalus import (
    FreqRule,
    InsufficientOccupancyError,
    InvalidRuleError,
    SeverityRule,
    SimConfig,
    empirical_frequency_relativity,
    empirical_relativity,
    hmse_empirical,
    optimal_relativity_frequency,
    simulate_paths,
)
from bonusmalus.transition import exceedance_profile
from bonusmalus.verify import check_rule
from conftest import SEV_RATE, degenerate_model, study_model
from oracles import enumeration_matrix

EPS = np.finfo(float).eps


class TestSimulatePaths:
    def test_same_seed_is_bit_identical(self, base_model):
        cfg = SimConfig(base_model, SeverityRule(9, 1, 2, 16800.0), 70_000, seed=3)
        a = simulate_paths(cfg)
        b = simulate_paths(cfg)
        for field in dataclasses.fields(a):
            va, vb = getattr(a, field.name), getattr(b, field.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb)
            else:
                assert va == vb

    def test_empty_run_rejected(self, base_model):
        with pytest.raises(ValueError):
            simulate_paths(SimConfig(base_model, FreqRule(9, 1), 0, seed=1))

    def test_invalid_rule_rejected(self, base_model):
        with pytest.raises(InvalidRuleError):
            simulate_paths(SimConfig(base_model, SeverityRule(9, 2, 1, 100.0), 1_000, seed=1))

    def test_different_seed_changes_the_sample(self, base_model):
        rule = FreqRule(9, 1)
        a = simulate_paths(SimConfig(base_model, rule, 50_000, seed=1))
        b = simulate_paths(SimConfig(base_model, rule, 50_000, seed=2))
        assert not np.array_equal(a.counts, b.counts)

    def test_vanishing_claim_rate_collects_everyone_at_level_zero(self):
        model = degenerate_model(freq_rate=1e-14)
        summary = simulate_paths(SimConfig(model, FreqRule(9, 1), 20_000, seed=4))
        assert summary.counts[0] == summary.counts.sum()

    def test_level_distribution_sums_to_one_exactly(self, base_model):
        # The counts are exact; the normalized float masses sum to one up to
        # the rounding of one division and one sum per level.
        summary = simulate_paths(SimConfig(base_model, FreqRule(9, 1), 30_000, seed=5))
        assert summary.counts.sum() == summary.n_observations
        assert abs(summary.level_distribution.sum() - 1.0) <= summary.levels * EPS

    @pytest.mark.parametrize(
        "years", [{"burn_in_years": -1}, {"sample_years": 0}], ids=["burn_in", "sample"]
    )
    def test_year_counts_validated(self, base_model, years):
        with pytest.raises(ValueError):
            simulate_paths(SimConfig(base_model, FreqRule(9, 1), 10, seed=1, **years))

    def test_start_level_validated(self, base_model):
        with pytest.raises(ValueError):
            simulate_paths(SimConfig(base_model, FreqRule(9, 1), 10, seed=1, start_level=11))

    def test_multi_year_sample_window(self, base_model):
        cfg = SimConfig(base_model, FreqRule(9, 1), 20_000, seed=14, sample_years=3)
        summary = simulate_paths(cfg)
        assert summary.n_observations == 60_000
        assert summary.counts.sum() == summary.n_observations
        assert abs(summary.level_distribution.sum() - 1.0) <= summary.levels * EPS

    @pytest.mark.parametrize(
        "rule", [FreqRule(9, 1), SeverityRule(9, 1, 2, 16800.0)], ids=["freq", "severity"]
    )
    @pytest.mark.parametrize(
        "model",
        [
            pytest.param(degenerate_model(freq_rate=1e20), id="finite"),
            # At 1e308 the conditional mean of every path with a frequency
            # effect above one overflows, and so do the premium moments.
            pytest.param(
                study_model(0.0, freq_rate=1e308),
                id="overflowing",
                marks=pytest.mark.filterwarnings("ignore:overflow encountered"),
            ),
        ],
    )
    def test_extreme_claim_rate_fills_the_top_level(self, model, rule):
        # One year from the bottom: every path must jump straight to the top.
        summary = simulate_paths(SimConfig(model, rule, 5_000, seed=4, burn_in_years=0))
        assert summary.counts[-1] == summary.n_observations


# Thresholds whose single-claim exceedance is 0, about one half, about 1 and
# exactly 1.
ONE_YEAR_RULES = {
    "freq-1": FreqRule(9, 1),
    "freq-2": FreqRule(9, 2),
    "sev-none-large": SeverityRule(9, 1, 2, math.inf),
    "sev-half-large": SeverityRule(9, 1, 2, SEV_RATE),
    "sev-all-large": SeverityRule(9, 1, 2, 1e-3),
    "sev-only-large": SeverityRule(9, 1, 2, 1e-300),
}
# Two-sided tail mass beyond four standard deviations of a normal law.
FOUR_SIGMA_TAIL = 2.0 * stats.norm.sf(4.0)


def _one_year_tails(rule, freq_rate, start_level, oracle_level, seed=21):
    """Two-sided binomial tail of each level count of a one-year run under an oracle row.

    The exact tail stands in for the normal 4-sigma band, which misjudges
    levels whose expected count is below one: a single path at a level
    expected 0.025 times already sits 6 sigma out.
    """
    model = degenerate_model(freq_rate=freq_rate)
    n_paths = 100_000
    cfg = SimConfig(model, rule, n_paths, seed, burn_in_years=0, start_level=start_level)
    counts = simulate_paths(cfg).counts
    if isinstance(rule, SeverityRule):
        exceed = float(exceedance_profile(rule.threshold, SEV_RATE, model.severity))
    else:
        exceed = 0.0
    row = np.clip(enumeration_matrix(rule, freq_rate, exceed)[oracle_level], 0.0, 1.0)
    lower = stats.binom.cdf(counts, n_paths, row)
    upper = stats.binom.sf(counts - 1, n_paths, row)
    return np.minimum(2.0 * np.minimum(lower, upper), 1.0)


class TestOneYearSampler:
    """One simulated year against the enumerated transition row, per start level."""

    def test_thresholds_span_the_exceedance_range(self):
        law = degenerate_model().severity
        exceed = {
            rule_id: float(exceedance_profile(rule.threshold, SEV_RATE, law))
            for rule_id, rule in ONE_YEAR_RULES.items()
            if isinstance(rule, SeverityRule)
        }
        assert exceed["sev-none-large"] == 0.0
        assert 0.2 < exceed["sev-half-large"] < 0.8
        assert 0.999 < exceed["sev-all-large"] < 1.0
        assert exceed["sev-only-large"] == 1.0

    @pytest.mark.parametrize("start_level", [0, 5, 9])
    @pytest.mark.parametrize("freq_rate", [0.05, 0.5, 5.0, 50.0])
    @pytest.mark.parametrize("rule_id", list(ONE_YEAR_RULES))
    def test_matches_enumerated_row(self, rule_id, freq_rate, start_level):
        rule = ONE_YEAR_RULES[rule_id]
        tails = _one_year_tails(rule, freq_rate, start_level, start_level)
        assert float(np.min(tails)) >= FOUR_SIGMA_TAIL, tails

    @pytest.mark.parametrize("rule_id", ["freq-1", "sev-half-large"])
    def test_wrong_start_row_is_rejected(self, rule_id):
        tails = _one_year_tails(ONE_YEAR_RULES[rule_id], 0.5, 5, 0)
        assert float(np.min(tails)) < FOUR_SIGMA_TAIL


class TestEmpiricalEstimates:
    def test_degenerate_effects_give_unit_relativities_everywhere(self):
        model = degenerate_model(freq_rate=0.5)
        summary = simulate_paths(SimConfig(model, FreqRule(9, 1), 150_000, seed=6))
        estimate, se = empirical_relativity(summary)
        assert np.allclose(estimate, 1.0, atol=1e-12)
        assert np.allclose(se, 0.0, atol=1e-12)

    def test_independent_effects_match_frequency_relativities(self):
        # Without effect dependence the aggregate conditional means coincide
        # with the frequency-only relativities.
        model = study_model(0.0)
        rule = FreqRule(9, 1)
        summary = simulate_paths(SimConfig(model, rule, 400_000, seed=8))
        estimate, se = empirical_relativity(summary)
        table = optimal_relativity_frequency(model, rule, 96)
        gaps = np.abs(estimate - table.relativities) / np.maximum(se, 1e-15)
        assert float(np.max(gaps)) < 3.0

    def test_insufficient_occupancy_raises(self, base_model):
        summary = simulate_paths(SimConfig(base_model, FreqRule(9, 1), 3_000, seed=9))
        with pytest.raises(InsufficientOccupancyError):
            empirical_relativity(summary)
        with pytest.raises(InsufficientOccupancyError):
            empirical_frequency_relativity(summary)

    def test_hmse_vector_length_checked(self, base_model):
        summary = simulate_paths(SimConfig(base_model, FreqRule(9, 1), 3_000, seed=10))
        with pytest.raises(ValueError):
            hmse_empirical(summary, np.ones(4))


class TestOracleChecks:
    def test_base_case_agreement(self, base_model):
        result = check_rule(
            base_model, SeverityRule(9, 1, 2, 16800.0), n_paths=150_000, seed=12
        )
        assert result.passed, result.failures

    def test_negative_control_fails(self, base_model):
        result = check_rule(
            base_model,
            FreqRule(9, 1),
            n_paths=150_000,
            seed=12,
            perturb={0: 0.1},
        )
        assert not result.passed
        assert any("relativity" in msg or "score" in msg for msg in result.failures)

    def test_degenerate_model_passes_with_unit_relativities(self):
        result = check_rule(degenerate_model(), FreqRule(9, 1), n_paths=120_000, seed=15)
        assert result.passed, result.failures
        assert np.allclose(result.analytic.relativities, 1.0, atol=1e-10)

    def test_undersized_runs_rejected_for_oracle_use(self, base_model):
        with pytest.raises(ValueError):
            check_rule(base_model, FreqRule(9, 1), n_paths=50_000, seed=1)
        with pytest.raises(ValueError):
            check_rule(base_model, FreqRule(9, 1), n_paths=200_000, seed=1, burn_in_years=50)
