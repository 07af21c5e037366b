"""Simulator determinism, limiting behavior, and oracle agreement."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

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
from bonusmalus.verify import check_rule
from conftest import degenerate_model, study_model


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
        summary = simulate_paths(SimConfig(base_model, FreqRule(9, 1), 30_000, seed=5))
        assert summary.level_distribution.sum() == 1.0

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
        assert summary.counts.sum() == 60_000
        assert summary.level_distribution.sum() == 1.0


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
