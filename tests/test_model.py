"""Domain-type validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bonusmalus import (
    ClaimHistory,
    DegenerateEffects,
    FreqRule,
    GammaSeverity,
    InconsistentHistoryError,
    InvalidRuleError,
    LognormalCopulaEffects,
    MixtureExponentialEffects,
    ModelSpec,
    NonUnitEffectMeanError,
    NonUnitWeightsError,
    Portfolio,
    RiskClass,
    SeverityRule,
    build_grid,
    validate_model,
    validate_rule,
)
from conftest import SEV_RATE
from oracles import poisson_truncation_bound


def _spec(classes, effects=DegenerateEffects()):
    return ModelSpec(Portfolio(classes), GammaSeverity(1.0 / 0.67), effects)


class TestPortfolio:
    def test_weights_renormalized_within_tolerance(self):
        eps = 4e-10
        spec = validate_model(
            _spec([RiskClass(0.5, 1.0, 10.0), RiskClass(0.5 + eps, 2.0, 20.0)])
        )
        assert abs(math.fsum(spec.portfolio.weights) - 1.0) <= 1e-12

    def test_weights_off_by_too_much_rejected(self):
        with pytest.raises(NonUnitWeightsError):
            validate_model(_spec([RiskClass(0.5, 1.0, 10.0), RiskClass(0.6, 2.0, 20.0)]))

    def test_empty_portfolio_rejected(self):
        with pytest.raises(Exception):
            validate_model(_spec([]))

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(Exception):
            validate_model(_spec([RiskClass(1.0, 0.0, 10.0)]))
        with pytest.raises(Exception):
            validate_model(_spec([RiskClass(1.0, 1.0, -5.0)]))


class TestEffects:
    def test_mixture_mean_one_accepted(self):
        # 0.5/2 + 0.5*1.5 == 1 exactly.
        effects = MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0)
        spec = validate_model(_spec([RiskClass(1.0, 0.5, 10.0)], effects))
        assert spec.effects is effects

    def test_mixture_mean_violation_rejected(self):
        with pytest.raises(NonUnitEffectMeanError):
            validate_model(
                _spec([RiskClass(1.0, 0.5, 10.0)], MixtureExponentialEffects(0.5, 2.0, 0.5))
            )

    def test_mixture_rate_order_enforced_for_interior_weight(self):
        # Mean-one but rate1 < rate2.
        with pytest.raises(Exception):
            validate_model(
                _spec(
                    [RiskClass(1.0, 0.5, 10.0)],
                    MixtureExponentialEffects(0.5, 2.0 / 3.0, 2.0),
                )
            )

    def test_lognormal_copula_accepted_with_unit_means(self):
        effects = LognormalCopulaEffects(-0.8, 0.99, 0.29)
        validate_model(_spec([RiskClass(1.0, 0.5, SEV_RATE)], effects))
        grid = build_grid(effects, 32)
        assert abs(grid.weights @ grid.theta1 - 1.0) < 1e-8
        assert abs(grid.weights @ grid.theta2 - 1.0) < 1e-8

    def test_correlation_bounds(self):
        with pytest.raises(Exception):
            validate_model(
                _spec([RiskClass(1.0, 0.5, 10.0)], LognormalCopulaEffects(-1.2, 0.5, 0.5))
            )


class TestRules:
    def test_severity_rule_step_order(self):
        with pytest.raises(InvalidRuleError):
            validate_rule(SeverityRule(9, 2, 1, 100.0))

    def test_minimum_levels(self):
        with pytest.raises(InvalidRuleError):
            validate_rule(FreqRule(0, 1))

    def test_positive_threshold(self):
        with pytest.raises(InvalidRuleError):
            validate_rule(SeverityRule(9, 1, 2, 0.0))

    def test_valid_rules_pass_through(self):
        rule = SeverityRule(9, 1, 2, 16800.0)
        assert validate_rule(rule) is rule
        assert rule.levels == 10


class TestClaimHistory:
    def test_empty_history_allowed(self):
        assert ClaimHistory([]).validate().years == 0

    def test_severity_without_claim_rejected(self):
        with pytest.raises(InconsistentHistoryError):
            ClaimHistory([0, 1], [3.0, 2.0]).validate()

    def test_lengths_must_match(self):
        with pytest.raises(InconsistentHistoryError):
            ClaimHistory([1, 2], [3.0]).validate()

    def test_totals(self):
        history = ClaimHistory([1, 0, 2], [4.0, 0.0, 5.0]).validate()
        assert history.total_count == 3
        assert history.total_aggregate == 9.0

    @pytest.mark.parametrize(
        "counts,aggregates",
        [
            ([math.inf], None),
            ([-0.5], None),
            ([0.5], None),
            ([-1], None),
            ([math.nan], None),
            ("12", None),
            ([True, 0], None),
            ([10**400], None),
            ([2**53 + 1], None),
            ([1, 0, 2], [math.nan, 0, 5]),
            ([1, 0, 2], [math.inf, 0, 5]),
            ([1], [-2.0]),
            ([1], ["3"]),
            ([1], [10**400]),
        ],
        ids=[
            "count_inf",
            "count_negative_fraction",
            "count_fraction",
            "count_negative",
            "count_nan",
            "counts_string",
            "count_bool",
            "count_huge_int",
            "count_above_2_53",
            "aggregate_nan",
            "aggregate_inf",
            "aggregate_negative",
            "aggregate_string",
            "aggregate_huge_int",
        ],
    )
    def test_malformed_entries_rejected_on_construction(self, counts, aggregates):
        with pytest.raises(InconsistentHistoryError):
            ClaimHistory(counts, aggregates)

    def test_aggregate_total_must_stay_finite(self):
        with pytest.raises(InconsistentHistoryError):
            ClaimHistory([1, 1], [1e308, 1e308]).validate()

    def test_whole_floats_and_numpy_scalars_accepted(self):
        history = ClaimHistory([2.0, np.int64(3), np.float32(1.0)], [np.float64(4.5), 5, 1])
        assert history.counts == (2, 3, 1)
        assert all(type(n) is int for n in history.counts)
        assert history.aggregates == (4.5, 5.0, 1.0)


def test_poisson_truncation_bound_controls_tail():
    from scipy import stats

    for mean in (0.1, 0.5, 2.0, 30.0):
        n = poisson_truncation_bound(mean, 1e-12)
        assert stats.poisson.sf(n, mean) < 1e-12
        assert stats.poisson.sf(max(n - 2, 0), mean) >= 1e-12 or n <= 2
