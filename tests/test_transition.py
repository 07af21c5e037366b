"""Transition-matrix construction against enumeration oracles."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bonusmalus import (
    FreqRule,
    GammaSeverity,
    InvalidRuleError,
    LognormalCopulaEffects,
    ModelSpec,
    PoissonSeverity,
    Portfolio,
    RiskClass,
    SeverityRule,
    SimConfig,
    build_matrices,
    optimal_relativity_dependent,
    optimal_relativity_severity,
    simulate_paths,
    threshold_scan,
)
from bonusmalus.quadrature import severity_cdf
from bonusmalus.transition import jump_tails
from oracles import (
    enumeration_matrix,
    gamma_tail_by_quadrature,
    pair_set_upmove,
    poisson_truncation_bound,
)

GRID_RULES = [(3, 1, 1), (3, 1, 2), (3, 2, 3), (9, 1, 1), (9, 1, 2), (9, 1, 3), (9, 2, 2), (9, 2, 3), (9, 3, 3)]
GRID_MEANS = [0.1, 0.5, 2.0]
GRID_EXCEED = [0.0, 0.1, 0.5, 1.0]


def claim_count_pmf(k: int, mean: float) -> float:
    # From level 0 of a -1/+1 chain, k claims land on level k (below the top).
    return build_matrices(FreqRule(k + 1, 1), mean, 0)[0, 0, k]


class TestClaimCountPmf:
    def test_zero_claims(self):
        assert claim_count_pmf(0, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_two_claims_unit_mean(self):
        assert claim_count_pmf(2, 1.0) == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-15)

    def test_truncated_sum_mean_two(self):
        n_max = poisson_truncation_bound(2.0, 1e-12)
        total = math.fsum(claim_count_pmf(k, 2.0) for k in range(n_max + 1))
        assert 0.0 < 1.0 - total < 1e-12

    @given(
        st.integers(min_value=0, max_value=150),
        st.floats(min_value=1e-6, max_value=500.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_pmf(self, k, mean):
        assert claim_count_pmf(k, mean) == pytest.approx(
            float(stats.poisson.pmf(k, mean)), rel=1e-12, abs=1e-300
        )


class TestSeverityExceedance:
    LAW = GammaSeverity(1.0 / 0.67)

    def test_zero_threshold_is_certain(self):
        assert severity_cdf(0.0, 123.4, self.LAW, upper=True) == 1.0

    def test_far_tail_vanishes(self):
        mean = 50.0
        assert severity_cdf(mean * 1e6, mean, self.LAW, upper=True) < 1e-12

    def test_matches_density_integration_at_the_mean(self):
        mean = 6634.24
        oracle = gamma_tail_by_quadrature(mean, mean, self.LAW.shape)
        assert severity_cdf(mean, mean, self.LAW, upper=True) == pytest.approx(oracle, rel=1e-9)

    def test_strictly_decreasing_in_threshold(self):
        mean = 100.0
        phis = (0.0, 10.0, 100.0, 1000.0)
        values = [severity_cdf(phi, mean, self.LAW, upper=True) for phi in phis]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestFreqMatrix:
    def test_no_claim_limit_is_pure_downshift(self):
        P = build_matrices(FreqRule(5, 1), 1e-14, 0.0)[0]
        expected = np.zeros((6, 6))
        for lvl in range(6):
            expected[lvl, max(lvl - 1, 0)] = 1.0
        assert np.allclose(P, expected, atol=1e-10)

    def test_closed_form_row(self):
        P = build_matrices(FreqRule(3, 1), 0.5, 0.0)[0]
        e = math.exp(-0.5)
        assert P[1, 0] == pytest.approx(e, abs=1e-15)
        assert P[1, 2] == pytest.approx(0.5 * e, abs=1e-15)
        assert P[1, 3] == pytest.approx(1.0 - 1.5 * e, abs=1e-15)

    def test_rows_sum_to_one(self):
        P = build_matrices(FreqRule(9, 2), 3.0, 0.0)[0]
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("mean", GRID_MEANS)
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_matches_enumeration(self, step, mean):
        rule = FreqRule(9, step)
        P = build_matrices(rule, mean, 0.0)[0]
        oracle = enumeration_matrix(rule, mean, 0.0)
        assert np.allclose(P, oracle, atol=1e-10)


class TestSeverityMatrix:
    def test_no_large_claims_collapses_to_small_step(self):
        rule = SeverityRule(9, 1, 3, 100.0)
        P = build_matrices(rule, 0.7, 0.0)[0]
        Q = build_matrices(FreqRule(9, 1), 0.7, 0.0)[0]
        assert np.max(np.abs(P - Q)) < 1e-14

    def test_all_large_claims_collapses_to_large_step(self):
        rule = SeverityRule(9, 1, 3, 100.0)
        P = build_matrices(rule, 0.7, 1.0)[0]
        Q = build_matrices(FreqRule(9, 3), 0.7, 0.0)[0]
        assert np.max(np.abs(P - Q)) < 1e-14

    def test_matches_indicator_enumeration(self):
        rule = SeverityRule(4, 1, 2, 100.0)
        P = build_matrices(rule, 0.5, 0.3)[0]
        oracle = enumeration_matrix(rule, 0.5, 0.3)
        assert np.allclose(P, oracle, atol=1e-10)

    @pytest.mark.parametrize("exceed", GRID_EXCEED)
    @pytest.mark.parametrize("mean", GRID_MEANS)
    @pytest.mark.parametrize("z,small,large", GRID_RULES)
    def test_grid_row_stochastic_and_nonnegative(self, z, small, large, mean, exceed):
        P = build_matrices(SeverityRule(z, small, large, 1.0), mean, exceed)[0]
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
        assert np.min(P) >= 0.0

    @pytest.mark.parametrize("exceed", GRID_EXCEED)
    @pytest.mark.parametrize("mean", GRID_MEANS)
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_equal_steps_collapse_for_any_exceedance(self, step, mean, exceed):
        P = build_matrices(SeverityRule(9, step, step, 1.0), mean, exceed)[0]
        Q = build_matrices(FreqRule(9, step), mean, 0.0)[0]
        assert np.max(np.abs(P - Q)) < 1e-14

    @pytest.mark.parametrize("mean", GRID_MEANS)
    @pytest.mark.parametrize("z,small,large", GRID_RULES)
    def test_remainder_route_equals_pair_set_route(self, z, small, large, mean):
        # The production sum iterates large-claim counts with an exact integer
        # remainder; the pair-set route enumerates (k1, k2) directly.
        rule = SeverityRule(z, small, large, 1.0)
        exceed = 0.37
        P = build_matrices(rule, mean, exceed)[0]
        q1 = [claim_count_pmf(k, mean) for k in range(z // small + 2)]
        for lvl in range(z + 1):
            for target in range(lvl + 1, z):
                expected = pair_set_upmove(target - lvl, small, large, q1, exceed)
                assert P[lvl, target] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("z,small,large", GRID_RULES)
    def test_sparsity_pattern(self, z, small, large):
        P = build_matrices(SeverityRule(z, small, large, 1.0), 0.8, 0.25)[0]
        for lvl in range(z + 1):
            for target in range(z + 1):
                below_subdiagonal = target < max(lvl - 1, 0)
                stay_put_interior = target == lvl and 0 < lvl < z
                if below_subdiagonal or stay_put_interior:
                    assert P[lvl, target] == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1e-3, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_random_profiles_stay_stochastic(self, exceed, mean):
        P = build_matrices(SeverityRule(6, 1, 2, 1.0), mean, exceed)[0]
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
        assert np.min(P) >= 0.0


class TestBuildMatrices:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.lists(
            st.tuples(
                st.floats(min_value=1e-3, max_value=5.0), st.floats(min_value=0.0, max_value=1.0)
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_enumeration_and_single_builds(self, z, small, extra, profiles):
        rule = SeverityRule(z, small, small + extra, 1.0)
        means, exceed = (np.array(v) for v in zip(*profiles))
        stack = build_matrices(rule, means, exceed)
        assert stack.shape == (len(profiles), z + 1, z + 1)
        for P, (mean, q) in zip(stack, profiles):
            assert np.array_equal(P, build_matrices(rule, mean, q)[0])
            assert np.allclose(P, enumeration_matrix(rule, mean, q), atol=1e-10)


class TestJumpLawMemory:
    def test_peak_allocation_stays_a_few_results(self):
        # Gathering every large-claim count at once held profiles x z x
        # (z // large_step + 1) floats: 79 MiB here for a 0.2 MiB result, and
        # gigabytes for a 1000-level scale on a 32-node grid.
        rule = SeverityRule(400, 1, 2, 1.0)
        means, exceed = np.linspace(0.1, 3.0, 64), np.linspace(0.0, 1.0, 64)
        jump_tails(rule, means, exceed)  # fills the cached index tables
        tracemalloc.start()
        try:
            _, tails = jump_tails(rule, means, exceed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * tails.nbytes


class TestRuleValidation:
    def test_inverted_steps_rejected(self, base_model):
        with pytest.raises(InvalidRuleError):
            optimal_relativity_severity(base_model, SeverityRule(9, 2, 1, 100.0))

    def test_negative_threshold_rejected(self, base_model):
        with pytest.raises(InvalidRuleError):
            threshold_scan(base_model, SeverityRule(9, 1, 2, 1.0), [-5.0])


def _one_class_model(severity, sev_rate):
    return ModelSpec(
        Portfolio([RiskClass(1.0, 0.5, sev_rate)]),
        severity,
        LognormalCopulaEffects(-0.8, 0.99, 0.29),
    )


EXTREME_LAWS = [
    pytest.param(GammaSeverity(1.0 / 0.67), math.exp(8.8), id="gamma"),
    pytest.param(PoissonSeverity(), 3.0, id="poisson"),
]


class TestExtremeThresholds:
    @pytest.mark.parametrize("severity,sev_rate", EXTREME_LAWS)
    def test_infinite_threshold_is_the_small_step_frequency_rule(self, severity, sev_rate):
        # No claim exceeds an infinite threshold, so every claim takes the
        # small step and the chain is the frequency rule with that step.
        model = _one_class_model(severity, sev_rate)
        sev = optimal_relativity_severity(model, SeverityRule(9, 1, 2, math.inf), 16)
        freq = optimal_relativity_dependent(model, FreqRule(9, 1), 16)
        np.testing.assert_array_equal(sev.relativities, freq.relativities)
        np.testing.assert_array_equal(sev.stationary, freq.stationary)
        assert sev.hmse_raw == freq.hmse_raw

    @pytest.mark.parametrize("severity,sev_rate", EXTREME_LAWS)
    @pytest.mark.parametrize("threshold", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_nan_and_negative_infinite_thresholds_rejected(self, severity, sev_rate, threshold):
        # No such rule can be built, nor derived from a valid one by a scan.
        model = _one_class_model(severity, sev_rate)
        with pytest.raises(InvalidRuleError):
            SeverityRule(9, 1, 2, threshold)
        with pytest.raises(InvalidRuleError):
            threshold_scan(model, SeverityRule(9, 1, 2, 1.0), [threshold], 16)

    def test_infinite_threshold_simulates(self):
        model = _one_class_model(PoissonSeverity(), 3.0)
        summary = simulate_paths(
            SimConfig(model, SeverityRule(9, 1, 2, math.inf), 1_000, seed=1, burn_in_years=5)
        )
        assert summary.counts.sum() == 1_000
