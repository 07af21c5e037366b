"""Jump tails of the level chains against enumeration oracles."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bonusmalus import (
    FreqRule,
    GammaSeverity,
    LognormalCopulaEffects,
    ModelSpec,
    ModelValidationError,
    PoissonSeverity,
    Portfolio,
    RiskClass,
    SeverityRule,
    SimConfig,
    optimal_relativity_dependent,
    optimal_relativity_severity,
    simulate_paths,
    threshold_scan,
)
from bonusmalus import transition
from bonusmalus.quadrature import severity_cdf
from bonusmalus.transition import jump_tails
from conftest import traced_peak
from oracles import (
    enumeration_tails,
    gamma_tail_by_quadrature,
    pair_set_upmove,
    poisson_truncation_bound,
)

GRID_RULES = [(3, 1, 1), (3, 1, 2), (3, 2, 3), (9, 1, 1), (9, 1, 2), (9, 1, 3), (9, 2, 2), (9, 2, 3), (9, 3, 3)]
GRID_MEANS = [0.1, 0.5, 2.0]
GRID_EXCEED = [0.0, 0.1, 0.5, 1.0]


def claim_count_tail(k: int, mean: float) -> float:
    # Under a -1/+1 rule with top level k + 1, more than k claims jump k + 1 or more.
    return jump_tails(FreqRule(k + 1, 1), mean, 0)[1][0, k]


def assert_stochastic(p0, T):
    """Each profile's law: no-claim mass plus the tail of all jumps is one, tails fall in g."""
    assert np.max(np.abs(p0 + T[:, 0] - 1.0)) < 1e-12
    assert np.min(T) >= 0.0 and np.max(T) <= 1.0
    assert np.all(np.diff(T, axis=1) <= 0.0)


def max_gap(a, b) -> float:
    return max(np.max(np.abs(a[0] - b[0])), np.max(np.abs(a[1] - b[1])))


class TestClaimCountPmf:
    """The claim-count law enters the chain through ``p0`` and its upper tails."""

    def test_zero_claims(self):
        p0, _ = jump_tails(FreqRule(1, 1), 0.5, 0)
        assert p0[0] == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_two_claims_unit_mean(self):
        # More than two claims at mean one: 1 - e^-1 (1 + 1 + 1/2).
        assert claim_count_tail(2, 1.0) == pytest.approx(1.0 - 2.5 * math.exp(-1.0), abs=1e-15)

    def test_truncated_sum_mean_two(self):
        n_max = poisson_truncation_bound(2.0, 1e-12)
        assert 0.0 < claim_count_tail(n_max, 2.0) < 1e-12

    @given(
        st.integers(min_value=0, max_value=150),
        st.floats(min_value=1e-6, max_value=500.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_pmf(self, k, mean):
        p0, T = jump_tails(FreqRule(k + 1, 1), mean, 0)
        assert p0[0] == pytest.approx(float(stats.poisson.pmf(0, mean)), rel=1e-12, abs=1e-300)
        assert T[0, k] == pytest.approx(float(stats.poisson.sf(k, mean)), rel=1e-12, abs=1e-300)


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
    """The jump law of a frequency rule's chain."""

    def test_no_claim_limit_is_pure_downshift(self):
        p0, T = jump_tails(FreqRule(5, 1), 1e-14, 0.0)
        assert np.allclose(p0, 1.0, atol=1e-10)
        assert np.allclose(T, 0.0, atol=1e-10)

    def test_closed_form_row(self):
        p0, T = jump_tails(FreqRule(3, 1), 0.5, 0.0)
        e = math.exp(-0.5)
        assert p0[0] == pytest.approx(e, abs=1e-15)
        assert T[0, 0] - T[0, 1] == pytest.approx(0.5 * e, abs=1e-15)  # exactly one claim
        assert T[0, 1] == pytest.approx(1.0 - 1.5 * e, abs=1e-15)

    def test_rows_sum_to_one(self):
        p0, T = jump_tails(FreqRule(9, 2), 3.0, 0.0)
        assert np.max(np.abs(p0 + T[:, 0] - 1.0)) < 1e-12

    @pytest.mark.parametrize("mean", GRID_MEANS)
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_matches_enumeration(self, step, mean):
        rule = FreqRule(9, step)
        p0, T = jump_tails(rule, mean, 0.0)
        oracle_p0, oracle_T = enumeration_tails(rule, mean, 0.0)
        assert p0[0] == pytest.approx(oracle_p0, abs=1e-10)
        assert np.allclose(T[0], oracle_T, atol=1e-10)


class TestSeverityMatrix:
    """The jump law of a severity-aware rule's chain."""

    def test_no_large_claims_collapses_to_small_step(self):
        rule = SeverityRule(9, 1, 3, 100.0)
        assert max_gap(jump_tails(rule, 0.7, 0.0), jump_tails(FreqRule(9, 1), 0.7, 0.0)) < 1e-14

    def test_all_large_claims_collapses_to_large_step(self):
        rule = SeverityRule(9, 1, 3, 100.0)
        assert max_gap(jump_tails(rule, 0.7, 1.0), jump_tails(FreqRule(9, 3), 0.7, 0.0)) < 1e-14

    def test_matches_indicator_enumeration(self):
        rule = SeverityRule(4, 1, 2, 100.0)
        p0, T = jump_tails(rule, 0.5, 0.3)
        oracle_p0, oracle_T = enumeration_tails(rule, 0.5, 0.3)
        assert p0[0] == pytest.approx(oracle_p0, abs=1e-10)
        assert np.allclose(T[0], oracle_T, atol=1e-10)

    @pytest.mark.parametrize("exceed", GRID_EXCEED)
    @pytest.mark.parametrize("mean", GRID_MEANS)
    @pytest.mark.parametrize("z,small,large", GRID_RULES)
    def test_grid_row_stochastic_and_nonnegative(self, z, small, large, mean, exceed):
        assert_stochastic(*jump_tails(SeverityRule(z, small, large, 1.0), mean, exceed))

    @pytest.mark.parametrize("exceed", GRID_EXCEED)
    @pytest.mark.parametrize("mean", GRID_MEANS)
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_equal_steps_collapse_for_any_exceedance(self, step, mean, exceed):
        sev = jump_tails(SeverityRule(9, step, step, 1.0), mean, exceed)
        assert max_gap(sev, jump_tails(FreqRule(9, step), mean, 0.0)) < 1e-14

    @pytest.mark.parametrize("mean", GRID_MEANS)
    @pytest.mark.parametrize("z,small,large", GRID_RULES)
    def test_remainder_route_equals_pair_set_route(self, z, small, large, mean):
        # The production sum iterates large-claim counts with an exact integer
        # remainder; the pair-set route enumerates (k1, k2) directly.  A jump
        # of exactly g that stays below the top is the difference of tails.
        rule = SeverityRule(z, small, large, 1.0)
        exceed = 0.37
        _, T = jump_tails(rule, mean, exceed)
        q1 = [float(stats.poisson.pmf(k, mean)) for k in range(z // small + 2)]
        for gap in range(1, z):
            expected = pair_set_upmove(gap, small, large, q1, exceed)
            assert T[0, gap - 1] - T[0, gap] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("z,small,large", GRID_RULES)
    def test_sparsity_pattern(self, z, small, large):
        # A jump below the top carries mass exactly when some claim pair
        # makes it, in the production tails as in the enumerated chain.
        rule = SeverityRule(z, small, large, 1.0)
        _, T = jump_tails(rule, 0.8, 0.25)
        _, oracle_T = enumeration_tails(rule, 0.8, 0.25)
        reachable = {small * k1 + large * k2 for k1 in range(z + 1) for k2 in range(z + 1)}
        for gap in range(1, z):
            for tails in (T[0], oracle_T):
                if gap in reachable:
                    assert tails[gap - 1] > tails[gap]
                else:
                    assert tails[gap - 1] == tails[gap]

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1e-3, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_random_profiles_stay_stochastic(self, exceed, mean):
        assert_stochastic(*jump_tails(SeverityRule(6, 1, 2, 1.0), mean, exceed))


class TestStackedProfiles:
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
    def test_stack_matches_enumeration_and_single_calls(self, z, small, extra, profiles):
        rule = SeverityRule(z, small, small + extra, 1.0)
        means, exceed = (np.array(v) for v in zip(*profiles))
        p0, T = jump_tails(rule, means, exceed)
        assert p0.shape == (len(profiles),) and T.shape == (len(profiles), z)
        for i, (mean, q) in enumerate(profiles):
            single_p0, single_T = jump_tails(rule, mean, q)
            assert p0[i] == single_p0[0] and np.array_equal(T[i], single_T[0])
            oracle_p0, oracle_T = enumeration_tails(rule, mean, q)
            assert p0[i] == pytest.approx(oracle_p0, abs=1e-10)
            assert np.allclose(T[i], oracle_T, atol=1e-10)

    @pytest.mark.parametrize("rule", [SeverityRule(9, 1, 2, 1.0), FreqRule(1000, 1)], ids=str)
    def test_large_means_do_not_depend_on_the_batch(self, rule):
        # Above a mean of 700 a pmf column runs down from its top probability;
        # a profile's tails must not depend on the other profiles beside it.
        means = np.array([0.5, 3.0, 650.0, 701.0, 703.5, 900.0, 5000.0, 16800.0, 1e6])
        exceed = np.array([0.0, 0.3, 0.5, 0.0, 0.99, 1.0, 0.2, 0.7, 0.4])
        p0, T = jump_tails(rule, means, exceed)
        for i, (mean, q) in enumerate(zip(means, exceed)):
            single_p0, single_T = jump_tails(rule, mean, q)
            assert p0[i] == single_p0[0] and np.array_equal(T[i], single_T[0]), mean


class TestJumpTailInputs:
    @pytest.mark.parametrize("exceed", [-0.1, 1.1, math.nan])
    def test_exceedance_outside_unit_interval_rejected(self, exceed):
        with pytest.raises(ValueError):
            jump_tails(SeverityRule(9, 1, 2, 1.0), 0.5, exceed)


class TestJumpLawMemory:
    def test_peak_allocation_stays_a_few_results(self):
        # Gathering every large-claim count at once held profiles x z x
        # (z // large_step + 1) floats: 79 MiB here for a 0.2 MiB result, and
        # gigabytes for a 1000-level scale on a 32-node grid.
        rule = SeverityRule(400, 1, 2, 1.0)
        means, exceed = np.linspace(0.1, 3.0, 64), np.linspace(0.0, 1.0, 64)
        jump_tails(rule, means, exceed)  # fills the cached index tables
        (_, tails), peak, _ = traced_peak(lambda: jump_tails(rule, means, exceed))
        assert peak < 16 * tails.nbytes


class TestRuleValidation:
    def test_inverted_steps_rejected(self, base_model):
        with pytest.raises(ModelValidationError, match="large-claim step 1 must be >="):
            optimal_relativity_severity(base_model, SeverityRule(9, 2, 1, 100.0))

    def test_negative_threshold_rejected(self, base_model):
        with pytest.raises(ModelValidationError, match="claim-size threshold -5.0"):
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
        with pytest.raises(ModelValidationError, match="claim-size threshold"):
            SeverityRule(9, 1, 2, threshold)
        with pytest.raises(ModelValidationError, match="claim-size threshold"):
            threshold_scan(model, SeverityRule(9, 1, 2, 1.0), [threshold], 16)

    def test_infinite_threshold_simulates(self):
        model = _one_class_model(PoissonSeverity(), 3.0)
        summary = simulate_paths(
            SimConfig(model, SeverityRule(9, 1, 2, math.inf), 1_000, seed=1, burn_in_years=5)
        )
        assert summary.counts.sum() == 1_000


def _reference_tails(mean: float, kmax: int) -> list:
    """``P(N > k)`` for ``k = 0..kmax`` at 50 digits, from positive terms.

    Below the top count the tail starts from the upward sum of probabilities
    above ``kmax``; above it, from one minus the distribution function.  Either
    way the rest follow down by adding probabilities.
    """
    with mp.workdps(50):
        m = mp.mpf(mean)
        pmf = [mp.exp(-m)]
        for k in range(1, kmax + 1):
            pmf.append(pmf[-1] * m / k)
        if m > kmax + 1:
            top = 1 - mp.fsum(pmf)
        else:
            term, top, k = pmf[-1], mp.mpf(0), kmax
            while True:
                k += 1
                term = term * m / k
                top += term
                if term < top * mp.mpf("1e-60") or term == 0:
                    break
        tails = [top]
        for k in range(kmax, 0, -1):
            tails.append(tails[-1] + pmf[k])
        return tails[::-1]


class TestTailRecurrence:
    """Claim-count tails summed from the Poisson pmf against 50-digit references."""

    MEANS = [0.0, 1e-300] + [10.0**e for e in range(-6, 7)] + [1e20]

    @pytest.mark.parametrize("z", [1, 2, 9, 40, 200, 1000])
    def test_tails_match_50_digit_reference(self, z):
        _, T = jump_tails(FreqRule(z, 1), np.array(self.MEANS), 0.0)
        assert np.min(T) >= 0.0 and np.max(T) <= 1.0
        assert np.all(np.diff(T, axis=1) <= 0.0)
        worst = 0.0
        for row, mean in zip(T, self.MEANS):
            for value, ref in zip(row, _reference_tails(mean, z - 1)):
                if ref >= np.finfo(float).tiny:
                    worst = max(worst, float(abs(mp.mpf(float(value)) - ref) / ref))
        assert worst <= 1e-13, worst

    @pytest.mark.parametrize("width", [3, 300], ids=["narrow", "wide"])
    def test_upper_tails_leave_the_pmf_unchanged(self, width):
        # Narrow and wide batches take the two accumulation routes.
        means = np.resize(np.array(self.MEANS), width)
        pmf = transition._poisson_pmf(means, 10)
        before = pmf.copy()
        tails = transition._upper_tails(means, pmf)
        assert np.array_equal(pmf, before)
        assert np.array_equal(tails, transition._upper_tails(means, before.copy()))
