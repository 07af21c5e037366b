"""Stationary solves and the unconditional level distribution."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from bonusmalus import (
    FreqRule,
    SeverityRule,
    SingularSystemError,
    build_grid,
    build_matrices,
    exceedance_profile,
    stationary_distribution,
    unconditional_level_distribution,
)
from conftest import degenerate_model, study_model
from oracles import power_iteration_stationary


class TestStationaryDistribution:
    def test_always_move_down_chain(self):
        pi = stationary_distribution(build_matrices(FreqRule(9, 1), 1e-14, 0.0)[0])
        expected = np.zeros(10)
        expected[0] = 1.0
        assert np.allclose(pi, expected, atol=1e-9)

    def test_agrees_with_power_iteration(self):
        P = build_matrices(FreqRule(9, 1), 0.5, 0.0)[0]
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi - power_iteration_stationary(P))) < 1e-9

    @pytest.mark.parametrize("mean", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("z,small,large", [(3, 1, 2), (9, 1, 2), (9, 2, 3)])
    def test_fixed_point_residual(self, z, small, large, mean):
        P = build_matrices(SeverityRule(z, small, large, 1.0), mean, 0.3)[0]
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi @ P - pi)) < 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.min(pi) >= -1e-15

    def test_identity_chain_is_singular(self):
        with pytest.raises(SingularSystemError), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stationary_distribution(np.eye(4))

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.full((3, 3), 0.5))

    def test_near_reducible_chain_warns(self):
        eps = 1e-13
        P = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pi = stationary_distribution(P)
        assert any("condition" in str(w.message) for w in caught)
        assert np.allclose(pi, [0.5, 0.5], atol=1e-6)


class TestUnconditionalLevels:
    def test_degenerate_effects_reduce_to_single_profile(self):
        model = degenerate_model(freq_rate=0.5)
        rule = FreqRule(9, 1)
        mixed = unconditional_level_distribution(model, rule)
        single = stationary_distribution(build_matrices(rule, 0.5, 0.0)[0])
        assert np.max(np.abs(mixed - single)) < 1e-12

    def test_degenerate_effects_severity_rule(self):
        model = degenerate_model(freq_rate=0.5, sev_rate=5000.0)
        rule = SeverityRule(9, 1, 2, 5000.0)
        mixed = unconditional_level_distribution(model, rule)
        q = exceedance_profile(5000.0, 5000.0, model.severity)
        single = stationary_distribution(build_matrices(rule, 0.5, q)[0])
        assert np.max(np.abs(mixed - single)) < 1e-12

    def test_study_base_case_levels(self):
        model = study_model(-0.8)
        levels = unconditional_level_distribution(model, FreqRule(9, 1))
        assert levels[9] == pytest.approx(0.135, abs=0.01)
        assert levels[0] == pytest.approx(0.496, abs=0.01)
        assert levels.sum() == pytest.approx(1.0, abs=1e-10)

    def test_study_severity_rule_levels(self):
        model = study_model(-0.8)
        levels = unconditional_level_distribution(model, SeverityRule(9, 1, 2, 8200.0))
        assert levels[9] == pytest.approx(0.148, abs=0.01)

    def test_lower_threshold_never_reduces_top_level_mass(self):
        model = study_model(-0.8)
        masses = []
        for phi in (4000.0, 8200.0, 16800.0, 48100.0, 94300.0, 5e5):
            levels = unconditional_level_distribution(
                model, SeverityRule(9, 1, 2, phi), nodes=24
            )
            masses.append(levels[9])
        assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))

    def test_freq_rule_levels_ignore_severity_model(self):
        base = study_model(-0.8)
        other = study_model(0.4, log_var2=1.0, sev_rate=123.0)
        rule = FreqRule(9, 1)
        a = unconditional_level_distribution(base, rule)
        b = unconditional_level_distribution(other, rule)
        assert np.array_equal(a, b)

    def test_matches_joint_grid_route_for_freq_rule(self):
        # The frequency-marginal shortcut and the full joint grid agree.
        model = study_model(-0.8)
        rule = FreqRule(5, 1)
        marginal_route = unconditional_level_distribution(model, rule, nodes=16)
        grid = build_grid(model.effects, 16)
        from bonusmalus import conditional_stationary_field

        field = conditional_stationary_field(model, rule, grid)
        joint_route = np.einsum("n,knl->l", grid.weights, field)
        assert np.max(np.abs(marginal_route - joint_route)) < 1e-12
