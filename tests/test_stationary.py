"""Stationary rows, the cut recursion and the unconditional level distribution."""

from __future__ import annotations

import json
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonusmalus import (
    BonusMalusError,
    FreqRule,
    GammaSeverity,
    LognormalCopulaEffects,
    MixtureExponentialEffects,
    ModelSpec,
    PoissonSeverity,
    Portfolio,
    QuadratureGrid,
    RiskClass,
    SeverityRule,
    hmse_eval,
    marginal_grid,
    optimal_relativity_dependent,
    optimal_relativity_frequency,
    optimal_relativity_severity,
    threshold_scan,
    unconditional_level_distribution,
)
from bonusmalus import cli, relativity, stationary
from bonusmalus.cli import parse_model
from bonusmalus.presets import PRESETS, get_preset
from bonusmalus.quadrature import build_grid, severity_cdf
from bonusmalus.stationary import _stationary_batch
from bonusmalus.transition import jump_tails
from conftest import dat_model, degenerate_model, stationary_field, study_model, traced_peak
from oracles import (
    enumeration_matrix,
    hmse_double_integral,
    power_iteration_stationary,
    stationary_distribution,
)
from test_relativity import EQUAL_STEP_MODELS


class TestStationaryDistribution:
    def test_always_move_down_chain(self):
        pi = stationary_distribution(enumeration_matrix(FreqRule(9, 1), 1e-14, 0.0))
        expected = np.zeros(10)
        expected[0] = 1.0
        assert np.allclose(pi, expected, atol=1e-9)

    def test_agrees_with_power_iteration(self):
        P = enumeration_matrix(FreqRule(9, 1), 0.5, 0.0)
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi - power_iteration_stationary(P))) < 1e-9

    @pytest.mark.parametrize("mean", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("z,small,large", [(3, 1, 2), (9, 1, 2), (9, 2, 3)])
    def test_fixed_point_residual(self, z, small, large, mean):
        P = enumeration_matrix(SeverityRule(z, small, large, 1.0), mean, 0.3)
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi @ P - pi)) < 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.min(pi) >= -1e-15

    def test_identity_chain_is_singular(self):
        with pytest.raises(BonusMalusError) as excinfo, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stationary_distribution(np.eye(4))
        assert excinfo.type is BonusMalusError

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


STEPS = st.integers(min_value=1, max_value=32)
RULES = st.one_of(
    st.builds(FreqRule, st.integers(min_value=1, max_value=30), STEPS),
    st.tuples(st.integers(min_value=1, max_value=30), STEPS, STEPS).map(
        lambda t: SeverityRule(t[0], min(t[1:]), max(t[1:]), 1.0)
    ),
)
PROFILES = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, 1e-14]), st.floats(min_value=1e-14, max_value=6.0)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    ),
    min_size=1,
    max_size=3,
)


class TestCutRecursion:
    @given(RULES, PROFILES)
    @settings(max_examples=60, deadline=None)
    def test_matches_power_iteration_on_enumerated_chains(self, rule, profiles):
        means, exceed = (np.array(v) for v in zip(*profiles))
        batch = _stationary_batch(*jump_tails(rule, means, exceed))
        assert batch.shape == (len(profiles), rule.levels)
        assert np.min(batch) >= 0.0
        for row, (mean, q) in zip(batch, profiles):
            oracle = power_iteration_stationary(enumeration_matrix(rule, mean, q))
            assert np.max(np.abs(row - oracle)) < 1e-10
            # A batch row is bitwise the row of a one-profile call.
            assert np.array_equal(row, _stationary_batch(*jump_tails(rule, mean, q))[0])

    def test_tails_inconsistent_with_p0_rejected(self):
        p0, T = jump_tails(FreqRule(9, 1), 0.5, 0.0)
        with pytest.raises(BonusMalusError) as excinfo:
            _stationary_batch(p0, 0.5 * T)
        assert excinfo.type is BonusMalusError

    def test_non_finite_tails_rejected(self):
        p0, T = jump_tails(FreqRule(9, 1), 0.5, 0.0)
        T[0, 3] = np.nan
        with pytest.raises(BonusMalusError) as excinfo:
            _stationary_batch(p0, T)
        assert excinfo.type is BonusMalusError

    @pytest.mark.parametrize("residual, passes", [(1e-6, False), (1e-10, True)])
    def test_residual_gate_sits_at_1e_9(self, monkeypatch, residual, passes):
        # No real chain lands between 1e-9 and 1e-3, so only a faked
        # residual shows where the gate sits.
        p0, T = jump_tails(FreqRule(9, 1), np.array([0.5, 2.0]), np.zeros(2))
        rows = _stationary_batch(p0, T)
        monkeypatch.setattr(stationary, "_balance_residual", lambda *chains: residual)
        if passes:
            assert np.array_equal(_stationary_batch(p0, T), rows)
        else:
            with pytest.raises(BonusMalusError, match="residual 1e-06 too large") as excinfo:
                _stationary_batch(p0, T)
            assert excinfo.type is BonusMalusError


class TestUnconditionalLevels:
    @pytest.mark.parametrize("rate", [50.0, 1e3, 1e20])
    @pytest.mark.parametrize(
        "rule", [FreqRule(9, 1), SeverityRule(9, 1, 2, 16800.0)], ids=["freq", "sev"]
    )
    def test_extreme_claim_rates_give_no_negative_mass(self, rule, rate):
        levels = unconditional_level_distribution(degenerate_model(freq_rate=rate), rule)
        assert np.min(levels) >= 0.0
        assert abs(levels.sum() - 1.0) <= rule.levels * np.finfo(float).eps


    def test_degenerate_effects_reduce_to_single_profile(self):
        model = degenerate_model(freq_rate=0.5)
        rule = FreqRule(9, 1)
        mixed = unconditional_level_distribution(model, rule)
        single = stationary_distribution(enumeration_matrix(rule, 0.5, 0.0))
        assert np.max(np.abs(mixed - single)) < 1e-12

    def test_degenerate_effects_severity_rule(self):
        model = degenerate_model(freq_rate=0.5, sev_rate=5000.0)
        rule = SeverityRule(9, 1, 2, 5000.0)
        mixed = unconditional_level_distribution(model, rule)
        q = severity_cdf(5000.0, 5000.0, model.severity, upper=True)
        single = stationary_distribution(enumeration_matrix(rule, 0.5, q))
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
        # A frequency rule's chain depends on the frequency effect alone, so a
        # grid over the frequency marginal (severity effect held at 1) gives
        # the same level distribution as the joint route.
        model = study_model(-0.8)
        rule = FreqRule(5, 1)
        theta1, w1 = marginal_grid(model.effects, 1, 16)
        marginal = QuadratureGrid(theta1, np.ones_like(theta1), w1)
        field = stationary_field(model, rule, marginal)
        marginal_route = np.einsum("n,knl->l", w1, field)
        joint_route = unconditional_level_distribution(model, rule, nodes=16)
        assert np.max(np.abs(marginal_route - joint_route)) < 1e-12

    def test_freq_rule_tables_and_levels_share_one_field(self, monkeypatch, fresh_cache):
        calls = []

        def counted(model, rules, grid):
            calls.append(rules)
            return stationary._stationary_fields(model, rules, grid)

        monkeypatch.setattr(relativity, "_stationary_fields", counted)
        model, rule = study_model(-0.8), FreqRule(9, 1)
        freq = optimal_relativity_frequency(model, rule, 16)
        dep = optimal_relativity_dependent(model, rule, 16)
        levels = unconditional_level_distribution(model, rule, 16)
        assert calls == [[rule]]
        assert levels is dep.stationary
        assert np.array_equal(freq.stationary, levels)


def _field_class_by_class(model, rule, grid) -> np.ndarray:
    """The stationary field solved one class per call: exceedances, dedupe, tails, rows."""
    out = np.empty((len(model.portfolio.classes), grid.size, rule.levels))
    for ci, cls in enumerate(model.portfolio.classes):
        freq_means = cls.freq_rate * grid.theta1
        exceed, keys = np.zeros_like(freq_means), freq_means
        if rule.large_step > rule.small_step:
            sev_means = cls.sev_rate * grid.theta2
            exceed = severity_cdf(rule.threshold, sev_means, model.severity, upper=True)
            keys = freq_means + 1j * exceed
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        out[ci] = _stationary_batch(*jump_tails(rule, freq_means[first], exceed[first]))[inverse]
    return out


DAT_RULE = SeverityRule(9, 1, 2, 16960.4)


class TestClassGroups:
    """Whole classes share a solve; no row may depend on which classes share it."""

    @pytest.mark.parametrize("nodes", [16, 32, 64])
    def test_dat_field_matches_one_class_per_call(self, nodes):
        model = dat_model()
        grid = build_grid(model.effects, nodes)
        field = stationary_field(model, DAT_RULE, grid)
        assert np.array_equal(field, _field_class_by_class(model, DAT_RULE, grid))

    def test_partial_last_group_matches_one_class_per_call(self):
        base = study_model(-0.8)
        rates = [(0.2, 0.1, 5000.0), (0.3, 0.3, 9000.0), (0.5, 0.7, 2e4)]
        classes = [RiskClass(*r) for r in rates]
        model = ModelSpec(Portfolio(classes), base.severity, base.effects)
        grid = build_grid(model.effects, 32)
        assert len(classes) % (stationary._PROFILES // grid.size) != 0  # the last group is short
        field = stationary_field(model, DAT_RULE, grid)
        assert np.array_equal(field, _field_class_by_class(model, DAT_RULE, grid))

    def test_full_group_then_short_group_match_one_class_per_call(self):
        base = study_model(-0.8)
        rates = [(0.2, 0.1, 5000.0), (0.3, 0.3, 9000.0), (0.5, 0.7, 2e4), (0.1, 1.2, 7000.0), (0.4, 0.05, 3e4)]
        classes = [RiskClass(w / 1.5, f, s) for w, f, s in rates]
        model = ModelSpec(Portfolio(classes), base.severity, base.effects)
        grid = build_grid(model.effects, 32)
        per_solve = stationary._PROFILES // grid.size
        assert len(classes) // per_solve == 1 and len(classes) % per_solve == 1
        field = stationary_field(model, DAT_RULE, grid)
        assert np.array_equal(field, _field_class_by_class(model, DAT_RULE, grid))

    def test_dat_field_makes_five_solves(self, monkeypatch):
        # 18 classes of 1,024 profiles, four to a solve: 5 solves.  Groups of
        # 2,048 profiles made 9, one class per call 18.
        profiles = []

        def counted(rule, freq_means, exceed):
            profiles.append(np.size(freq_means))
            return jump_tails(rule, freq_means, exceed)

        monkeypatch.setattr(stationary, "jump_tails", counted)
        model = dat_model()
        stationary_field(model, DAT_RULE, build_grid(model.effects, 32))
        assert len(profiles) == 5

    def test_frequency_rule_matches_one_class_per_call(self):
        model = dat_model()
        grid = build_grid(model.effects, 32)
        field = stationary_field(model, FreqRule(9, 1), grid)
        assert np.array_equal(field, _field_class_by_class(model, FreqRule(9, 1), grid))

    def test_frequency_rule_solves_one_chain_per_class_and_frequency_node(self, monkeypatch):
        profiles = []

        def counted(rule, freq_means, exceed):
            profiles.append(np.size(freq_means))
            return jump_tails(rule, freq_means, exceed)

        monkeypatch.setattr(stationary, "jump_tails", counted)
        model = dat_model()
        stationary_field(model, FreqRule(9, 1), build_grid(model.effects, 32))
        assert sum(profiles) == 18 * 32
        assert len(profiles) < 18  # classes share solves

    def test_peak_memory_above_the_result_stays_under_2_mb(self):
        # Wider groups run faster but hold more at once: groups of 4,096
        # profiles measured 1.7 MB here, groups of 8,192 profiles 3.2 MB.
        model = dat_model()
        grid = build_grid(model.effects, 32)
        stationary_field(model, DAT_RULE, grid)  # warm the caches
        field, peak, _ = traced_peak(lambda: stationary_field(model, DAT_RULE, grid))
        assert peak - field.nbytes < 2e6, peak - field.nbytes


class TestRunFields:
    """A rule with equal steps holds one row per run of equal theta1, a sized rule
    one per run of equal (theta1, theta2); spread over the nodes, either is the
    field solved class by class over every node, bit for bit."""

    @pytest.mark.parametrize(
        "rule", [FreqRule(9, 1), SeverityRule(9, 2, 2, 16800.0)], ids=["h1", "h2-2"]
    )
    @pytest.mark.parametrize(
        ("make", "nodes", "runs"),
        [
            (EQUAL_STEP_MODELS["lognormal"], 32, 32),
            (EQUAL_STEP_MODELS["dat"], 16, 16),
            (EQUAL_STEP_MODELS["mixture"], 16, 32),  # one run per Laguerre node and branch
            (degenerate_model, 32, 1),
            (lambda: study_model(-0.8, log_var1=0.0), 16, 1),
        ],
        ids=["lognormal", "dat", "mixture", "degenerate", "log-var1-0"],
    )
    def test_expanded_field_matches_one_class_per_call(self, make, nodes, runs, rule):
        model = make()
        grid = build_grid(model.effects, nodes)
        field = stationary._stationary_fields(model, [rule], grid)[0]
        assert field.shape == (model.portfolio.freq_rates.size, runs, rule.levels)
        expected = _field_class_by_class(model, rule, grid)
        assert np.array_equal(stationary_field(model, rule, grid), expected)

    @pytest.mark.parametrize(
        "make",
        [lambda: study_model(1.0), lambda: study_model(-1.0), lambda: study_model(-0.8, log_var2=0.0)],
        ids=["corr+1", "corr-1", "log-var2-0"],
    )
    def test_sized_rule_holds_one_row_per_run_of_equal_effects(self, make):
        # theta2 is constant within each theta1 block of these grids, so a
        # sized rule's chains read n distinct effect pairs, not n x n.
        model, rule, nodes = make(), SeverityRule(9, 1, 2, 16800.0), 16
        grid = build_grid(model.effects, nodes)
        field = stationary._stationary_fields(model, [rule], grid)[0]
        assert field.shape == (1, nodes, rule.levels)
        cls = model.portfolio.classes[0]
        exceed = severity_cdf(rule.threshold, cls.sev_rate * grid.theta2, model.severity, upper=True)
        per_node = _stationary_batch(*jump_tails(rule, cls.freq_rate * grid.theta1, exceed))
        assert np.array_equal(stationary_field(model, rule, grid)[0], per_node)
        table = optimal_relativity_severity(model, rule, nodes)
        raw, normalized = hmse_double_integral(model, table.relativities, rule, nodes)
        assert table.hmse_raw == pytest.approx(raw, rel=1e-8, abs=0.0)
        assert table.hmse_normalized == pytest.approx(normalized, rel=1e-8, abs=0.0)

    def test_equal_values_apart_are_runs_of_their_own(self):
        # theta1 = a a b a b b: four runs, of 2, 1, 1 and 2 nodes.
        a, b = 0.6, 1.7
        theta1 = np.array([a, a, b, a, b, b])
        grid = QuadratureGrid(theta1, np.linspace(0.5, 1.5, 6), np.full(6, 1.0 / 6))
        model = dat_model()
        field = stationary._stationary_fields(model, [FreqRule(9, 1)], grid)[0]
        assert field.shape == (18, 4, 10)
        assert np.array_equal(field[:, 0], field[:, 2]) and np.array_equal(field[:, 1], field[:, 3])
        expected = _field_class_by_class(model, FreqRule(9, 1), grid)
        assert np.array_equal(np.repeat(field, [2, 1, 1, 2], axis=1), expected)


# The 8 thresholds of the seed-0 study-scan benchmark round: the published 4
# and 4 drawn ones.
SCAN_THRESHOLDS = (8200.0, 16800.0, 48100.0, 94300.0, 4750.0, 5250.0, 9750.0, 38150.0)


def _scan_rules(thresholds, steps=(9, 1, 2)) -> list:
    return [SeverityRule(*steps, phi) for phi in thresholds]


def _one_threshold_per_call(model, rules, grid) -> np.ndarray:
    return np.stack([_field_class_by_class(model, rule, grid) for rule in rules])


class TestThresholdGroups:
    """Rules of one shape share field passes; no row may depend on which rules share its solve."""

    @pytest.mark.parametrize("nodes", [16, 32, 64])
    @pytest.mark.parametrize("preset", ["ex2a", "ex3c", "ex4c"])
    def test_study_scan_thresholds_match_one_threshold_per_call(self, preset, nodes):
        model = parse_model(get_preset(preset))
        grid = build_grid(model.effects, nodes)
        rules = _scan_rules(SCAN_THRESHOLDS)
        fields = stationary._stationary_fields(model, rules, grid)
        assert np.array_equal(fields, _one_threshold_per_call(model, rules, grid))

    def test_dat_two_thresholds_match_one_threshold_per_call(self):
        model = dat_model()
        grid = build_grid(model.effects, 32)
        rules = _scan_rules((16960.4, 48100.0))
        fields = stationary._stationary_fields(model, rules, grid)
        assert np.array_equal(fields, _one_threshold_per_call(model, rules, grid))

    @pytest.mark.parametrize(
        "thresholds",
        [(8200.0, 16800.0, 48100.0), (16800.0, 8200.0, 16800.0), (1e-300, 1e300)],
        ids=["odd-count", "duplicate", "extremes"],
    )
    def test_threshold_lists_match_one_threshold_per_call(self, thresholds):
        model = study_model(-0.8)
        grid = build_grid(model.effects, 32)
        per_solve = stationary._PROFILES // grid.size
        rules = _scan_rules(thresholds)
        fields = stationary._stationary_fields(model, rules, grid)
        assert np.array_equal(fields, _one_threshold_per_call(model, rules, grid))
        if len(thresholds) == 3:
            assert len(rules) % per_solve != 0  # the last group is short

    def test_full_group_then_short_group_match_one_threshold_per_call(self):
        model = study_model(-0.8)
        grid = build_grid(model.effects, 32)
        per_solve = stationary._PROFILES // grid.size
        rules = _scan_rules(SCAN_THRESHOLDS[: per_solve + 1])
        assert len(rules) == per_solve + 1  # one full group, then one rule alone
        fields = stationary._stationary_fields(model, rules, grid)
        assert np.array_equal(fields, _one_threshold_per_call(model, rules, grid))

    def test_poisson_sizes_and_mixture_effects_match_one_threshold_per_call(self):
        poisson = ModelSpec(
            study_model(-0.8, sev_rate=0.5).portfolio,
            PoissonSeverity(),
            LognormalCopulaEffects(-0.8, 0.99, 0.29),
        )
        mixture = ModelSpec(
            study_model(0.0).portfolio,
            GammaSeverity(1.5),
            MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0),
        )
        cases = [(poisson, (0.5, 1.0, 2.5, 3.0, 7.0)), (mixture, SCAN_THRESHOLDS)]
        for model, thresholds in cases:
            for nodes in (8, 16):
                grid = build_grid(model.effects, nodes)
                rules = _scan_rules(thresholds)
                fields = stationary._stationary_fields(model, rules, grid)
                assert np.array_equal(fields, _one_threshold_per_call(model, rules, grid))

    def test_single_rule_field_is_the_one_rule_pass(self):
        model = study_model(-0.8)
        grid = build_grid(model.effects, 32)
        rules = _scan_rules(SCAN_THRESHOLDS[:2])
        fields = stationary._stationary_fields(model, rules, grid)
        for rule, field in zip(rules, fields):
            assert np.array_equal(stationary_field(model, rule, grid), field)

    def test_reproduce_table_groups_its_thresholds(self, monkeypatch, tmp_path, fresh_cache):
        # ex2a at 32 nodes: one frequency solve, then 8 thresholds four to a
        # solve; two to a solve made 5 solves, one threshold per call 9.
        calls = []

        def counted(rule, freq_means, exceed):
            calls.append(np.size(freq_means))
            return jump_tails(rule, freq_means, exceed)

        monkeypatch.setattr(stationary, "jump_tails", counted)
        config = tmp_path / "thresholds.json"
        config.write_text(json.dumps({"thresholds": list(SCAN_THRESHOLDS)}))
        argv = ["reproduce-table", "--preset", "ex2a", "--config", str(config)]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize(
        ("model", "thresholds", "passes"),
        [
            (study_model(-0.8), SCAN_THRESHOLDS, [4, 4]),
            (dat_model(), SCAN_THRESHOLDS[:2], [1, 1]),
        ],
        ids=["one-class", "dat"],
    )
    def test_a_pass_holds_no_more_than_one_solve(
        self, monkeypatch, fresh_cache, model, thresholds, passes
    ):
        sizes = []

        def counted(model, rules, grid):
            sizes.append(len(rules))
            return stationary._stationary_fields(model, rules, grid)

        monkeypatch.setattr(relativity, "_stationary_fields", counted)
        threshold_scan(model, SeverityRule(9, 1, 2, 1.0), thresholds, 32)
        assert sizes == passes
        sizes.clear()
        threshold_scan(model, SeverityRule(9, 1, 2, 1.0), thresholds + (123456.0,), 32)
        assert sizes == [1]  # only the rule not yet cached is solved

    def test_a_pass_is_sized_by_the_chains_runs(self, monkeypatch, fresh_cache):
        # At a correlation of 1 a sized chain has one run per theta1 node, 32
        # at 32 nodes, so 32 thresholds fit one solve; sized by the grid's
        # 1,024 nodes they took 8 passes of 4.
        model, template = study_model(1.0), SeverityRule(9, 1, 2, 1.0)
        thresholds = np.geomspace(3000.0, 90000.0, 32).tolist()
        expected = []
        for phi in thresholds:
            relativity._MOMENTS.clear()
            expected.append(optimal_relativity_severity(model, template.with_threshold(phi), 32))
        relativity._MOMENTS.clear()
        calls = []

        def counted(model, rules, grid):
            calls.append(len(rules))
            return stationary._stationary_fields(model, rules, grid)

        monkeypatch.setattr(relativity, "_stationary_fields", counted)
        scan = threshold_scan(model, template, thresholds, 32)
        assert calls == [32]
        tables = {table.rule.threshold: table for table in scan}
        for want in expected:
            got = tables[want.rule.threshold]
            assert (got.hmse_raw, got.hmse_normalized) == (want.hmse_raw, want.hmse_normalized)
            np.testing.assert_array_equal(got.relativities, want.relativities)
            np.testing.assert_array_equal(got.stationary, want.stationary)

    def test_scan_leaves_read_only_cache_hits_for_single_rules(self, monkeypatch, fresh_cache):
        model, template = study_model(-0.8), SeverityRule(9, 1, 2, 1.0)
        tables = threshold_scan(model, template, SCAN_THRESHOLDS, 32)
        calls = []

        def counted(*args):
            calls.append(args)
            return jump_tails(*args)

        monkeypatch.setattr(stationary, "jump_tails", counted)
        for table in tables:
            rule = table.rule
            assert hmse_eval(model, table, rule, 32).hmse_raw == pytest.approx(table.hmse_raw)
            again = optimal_relativity_severity(model, rule, 32)
            assert np.array_equal(again.relativities, table.relativities, equal_nan=True)
            grid = relativity._grid(model.effects, 32)
            moments = relativity._moment_field(model, rule, 32, "aggregate")
            assert moments is relativity._MOMENTS[model, rule, 32]["aggregate"]
            cached = (moments.mass, moments.prem_sq, moments.target, moments.resid)
            for array in (*cached, grid.theta1, grid.theta2, grid.weights, again.stationary):
                assert not array.flags.writeable
        assert calls == []

    def test_peak_memory_of_a_grouped_one_class_solve_stays_under_2_mb(self):
        # Two thresholds of a one-class model at 32 nodes make one solve of
        # 2,048 profiles: 0.9 MB above the result when measured.
        model = study_model(-0.8)
        grid = build_grid(model.effects, 32)
        rules = _scan_rules(SCAN_THRESHOLDS[:2])
        stationary._stationary_fields(model, rules, grid)  # warm the caches
        fields, peak, _ = traced_peak(lambda: stationary._stationary_fields(model, rules, grid))
        assert peak - fields.nbytes < 2e6, peak - fields.nbytes

    def test_a_scan_retains_no_field(self, fresh_cache):
        # An 8-threshold dat scan at 32 nodes: each 1.5 MB field goes with
        # its pass, and the cache keeps only the per-level moments.
        model = dat_model()
        tables, _, held = traced_peak(
            lambda: threshold_scan(model, SeverityRule(9, 1, 2, 1.0), SCAN_THRESHOLDS, 32)
        )
        assert len(tables) == len(SCAN_THRESHOLDS)
        assert held < 1e6, held


def _exact_stationary(rule, freq_mean: float, exceed) -> list:
    """Stationary level masses of the chain ``(freq_mean, exceed)`` at the working precision.

    The jump law comes from the two Poisson claim counts of the thinning, and
    the masses from the balance of flows across each cut, ``pi[l+1] p0 =
    sum_{i<=l} pi[i] P(jump >= l+1-i)``, which involves no subtraction.
    """
    z, small, large = rule.max_level, rule.small_step, rule.large_step
    m = mp.mpf(freq_mean)
    m1, m2 = m * (1 - exceed), m * exceed

    def pmf(mean, kmax):
        return [mp.exp(-mean) * mean**k / mp.factorial(k) for k in range(kmax + 1)]

    law1, law2 = pmf(m1, z // small), pmf(m2, z // large)
    below = [mp.mpf(0)] * (z + 1)  # P(jump = j) for j <= z
    for n1, p1 in enumerate(law1):
        for n2, p2 in enumerate(law2):
            jump = small * n1 + large * n2
            if jump <= z:
                below[jump] += p1 * p2
    tails = [1 - mp.fsum(below[:g]) for g in range(1, z + 1)]  # P(jump >= g)
    pi = [mp.mpf(1)]
    for level in range(z):
        pi.append(mp.fsum(pi[i] * tails[level - i] for i in range(level + 1)) / below[0])
    total = mp.fsum(pi)
    return [p / total for p in pi]


class TestHighPrecisionStationary:
    """Level masses of ``ex3c`` at 16 nodes against a 400-digit solve of each node's chain.

    The chain of a node is the one its double-precision claim mean and
    exceedance define; the exceedance is the gamma tail at the threshold,
    evaluated at 50 digits from the double sizes mean.  Every mass above
    1e-290 must be within the relative error the engine reached on the same
    reference while its tails came from ``scipy.special.pdtrc``: 6.04e-15 for
    the frequency rule and 1.94e-14 for the severity rule.
    """

    @pytest.mark.parametrize(
        ("rule", "bound"),
        [(FreqRule(19, 1), 6.05e-15), (SeverityRule(9, 1, 2, 16800.0), 1.94e-14)],
        ids=["freq19", "sev9"],
    )
    def test_level_masses_match_400_digit_reference(self, rule, bound):
        model = parse_model(PRESETS["ex3c"])
        grid = build_grid(model.effects, 16)
        field = stationary_field(model, rule, grid)[0]
        cls, shape = model.portfolio.classes[0], model.severity.shape
        freq_means = cls.freq_rate * grid.theta1
        sev_means = cls.sev_rate * grid.theta2
        solved, worst = {}, 0.0
        with mp.workdps(400):
            for node in range(grid.size):
                key = (float(freq_means[node]), float(sev_means[node]) if rule.large_step > rule.small_step else 0.0)
                if key not in solved:
                    exceed = mp.mpf(0)
                    if key[1]:
                        with mp.workdps(50):  # the tail to 50 digits moves no mass visibly
                            exceed = +mp.gammainc(
                                mp.mpf(shape),
                                mp.mpf(rule.threshold) * mp.mpf(shape) / mp.mpf(key[1]),
                                mp.inf,
                                regularized=True,
                            )
                    solved[key] = _exact_stationary(rule, key[0], exceed)
                for mass, ref in zip(field[node], solved[key]):
                    if ref > mp.mpf("1e-290"):
                        worst = max(worst, float(abs(mp.mpf(float(mass)) - ref) / ref))
        assert worst <= bound, worst
