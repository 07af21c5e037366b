"""Domain-type validation."""

from __future__ import annotations

import dataclasses
import functools
import math
import re

import numpy as np
import pytest

from bonusmalus import (
    ClaimHistory,
    DegenerateEffects,
    FreqRule,
    GammaSeverity,
    LognormalCopulaEffects,
    MixtureBayesModel,
    MixtureExponentialEffects,
    ModelSpec,
    ModelValidationError,
    PoissonSeverity,
    Portfolio,
    QuadratureGrid,
    RiskClass,
    SeverityRule,
    SimConfig,
    balance_check,
    bayes_agg_premium_freqhist,
    bayes_agg_premium_fullhist,
    bayes_freq_premium,
    build_grid,
    check_rule,
    empirical_relativity,
    hmse_empirical,
    hmse_eval,
    marginal_grid,
    mse_comparison_mc,
    optimal_relativity_dependent,
    optimal_relativity_frequency,
    optimal_relativity_severity,
    rule_dominance_check,
    severity_marginal_quantile,
    simulate_paths,
    threshold_scan,
    unconditional_level_distribution,
)
from bonusmalus.transition import jump_tails
from conftest import SEV_RATE, degenerate_model, stationary_field, study_model
from oracles import poisson_truncation_bound


def _spec(classes, effects=DegenerateEffects()):
    return ModelSpec(Portfolio(classes), GammaSeverity(1.0 / 0.67), effects)


class TestPortfolio:
    def test_weights_renormalized_within_tolerance(self):
        eps = 4e-10
        spec = _spec([RiskClass(0.5, 1.0, 10.0), RiskClass(0.5 + eps, 2.0, 20.0)])
        assert abs(math.fsum(spec.portfolio.weights) - 1.0) <= 1e-12

    def test_weights_off_by_too_much_rejected(self):
        with pytest.raises(ModelValidationError, match="class weights sum to 1.1"):
            _spec([RiskClass(0.5, 1.0, 10.0), RiskClass(0.6, 2.0, 20.0)])

    def test_empty_portfolio_rejected(self):
        with pytest.raises(Exception):
            _spec([])

    def test_half_weight_portfolio_rejected(self):
        with pytest.raises(ModelValidationError, match="class weights sum to 0.5"):
            Portfolio([RiskClass(0.5, 0.5, SEV_RATE)])

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(Exception):
            _spec([RiskClass(1.0, 0.0, 10.0)])
        with pytest.raises(Exception):
            _spec([RiskClass(1.0, 1.0, -5.0)])


NON_FINITE_VALUES = [
    pytest.param(lambda: RiskClass(1.0, math.nan, 10.0), id="freq_rate_nan"),
    pytest.param(lambda: RiskClass(1.0, math.inf, 10.0), id="freq_rate_inf"),
    pytest.param(lambda: RiskClass(1.0, 0.5, math.nan), id="sev_rate_nan"),
    pytest.param(lambda: RiskClass(1.0, 0.5, math.inf), id="sev_rate_inf"),
    pytest.param(lambda: GammaSeverity(math.nan), id="dispersion_nan"),
    pytest.param(lambda: GammaSeverity(math.inf), id="dispersion_inf"),
    pytest.param(lambda: LognormalCopulaEffects(math.nan, 0.5, 0.5), id="corr_nan"),
    pytest.param(lambda: LognormalCopulaEffects(0.0, math.inf, 0.5), id="log_var1_inf"),
    pytest.param(lambda: LognormalCopulaEffects(0.0, 0.5, math.nan), id="log_var2_nan"),
    pytest.param(lambda: MixtureExponentialEffects(math.nan, 2.0, 2.0 / 3.0), id="weight1_nan"),
    pytest.param(lambda: MixtureExponentialEffects(0.5, math.inf, 0.5), id="rate1_inf"),
]


class TestNonFiniteValues:
    @pytest.mark.parametrize("build", NON_FINITE_VALUES)
    def test_rejected_on_construction(self, build):
        with pytest.raises(ModelValidationError):
            build()

    @pytest.mark.parametrize(
        "freq_rate,sev_rate",
        [(1e160, 1e-200), (0.5, 1e200), (1e-170, 1e200), (0.5, 1e-320)],
        ids=["freq_rate_overflow", "premium_overflow", "freq_rate_underflow", "premium_underflow"],
    )
    def test_class_whose_squared_premium_rate_leaves_float_range_rejected(
        self, freq_rate, sev_rate
    ):
        # The engines square freq_rate and freq_rate * sev_rate.
        named = re.escape(f"RiskClass(weight=1.0, freq_rate={freq_rate!r}")
        with pytest.raises(ModelValidationError, match=named):
            RiskClass(1.0, freq_rate, sev_rate)

    def test_largest_class_rates_accepted(self):
        RiskClass(1.0, 1e150, 1e-150)
        RiskClass(1.0, 1.0, 1e154)


class TestEffects:
    def test_unknown_effects_type_rejected(self):
        with pytest.raises(ModelValidationError, match="unknown effects type"):
            _spec([RiskClass(1.0, 0.5, 10.0)], object())

    def test_mixture_mean_one_accepted(self):
        # 0.5/2 + 0.5*1.5 == 1 exactly.
        effects = MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0)
        spec = _spec([RiskClass(1.0, 0.5, 10.0)], effects)
        assert spec.effects is effects

    def test_mixture_mean_violation_rejected(self):
        with pytest.raises(ModelValidationError, match="mixture marginal mean"):
            _spec([RiskClass(1.0, 0.5, 10.0)], MixtureExponentialEffects(0.5, 2.0, 0.5))

    def test_mixture_rate_order_enforced_for_interior_weight(self):
        # Mean-one but rate1 < rate2.
        with pytest.raises(Exception):
            _spec(
                [RiskClass(1.0, 0.5, 10.0)],
                MixtureExponentialEffects(0.5, 2.0 / 3.0, 2.0),
            )

    def test_lognormal_copula_accepted_with_unit_means(self):
        effects = LognormalCopulaEffects(-0.8, 0.99, 0.29)
        _spec([RiskClass(1.0, 0.5, SEV_RATE)], effects)
        grid = build_grid(effects, 32)
        assert abs(grid.weights @ grid.theta1 - 1.0) < 1e-8
        assert abs(grid.weights @ grid.theta2 - 1.0) < 1e-8

    def test_lognormal_mean_off_one_by_quadrature_rejected(self):
        # A log-variance of 50 puts the mean-one mass past the 32-node rule.
        with pytest.raises(ModelValidationError, match="quadrature marginal mean .* differs from 1"):
            LognormalCopulaEffects(0.0, 50.0, 0.29)

    def test_correlation_bounds(self):
        with pytest.raises(Exception):
            _spec([RiskClass(1.0, 0.5, 10.0)], LognormalCopulaEffects(-1.2, 0.5, 0.5))


class TestRules:
    def test_severity_rule_step_order(self):
        with pytest.raises(ModelValidationError, match="large-claim step 1 must be >="):
            SeverityRule(9, 2, 1, 100.0)

    def test_minimum_levels(self):
        with pytest.raises(ModelValidationError, match="max_level 0 is not an integer"):
            FreqRule(0, 1)

    def test_positive_threshold(self):
        with pytest.raises(ModelValidationError, match="claim-size threshold 0.0"):
            SeverityRule(9, 1, 2, 0.0)

    @pytest.mark.parametrize(
        "build,named",
        [
            (lambda: FreqRule(1001, 1), "max_level 1001"),
            (lambda: FreqRule(9, 1001), "step 1001"),
            (lambda: FreqRule(9, 10**400), "'step' must be a number"),
            (lambda: SeverityRule(9, 1, 1001, 1.0), "large_step 1001"),
        ],
        ids=["levels", "step", "huge_step", "large_step"],
    )
    def test_scale_bounded(self, build, named):
        with pytest.raises(ModelValidationError, match=named):
            build()

    def test_largest_scale_accepted(self):
        assert FreqRule(1000, 1000).levels == 1001
        assert SeverityRule(1000, 1000, 1000, 1.0).levels == 1001

    def test_derived_rules_checked(self):
        with pytest.raises(ModelValidationError, match="claim-size threshold nan"):
            SeverityRule(9, 1, 2, 1.0).with_threshold(math.nan)
        with pytest.raises(ModelValidationError, match="large-claim step 1 must be >="):
            SeverityRule(9, 2, 1, 1.0)

    def test_valid_rules_pass_through(self):
        rule = SeverityRule(9, 1, 2, 16800.0)
        assert rule.levels == 10

    @pytest.mark.parametrize(
        "build,named",
        [
            (lambda: FreqRule(9, 1.5), "'step' must be an integer"),
            (lambda: FreqRule(9.5, 1), "'max_level' must be an integer"),
            (lambda: SeverityRule(9, 1, 2.5, 100.0), "'large_step' must be an integer"),
            (lambda: FreqRule(True, True), "'max_level' must be a number"),
            (lambda: SeverityRule(9, True, 2, 100.0), "'small_step' must be a number"),
            (lambda: FreqRule(9, math.nan), "'step' must be an integer"),
            (lambda: FreqRule("9", 1), "'max_level' must be a number"),
            (lambda: SeverityRule(9, 1, 2, True), "'threshold' must be a number"),
            (lambda: SeverityRule(9, 1, 2, "5"), "'threshold' must be a number"),
        ],
        ids=["fractional_step", "fractional_levels", "fractional_large_step", "booleans",
             "boolean_small_step", "nan_step", "string_levels", "boolean_threshold",
             "string_threshold"],
    )
    def test_ill_typed_values_rejected(self, build, named):
        # These once constructed (or raised a raw TypeError), and the engine
        # then raised a raw IndexError or TypeError.
        with pytest.raises(ModelValidationError, match=named):
            build()

    def test_whole_numbers_and_numpy_integers_stored_as_int(self):
        rule = FreqRule(np.int64(9), 2.0)
        assert rule == FreqRule(9, 2)
        assert type(rule.max_level) is int and type(rule.step) is int
        sev = SeverityRule(np.int32(9), np.uint8(1), 2.0, 100.0)
        assert (sev.max_level, sev.small_step, sev.large_step) == (9, 1, 2)

    def test_frequency_rule_reads_as_the_equal_step_rule(self):
        rule = FreqRule(9, 3)
        assert (rule.small_step, rule.large_step) == (3, 3)
        assert rule == FreqRule(9, 3) and hash(rule) == hash(FreqRule(9, 3))
        assert [f.name for f in dataclasses.fields(rule)] == ["max_level", "step"]


class TestSimConfigValues:
    @pytest.mark.parametrize(
        "values",
        [
            {"n_paths": 2000.5},
            {"seed": 1.5},
            {"burn_in_years": 3.5},
            {"sample_years": 1.5},
            {"n_paths": True},
            {"seed": -1},
            {"seed": "1"},
        ],
        ids=["fractional_paths", "fractional_seed", "fractional_burn_in",
             "fractional_sample_years", "boolean_paths", "negative_seed", "string_seed"],
    )
    def test_integer_values_checked(self, values):
        settings = {"n_paths": 2000, "seed": 1, **values}
        with pytest.raises(ValueError):
            SimConfig(degenerate_model(), FreqRule(9, 1), **settings)

    def test_whole_numbers_stored_as_int(self):
        rule = FreqRule(9, 1)
        cfg = SimConfig(degenerate_model(), rule, 2000.0, np.int64(3), burn_in_years=100.0)
        assert (cfg.n_paths, cfg.seed, cfg.burn_in_years) == (2000, 3, 100)
        assert all(type(v) is int for v in (cfg.n_paths, cfg.seed, cfg.burn_in_years))


# Poisson claim sizes of mean 0.5 put about 0.6 of the mass on 0.
POISSON_SIZES_MOSTLY_ZERO = dataclasses.replace(
    degenerate_model(sev_rate=0.5), severity=PoissonSeverity()
)


class TestInputErrorsAreTyped:
    # The CLI maps exceptions to exit codes by type alone, so a bad input
    # value raises ModelValidationError (exit 2), never a bare ValueError.
    @pytest.mark.parametrize(
        "call",
        [
            lambda m: build_grid(m.effects, 4),
            lambda m: marginal_grid(m.effects, 3),
            lambda m: severity_marginal_quantile(1.0, m),
            lambda m: severity_marginal_quantile(0.3, POISSON_SIZES_MOSTLY_ZERO),
            lambda m: threshold_scan(m, SeverityRule(9, 1, 2, 1.0), []),
            lambda m: rule_dominance_check(m, [], [SeverityRule(9, 1, 1, 1.0)]),
            lambda m: rule_dominance_check(m, [FreqRule(9, 1)], [SeverityRule(9, 1, 2, 1.0)]),
            lambda m: jump_tails(SeverityRule(9, 1, 2, 1.0), 0.5, 1.5),
            lambda m: SimConfig(m, FreqRule(9, 1), 0, 1),
            lambda m: check_rule(m, FreqRule(9, 1), n_paths=50_000),
            lambda m: check_rule(m, FreqRule(9, 1), n_paths=100_000, burn_in_years=50),
            lambda m: check_rule(m, "h1", n_paths=100_000),
            lambda m: check_rule(m, FreqRule(9, 1), n_paths=100_000, perturb={10: 0.1}),
        ],
        ids=[
            "nodes", "component", "quantile_level", "unattainable_quantile", "empty_scan",
            "empty_grid", "no_diagonal", "exceedance", "sim_paths", "check_paths",
            "check_burn_in", "check_rule_type", "check_perturbed_level",
        ],
    )
    def test_bad_values_raise_model_validation_error(self, call):
        with pytest.raises(ModelValidationError):
            call(study_model(-0.8))


NOT_NUMBERS = [True, "1.0", None, 10**400]  # a boolean, a numeric string, None, past float range
NOT_FINITE = [math.nan, math.inf, -math.inf]
NOT_WHOLE = [1.5, *NOT_FINITE]
NOT_THRESHOLDS = [math.nan, -math.inf]  # an infinite threshold is the small-step rule
MIXTURE = MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0)
LOGNORMAL = LognormalCopulaEffects(-0.8, 0.99, 0.29)
BAYES = MixtureBayesModel(0.5, 3.0, MIXTURE)
STUDY = study_model(-0.8)
H1 = FreqRule(9, 1)


@functools.cache
def _summary():
    return simulate_paths(SimConfig(degenerate_model(), H1, 2_000, 1))


def _sim(name):
    return lambda v: SimConfig(degenerate_model(), H1, **{"n_paths": 2_000, "seed": 1, name: v})


def _check(**values):
    return check_rule(STUDY, H1, **{"n_paths": 100_000, **values})


# (call with one value, regex of the message a non-number raises, out-of-range values)
NUMBER_SLOTS = {
    "RiskClass.weight": (lambda v: RiskClass(v, 0.5, 100.0), "'weight'", NOT_FINITE),
    "RiskClass.freq_rate": (lambda v: RiskClass(1.0, v, 100.0), "'freq_rate'", NOT_FINITE),
    "RiskClass.sev_rate": (lambda v: RiskClass(1.0, 0.5, v), "'sev_rate'", NOT_FINITE),
    "GammaSeverity.dispersion": (GammaSeverity, "'dispersion'", NOT_FINITE),
    "LognormalCopulaEffects.corr": (
        lambda v: LognormalCopulaEffects(v, 0.99, 0.29), "'corr'", NOT_FINITE
    ),
    "LognormalCopulaEffects.log_var1": (
        lambda v: LognormalCopulaEffects(-0.8, v, 0.29), "'log_var1'", NOT_FINITE
    ),
    "LognormalCopulaEffects.log_var2": (
        lambda v: LognormalCopulaEffects(-0.8, 0.99, v), "'log_var2'", NOT_FINITE
    ),
    "MixtureExponentialEffects.weight1": (
        lambda v: MixtureExponentialEffects(v, 2.0, 2.0 / 3.0), "'weight1'", NOT_FINITE
    ),
    "MixtureExponentialEffects.rate1": (
        lambda v: MixtureExponentialEffects(0.5, v, 2.0 / 3.0), "'rate1'", NOT_FINITE
    ),
    "MixtureExponentialEffects.rate2": (
        lambda v: MixtureExponentialEffects(0.5, 2.0, v), "'rate2'", NOT_FINITE
    ),
    "FreqRule.max_level": (lambda v: FreqRule(v, 1), "'max_level'", NOT_WHOLE),
    "FreqRule.step": (lambda v: FreqRule(9, v), "'step'", NOT_WHOLE),
    "SeverityRule.max_level": (lambda v: SeverityRule(v, 1, 2, 1.0), "'max_level'", NOT_WHOLE),
    "SeverityRule.small_step": (lambda v: SeverityRule(9, v, 2, 1.0), "'small_step'", NOT_WHOLE),
    "SeverityRule.large_step": (lambda v: SeverityRule(9, 1, v, 1.0), "'large_step'", NOT_WHOLE),
    "SeverityRule.threshold": (lambda v: SeverityRule(9, 1, 2, v), "'threshold'", NOT_THRESHOLDS),
    "ClaimHistory.counts": (lambda v: ClaimHistory([1, v]), "'counts'", NOT_WHOLE),
    "ClaimHistory.aggregates": (
        lambda v: ClaimHistory([1, 1], [2.0, v]), "'aggregates'", NOT_FINITE
    ),
    **{
        f"SimConfig.{name}": (_sim(name), f"'{name}'", NOT_WHOLE)
        for name in ("n_paths", "seed", "burn_in_years", "sample_years")
    },
    "MixtureBayesModel.freq_rate": (
        lambda v: MixtureBayesModel(v, 3.0, MIXTURE), "'freq_rate'", NOT_FINITE
    ),
    "MixtureBayesModel.sev_rate": (
        lambda v: MixtureBayesModel(0.5, v, MIXTURE), "'sev_rate'", NOT_FINITE
    ),
    "build_grid.n": (lambda v: build_grid(LOGNORMAL, v), "'n'", NOT_WHOLE),
    "marginal_grid.n": (lambda v: marginal_grid(MIXTURE, 1, v), "'n'", NOT_WHOLE),
    "marginal_grid.component": (lambda v: marginal_grid(LOGNORMAL, v), "'component'", NOT_WHOLE),
    "optimal_relativity_frequency.nodes": (
        lambda v: optimal_relativity_frequency(STUDY, H1, v), "'nodes'", NOT_WHOLE
    ),
    "optimal_relativity_dependent.nodes": (
        lambda v: optimal_relativity_dependent(STUDY, H1, v), "'nodes'", NOT_WHOLE
    ),
    "optimal_relativity_severity.nodes": (
        lambda v: optimal_relativity_severity(STUDY, SeverityRule(9, 1, 2, 1e4), v),
        "'nodes'",
        NOT_WHOLE,
    ),
    "unconditional_level_distribution.nodes": (
        lambda v: unconditional_level_distribution(STUDY, H1, v), "'nodes'", NOT_WHOLE
    ),
    "hmse_eval.nodes": (lambda v: hmse_eval(STUDY, np.ones(10), H1, v), "'nodes'", NOT_WHOLE),
    "hmse_eval.relativities": (lambda v: hmse_eval(STUDY, [v] * 10, H1), "'relativities'", []),
    "hmse_empirical.relativities": (
        lambda v: hmse_empirical(_summary(), [v] * 10), "'relativities'", []
    ),
    "severity_marginal_quantile.p": (
        lambda v: severity_marginal_quantile(v, STUDY), "'p'", NOT_FINITE
    ),
    "threshold_scan.thresholds": (
        lambda v: threshold_scan(STUDY, SeverityRule(9, 1, 2, 1.0), [v]),
        "'threshold'",
        NOT_THRESHOLDS,
    ),
    "check_rule.n_paths": (lambda v: _check(n_paths=v), "'n_paths'", NOT_WHOLE),
    "check_rule.seed": (lambda v: _check(seed=v), "'seed'", NOT_WHOLE),
    "check_rule.nodes": (lambda v: _check(nodes=v), "'nodes'", NOT_WHOLE),
    "check_rule.burn_in_years": (lambda v: _check(burn_in_years=v), "'burn_in_years'", NOT_WHOLE),
    "check_rule.perturb_level": (lambda v: _check(perturb={v: 0.1}), "perturbed level", NOT_WHOLE),
    "check_rule.perturb_delta": (lambda v: _check(perturb={0: v}), "'perturb'", []),
    "mse_comparison_mc.years": (
        lambda v: mse_comparison_mc(BAYES, v, 10, 1), "'years'", NOT_WHOLE
    ),
    "mse_comparison_mc.n_paths": (
        lambda v: mse_comparison_mc(BAYES, 3, v, 1), "'n_paths'", NOT_WHOLE
    ),
    "mse_comparison_mc.seed": (lambda v: mse_comparison_mc(BAYES, 3, 10, v), "'seed'", NOT_WHOLE),
}


class TestOneInputGate:
    # Every number a model value or an entry point takes passes one gate, so a
    # wrong value raises ModelValidationError naming it: never a TypeError,
    # AttributeError, OverflowError or ZeroDivisionError, and never a value
    # that computes.  A raise of any other type fails the test.
    @pytest.mark.parametrize("slot", NUMBER_SLOTS)
    def test_non_numbers_rejected(self, slot):
        call, named, _ = NUMBER_SLOTS[slot]
        for value in NOT_NUMBERS:
            with pytest.raises(ModelValidationError, match=named):
                call(value)

    @pytest.mark.parametrize("slot", [slot for slot, entry in NUMBER_SLOTS.items() if entry[2]])
    def test_out_of_range_numbers_rejected(self, slot):
        call, _, values = NUMBER_SLOTS[slot]
        for value in values:
            with pytest.raises(ModelValidationError):
                call(value)

    def test_numbers_stored_as_floats_and_ints(self):
        risk = RiskClass(1, np.float32(0.5), np.int64(100))
        assert [type(v) for v in (risk.weight, risk.freq_rate, risk.sev_rate)] == [float] * 3
        rule = SeverityRule(np.int64(9), 1.0, np.uint8(2), 16800)
        assert [type(v) for v in dataclasses.astuple(rule)] == [int, int, int, float]
        sim = SimConfig(degenerate_model(), rule, 2_000.0, np.int32(1), sample_years=1.0)
        assert {type(v) for v in dataclasses.astuple(sim)[2:]} == {int}
        bayes = MixtureBayesModel(1, 3, MixtureExponentialEffects(1, 1, 5))
        assert {type(v) for v in (bayes.freq_rate, bayes.sev_rate, *bayes.components()[0])} == {
            float
        }

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda: ModelSpec("p", GammaSeverity(1.0), DegenerateEffects()), "portfolio type str"),
            (lambda: ModelSpec(STUDY.portfolio, "gamma", LOGNORMAL), "severity type str"),
            (lambda: ModelSpec(STUDY.portfolio, GammaSeverity(1.0), "ln"), "effects type str"),
            (lambda: Portfolio(["class"]), "portfolio classes"),
            (lambda: Portfolio(True), "'classes' must be a sequence"),
            (lambda: ClaimHistory(None), "'counts' must be a sequence"),
            (lambda: ClaimHistory([1], 3.0), "'aggregates' must be a sequence"),
            (lambda: SimConfig("m", H1, 2_000, 1), "model type str"),
            (lambda: SimConfig(STUDY, "h1", 2_000, 1), "rule type str"),
            (lambda: threshold_scan(STUDY, H1, [1.0]), "severity-aware rule"),
            (lambda: threshold_scan(STUDY, SeverityRule(9, 1, 2, 1.0), 150.0), "'thresholds'"),
            (lambda: mse_comparison_mc(BAYES, 3, 0, 1), "n_paths must be an integer of at least 1"),
        ],
        ids=[
            "spec_portfolio", "spec_severity", "spec_effects", "portfolio_entry",
            "portfolio_scalar", "history_none", "aggregates_scalar", "sim_model", "sim_rule",
            "scan_frequency_rule", "scan_scalar", "mse_no_paths",
        ],
    )
    def test_wrong_types_rejected(self, build, named):
        with pytest.raises(ModelValidationError, match=named):
            build()

    def test_unit_severity_flag_must_be_a_boolean(self):
        # The string "false" once priced the unit-severity model: 2.447, not 10.254.
        history = ClaimHistory([1, 0, 2], [5, 0, 30])
        premium = {
            flag: bayes_agg_premium_fullhist(history, MixtureBayesModel(0.5, 3.0, MIXTURE, flag))
            for flag in (False, True)
        }
        assert premium[False] == pytest.approx(10.254, abs=5e-4)
        assert premium[True] == pytest.approx(2.447, abs=5e-4)
        for flag in ("false", "true", 0, 1.0, None):
            with pytest.raises(ModelValidationError, match="'unit_severity_effect'"):
                MixtureBayesModel(0.5, 3.0, MIXTURE, flag)

    def test_whole_float_node_counts_accepted(self):
        table = optimal_relativity_dependent(STUDY, H1, 16.0)
        assert table.nodes == 16 and type(table.nodes) is int
        np.testing.assert_array_equal(
            table.relativities, optimal_relativity_dependent(STUDY, H1, 16).relativities
        )
        assert build_grid(LOGNORMAL, 8.0).size == 64


HISTORY = ClaimHistory((1,), (0,))
RAGGED = [1.0, [1.0, 2.0], *[1.0] * 8]

ONES = np.ones(4)
# (theta1, theta2, weights), regex of the message: each breaks one grid check.
GRID_SLOTS = {
    "unequal_lengths": ((np.ones(5), np.ones(5), np.ones(10)), "one non-zero length"),
    "empty": (([], [], []), "one non-zero length"),
    "matrix": ((np.ones((2, 2)), ONES, ONES), "'theta1' must be a flat"),
    "ragged": ((ONES, [1.0, [1.0, 2.0], 1.0, 1.0], ONES), "'theta2' must be a flat"),
    "strings": ((ONES, ONES, ["a"] * 4), "'weights' must hold numbers"),
    "nan_node": (([1.0, math.nan, 1.0, 1.0], ONES, ONES), "'theta1' must be finite and positive"),
    "inf_node": ((ONES, [1.0, math.inf, 1.0, 1.0], ONES), "'theta2' must be finite and positive"),
    "zero_node": (([1.0, 0.0, 1.0, 1.0], ONES, ONES), "'theta1' must be finite and positive"),
    "negative_node": ((ONES, -ONES, ONES), "'theta2' must be finite and positive"),
    "nan_weight": ((ONES, ONES, [0.25, math.nan, 0.5, 0.25]), "weights must be finite"),
    "inf_weight": ((ONES, ONES, [0.25, math.inf, 0.5, 0.25]), "weights must be finite"),
    "negative_weight": ((ONES, ONES, [0.75, -0.25, 0.25, 0.25]), "weights must be finite"),
}

# (call, regex of the message): each passes one object of the wrong type.
OBJECT_SLOTS = {
    "hmse_eval.model": (lambda: hmse_eval("m", np.ones(10), H1), "model type str"),
    "hmse_eval.rule": (lambda: hmse_eval(STUDY, np.ones(10), "h1"), "rule type str"),
    "hmse_eval.ragged": (lambda: hmse_eval(STUDY, RAGGED, H1), "'relativities' must be a flat"),
    "hmse_eval.scalar": (lambda: hmse_eval(STUDY, 1.0, H1), "'relativities' must be a flat"),
    "hmse_eval.nested": (
        lambda: hmse_eval(STUDY, [[1.0] * 10], H1), "'relativities' must be a flat"
    ),
    "levels.model": (lambda: unconditional_level_distribution("x", H1), "model type str"),
    "levels.unhashable_model": (
        lambda: unconditional_level_distribution([STUDY], H1), "model type list"
    ),
    "levels.rule": (lambda: unconditional_level_distribution(STUDY, "h1"), "rule type str"),
    "table.model": (lambda: optimal_relativity_dependent("m", H1), "model type str"),
    "balance.model": (
        lambda: balance_check("m", optimal_relativity_dependent(STUDY, H1, 8)), "model type str"
    ),
    "balance.table": (lambda: balance_check(STUDY, "table"), "table type str"),
    "dominance.freq_rules": (
        lambda: rule_dominance_check(STUDY, [SeverityRule(9, 1, 1, 1.0)], [H1]),
        "frequency rule type SeverityRule",
    ),
    "mse_comparison_mc.model": (lambda: mse_comparison_mc("m", 3, 10, 1), "model type str"),
    "freq_premium.swapped": (lambda: bayes_freq_premium("m", HISTORY), "history type str"),
    "freq_premium.model": (lambda: bayes_freq_premium(HISTORY, "m"), "model type str"),
    "freqhist_premium.model": (lambda: bayes_agg_premium_freqhist(HISTORY, STUDY), "model type"),
    "fullhist_premium.history": (
        lambda: bayes_agg_premium_fullhist((1, 0), BAYES), "history type tuple"
    ),
    "quantile.model": (lambda: severity_marginal_quantile(0.9, "m"), "model type str"),
    "simulate_paths.config": (lambda: simulate_paths("cfg"), "config type str"),
    "empirical_relativity.summary": (lambda: empirical_relativity("s"), "summary type str"),
    "hmse_empirical.summary": (lambda: hmse_empirical("s", np.ones(10)), "summary type str"),
    "check_rule.model": (lambda: check_rule("m", H1, 100_000), "model type str"),
    "check_rule.rule": (lambda: check_rule(STUDY, "h1", 100_000), "rule type str"),
    "check_rule.perturb": (
        lambda: check_rule(STUDY, H1, 100_000, perturb=[1]), "perturb type list"
    ),
}


class TestObjectArgumentGate:
    # Every model, rule, history, grid and mapping an entry point takes is
    # checked for its type before use, so a wrong one raises ModelValidationError
    # naming it, never an AttributeError or numpy's bare ValueError.  A raise
    # of any other type fails the test.
    @pytest.mark.parametrize("slot", OBJECT_SLOTS)
    def test_wrong_objects_rejected(self, slot):
        call, named = OBJECT_SLOTS[slot]
        with pytest.raises(ModelValidationError, match=named):
            call()

    @pytest.mark.parametrize("slot", GRID_SLOTS)
    def test_bad_grids_rejected_on_construction(self, slot):
        arrays, named = GRID_SLOTS[slot]
        with pytest.raises(ModelValidationError, match=named):
            QuadratureGrid(*arrays)

    def test_grid_lists_taken_as_float_arrays(self):
        grid = QuadratureGrid([1, 2], [1.0, 2.0], (0.5, 0.5))
        assert all(a.dtype == np.float64 and a.shape == (2,) for a in (grid.theta1, grid.weights))
        arrays = QuadratureGrid(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        rule = SeverityRule(9, 1, 2, 1000.0)
        assert np.array_equal(
            stationary_field(STUDY, rule, grid),
            stationary_field(STUDY, rule, arrays),
        )

    def test_built_grids_pass_without_a_copy(self):
        effects = (LOGNORMAL, MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0), DegenerateEffects())
        for effect in effects:
            built = build_grid(effect, 8)
            grid = QuadratureGrid(built.theta1, built.theta2, built.weights)
            assert grid.theta1 is built.theta1
            assert grid.theta2 is built.theta2
            assert grid.weights is built.weights

    @pytest.mark.parametrize(
        "values", [RAGGED, 1.0, [[1.0] * 10]], ids=["ragged", "scalar", "nested"]
    )
    def test_non_vectors_rejected_by_the_simulated_score(self, values):
        with pytest.raises(ModelValidationError, match="'relativities' must be a flat sequence"):
            hmse_empirical(_summary(), values)


class TestClaimHistory:
    def test_empty_history_allowed(self):
        assert ClaimHistory([]).years == 0

    def test_severity_without_claim_rejected(self):
        with pytest.raises(ModelValidationError, match="year 1 has no claims"):
            ClaimHistory([0, 1], [3.0, 2.0])

    def test_lengths_must_match(self):
        with pytest.raises(ModelValidationError, match="differ in length"):
            ClaimHistory([1, 2], [3.0])

    def test_totals(self):
        history = ClaimHistory([1, 0, 2], [4.0, 0.0, 5.0])
        assert history.total_count == 3
        assert history.total_aggregate == 9.0

    def test_total_aggregate_of_a_count_history_rejected(self):
        with pytest.raises(ModelValidationError, match="history carries no aggregate severities"):
            ClaimHistory([1, 0]).total_aggregate

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
        # The counts of the aggregate cases are valid, so the aggregates are named.
        named = "aggregate" if aggregates is not None else "count"
        with pytest.raises(ModelValidationError, match=named):
            ClaimHistory(counts, aggregates)

    def test_aggregate_total_must_stay_finite(self):
        with pytest.raises(ModelValidationError, match="overflow when summed"):
            ClaimHistory([1, 1], [1e308, 1e308])

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
