"""Optimal relativities: collapse identities, optimality, and study values."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from bonusmalus import (
    DegenerateEffects,
    FreqRule,
    GammaSeverity,
    LognormalCopulaEffects,
    MixtureExponentialEffects,
    ModelSpec,
    ModelValidationError,
    Portfolio,
    RiskClass,
    SeverityRule,
    SimConfig,
    balance_check,
    optimal_relativity_dependent,
    optimal_relativity_frequency,
    optimal_relativity_severity,
    simulate_paths,
    threshold_scan,
)
from bonusmalus import relativity
from bonusmalus.stationary import _stationary_fields
from conftest import GAMMA_SHAPE, dat_model, degenerate_model, study_model
from oracles import empirical_frequency_relativity

FAR_THRESHOLD = 1e13  # exceedance underflows to exactly zero for all profiles


EQUAL_STEP_MODELS = {
    "lognormal": lambda: study_model(-0.8),
    "dat": dat_model,
    "mixture": lambda: ModelSpec(
        Portfolio([RiskClass(0.4, 0.5, 5000.0), RiskClass(0.6, 1.5, 9000.0)]),
        GammaSeverity(1.0 / GAMMA_SHAPE),
        MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0),
    ),
}


class TestCachedResults:
    def test_cached_arrays_are_read_only(self, base_model, fresh_cache):
        rule = SeverityRule(9, 1, 2, 16800.0)
        table = optimal_relativity_severity(base_model, rule)
        before = table.stationary.copy()
        with pytest.raises(ValueError):
            table.stationary[0] = 123.0
        moments = relativity._MOMENTS[base_model, rule, 32]["aggregate"]
        for array in (moments.mass, moments.prem_sq, moments.target, moments.resid):
            with pytest.raises(ValueError):
                array[0] = 123.0
        assert np.array_equal(optimal_relativity_severity(base_model, rule).stationary, before)

    def test_frequency_field_holds_one_row_per_run(self):
        model, rule = dat_model(), FreqRule(9, 1)
        (field,) = _stationary_fields(model, [rule], relativity._grid(model.effects, 64))
        # One row per class and theta1 node: 92 KB, where one per node of
        # the 64 x 64 grid held 18 x 4,096 x 10 floats, 5.9 MB.
        assert field.shape == (18, 64, 10)
        # The cache keeps only the per-level moments contracted from it.
        optimal_relativity_dependent(model, rule, 64)
        entry = relativity._MOMENTS[model, rule, 64]
        assert sorted(entry) == ["aggregate", "frequency"]
        for moments in entry.values():
            for array in (moments.mass, moments.prem_sq, moments.target, moments.resid):
                assert array.shape == (10,) and not array.flags.writeable


    def test_moment_lookups_are_counted_like_an_lru_cache(self, base_model, fresh_cache):
        # A two-threshold scan: the first rule misses and its field pass solves
        # both chains, the second rule hits, and each table's moments hit.
        def scan():
            threshold_scan(base_model, SeverityRule(9, 1, 2, 1.0), [16800.0, 48100.0], 32)

        scan()
        assert relativity._MOMENTS.cache_info() == (3, 1, 128, 2)
        scan()
        assert relativity._MOMENTS.cache_info() == (7, 1, 128, 2)
        # A rule that reads another rule's chain is one lookup, not two.
        optimal_relativity_severity(base_model, SeverityRule(9, 1, 1, 16800.0), 32)
        assert relativity._MOMENTS.cache_info() == (7, 2, 128, 3)
        optimal_relativity_dependent(base_model, FreqRule(9, 1), 32)
        assert relativity._MOMENTS.cache_info() == (8, 2, 128, 3)
        # The benchmark sums the hits of every ``cache_info`` in the module.
        caches = [value for value in vars(relativity).values() if hasattr(value, "cache_info")]
        assert any(cache is relativity._MOMENTS for cache in caches)
        assert sum(cache.cache_info().hits for cache in caches) >= 8
        relativity._MOMENTS.cache_clear()
        assert relativity._MOMENTS.cache_info() == (0, 0, 128, 0)


class TestFrequencyFamily:
    def test_degenerate_effect_gives_unit_relativities(self):
        table = optimal_relativity_frequency(degenerate_model(), FreqRule(9, 1))
        defined = np.isfinite(table.relativities)
        assert np.allclose(table.relativities[defined], 1.0, atol=1e-12)

    def test_normal_equation_residuals_vanish(self, base_model):
        table = optimal_relativity_frequency(base_model, FreqRule(9, 1))
        report = balance_check(base_model, table)
        norm = base_model.portfolio.freq_rates[0] ** 2
        assert report.max_level_residual / norm < 1e-8
        assert report.global_gap / norm < 1e-8

    def test_monte_carlo_conditional_mean_oracle(self, base_model):
        # Ten million stationary policyholders; the analytic table must sit
        # inside three standard errors of the empirical conditional means.
        # The reference runs on a dense grid so quadrature bias stays far
        # below the Monte Carlo resolution.
        rule = FreqRule(9, 1)
        table = optimal_relativity_frequency(base_model, rule, 128)
        summary = simulate_paths(SimConfig(base_model, rule, 10_000_000, seed=99))
        estimate, se = empirical_frequency_relativity(summary)
        gaps = np.abs(table.relativities - estimate) / np.maximum(se, 1e-15)
        assert float(np.max(gaps)) < 3.0

    def test_rejects_severity_rules(self, base_model):
        with pytest.raises(ModelValidationError, match="frequency-driven rule"):
            optimal_relativity_frequency(base_model, SeverityRule(9, 1, 2, 100.0))


class TestDependentFamily:
    def test_rejects_severity_rules(self, base_model):
        with pytest.raises(ModelValidationError, match="dependence-adjusted family requires"):
            optimal_relativity_dependent(base_model, SeverityRule(9, 1, 2, 100.0))

    def test_independent_effects_collapse_to_frequency_family(self):
        model = study_model(0.0)
        rule = FreqRule(9, 1)
        dep = optimal_relativity_dependent(model, rule)
        freq = optimal_relativity_frequency(model, rule)
        assert np.max(np.abs(dep.relativities - freq.relativities)) < 1e-8

    def test_study_base_case_values(self, base_model):
        table = optimal_relativity_dependent(base_model, FreqRule(9, 1))
        assert table.relativities[9] == pytest.approx(1.328, abs=0.01)
        assert table.relativities[0] == pytest.approx(0.414, abs=0.01)
        assert table.stationary[9] == pytest.approx(0.135, abs=0.01)
        assert table.stationary[0] == pytest.approx(0.496, abs=0.01)

    def test_study_positive_dependence_value(self):
        table = optimal_relativity_dependent(study_model(0.4), FreqRule(9, 1), 64)
        assert table.relativities[9] == pytest.approx(4.489, abs=0.01)

    def test_study_moderate_dependence_full_column(self):
        # Published table at correlation -0.4, levels 9..0 (dense grid).
        published = [2.047, 1.460, 1.237, 1.096, 0.987, 0.889, 0.791, 0.683, 0.559, 0.411]
        table = optimal_relativity_dependent(study_model(-0.4), FreqRule(9, 1), 64)
        assert np.max(np.abs(table.relativities[::-1] - published)) < 0.01

    def test_moment_routes_agree(self, base_model):
        # Assembled-ratio route versus the printed per-level moment
        # expressions that divide by the level mass on both sides.
        from bonusmalus.relativity import _moment_field

        field = _moment_field(base_model, FreqRule(9, 1), 32, "aggregate")
        direct = field.target / field.prem_sq
        via_mass = (field.target / field.mass) / (field.prem_sq / field.mass)
        assert np.max(np.abs(direct - via_mass) / direct) < 1e-10


class TestSeverityFamily:
    @pytest.mark.parametrize("step", [1, 2])
    def test_equal_steps_collapse_to_dependent_family(self, base_model, step):
        rule = SeverityRule(9, step, step, 16800.0)
        sev = optimal_relativity_severity(base_model, rule)
        dep = optimal_relativity_dependent(base_model, FreqRule(9, step))
        np.testing.assert_array_equal(sev.relativities, dep.relativities)
        np.testing.assert_array_equal(sev.stationary, dep.stationary)

    @pytest.mark.parametrize("threshold", [1.0, 16800.0, math.inf])
    @pytest.mark.parametrize("step", [1, 2, 3])
    @pytest.mark.parametrize("model_id", ["lognormal", "dat", "mixture"])
    def test_equal_step_table_is_the_frequency_table(self, model_id, step, threshold):
        # An equal-step rule never reads claim sizes, so its table is the
        # frequency rule's table bit for bit, whatever the threshold.
        model = EQUAL_STEP_MODELS[model_id]()
        sev = optimal_relativity_severity(model, SeverityRule(9, step, step, threshold))
        dep = optimal_relativity_dependent(model, FreqRule(9, step))
        np.testing.assert_array_equal(sev.relativities, dep.relativities)
        np.testing.assert_array_equal(sev.stationary, dep.stationary)
        assert sev.hmse_raw == dep.hmse_raw
        assert sev.hmse_normalized == dep.hmse_normalized

    def test_infinite_threshold_collapses_to_small_step(self, base_model):
        sev = optimal_relativity_severity(base_model, SeverityRule(9, 1, 2, FAR_THRESHOLD))
        dep = optimal_relativity_dependent(base_model, FreqRule(9, 1))
        assert np.max(np.abs(sev.relativities - dep.relativities)) < 1e-8

    def test_study_values_at_90th_quantile_threshold(self, base_model):
        table = optimal_relativity_severity(base_model, SeverityRule(9, 1, 2, 16800.0))
        assert table.relativities[9] == pytest.approx(1.320, abs=0.01)
        assert table.stationary[9] == pytest.approx(0.139, abs=0.01)

    def test_study_moderate_dependence_severity_column(self):
        # Published table at correlation -0.4 under -1/+1/+2 at the 90th
        # quantile, levels 9..0 (dense grid).
        published_r = [2.026, 1.449, 1.225, 1.080, 0.964, 0.859, 0.754, 0.643, 0.527, 0.392]
        published_p = [0.141, 0.059, 0.037, 0.029, 0.027, 0.029, 0.038, 0.060, 0.106, 0.475]
        table = optimal_relativity_severity(
            study_model(-0.4), SeverityRule(9, 1, 2, 16800.0), 64
        )
        assert np.max(np.abs(table.relativities[::-1] - published_r)) < 0.01
        assert np.max(np.abs(table.stationary[::-1] - published_p)) < 0.01

    def test_volatile_severity_effect_study_values(self):
        # Independent effects with severity-effect log-variance 1.0 at the
        # matching 90th-quantile threshold.
        model = study_model(0.0, log_var2=1.0)
        table = optimal_relativity_severity(model, SeverityRule(9, 1, 2, 16100.0), 64)
        assert table.relativities[9] == pytest.approx(3.078, abs=0.01)
        assert table.stationary[9] == pytest.approx(0.143, abs=0.01)

    def test_rejects_frequency_rules(self, base_model):
        with pytest.raises(ModelValidationError, match="severity-aware rule"):
            optimal_relativity_severity(base_model, FreqRule(9, 1))


class TestScaleInvariance:
    def test_families_invariant_to_severity_rate_rescaling(self):
        # Doubling the a priori claim size (with the threshold kept at the
        # same quantile, hence doubled too) changes no relativity.
        base = study_model(-0.8, sev_rate=4000.0)
        scaled = study_model(-0.8, sev_rate=8000.0)
        freq_rule = FreqRule(9, 1)
        assert np.array_equal(
            optimal_relativity_frequency(base, freq_rule).relativities,
            optimal_relativity_frequency(scaled, freq_rule).relativities,
        )
        dep_a = optimal_relativity_dependent(base, freq_rule).relativities
        dep_b = optimal_relativity_dependent(scaled, freq_rule).relativities
        assert np.max(np.abs(dep_a - dep_b)) < 1e-10
        sev_a = optimal_relativity_severity(base, SeverityRule(9, 1, 2, 5000.0)).relativities
        sev_b = optimal_relativity_severity(scaled, SeverityRule(9, 1, 2, 10000.0)).relativities
        assert np.max(np.abs(sev_a - sev_b)) < 1e-10


class TestBalance:
    def test_aggregate_residuals_vanish(self, base_model):
        rule = SeverityRule(9, 1, 2, 16800.0)
        table = optimal_relativity_severity(base_model, rule)
        report = balance_check(base_model, table)
        norm = float(
            np.sum(
                base_model.portfolio.weights
                * (base_model.portfolio.freq_rates * base_model.portfolio.sev_rates) ** 2
            )
        )
        assert report.max_level_residual / norm < 1e-8
        assert report.global_gap / norm < 1e-8

    def test_global_identity_against_closed_form(self, base_model):
        # Premium balance: collected premium weight equals the closed-form
        # product moment of the correlated lognormal effects.
        table = optimal_relativity_dependent(base_model, FreqRule(9, 1))
        report = balance_check(base_model, table)
        s1, s2 = math.sqrt(0.99), math.sqrt(0.29)
        lam_sq = (base_model.portfolio.freq_rates[0] * base_model.portfolio.sev_rates[0]) ** 2
        expected = lam_sq * math.exp(-0.8 * s1 * s2)
        assert report.global_rhs == pytest.approx(expected, rel=1e-8)
        assert report.global_lhs == pytest.approx(expected, rel=1e-8)

    def test_degenerate_effects_have_zero_residuals(self):
        model = degenerate_model()
        table = optimal_relativity_dependent(model, FreqRule(9, 1))
        report = balance_check(model, table)
        norm = (model.portfolio.freq_rates[0] * model.portfolio.sev_rates[0]) ** 2
        assert report.max_level_residual / norm < 1e-12

    def test_frequency_family_on_a_sized_rule_is_refused(self, base_model):
        # A hand-built table can claim the frequency family for a rule whose
        # large claims move further; that chain has no frequency moments.
        table = optimal_relativity_severity(base_model, SeverityRule(9, 1, 2, 16800.0))
        table = dataclasses.replace(table, family="frequency")
        with pytest.raises(ModelValidationError, match="'frequency' family does not apply"):
            balance_check(base_model, table)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("rule", "x"),
            ("rule", None),
            ("nodes", [1]),
            ("relativities", np.ones(3)),
            ("relativities", "abc"),
        ],
        ids=["rule-str", "rule-none", "nodes-list", "relativities-short", "relativities-str"],
    )
    def test_hand_built_table_fields_are_checked(self, base_model, name, value):
        # A hand-built table is checked field by field, so a wrong rule,
        # node count or relativity vector is an input error, not a numpy one.
        table = optimal_relativity_dependent(base_model, FreqRule(9, 1), 8)
        with pytest.raises(ModelValidationError):
            balance_check(base_model, dataclasses.replace(table, **{name: value}))


class TestTableRoute:
    RULES = [
        FreqRule(9, 1),
        SeverityRule(9, 1, 1, 16800.0),
        SeverityRule(9, 1, 2, 16800.0),
        SeverityRule(9, 1, 2, 48100.0),
    ]

    @pytest.mark.parametrize("family", ["aggregate", "frequency"])
    def test_tables_match_the_public_functions(self, base_model, fresh_cache, family):
        # ``_tables`` solves its rules in shared field passes and picks each
        # rule's family; its tables are the public functions', bit for bit.
        freq = optimal_relativity_frequency if family == "frequency" else optimal_relativity_dependent
        expected = [freq(base_model, self.RULES[0], 16)]
        expected += [optimal_relativity_severity(base_model, rule, 16) for rule in self.RULES[1:]]
        relativity._MOMENTS.clear()
        tables = list(relativity._tables(base_model, self.RULES, 16, family))
        assert [table.rule for table in tables] == self.RULES
        for got, want in zip(tables, expected, strict=True):
            assert (got.family, got.nodes) == (want.family, want.nodes)
            assert (got.hmse_raw, got.hmse_normalized) == (want.hmse_raw, want.hmse_normalized)
            np.testing.assert_array_equal(got.relativities, want.relativities)
            np.testing.assert_array_equal(got.stationary, want.stationary)


class TestMultiClassPortfolios:
    @staticmethod
    def _two_class_model(split: float = 0.3, distinct: bool = False):
        from conftest import GAMMA_SHAPE, SEV_RATE

        second_rate = 2.0 if distinct else 0.5
        second_sev = 0.5 * SEV_RATE if distinct else SEV_RATE
        return ModelSpec(
            Portfolio(
                [
                    RiskClass(split, 0.5, SEV_RATE),
                    RiskClass(1.0 - split, second_rate, second_sev),
                ]
            ),
            GammaSeverity(1.0 / GAMMA_SHAPE),
            LognormalCopulaEffects(-0.8, 0.99, 0.29),
        )

    def test_identical_classes_collapse_to_single_class(self, base_model):
        # Splitting one class into two identical ones must change nothing.
        split = self._two_class_model(0.3, distinct=False)
        rule = SeverityRule(9, 1, 2, 16800.0)
        a = optimal_relativity_severity(base_model, rule)
        b = optimal_relativity_severity(split, rule)
        assert np.max(np.abs(a.relativities - b.relativities)) < 1e-12
        assert np.max(np.abs(a.stationary - b.stationary)) < 1e-12
        assert a.hmse_raw == pytest.approx(b.hmse_raw, rel=1e-12)

    def test_distinct_classes_agree_with_simulator(self):
        from bonusmalus.verify import check_rule

        model = self._two_class_model(0.3, distinct=True)
        result = check_rule(
            model, SeverityRule(9, 1, 2, 16800.0), n_paths=1_000_000, seed=77
        )
        assert result.passed, result.failures

    def test_distinct_classes_mix_by_weight_in_level_distribution(self):
        # The portfolio level distribution is the weight-mix of the
        # single-class portfolios' distributions.
        from bonusmalus import unconditional_level_distribution
        from conftest import GAMMA_SHAPE, SEV_RATE

        rule = SeverityRule(9, 1, 2, 16800.0)
        mixed = self._two_class_model(0.3, distinct=True)
        effects = mixed.effects
        singles = []
        for cls in mixed.portfolio.classes:
            only = ModelSpec(
                Portfolio([RiskClass(1.0, cls.freq_rate, cls.sev_rate)]),
                GammaSeverity(1.0 / GAMMA_SHAPE),
                effects,
            )
            singles.append(unconditional_level_distribution(only, rule, nodes=16))
        combined = 0.3 * singles[0] + 0.7 * singles[1]
        assert np.max(
            np.abs(unconditional_level_distribution(mixed, rule, nodes=16) - combined)
        ) < 1e-12


class TestUndefinedLevels:
    def test_unreachable_levels_reported_as_undefined(self):
        model = ModelSpec(
            Portfolio([RiskClass(1.0, 1e-12, 100.0)]),
            GammaSeverity(1.0),
            DegenerateEffects(),
        )
        table = optimal_relativity_dependent(model, FreqRule(3, 1))
        undefined = np.flatnonzero(np.isnan(table.relativities))
        assert undefined.size
        for lvl in undefined:
            assert table.stationary[lvl] <= 1e-14
        defined = np.isfinite(table.relativities)
        assert np.allclose(table.relativities[defined], 1.0, atol=1e-9)
