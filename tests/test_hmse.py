"""Score evaluation, threshold scans, and rule dominance."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonusmalus import (
    FreqRule,
    GammaSeverity,
    LognormalCopulaEffects,
    ModelSpec,
    ModelValidationError,
    Portfolio,
    RiskClass,
    SeverityRule,
    hmse_eval,
    optimal_relativity_dependent,
    optimal_relativity_frequency,
    optimal_relativity_severity,
    rule_dominance_check,
    threshold_scan,
)
from bonusmalus import relativity, stationary
from conftest import degenerate_model, study_model
from oracles import hmse_double_integral
from test_relativity import EQUAL_STEP_MODELS

CANDIDATES = [8200.0, 16800.0, 48100.0, 94300.0]


class TestHmseEval:
    def test_degenerate_effects_with_unit_relativities_score_zero(self):
        model = degenerate_model()
        rule = FreqRule(9, 1)
        report = hmse_eval(model, np.ones(10), rule)
        assert report.hmse_normalized == pytest.approx(0.0, abs=1e-12)

    def test_equal_steps_rule_identity(self, base_model):
        # Scoring any vector under the equal-steps severity rule equals the
        # frequency-rule score exactly: the chains are the same chain.
        r = np.linspace(0.4, 1.4, 10)
        sev = hmse_eval(base_model, r, SeverityRule(9, 2, 2, 16800.0))
        freq = hmse_eval(base_model, r, FreqRule(9, 2))
        assert sev.hmse_raw == freq.hmse_raw

    def test_decomposition_routes_agree(self, base_model):
        # The table's own score and hmse_eval, both summed from per-level
        # residuals, against the node-by-node double integral.
        rule = SeverityRule(9, 1, 2, 16800.0)
        table = optimal_relativity_severity(base_model, rule)
        raw, normalized = hmse_double_integral(base_model, table.relativities, rule, table.nodes)
        for score in (table, hmse_eval(base_model, table, rule)):
            assert score.hmse_raw == pytest.approx(raw, rel=1e-8)
            assert score.hmse_normalized == pytest.approx(normalized, rel=1e-8)

    @given(
        corr=st.floats(min_value=-0.95, max_value=0.95),
        log_var1=st.floats(min_value=0.01, max_value=2.0),
        log_var2=st.floats(min_value=0.01, max_value=2.0),
        freq_rate=st.floats(min_value=0.05, max_value=2.0),
        dispersion=st.floats(min_value=0.2, max_value=3.0),
        max_level=st.integers(min_value=1, max_value=9),
        small=st.integers(min_value=1, max_value=3),
        extra=st.integers(min_value=0, max_value=3),
        quantile=st.floats(min_value=0.05, max_value=0.999),
    )
    @settings(max_examples=30, deadline=None)
    def test_routes_agree_on_random_models(
        self, corr, log_var1, log_var2, freq_rate, dispersion, max_level, small, extra, quantile
    ):
        # The per-level residual route (the table's own score and hmse_eval)
        # against the node-by-node double integral, over random single-class
        # models.
        sev_rate = math.exp(8.8)
        model = ModelSpec(
            Portfolio([RiskClass(1.0, freq_rate, sev_rate)]),
            GammaSeverity(dispersion),
            LognormalCopulaEffects(corr, log_var1, log_var2),
        )
        threshold = sev_rate * -math.log1p(-quantile)
        rule = SeverityRule(max_level, small, small + extra, threshold)
        table = optimal_relativity_severity(model, rule, 16)
        raw, normalized = hmse_double_integral(model, table.relativities, rule, 16)
        for score in (table, hmse_eval(model, table, rule, 16)):
            assert score.hmse_raw == pytest.approx(raw, rel=1e-8)
            assert score.hmse_normalized == pytest.approx(normalized, rel=1e-8)
        assert table.hmse_raw >= 0.0
        assert table.stationary.sum() == pytest.approx(1.0, abs=1e-12)

    def test_near_degenerate_score_is_not_negative(self):
        # With effects a hair from degenerate every gap is tiny; a sum of
        # squares must still not come out negative.
        model = study_model(0.0, log_var1=1e-16, log_var2=1e-16)
        table = optimal_relativity_severity(model, SeverityRule(9, 1, 2, 48100.0))
        assert table.hmse_raw >= 0.0
        assert table.hmse_normalized >= 0.0

    @pytest.mark.parametrize("log_var", [1e-14, 1e-16])
    @pytest.mark.parametrize("corr", [-0.8, 0.0])
    def test_near_degenerate_score_matches_the_double_integral(self, corr, log_var):
        # Expanded into moments, E[p^2 t^2] - 2 r E[p^2 t] + r^2 E[p^2], these
        # scores cancel to roundoff: 4.44e-15, 1.98e-14, 2.12e-16 and 0.0
        # against 4.0e-15, 2.0e-14, 4.0e-17 and 2.0e-16.  Squared gaps do not.
        model = study_model(corr, log_var1=log_var, log_var2=log_var)
        rule = SeverityRule(9, 1, 2, 48100.0)
        table = optimal_relativity_severity(model, rule, 32)
        _, normalized = hmse_double_integral(model, table.relativities, rule, 32)
        assert table.hmse_normalized == pytest.approx(normalized, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "log_vars", [(1e-14, 1e-14), (1e-16, 1e-16), (0.0, 1e-14)], ids=["1e-14", "1e-16", "var1-0"]
    )
    @pytest.mark.parametrize("corr", [-0.8, 0.0])
    @pytest.mark.parametrize("family", ["frequency", "aggregate"])
    def test_near_degenerate_frequency_rule_score_matches_the_double_integral(
        self, family, corr, log_vars
    ):
        # A frequency rule's moments sum each run of equal theta1 about its
        # centre; the term that carries the centre's rounding keeps these
        # scores on the double integral, which drift up to 3.5e-9 without it.
        model = study_model(corr, log_var1=log_vars[0], log_var2=log_vars[1])
        rule = FreqRule(9, 1)
        build = optimal_relativity_frequency if family == "frequency" else optimal_relativity_dependent
        table = build(model, rule, 32)
        raw, normalized = hmse_double_integral(model, table.relativities, rule, 32, family)
        assert table.hmse_raw == pytest.approx(raw, rel=1e-9, abs=0.0)
        assert table.hmse_normalized == pytest.approx(normalized, rel=1e-9, abs=0.0)

    def test_optimal_table_beats_per_level_perturbations(self, base_model):
        rule = FreqRule(9, 1)
        table = optimal_relativity_dependent(base_model, rule)
        best = hmse_eval(base_model, table, rule).hmse_raw
        for lvl in range(10):
            for sign in (-1.0, 1.0):
                bumped = table.relativities.copy()
                bumped[lvl] *= 1.0 + sign * 0.01
                assert hmse_eval(base_model, bumped, rule).hmse_raw > best

    def test_level_count_mismatch_rejected(self, base_model):
        with pytest.raises(ModelValidationError, match="table has 9 levels but the rule has 10"):
            hmse_eval(base_model, np.ones(9), FreqRule(9, 1))

    def test_normalization_is_premium_weighted(self, base_model):
        rule = FreqRule(9, 1)
        report = hmse_eval(base_model, np.ones(10), rule)
        lam_sq = (
            base_model.portfolio.freq_rates[0] * base_model.portfolio.sev_rates[0]
        ) ** 2
        assert report.hmse_raw / report.hmse_normalized == pytest.approx(lam_sq, rel=1e-12)


SCORE_RULES = {"freq": FreqRule(9, 1), "severity": SeverityRule(9, 1, 2, 16800.0)}


class TestOneScoreRoute:
    """Tables and ``hmse_eval`` score from per-level residuals; the oracle integrates per node."""

    @staticmethod
    def _tables(model, rule, nodes):
        if isinstance(rule, FreqRule):
            return [
                optimal_relativity_frequency(model, rule, nodes),
                optimal_relativity_dependent(model, rule, nodes),
            ]
        return [optimal_relativity_severity(model, rule, nodes)]

    def _assert_routes_agree(self, model, rule, nodes):
        for table in self._tables(model, rule, nodes):
            raw, normalized = hmse_double_integral(
                model, table.relativities, rule, nodes, table.family
            )
            assert table.hmse_raw == pytest.approx(raw, rel=1e-8, abs=0.0)
            assert table.hmse_normalized == pytest.approx(normalized, rel=1e-8, abs=0.0)
        holes = table.relativities.copy()
        holes[::3] = np.nan
        for r in (table.relativities, table.relativities + 0.05, holes):
            raw, normalized = hmse_double_integral(model, r, rule, nodes)
            report = hmse_eval(model, r, rule, nodes)
            assert report.hmse_raw == pytest.approx(raw, rel=1e-8, abs=0.0)
            assert report.hmse_normalized == pytest.approx(normalized, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("rule_id", SCORE_RULES)
    @pytest.mark.parametrize("model_id", EQUAL_STEP_MODELS)
    def test_scores_match_the_double_integral(self, model_id, rule_id):
        self._assert_routes_agree(EQUAL_STEP_MODELS[model_id](), SCORE_RULES[rule_id], 32)

    @pytest.mark.parametrize("rule_id", SCORE_RULES)
    def test_undefined_levels_score_as_zero_relativities(self, rule_id):
        # Claims this rare leave levels 3-9 below the mass floor: their table
        # entries are NaN, scored as zero, and the split still holds there.
        model, rule = study_model(-0.8, freq_rate=1e-7), SCORE_RULES[rule_id]
        table = self._tables(model, rule, 32)[-1]
        assert np.flatnonzero(np.isnan(table.relativities)).tolist() == list(range(3, 10))
        self._assert_routes_agree(model, rule, 32)


class TestThresholdScan:
    def test_study_base_case_prefers_90th_quantile(self, base_model):
        entries = threshold_scan(base_model, SeverityRule(9, 1, 2, 1.0), CANDIDATES)
        assert entries[0].threshold == 16800.0
        scores = [e.hmse_raw for e in entries]
        assert scores == sorted(scores)

    def test_positive_dependence_prefers_99th_quantile(self):
        model = study_model(0.4)
        entries = threshold_scan(model, SeverityRule(9, 1, 2, 1.0), CANDIDATES)
        assert entries[0].threshold == 48100.0

    def test_single_candidate_passes_through(self, base_model):
        entries = threshold_scan(base_model, SeverityRule(9, 1, 2, 1.0), [16800.0])
        assert len(entries) == 1
        assert entries[0].threshold == 16800.0

    def test_duplicate_candidates_tie_break_deterministically(self, base_model):
        entries = threshold_scan(
            base_model, SeverityRule(9, 1, 2, 1.0), [16800.0, 16800.0, 8200.0]
        )
        assert [e.threshold for e in entries[:2]] == [16800.0, 16800.0]

    def test_equal_scores_rank_the_smaller_threshold_first(self, base_model):
        # An equal-step rule reads no claim size, so the three scores tie exactly.
        entries = threshold_scan(base_model, SeverityRule(9, 1, 1, 1.0), [20000.0, 5000.0, 10000.0])
        assert len({e.hmse_raw for e in entries}) == 1
        assert [e.threshold for e in entries] == [5000.0, 10000.0, 20000.0]

    def test_empty_candidates_rejected(self, base_model):
        with pytest.raises(ValueError):
            threshold_scan(base_model, SeverityRule(9, 1, 2, 1.0), [])


class TestRuleDominance:
    FREQ = [FreqRule(9, 1), FreqRule(9, 2)]
    SEV = [
        SeverityRule(9, small, large, phi)
        for small, large in ((1, 1), (1, 2), (2, 2), (2, 3))
        for phi in (8200.0, 16800.0, 48100.0)
    ]

    def test_severity_grid_never_loses(self, base_model):
        report = rule_dominance_check(base_model, self.FREQ, self.SEV, nodes=24)
        assert report.severity_no_worse

    def test_study_base_case_is_strictly_better(self, base_model):
        report = rule_dominance_check(base_model, self.FREQ, self.SEV, nodes=32)
        assert report.severity_best.hmse_raw < report.freq_best.hmse_raw
        assert isinstance(report.severity_best.rule, SeverityRule)
        assert (
            report.severity_best.rule.small_step,
            report.severity_best.rule.large_step,
            report.severity_best.rule.threshold,
        ) == (1, 2, 16800.0)

    def test_degenerate_severity_effect_gives_equal_minima(self):
        # With no severity heterogeneity the claim-size split is pure noise:
        # the best severity-aware rule is an equal-steps one.
        model = study_model(-0.8, log_var2=0.0)
        report = rule_dominance_check(model, self.FREQ, self.SEV, nodes=24)
        gap = abs(report.severity_best.hmse_raw - report.freq_best.hmse_raw)
        assert gap <= 1e-8 * report.freq_best.hmse_raw

    def test_each_equal_step_shape_is_solved_once(self, base_model, monkeypatch, fresh_cache):
        # The equal-step severity rules, and a threshold no claim exceeds,
        # read the frequency rule's field: one pass per frequency step, and
        # one for the sized rules of the grid.
        passes = []

        def counted(model, rules, grid):
            passes.append(rules)
            return stationary._stationary_fields(model, rules, grid)

        monkeypatch.setattr(relativity, "_stationary_fields", counted)
        sized = [rule for rule in self.SEV if rule.large_step > rule.small_step]
        rule_dominance_check(
            base_model, self.FREQ, self.SEV + [SeverityRule(9, 1, 2, math.inf)], nodes=24
        )
        assert passes == [[FreqRule(9, 1)], [FreqRule(9, 2)], sized[:3], sized[3:]]

    def test_the_cache_holds_one_entry_per_chain(self, base_model, fresh_cache):
        # 14 rules run 8 chains: the two frequency rules, which the six
        # equal-step severity rules share, and the six sized rules.
        rule_dominance_check(base_model, self.FREQ, self.SEV, nodes=24)
        assert len(relativity._MOMENTS) == 8
        equal = relativity._moment_field(base_model, SeverityRule(9, 2, 2, 8200.0), 24, "aggregate")
        assert equal is relativity._moment_field(base_model, FreqRule(9, 2), 24, "aggregate")

    def test_missing_diagonal_rejected(self, base_model):
        with pytest.raises(ValueError):
            rule_dominance_check(
                base_model, [FreqRule(9, 3)], self.SEV, nodes=24
            )

    def test_empty_grids_rejected(self, base_model):
        with pytest.raises(ValueError):
            rule_dominance_check(base_model, [], self.SEV, nodes=24)
