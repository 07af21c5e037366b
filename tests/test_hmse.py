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
    optimal_relativity_severity,
    rule_dominance_check,
    threshold_scan,
)
from conftest import degenerate_model, study_model

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
        # Per-level conditional decomposition (stored on the table) versus
        # the node-by-node double integral.
        rule = SeverityRule(9, 1, 2, 16800.0)
        table = optimal_relativity_severity(base_model, rule)
        report = hmse_eval(base_model, table, rule)
        assert report.hmse_raw == pytest.approx(table.hmse_raw, rel=1e-8)
        assert report.hmse_normalized == pytest.approx(table.hmse_normalized, rel=1e-8)

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
        # The per-level moment route (the table's own score) against the
        # node-by-node double integral, over random single-class models.
        sev_rate = math.exp(8.8)
        model = ModelSpec(
            Portfolio([RiskClass(1.0, freq_rate, sev_rate)]),
            GammaSeverity(dispersion),
            LognormalCopulaEffects(corr, log_var1, log_var2),
        )
        threshold = sev_rate * -math.log1p(-quantile)
        rule = SeverityRule(max_level, small, small + extra, threshold)
        table = optimal_relativity_severity(model, rule, 16)
        report = hmse_eval(model, table, rule, 16)
        assert report.hmse_raw == pytest.approx(table.hmse_raw, rel=1e-8)
        assert report.hmse_normalized == pytest.approx(table.hmse_normalized, rel=1e-8)
        assert table.hmse_raw >= 0.0
        assert table.stationary.sum() == pytest.approx(1.0, abs=1e-12)

    def test_near_degenerate_score_is_not_negative(self):
        # With effects a hair from degenerate the moment route cancels to
        # roundoff; a mean square must still not come out negative.
        model = study_model(0.0, log_var1=1e-16, log_var2=1e-16)
        table = optimal_relativity_severity(model, SeverityRule(9, 1, 2, 48100.0))
        assert table.hmse_raw >= 0.0
        assert table.hmse_normalized >= 0.0

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

    def test_missing_diagonal_rejected(self, base_model):
        with pytest.raises(ValueError):
            rule_dominance_check(
                base_model, [FreqRule(9, 3)], self.SEV, nodes=24
            )

    def test_empty_grids_rejected(self, base_model):
        with pytest.raises(ValueError):
            rule_dominance_check(base_model, [], self.SEV, nodes=24)
