"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n (<name>): PASS`` line on success
(visible under ``pytest -v -rP`` or ``-s``); a failure raises with the full
deviation report.  Stated tolerances are pinned in the assertions below.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from bonusmalus import (
    ClaimHistory,
    FreqRule,
    SeverityRule,
    bayes_agg_premium_freqhist,
    bayes_agg_premium_fullhist,
    bayes_freq_premium,
    mse_comparison_mc,
    optimal_relativity_dependent,
    optimal_relativity_frequency,
    optimal_relativity_severity,
    severity_marginal_quantile,
    threshold_scan,
)
from bonusmalus.verify import check_rule
from conftest import study_model
from oracles import freq_posterior_mean_quad, joint_posterior_moment_quad
from test_bayes import interior_model, random_histories

CANDIDATE_THRESHOLDS = [8200.0, 16800.0, 48100.0, 94300.0]

# Published study table for the strongly negative dependence case, levels 9..0.
EX2A_FREQ_R = [1.328, 1.052, 0.936, 0.858, 0.795, 0.737, 0.676, 0.607, 0.522, 0.414]
EX2A_FREQ_P = [0.135, 0.055, 0.034, 0.026, 0.024, 0.026, 0.034, 0.055, 0.114, 0.496]
EX2A_SEV_R = [1.320, 1.046, 0.928, 0.849, 0.782, 0.719, 0.654, 0.579, 0.510, 0.406]
EX2A_SEV_P = [0.139, 0.057, 0.036, 0.028, 0.027, 0.030, 0.039, 0.061, 0.107, 0.476]

# Published score rows per threshold column (ascending threshold order).
PUBLISHED_HMSE = {
    -0.8: [1.293, 1.282, 1.295, 1.297],
    -0.4: [5.995, 5.930, 5.996, 6.018],
    0.4: [55.196, 54.138, 53.725, 53.772],
}

PUBLISHED_QUANTILES = [(0.75, 8200.0), (0.90, 16800.0), (0.99, 48100.0), (0.999, 94300.0)]


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _attach_oracle_verdict(model, rule, deviations):
    verdict = check_rule(model, rule, n_paths=300_000, seed=314)
    status = "agrees" if verdict.passed else "disagrees"
    return (
        "deviations beyond tolerance:\n  "
        + "\n  ".join(deviations)
        + f"\nMonte Carlo oracle verdict: simulator {status} with the analytic values "
        + f"(level {verdict.level_gap_sigmas:.2f} sigma, relativity "
        + f"{verdict.relativity_gap_sigmas:.2f} sigma, score {verdict.hmse_gap_sigmas:.2f} sigma)"
    )


def test_criterion_1_study_table_reproduction(fresh_cache):
    """Base-case table values within 0.01 absolute, under 60 s at 32 nodes."""
    model = study_model(-0.8)
    freq_rule = FreqRule(9, 1)
    sev_rule = SeverityRule(9, 1, 2, 16800.0)
    start = time.perf_counter()
    dep = optimal_relativity_dependent(model, freq_rule, 32)
    sev = optimal_relativity_severity(model, sev_rule, 32)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"table computation took {elapsed:.1f}s at 32 nodes"

    deviations = []
    for lvl in range(10):
        checks = [
            ("freq-rule r", dep.relativities[9 - lvl], EX2A_FREQ_R[lvl]),
            ("freq-rule P", dep.stationary[9 - lvl], EX2A_FREQ_P[lvl]),
            ("severity-rule r", sev.relativities[9 - lvl], EX2A_SEV_R[lvl]),
            ("severity-rule P", sev.stationary[9 - lvl], EX2A_SEV_P[lvl]),
        ]
        for label, got, want in checks:
            if abs(got - want) > 0.01:
                deviations.append(
                    f"{label} at level {9 - lvl}: computed {got:.4f}, published {want:.3f}"
                )
    if deviations:
        pytest.fail(_attach_oracle_verdict(model, sev_rule, deviations))
    _report(1, "study table reproduction")


def test_criterion_2_threshold_argmin_and_score_ratios():
    """Best threshold per dependence level, score ratios within 2 percent."""
    for corr, published in PUBLISHED_HMSE.items():
        model = study_model(corr)
        entries = threshold_scan(model, SeverityRule(9, 1, 2, 1.0), CANDIDATE_THRESHOLDS)
        best = entries[0].threshold
        expected_best = 16800.0 if corr < 0 else 48100.0
        assert best == expected_best, f"corr={corr}: argmin {best}, expected {expected_best}"
        by_threshold = {e.threshold: e.hmse_raw for e in entries}
        scores = [by_threshold[phi] for phi in CANDIDATE_THRESHOLDS]
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                got = scores[i] / scores[j]
                want = published[i] / published[j]
                assert got == pytest.approx(want, rel=0.02), (
                    f"corr={corr}: ratio {CANDIDATE_THRESHOLDS[i]}/{CANDIDATE_THRESHOLDS[j]} "
                    f"= {got:.4f}, published {want:.4f}"
                )
    _report(2, "threshold argmin and score ratios")


def test_criterion_3_severity_quantiles():
    """Marginal claim-size quantiles within 2 percent of the published values."""
    model = study_model(-0.8)
    for p, expected in PUBLISHED_QUANTILES:
        value = severity_marginal_quantile(p, model)
        assert value == pytest.approx(expected, rel=0.02), (
            f"{p} quantile computed {value:.1f}, published {expected:.0f}"
        )
    _report(3, "severity quantiles")


def test_criterion_4_rule_collapse_identities():
    """Equal steps, infinite threshold, and independence collapses."""
    model = study_model(-0.8)
    for step in (1, 2):
        sev = optimal_relativity_severity(model, SeverityRule(9, step, step, 16800.0))
        dep = optimal_relativity_dependent(model, FreqRule(9, step))
        np.testing.assert_array_equal(sev.relativities, dep.relativities)
    far = optimal_relativity_severity(model, SeverityRule(9, 1, 2, 1e13))
    dep1 = optimal_relativity_dependent(model, FreqRule(9, 1))
    assert np.max(np.abs(far.relativities - dep1.relativities)) < 1e-8
    independent = study_model(0.0)
    dep0 = optimal_relativity_dependent(independent, FreqRule(9, 1))
    freq0 = optimal_relativity_frequency(independent, FreqRule(9, 1))
    assert np.max(np.abs(dep0.relativities - freq0.relativities)) < 1e-8
    _report(4, "rule collapse identities")


def test_criterion_5_credibility_premiums():
    """Closed forms vs posterior quadrature (1e-8), equality and MSE order."""
    model = interior_model()
    for history in random_histories(20, seed=515):
        oracle_freq = model.freq_rate * freq_posterior_mean_quad(history, model)
        assert bayes_freq_premium(history, model) == pytest.approx(oracle_freq, rel=1e-8)
        scale = model.freq_rate * model.sev_rate
        oracle_count = scale * joint_posterior_moment_quad(history, model, use_sizes=False)
        assert bayes_agg_premium_freqhist(history, model) == pytest.approx(
            oracle_count, rel=1e-8
        )
        oracle_full = scale * joint_posterior_moment_quad(history, model, use_sizes=True)
        assert bayes_agg_premium_fullhist(history, model) == pytest.approx(
            oracle_full, rel=1e-8
        )

    unit = interior_model(unit_severity=True)
    history = ClaimHistory([2, 0, 1], [7, 0, 2])
    assert bayes_agg_premium_fullhist(history, unit) == bayes_agg_premium_freqhist(
        history, unit
    )

    result = mse_comparison_mc(model, years=3, n_paths=1_000_000, seed=20260809)
    assert result.mse_full <= result.mse_freq
    assert result.one_sided_lower_95 > 0.0, (
        f"95% lower bound {result.one_sided_lower_95:.4f} not positive"
    )
    _report(5, "credibility premiums")


def test_criterion_6_oracle_agreement_battery():
    """Analytic results within 3 sigma of the seeded simulator at 1e6 paths."""
    configs = [
        (study_model(-0.8), FreqRule(9, 1)),
        (study_model(-0.8), SeverityRule(9, 1, 2, 16800.0)),
        (study_model(0.4), SeverityRule(9, 1, 2, 48100.0)),
    ]
    for index, (model, rule) in enumerate(configs):
        result = check_rule(model, rule, n_paths=1_000_000, seed=20260809 + index, nodes=64)
        assert result.passed, f"{result.label}: " + "; ".join(result.failures)

    negative = check_rule(
        study_model(-0.8),
        FreqRule(9, 1),
        n_paths=200_000,
        seed=20260809,
        perturb={0: 0.1},
    )
    assert not negative.passed, "negative control unexpectedly passed"
    _report(6, "oracle agreement battery")


def test_criterion_7_invariant_suite():
    """Spot re-run of the structural invariants at their stated tolerances."""
    from bonusmalus import balance_check
    from bonusmalus.stationary import _stationary_batch
    from bonusmalus.transition import jump_tails
    from oracles import enumeration_matrix, posterior_density
    from scipy import integrate

    # Total jump mass and fixed-point residuals on the enumerated chain
    # across the test grid.
    for z, small, large in ((3, 1, 2), (9, 1, 2), (9, 2, 3), (9, 3, 3)):
        for mean in (0.1, 0.5, 2.0):
            for exceed in (0.0, 0.1, 0.5, 1.0):
                rule = SeverityRule(z, small, large, 1.0)
                p0, T = jump_tails(rule, mean, exceed)
                assert np.max(np.abs(p0 + T[:, 0] - 1.0)) < 1e-12
                pi = _stationary_batch(p0, T)[0]
                P = enumeration_matrix(rule, mean, exceed)
                assert np.max(np.abs(pi @ P - pi)) < 1e-10

    # Normal-equation residuals of an optimal table.
    model = study_model(-0.8)
    table = optimal_relativity_severity(model, SeverityRule(9, 1, 2, 16800.0))
    report = balance_check(model, table)
    norm = (model.portfolio.freq_rates[0] * model.portfolio.sev_rates[0]) ** 2
    assert report.max_level_residual / norm < 1e-8

    # Quadrature refinement stability at a small level count.
    coarse = optimal_relativity_severity(model, SeverityRule(3, 1, 2, 16800.0), 32)
    fine = optimal_relativity_severity(model, SeverityRule(3, 1, 2, 16800.0), 64)
    assert np.max(np.abs(coarse.relativities - fine.relativities)) < 1e-4
    assert abs(coarse.hmse_raw - fine.hmse_raw) / fine.hmse_raw < 1e-4

    # Posterior normalization.
    bayes = interior_model()
    history = ClaimHistory([1, 0, 2], [4, 0, 5])
    inner = lambda t1: integrate.quad(
        lambda t2: posterior_density(t1, t2, history, bayes), 0, 60, limit=200
    )[0]
    total, _ = integrate.quad(inner, 0, 60, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)
    _report(7, "invariant suite")
