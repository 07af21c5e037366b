"""Simulator determinism, limiting behavior, and oracle agreement."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import bonusmalus.simulate
from bonusmalus import (
    FreqRule,
    GammaSeverity,
    InsufficientOccupancyError,
    LognormalCopulaEffects,
    MixtureExponentialEffects,
    ModelSpec,
    ModelValidationError,
    Portfolio,
    RiskClass,
    SeverityRule,
    SimConfig,
    empirical_relativity,
    hmse_empirical,
    optimal_relativity_dependent,
    optimal_relativity_frequency,
    simulate_paths,
)
from bonusmalus.quadrature import marginal_grid, severity_cdf
from bonusmalus.simulate import (
    CHUNK,
    WINDOW,
    _burn_in,
    _draw_paths,
    _large_claims,
    _more_claims,
    _move_type,
    _step,
    _stream,
    _words,
    _words_at_least,
    _year_moves,
)
from bonusmalus.verify import check_rule
from conftest import GAMMA_SHAPE, SEV_RATE, degenerate_model, study_model, traced_peak
from oracles import (
    empirical_frequency_relativity,
    enumeration_matrix,
    forward_levels,
    forward_sums,
    poisson_claim_counts,
)

EPS = np.finfo(float).eps
# One past the largest 53-bit word: ``Generator.random`` draws ``word * 2**-53 < 1``.
TOP = 1 << 53


class TestSimulatePaths:
    def test_same_seed_is_bit_identical(self, base_model):
        cfg = SimConfig(base_model, SeverityRule(9, 1, 2, 16800.0), 70_000, seed=3)
        a = simulate_paths(cfg)
        b = simulate_paths(cfg)
        for field in dataclasses.fields(a):
            va, vb = getattr(a, field.name), getattr(b, field.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb)
            else:
                assert va == vb

    @pytest.mark.parametrize(
        "rule,digest",
        [
            (FreqRule(9, 1), "ceccf5f8abc6937df2372934dbda615a665d6b7ded1d339065d48022d9f78fc7"),
            (
                SeverityRule(9, 1, 2, 16800.0),
                "17a49aba8c330ce4411ca12551174e5eb8e38c43af93460b9dd64b75ff2fbcd5",
            ),
        ],
        ids=["frequency", "severity"],
    )
    def test_sums_are_pinned_bit_for_bit(self, base_model, rule, digest):
        # Two chunks, the second partial: no draw, stream or sum order may move.
        cfg = SimConfig(base_model, rule, 70_000, seed=3, burn_in_years=30)
        assert hashlib.sha256(simulate_paths(cfg).sums.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "rule,digest",
        [
            (FreqRule(9, 1), "55ca7f94cc72079a3d43fce56040c3d54f6661abe0ea5507e2ae4ed8221c49c9"),
            (
                SeverityRule(9, 1, 2, 16800.0),
                "92a728367d559a35ef2dd11a7940bfc529dffa7ae84b37f88359ef1dc6a74539",
            ),
        ],
        ids=["frequency", "severity"],
    )
    def test_sums_are_pinned_at_the_default_burn_in(self, base_model, rule, digest):
        # 120 years: the open paths' early years are drawn from their own streams.
        cfg = SimConfig(base_model, rule, 70_000, seed=3)
        assert hashlib.sha256(simulate_paths(cfg).sums.tobytes()).hexdigest() == digest

    def test_peak_memory_of_one_sized_chunk_stays_under_8_mb(self, base_model):
        # One 65,536-path chunk of a sized rule: 8.9 MB traced at the peak
        # with the chunk's exceedances in one ``severity_cdf`` call, 7.0 MB
        # in slices of 8,192 means, 6.6 MB in slices of 4,096 beside the
        # window buffer.
        rule = SeverityRule(9, 1, 2, 16800.0)
        cfg = SimConfig(base_model, rule, 1 << 16, seed=7, burn_in_years=10)
        simulate_paths(cfg)  # warm the caches
        _, peak, _ = traced_peak(lambda: simulate_paths(cfg))
        assert peak < 8e6, peak

    def test_peak_memory_of_one_sized_chunk_at_the_default_burn_in_stays_under_8_mb(
        self, base_model
    ):
        # The same chunk over 121 years, with its 32 window years of moves held.
        rule = SeverityRule(9, 1, 2, 16800.0)
        cfg = SimConfig(base_model, rule, 1 << 16, seed=7)
        simulate_paths(cfg)  # warm the caches
        _, peak, _ = traced_peak(lambda: simulate_paths(cfg))
        assert peak < 8e6, peak

    def test_empty_run_rejected(self, base_model):
        with pytest.raises(ValueError):
            simulate_paths(SimConfig(base_model, FreqRule(9, 1), 0, seed=1))

    def test_invalid_rule_rejected(self, base_model):
        with pytest.raises(ModelValidationError, match="large-claim step 1 must be >="):
            simulate_paths(SimConfig(base_model, SeverityRule(9, 2, 1, 100.0), 1_000, seed=1))

    def test_different_seed_changes_the_sample(self, base_model):
        rule = FreqRule(9, 1)
        a = simulate_paths(SimConfig(base_model, rule, 50_000, seed=1))
        b = simulate_paths(SimConfig(base_model, rule, 50_000, seed=2))
        assert not np.array_equal(a.counts, b.counts)

    def test_vanishing_claim_rate_collects_everyone_at_level_zero(self):
        model = degenerate_model(freq_rate=1e-14)
        summary = simulate_paths(SimConfig(model, FreqRule(9, 1), 20_000, seed=4))
        assert summary.counts[0] == summary.counts.sum()

    def test_level_distribution_sums_to_one_exactly(self, base_model):
        # The counts are exact; the normalized float masses sum to one up to
        # the rounding of one division and one sum per level.
        summary = simulate_paths(SimConfig(base_model, FreqRule(9, 1), 30_000, seed=5))
        assert summary.counts.sum() == 30_000
        assert abs(summary.level_distribution.sum() - 1.0) <= summary.levels * EPS

    @pytest.mark.parametrize(
        "years", [{"burn_in_years": -1}, {"sample_years": 0}], ids=["burn_in", "sample"]
    )
    def test_year_counts_validated(self, base_model, years):
        with pytest.raises(ValueError):
            simulate_paths(SimConfig(base_model, FreqRule(9, 1), 10, seed=1, **years))

    def test_path_count_validated(self, base_model):
        with pytest.raises(ValueError):
            SimConfig(base_model, FreqRule(9, 1), 0, seed=1)

    def test_rule_type_validated(self, base_model):
        with pytest.raises(ModelValidationError, match="unknown rule type object"):
            SimConfig(base_model, object(), 10, seed=1)

    def test_multi_year_sample_window(self, base_model):
        cfg = SimConfig(base_model, FreqRule(9, 1), 20_000, seed=14, sample_years=3)
        summary = simulate_paths(cfg)
        assert summary.counts.sum() == 60_000
        assert abs(summary.level_distribution.sum() - 1.0) <= summary.levels * EPS

    @pytest.mark.parametrize(
        "rule", [FreqRule(9, 1), SeverityRule(9, 1, 2, 16800.0)], ids=["freq", "severity"]
    )
    @pytest.mark.parametrize(
        "model",
        [
            pytest.param(degenerate_model(freq_rate=1e20), id="finite"),
            # At 1e150, near the largest rate a class accepts, the squared
            # premium factor's own square overflows a float unless scaled.
            pytest.param(study_model(0.0, freq_rate=1e150), id="overflowing"),
            # A class rate just below the largest a class accepts, and a
            # mixture whose second rate, 2**-39, is the least that keeps the
            # marginal mean at one: the widest claim means a model admits.
            pytest.param(
                ModelSpec(
                    Portfolio([RiskClass(1.0, 1.3e154, 1.0)]),
                    GammaSeverity(1.0 / GAMMA_SHAPE),
                    MixtureExponentialEffects(1.0 - 2.0**-40, 2.0, 2.0**-40 / (0.5 + 2.0**-41)),
                ),
                id="largest-mean",
            ),
        ],
    )
    def test_extreme_claim_rate_fills_the_top_level(self, model, rule):
        # One year from the bottom: every path must jump straight to the top,
        # and no claim mean may overflow on the way.
        with np.errstate(over="raise", invalid="raise"):
            summary = simulate_paths(SimConfig(model, rule, 5_000, seed=4, burn_in_years=0))
        assert summary.counts[-1] == 5_000


RULES = [FreqRule(9, 1), SeverityRule(9, 1, 2, 16800.0)]


class TestCouplingWindow:
    """Only the paths whose window chains have not met run the early burn-in years."""

    @pytest.mark.parametrize("rule", RULES, ids=["frequency", "severity"])
    def test_met_paths_hold_the_forward_level(self, base_model, rule):
        size = 20_000
        cfg = SimConfig(base_model, rule, size, seed=11)
        paths, _ = _draw_paths(cfg, 0, size)
        window = np.empty((WINDOW, size), dtype=_move_type(rule))
        level, open_paths = _burn_in(cfg, 0, paths, window)
        _, _, forward = forward_levels(cfg, 0, size)
        met = np.ones(size, dtype=bool)
        met[open_paths] = False
        assert np.array_equal(level[met], forward[cfg.burn_in_years][met])
        # About one path in ten is open on these ten-level rules.
        assert 0.05 < open_paths.size / size < 0.2, open_paths.size

    @pytest.mark.parametrize("rule", RULES, ids=["frequency", "severity"])
    @pytest.mark.parametrize("burn_in", [WINDOW - 1, WINDOW, WINDOW + 1])
    def test_a_burn_in_the_window_holds_is_the_forward_loop(self, base_model, rule, burn_in):
        # Two chunks, the second partial, three sampled years.  One year past
        # the window, the open paths draw year 1 from streams of their own.
        cfg = SimConfig(base_model, rule, 70_000, seed=3, burn_in_years=burn_in, sample_years=3)
        same = np.array_equal(simulate_paths(cfg).sums, forward_sums(cfg))
        assert same == (burn_in <= WINDOW)

    @pytest.mark.parametrize("burn_in", [0, 1, WINDOW])
    def test_no_path_is_open_without_early_years(self, base_model, burn_in):
        # Both chains start at 0, so nothing is replayed.
        size = 5_000
        cfg = SimConfig(base_model, FreqRule(9, 1), size, seed=5, burn_in_years=burn_in)
        paths, _ = _draw_paths(cfg, 0, size)
        window = np.empty((burn_in, size), dtype=np.int8)
        level, open_paths = _burn_in(cfg, 0, paths, window)
        assert open_paths.size == 0
        assert np.array_equal(level, forward_levels(cfg, 0, size)[2][burn_in])

    def test_open_paths_draw_one_word_each_from_streams_of_their_own(
        self, base_model, monkeypatch
    ):
        streams = []

        def recorded(*key):
            streams.append((key, _stream(*key)))
            return streams[-1][1]

        monkeypatch.setattr(bonusmalus.simulate, "_stream", recorded)
        size, burn_in = 5_000, WINDOW + 8
        cfg = SimConfig(base_model, FreqRule(9, 1), size, seed=5, burn_in_years=burn_in)
        paths, _ = _draw_paths(cfg, 2, size)
        _, open_paths = _burn_in(cfg, 2, paths, np.empty((WINDOW, size), dtype=np.int8))
        assert open_paths.size
        window_years = [(5, 2, year) for year in range(9, burn_in + 1)]
        early_years = [(5, 2, year, 1) for year in range(1, 9)]
        assert [key for key, _ in streams] == [(5, 2, 0)] + window_years + early_years
        for key, stream in streams[-8:]:
            fresh = _stream(*key)
            _words(fresh.bit_generator, open_paths.size)
            after = stream.bit_generator.random_raw(5)
            assert np.array_equal(after, fresh.bit_generator.random_raw(5))

    @pytest.mark.parametrize(
        "rule",
        [FreqRule(128, 1), FreqRule(200, 1), SeverityRule(200, 1, 150, 16800.0), FreqRule(9, 200)],
        ids=["128", "200", "sized-200", "step-past-the-top"],
    )
    def test_a_top_jump_reaches_the_top(self, rule):
        # Past the window too, every year jumps every path to the top.  A jump
        # of 128 needs int16 moves: ``min_scalar_type(-128)`` is int8.
        model = degenerate_model(freq_rate=1e20)
        summary = simulate_paths(SimConfig(model, rule, 2_000, seed=4, burn_in_years=40))
        assert summary.counts[-1] == 2_000

    def test_a_200_level_rule_runs(self, base_model):
        summary = simulate_paths(SimConfig(base_model, FreqRule(200, 1), 5_000, seed=4))
        assert summary.counts.sum() == 5_000
        assert summary.counts[128:].sum() > 0  # levels only int16 moves reach

    def test_a_mostly_open_run_keeps_the_exact_law(self, base_model):
        # At 26 levels most chains have not met after the window, so most
        # paths run their early years on their own streams.  The level after
        # 61 years from the bottom has the quadrature-averaged exact row
        # ``e_0 P**61``; a 192-node rule in theta1 is within 0.01 sigma of a
        # 256-node one here, and the nodes it drops weigh 1.1e-16 in all.
        rule, n_paths = FreqRule(25, 1), 200_000
        cfg = SimConfig(base_model, rule, n_paths, seed=23, burn_in_years=60)
        _, open_paths = _burn_in(
            cfg, 0, _draw_paths(cfg, 0, CHUNK)[0], np.empty((WINDOW, CHUNK), dtype=np.int8)
        )
        assert open_paths.size > CHUNK // 2
        counts = simulate_paths(cfg).counts
        theta1, weights = marginal_grid(base_model.effects, 1, 192)
        keep = weights >= 1e-16
        assert weights[~keep].sum() < 1e-15
        freq_rate = float(base_model.portfolio.freq_rates[0])
        row = sum(
            w * np.linalg.matrix_power(enumeration_matrix(rule, freq_rate * t, 0.0), 61)[0]
            for t, w in zip(theta1[keep], weights[keep])
        )
        row = np.clip(row, 0.0, 1.0)
        lower = stats.binom.cdf(counts, n_paths, row)
        upper = stats.binom.sf(counts - 1, n_paths, row)
        tails = np.minimum(2.0 * np.minimum(lower, upper), 1.0)
        assert float(np.min(tails)) >= FOUR_SIGMA_TAIL, tails


def _words_around(bounds) -> np.ndarray:
    """Every 53-bit word within two of a bound, and the range's two ends."""
    near = np.asarray(bounds, dtype=np.int64)[:, None] + np.arange(-2, 3)
    ends = [0, 1, TOP - 2, TOP - 1]
    return np.unique(np.clip(np.append(near, ends), 0, TOP - 1)).astype(np.uint64)


def _integer_counts(words, p0, lam, cap: int) -> np.ndarray:
    """Claim counts as the year loop reaches them from 53-bit words; 0 for no claim."""
    k0 = _words_at_least(p0)
    k1 = _words_at_least(p0 + p0 * lam if cap > 1 else 1.0)
    n = (words >= k0).astype(np.int64)
    many = np.flatnonzero(words >= k1)  # k1 >= k0: only claimants count two or more
    n[many] = _more_claims(words[many] * 2.0**-53, p0[many], lam[many], cap)
    return n


def _float_counts(words, p0, lam, cap: int) -> np.ndarray:
    """The same counts by the float recurrence on ``Generator.random``'s uniforms."""
    u = words * 2.0**-53
    claim = np.flatnonzero(u >= p0)
    n = np.zeros(words.size, dtype=np.int64)
    n[claim] = poisson_claim_counts(u[claim], p0[claim], lam[claim], cap)
    return n


class TestIntegerSampler:
    """Path-years are decided on Philox's 53-bit words, bit for bit as on uniforms."""

    @pytest.mark.parametrize("n,m", [(1000, 7), (1001, 3), (1, 4)])
    def test_words_are_the_generators_uniforms(self, n, m):
        # A numpy that built its doubles another way fails here by name, not
        # only through the pinned digests.  The stream must also continue
        # where ``random`` would leave it, mid-block too.
        floats, words = _stream(3, 1, 7), _stream(3, 1, 7)
        raw = _words(words.bit_generator, n)
        assert raw.dtype == np.uint64 and int(raw.max()) < TOP
        assert np.array_equal(floats.random(n), raw * 2.0**-53)
        assert np.array_equal(floats.random(m), words.random(m))

    def test_stream_is_keyed_by_its_seed_sequence(self):
        state = _stream(3, 1, 7).bit_generator.state["state"]
        key = np.random.SeedSequence((3, 1, 7)).generate_state(2, np.uint64)
        assert np.array_equal(state["key"], key)
        assert not state["counter"].any()

    @pytest.mark.parametrize(
        "prob",
        [0.0, 5e-324, 2.0**-60, 0.5, math.exp(-0.5), np.nextafter(1.0, 0.0), 1.0],
        ids=["zero", "least", "tiny", "half", "exp", "below-one", "one"],
    )
    def test_word_bound_is_the_uniform_test(self, prob):
        bound = _words_at_least(np.array([prob]))
        words = _words_around(bound)
        assert np.array_equal(words >= bound, words * 2.0**-53 >= prob)

    def test_word_bound_on_random_probabilities(self):
        rng = np.random.default_rng(4)
        scale = rng.integers(0, 1075, 50_000)
        prob = np.concatenate([rng.random(50_000), np.ldexp(rng.random(50_000), -scale)])
        bound = _words_at_least(prob)
        at = np.minimum(bound, TOP - 1)
        for words in (rng.integers(0, TOP, prob.size, dtype=np.uint64), at, at - (at > 0)):
            assert np.array_equal(words >= bound, words * 2.0**-53 >= prob)

    def test_non_finite_or_excess_probability_is_never_reached(self):
        # One past every word, with no unchecked cast of NaN to an integer.
        with np.errstate(all="raise"):
            bound = _words_at_least(np.array([np.nan, np.inf, 1.0, 1.0 + EPS, 1.25]))
        assert bound.tolist() == [TOP] * 5

    @pytest.mark.parametrize("cap", [1, 2, 3, 10, 1000])
    def test_counts_match_the_float_recurrence(self, cap):
        rng = np.random.default_rng(cap)
        lam = np.concatenate(
            [
                rng.lognormal(-0.5, 1.0, 3_000),
                [0.0, 5e-324, 1e-300, 1e-9, 1.0, 5.0, 50.0, 800.0, 1e20],
            ]
        )
        p0 = np.exp(-lam)
        # cdf1 rounds above 1 for these pairs: no claimant may count two.
        p0 = np.append(p0, [np.nextafter(1.0, 0.0), 1.0, 0.5])
        lam = np.append(lam, [1e-15, 1e-15, 1.5])
        # Each path's words: random ones and those around both of its bounds.
        k1 = _words_at_least(p0 + p0 * lam)
        picks = [rng.integers(0, TOP, p0.size, dtype=np.uint64)]
        for bound in (_words_at_least(p0), k1):
            picks += [np.clip(bound.astype(np.int64) + d, 0, TOP - 1) for d in (-1, 0, 1)]
        words = np.concatenate(picks).astype(np.uint64)
        p0, lam = np.tile(p0, len(picks)), np.tile(lam, len(picks))
        expected = _float_counts(words, p0, lam, cap)
        assert np.array_equal(_integer_counts(words, p0, lam, cap), expected)
        assert expected.min() == 0 and expected.max() == cap
        if cap > 1:
            assert (expected == 1).any() and (expected == 2).any()

    @pytest.mark.parametrize(
        "exceed",
        [0.0, 5e-324, 1e-17, 0.3, np.nextafter(1.0, 0.0), 1.0],
        ids=["zero", "least", "rounds-away", "interior", "below-one", "one"],
    )
    def test_one_claim_is_large_by_the_binomial_inversion(self, exceed):
        # A one-claim claimant skips ``_large_claims``: ``v >= 1 - exceed``
        # must be its inversion of Binomial(1, exceed), exactly.
        keep = 1.0 - exceed
        v = np.concatenate(
            [
                np.random.default_rng(5).random(10_000),
                [0.0, keep, np.nextafter(keep, 0.0), np.nextafter(keep, 2.0)],
                [np.nextafter(1.0, 0.0)],
            ]
        )
        v = v[v < 1.0]
        e = np.full(v.size, exceed)
        large = _large_claims(v, np.ones(v.size, dtype=np.int64), e)
        assert np.array_equal(large, (v >= 1.0 - e).astype(np.int64))
        if exceed in (0.0, 1.0):
            assert large.tolist() == [int(exceed)] * v.size


# Thresholds whose single-claim exceedance is 0, about one half, about 1 and
# exactly 1.
ONE_YEAR_RULES = {
    "freq-1": FreqRule(9, 1),
    "freq-2": FreqRule(9, 2),
    "sev-none-large": SeverityRule(9, 1, 2, math.inf),
    "sev-half-large": SeverityRule(9, 1, 2, SEV_RATE),
    "sev-all-large": SeverityRule(9, 1, 2, 1e-3),
    "sev-only-large": SeverityRule(9, 1, 2, 1e-300),
}
# Two-sided tail mass beyond four standard deviations of a normal law.
FOUR_SIGMA_TAIL = 2.0 * stats.norm.sf(4.0)


def _one_year_counts(model, rule, n_paths, seed, from_level):
    """Level counts of one simulated year from ``from_level``: the first year's draws, per chunk."""
    cfg = SimConfig(model, rule, n_paths, seed, burn_in_years=0)
    counts = np.zeros(rule.levels, dtype=np.int64)
    for chunk_index, done in enumerate(range(0, n_paths, CHUNK)):
        paths, _ = _draw_paths(cfg, chunk_index, min(CHUNK, n_paths - done))
        level = np.full(paths.k0.size, from_level, dtype=np.int16)
        bits = _stream(seed, chunk_index, 1).bit_generator
        _step(level, _year_moves(bits, paths, rule, model.portfolio.freq_rates), rule.max_level)
        counts += np.bincount(level, minlength=rule.levels)
    return counts


def _one_year_tails(rule, freq_rate, from_level, oracle_level, seed=21):
    """Two-sided binomial tail of each level count of a one-year run under an oracle row.

    The exact tail stands in for the normal 4-sigma band, which misjudges
    levels whose expected count is below one: a single path at a level
    expected 0.025 times already sits 6 sigma out.
    """
    model = degenerate_model(freq_rate=freq_rate)
    n_paths = 100_000
    counts = _one_year_counts(model, rule, n_paths, seed, from_level)
    if isinstance(rule, SeverityRule):
        exceed = float(severity_cdf(rule.threshold, SEV_RATE, model.severity, upper=True))
    else:
        exceed = 0.0
    row = np.clip(enumeration_matrix(rule, freq_rate, exceed)[oracle_level], 0.0, 1.0)
    lower = stats.binom.cdf(counts, n_paths, row)
    upper = stats.binom.sf(counts - 1, n_paths, row)
    return np.minimum(2.0 * np.minimum(lower, upper), 1.0)


class TestOneYearSampler:
    """One simulated year against the enumerated transition row, per start level."""

    def test_thresholds_span_the_exceedance_range(self):
        law = degenerate_model().severity
        exceed = {
            rule_id: float(severity_cdf(rule.threshold, SEV_RATE, law, upper=True))
            for rule_id, rule in ONE_YEAR_RULES.items()
            if isinstance(rule, SeverityRule)
        }
        assert exceed["sev-none-large"] == 0.0
        assert 0.2 < exceed["sev-half-large"] < 0.8
        assert 0.999 < exceed["sev-all-large"] < 1.0
        assert exceed["sev-only-large"] == 1.0

    @pytest.mark.parametrize("from_level", [0, 5, 9])
    @pytest.mark.parametrize("freq_rate", [0.05, 0.5, 5.0, 50.0])
    @pytest.mark.parametrize("rule_id", list(ONE_YEAR_RULES))
    def test_matches_enumerated_row(self, rule_id, freq_rate, from_level):
        rule = ONE_YEAR_RULES[rule_id]
        tails = _one_year_tails(rule, freq_rate, from_level, from_level)
        assert float(np.min(tails)) >= FOUR_SIGMA_TAIL, tails

    @pytest.mark.parametrize("rule_id", ["freq-1", "sev-half-large"])
    def test_wrong_start_row_is_rejected(self, rule_id):
        tails = _one_year_tails(ONE_YEAR_RULES[rule_id], 0.5, 5, 0)
        assert float(np.min(tails)) < FOUR_SIGMA_TAIL


class TestSummaryLayout:
    """``sums[row, class, level]``: count, t, t**2, t**3, t**4, theta1, theta1**2."""

    def test_count_row_adds_up_to_the_level_counts(self, base_model):
        rule = SeverityRule(9, 1, 2, 16800.0)
        summary = simulate_paths(SimConfig(base_model, rule, 30_000, seed=16, sample_years=2))
        assert summary.sums.shape == (7, 1, summary.levels)
        assert np.array_equal(summary.sums[0].sum(axis=0), summary.counts)

    def test_degenerate_effects_make_every_power_row_the_count_row(self):
        summary = simulate_paths(SimConfig(degenerate_model(), FreqRule(9, 1), 20_000, seed=17))
        for row in summary.sums[1:]:
            assert np.array_equal(row, summary.sums[0])

    def test_two_classes_keep_their_own_rows(self):
        classes = [RiskClass(0.3, 0.05, SEV_RATE), RiskClass(0.7, 2.0, 2.0 * SEV_RATE)]
        model = ModelSpec(
            Portfolio(classes),
            GammaSeverity(1.0 / GAMMA_SHAPE),
            LognormalCopulaEffects(-0.8, 0.99, 0.29),
        )
        n_paths = 100_000
        summary = simulate_paths(SimConfig(model, FreqRule(9, 1), n_paths, seed=18))
        assert summary.sums.shape == (7, 2, summary.levels)
        per_class = summary.sums[0].sum(axis=1)
        share_se = math.sqrt(0.3 * 0.7 / n_paths)
        assert abs(per_class[0] / n_paths - 0.3) < 4.0 * share_se
        # The rare claimants gather at the bottom, the frequent ones higher up.
        mean_level = summary.sums[0] @ np.arange(summary.levels) / per_class
        assert mean_level[0] < 1.0 and mean_level[1] > 5.0
        # A family weights each class's rows by that class's squared premium factor.
        weighted = np.array([0.05, 2.0]) ** 2 @ summary.sums[[0, 5]]
        estimate, _ = empirical_frequency_relativity(summary)
        assert np.allclose(estimate, weighted[1] / weighted[0], rtol=1e-12, atol=0.0)

    def test_simulator_imports_no_analytic_module(self):
        # The simulator is the oracle for the analytic engine, so it must not
        # reach any of the engine's modules.
        tree = ast.parse(Path(bonusmalus.simulate.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.Import):
                imported.update(part for alias in node.names for part in alias.name.split("."))
        assert not imported & {"transition", "stationary", "relativity", "hmse"}


class TestEmpiricalEstimates:
    def test_degenerate_effects_give_unit_relativities_everywhere(self):
        model = degenerate_model(freq_rate=0.5)
        summary = simulate_paths(SimConfig(model, FreqRule(9, 1), 150_000, seed=6))
        estimate, se = empirical_relativity(summary)
        assert np.allclose(estimate, 1.0, atol=1e-12)
        assert np.allclose(se, 0.0, atol=1e-12)

    def test_independent_effects_match_frequency_relativities(self):
        # Without effect dependence the aggregate conditional means coincide
        # with the frequency-only relativities.
        model = study_model(0.0)
        rule = FreqRule(9, 1)
        summary = simulate_paths(SimConfig(model, rule, 400_000, seed=8))
        estimate, se = empirical_relativity(summary)
        table = optimal_relativity_frequency(model, rule, 96)
        gaps = np.abs(estimate - table.relativities) / np.maximum(se, 1e-15)
        assert float(np.max(gaps)) < 3.0

    def test_insufficient_occupancy_raises(self, base_model):
        summary = simulate_paths(SimConfig(base_model, FreqRule(9, 1), 3_000, seed=9))
        with pytest.raises(InsufficientOccupancyError):
            empirical_relativity(summary)
        with pytest.raises(InsufficientOccupancyError):
            empirical_frequency_relativity(summary)

    def test_huge_premium_factor_leaves_estimates_exact(self):
        # The moment sums once held q**2 = (freq_rate * sev_rate)**4, which is
        # inf at sev_rate 2**490, so every relativity SE was NaN.  Scaled by a
        # power of two, the two runs differ only in the score's units.
        rule = FreqRule(9, 1)
        small, huge = (
            simulate_paths(SimConfig(study_model(-0.8, sev_rate=2.0**e), rule, 100_000, seed=1))
            for e in (10, 490)
        )
        for (r_small, se_small), (r_huge, se_huge) in [
            (empirical_relativity(small), empirical_relativity(huge)),
            (empirical_frequency_relativity(small), empirical_frequency_relativity(huge)),
        ]:
            assert np.array_equal(r_small, r_huge) and np.array_equal(se_small, se_huge)
            assert np.all(np.isfinite(se_huge))
        r = np.linspace(0.4, 1.4, 10)
        (score, se), (score_huge, se_huge) = hmse_empirical(small, r), hmse_empirical(huge, r)
        assert (score_huge, se_huge) == (score * 2.0**960, se * 2.0**960)

    def test_hmse_vector_length_checked(self, base_model):
        summary = simulate_paths(SimConfig(base_model, FreqRule(9, 1), 3_000, seed=10))
        with pytest.raises(ValueError):
            hmse_empirical(summary, np.ones(4))

    def test_hmse_vector_length_is_a_level_mismatch(self, base_model):
        summary = simulate_paths(SimConfig(base_model, FreqRule(9, 1), 3_000, seed=10))
        with pytest.raises(ModelValidationError, match="10 levels"):
            hmse_empirical(summary, np.ones(11))


class TestOracleChecks:
    def test_base_case_agreement(self, base_model):
        result = check_rule(
            base_model, SeverityRule(9, 1, 2, 16800.0), n_paths=150_000, seed=12
        )
        assert result.passed, result.failures

    def test_negative_control_fails(self, base_model):
        result = check_rule(
            base_model,
            FreqRule(9, 1),
            n_paths=150_000,
            seed=12,
            perturb={0: 0.1},
        )
        assert not result.passed
        assert any("relativity" in msg or "score" in msg for msg in result.failures)

    def test_negative_control_fails_at_huge_premium_factor(self):
        # The NaN sigma gaps of an overflowed run once let this control pass.
        model = study_model(-0.8, sev_rate=2.0**490)
        result = check_rule(model, FreqRule(9, 1), n_paths=100_000, seed=1, perturb={0: 0.5})
        assert not result.passed
        assert math.isfinite(result.relativity_gap_sigmas)

    def test_non_finite_gap_fails(self, monkeypatch):
        from bonusmalus import verify

        monkeypatch.setattr(verify, "hmse_empirical", lambda summary, r: (math.nan, math.nan))
        result = check_rule(degenerate_model(), FreqRule(9, 1), n_paths=100_000, seed=15)
        assert not result.passed
        assert any("score" in msg for msg in result.failures)

    def test_shifted_level_mass_fails(self, monkeypatch):
        # The level comparison is the only one that reads the table's
        # stationary distribution, so a shift there must fail by itself.
        from bonusmalus import relativity, verify

        def shifted(model, rules, nodes):
            (table,) = relativity._tables(model, rules, nodes)
            stationary = table.stationary.copy()
            stationary[2] += 0.01
            return [dataclasses.replace(table, stationary=stationary)]

        monkeypatch.setattr(verify, "_tables", shifted)
        result = check_rule(degenerate_model(), FreqRule(9, 1), n_paths=120_000, seed=15)
        assert not result.passed
        assert len(result.failures) == 1, result.failures
        assert result.failures[0].startswith("level distribution off at level 2: ")
        assert result.level_gap_sigmas > 3.0

    def test_under_visited_levels_skip_the_relativity_comparison(self):
        # At 0.05 claims a year no path of this run reaches levels 4-9.  An
        # unvisited level is compared on the binomial error of its analytic
        # mass: level 4's 2.0e-5 over 1e5 paths sits 1.41 sigma from 0, where
        # the empirical error of 0, floored at 1e-15, read 2e10 sigma.
        model = degenerate_model(freq_rate=0.05)
        result = check_rule(model, FreqRule(9, 1), n_paths=100_000, seed=1)
        assert not result.passed
        assert result.failures == ("some levels under-visited; relativity comparison skipped",)
        assert result.level_gap_sigmas == pytest.approx(1.41, abs=0.005)
        assert result.relativity_gap_sigmas == 0.0

    def test_degenerate_model_passes_with_unit_relativities(self):
        result = check_rule(degenerate_model(), FreqRule(9, 1), n_paths=120_000, seed=15)
        assert result.passed, result.failures
        table = optimal_relativity_dependent(degenerate_model(), FreqRule(9, 1), 64)
        assert np.allclose(table.relativities, 1.0, atol=1e-10)

    @pytest.mark.parametrize(
        "level", [-1, 10, 2.5, True], ids=["negative", "above", "fraction", "bool"]
    )
    def test_perturbed_level_outside_the_scale_rejected(self, base_model, level):
        with pytest.raises(ValueError, match=f"perturbed level {level!r} "):
            check_rule(base_model, FreqRule(9, 1), n_paths=100_000, seed=1, perturb={level: 0.5})

    def test_undersized_runs_rejected_for_oracle_use(self, base_model):
        with pytest.raises(ValueError):
            check_rule(base_model, FreqRule(9, 1), n_paths=50_000, seed=1)
        with pytest.raises(ValueError):
            check_rule(base_model, FreqRule(9, 1), n_paths=200_000, seed=1, burn_in_years=50)
