"""Distribution functions and the quantile root finder against 50-digit and scipy oracles.

The package evaluates the gamma and Poisson claim-size laws on numpy alone,
with its own regularized incomplete gamma, and finds quantile roots with its
own port of Brent's method.  ``mpmath`` at 50 digits is the
reference for every value, and ``scipy.stats`` and ``scipy.optimize`` stay
here as test-only oracles: at the edges (0, 1, NaN, infinities, invalid
parameters) and in the result type the package must agree with
``scipy.stats`` exactly, and elsewhere its largest error on each grid must not
exceed that of ``scipy.stats`` on the same grid.  Errors are relative where
the reference is a normal double and absolute below that.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from bonusmalus import (
    BonusMalusError,
    BracketingFailureError,
    GammaSeverity,
    NonFiniteIntegrandError,
    PoissonSeverity,
)
from bonusmalus import _distributions, quadrature
from bonusmalus._distributions import gamma_cdf
from bonusmalus.cli import main, parse_model
from bonusmalus.presets import PRESETS
from bonusmalus.quadrature import severity_cdf, severity_marginal_quantile

REPO = Path(__file__).resolve().parents[1]

# 2,000 log-spaced means plus the edges: zero, the smallest subnormal, the
# extremes, +-inf, NaN and negative (invalid) means.
MEANS = np.concatenate(
    [
        np.geomspace(1e-6, 1e9, 2000),
        [0.0, 5e-324, 1e-300, 1e300, np.inf, np.nan, -1.0, -np.inf, 1.0, 0.5],
    ]
)
POINTS = [-np.inf, -1.0, -0.0, 0.0, 5e-324, 0.3, 1.0, 2.5, 16800.0, 1e300, np.inf, np.nan]
GAMMA_SHAPES = [0.67, 1.0, 2.5, 40.0]
LAWS = [GammaSeverity(1.0 / a) for a in GAMMA_SHAPES] + [PoissonSeverity()]
LAW_IDS = [f"gamma{a}" for a in GAMMA_SHAPES] + ["poisson"]
TINY = np.finfo(float).tiny  # the smallest normal double


def _same(actual, expected) -> bool:
    return np.shape(actual) == np.shape(expected) and np.array_equal(
        actual, expected, equal_nan=True
    )


def double_double(ref) -> tuple[float, float]:
    """A 50-digit reference as the pair ``(hi, lo)`` of doubles with ``hi + lo`` nearest it."""
    with mp.workdps(50):
        hi = float(ref)
        return hi, float(ref - mp.mpf(hi))


@functools.lru_cache(maxsize=None)
def regularized_gamma(a: float, x: float) -> tuple:
    """50-digit ``(P(a, x), Q(a, x))`` for ``a > 0`` and finite ``x > 0``, as double-doubles.

    The smaller side is evaluated and the other is its complement.  A side
    that a float bound puts below ``e**-850`` (far under the smallest
    subnormal) is taken as 0.  Above shapes of 1e15 the two-term uniform
    expansion (DLMF 8.12.3, ``c_0``) stands in, its relative error ``O(1/a)``.
    """
    return tuple(double_double(side) for side in _regularized_gamma(a, x))


def _regularized_gamma(a: float, x: float) -> tuple:
    with mp.workdps(50):
        if x < a:
            log_bound = a * math.log(x) - x - math.lgamma(a + 1.0) + math.log1p(x / (a + 1.0 - x))
            if log_bound < -850.0:
                return mp.mpf(0), mp.mpf(1)
        elif (a - 1.0) * math.log(x) - x - math.lgamma(a) + math.log(x / (x - a + 1.0)) < -850.0:
            return mp.mpf(1), mp.mpf(0)
        big_a, big_x = mp.mpf(a), mp.mpf(x)
        if a > 1e15:
            mu = big_x / big_a - 1
            if mu == 0:
                q = mp.mpf(0.5) - 1 / (3 * mp.sqrt(2 * mp.pi * big_a))
            else:
                eta = mp.sign(mu) * mp.sqrt(2 * (mu - mp.log1p(mu)))
                q = mp.erfc(eta * mp.sqrt(big_a / 2)) / 2 + mp.exp(-big_a * eta**2 / 2) / mp.sqrt(
                    2 * mp.pi * big_a
                ) * (1 / mu - 1 / eta)
            return 1 - q, q
        if x < a:
            p = mp.gammainc(big_a, 0, big_x, regularized=True)
            return p, 1 - p
        q = mp.gammainc(big_a, big_x, mp.inf, regularized=True)
        return 1 - q, q


def kernel_arguments(law, x, means):
    """Shape, standardized arguments and the entries the incomplete gamma computes.

    A gamma law sees ``x / (mean / shape)``; a Poisson CDF at ``k`` is ``Q(k + 1, mean)``.
    The other entries are edges, whose values are exact.
    """
    with np.errstate(all="ignore"):
        if isinstance(law, GammaSeverity):
            scale = means / law.shape
            y = np.asarray(x / scale, dtype=float)
            return law.shape, y, (scale > 0) & (y > 0) & (y < np.inf)
        k = math.floor(x) if math.isfinite(x) else x
        inside = (means > 0) & (means < np.inf) & (k >= 0) & (k < np.inf)
        return (k + 1.0 if math.isfinite(k) else k), means, inside


def reference(law, x, means, upper: bool):
    """50-digit law values at the computed entries, and the mask of those entries."""
    a, y, inside = kernel_arguments(law, x, means)
    # The Poisson CDF is the upper incomplete gamma.
    side = int(upper) if isinstance(law, GammaSeverity) else int(not upper)
    values = [regularized_gamma(a, float(v))[side] for v in y[inside]]
    return values, inside


def largest_errors(values, refs) -> tuple[float, float]:
    """Largest relative error where the reference is a normal double, and largest absolute one below.

    ``refs`` are double-double pairs; ``value - hi`` is exact wherever the
    error is below 1/2, so each error is good to a rounding of its own size.
    A NaN value makes the errors NaN, which fails every gate.
    """
    values = np.asarray(values, dtype=float)
    hi, lo = np.reshape(np.asarray(refs, dtype=float), (-1, 2)).T
    gap = np.abs((values - hi) - lo)
    normal = hi >= TINY
    return (
        float(np.max(gap[normal] / hi[normal], initial=0.0)),
        float(np.max(gap[~normal], initial=0.0)),
    )


def scipy_law(law, x, means, upper: bool):
    with np.errstate(all="ignore"):
        if isinstance(law, GammaSeverity):
            dist = stats.gamma(law.shape, scale=means / law.shape)
            return dist.sf(x) if upper else dist.cdf(x)
        return stats.poisson.sf(np.floor(x), means) if upper else stats.poisson.cdf(np.floor(x), means)


def judge_law(law, x, means, upper: bool):
    """Exact edges, and interior errors within scipy's largest on the law's whole edge grid."""
    with np.errstate(all="ignore"):
        actual = severity_cdf(x, means, law, upper=upper)
    expected = scipy_law(law, x, means, upper)
    refs, inside = reference(law, x, means, upper)
    assert _same(actual[~inside], expected[~inside]) and actual.shape == expected.shape
    port = largest_errors(actual[inside], refs)
    gate = law_gate(LAW_IDS[LAWS.index(law)], upper)
    assert port[0] <= gate[0] and port[1] <= gate[1], (port, gate)


@functools.lru_cache(maxsize=None)
def law_gate(law_id: str, upper: bool) -> tuple[float, float]:
    """Scipy's largest relative and absolute errors for one law and side over the whole edge grid."""
    law = LAWS[LAW_IDS.index(law_id)]
    rel = absolute = 0.0
    for x in POINTS:
        refs, inside = reference(law, x, MEANS, upper)
        oracle = largest_errors(scipy_law(law, x, MEANS, upper)[inside], refs)
        rel, absolute = max(rel, oracle[0]), max(absolute, oracle[1])
    return rel, absolute


class TestClaimSizeLaws:
    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("x", POINTS)
    def test_exceedance_matches_scipy_stats(self, law, x):
        judge_law(law, x, MEANS, upper=True)

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("x", POINTS)
    def test_cdf_matches_scipy_stats(self, law, x):
        judge_law(law, x, MEANS.reshape(2, -1), upper=False)

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_scalar_in_scalar_out(self, law):
        gate = law_gate(LAW_IDS[LAWS.index(law)], True)
        for x in POINTS:
            for mean in (0.0, 0.5, 7.0, np.inf, np.nan):
                with np.errstate(all="ignore"):
                    tail = severity_cdf(x, mean, law, upper=True)
                expected = scipy_law(law, x, mean, upper=True)
                assert type(tail) is type(expected)
                refs, inside = reference(law, x, np.array([mean]), upper=True)
                if not inside[0]:
                    assert _same(tail, expected)
                    continue
                rel, absolute = largest_errors([tail], refs)
                assert rel <= gate[0] and absolute <= gate[1]


class TestBrentPort:
    @pytest.fixture
    def paired_roots(self, monkeypatch):
        """Run every quantile root through the port and through scipy's brentq."""
        pairs = []
        port = quadrature._brentq

        def both(f, lo, hi):
            root = port(f, lo, hi)
            pairs.append((root, optimize.brentq(f, lo, hi, xtol=1e-12, rtol=1e-10, maxiter=200)))
            return root

        monkeypatch.setattr(quadrature, "_brentq", both)
        return pairs

    @pytest.mark.parametrize("kind", ["gamma", "poisson"])
    def test_preset_quantiles_bitwise(self, paired_roots, kind):
        levels = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999)
        presets = [name for name in PRESETS if name != "dat"]
        for name in presets:
            cfg = PRESETS[name]
            if kind == "poisson":
                cfg = {**cfg, "model": {**cfg["model"], "severity": {"kind": "poisson"}}}
            model = parse_model(cfg)
            for nodes in (16, 32):
                for p in levels:
                    severity_marginal_quantile(p, model, nodes)
        assert len(paired_roots) == len(presets) * 2 * len(levels)
        assert all(port == oracle for port, oracle in paired_roots)

    def test_random_brackets_bitwise(self):
        rng = np.random.default_rng(20261018)
        for _ in range(1500):
            # Magnitudes from 1e-3 to 1e6 let either tolerance govern the stop.
            size = 10.0 ** rng.uniform(-3.0, 6.0)
            root, scale, cubic = size * rng.normal(), size * rng.uniform(0.05, 2.0), rng.uniform(0, 3)
            lo = root - size * rng.uniform(1e-3, 5.0)
            hi = root + size * rng.uniform(1e-3, 5.0)

            def f(x, root=root, scale=scale, cubic=cubic):
                u = (x - root) / scale
                return math.tanh(u) + cubic * u**3

            if rng.random() < 0.5:
                lo, hi = hi, lo
            expected = optimize.brentq(f, lo, hi, xtol=1e-12, rtol=1e-10, maxiter=200)
            assert quadrature._brentq(f, lo, hi) == expected

    def test_endpoint_roots_returned_as_is(self):
        assert quadrature._brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
        assert quadrature._brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0

    def test_equal_signs_raise(self):
        with pytest.raises(BracketingFailureError, match="different signs"):
            quadrature._brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value_raises(self):
        with pytest.raises(NonFiniteIntegrandError, match="NaN"):
            quadrature._brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)

    def test_non_convergence_raises(self):
        with pytest.raises(RuntimeError):
            optimize.brentq(math.sin, 1.0, 4.0, xtol=1e-12, rtol=1e-10, maxiter=2)
        with pytest.raises(BracketingFailureError, match="converge"):
            quadrature._brentq(math.sin, 1.0, 4.0, maxiter=2)


def test_cli_imports_neither_scipy_stats_nor_scipy_optimize(tmp_path):
    # No scipy module at all: after the import and after a verb has run, so a
    # lazy import inside a function fails too.
    code = (
        "import io, sys, contextlib, bonusmalus.cli as cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['relativities', '--preset', 'ex2a'])\n"
        "loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(code, ','.join(sorted(set(loaded))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def _temme_table(rows: int, cols: int) -> list:
    """Temme's ``d[k][n]`` (DLMF 8.12.11-14) as exact rationals.

    ``mu(eta)`` solves ``eta**2 / 2 = mu - ln(1 + mu)``, so ``eta (1 + mu) =
    mu mu'``; ``eta / mu = sum r_n eta**n`` gives ``d[0][n] = r_{n+1}`` and the
    Stirling coefficients ``g_k = (2k - 1)!! r_{2k}``, and ``d[k][n] =
    (-1)**k g_k d[0][n] + (n + 2) d[k-1][n+2]``.
    """
    size = cols + 2 * rows + 2
    mu = [Fraction(0), Fraction(1)]
    for n in range(2, size + 2):
        inner = sum(mu[i] * (n + 1 - i) * mu[n + 1 - i] for i in range(2, n))
        mu.append((mu[n - 1] - inner) / (n + 1))
    ratio = [Fraction(1)]  # eta / mu = 1 / (mu / eta)
    for n in range(1, size + 1):
        ratio.append(-sum(mu[j + 1] * ratio[n - j] for j in range(1, n + 1)))
    stirling = [ratio[2 * k] * math.prod(range(2 * k - 1, 0, -2)) for k in range(rows)]
    table = [[ratio[n + 1] for n in range(size - 1)]]
    for k in range(1, rows):
        prev = table[-1]
        table.append(
            [(-1) ** k * stirling[k] * table[0][n] + (n + 2) * prev[n + 2] for n in range(len(prev) - 2)]
        )
    return table


class TestIncompleteGammaKernel:
    def test_temme_coefficients_are_the_exact_rationals(self):
        exact = _temme_table(25, 25)
        assert exact[0][:4] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135), Fraction(1, 864)]
        assert exact[1][0] == Fraction(-1, 540)
        rows, cols = _distributions._TEMME.shape
        kept = np.array([[float(exact[k][n]) for n in range(cols)] for k in range(rows)])
        assert np.array_equal(_distributions._TEMME, kept)  # bit for bit
        # Where the expansion runs, a > 20 and |eta| < 0.34: the 25 x 25 terms
        # left out sum to less than 1e-20.
        dropped = sum(
            abs(float(exact[k][n])) * 0.34**n / 20.0**k
            for k in range(25)
            for n in range(25)
            if k >= rows or n >= cols
        )
        assert dropped < 1e-20

    def test_log_table_is_the_rounded_logarithms(self):
        with mp.workdps(50):
            for i, (hi, lo) in enumerate(_distributions._LOG_TABLE.T):
                exact = mp.log(1 + mp.mpf(i - 10) / 32)
                assert hi == float(exact) and lo == float(exact - mp.mpf(hi))

    @pytest.mark.parametrize("a", [1e-6, 0.67, 1.0, 3.5, 19.9, 25.0, 400.0])
    def test_fraction_depth_bound_holds(self, a):
        # The bottom-up fraction at its bound depth against the same fraction
        # run 600 levels deep at 30 digits, over the fraction's region.
        lo = max(1.1, a) if a <= 20.0 else 1.3 * a
        x = lo * np.geomspace(1.0, 300.0, 25)
        got = 1.0 / _distributions._fraction(a, x, np.ones_like(x))
        with mp.workdps(30):
            for xi, ui in zip(x, got):
                u = mp.mpf(xi) - a + 1201
                for k in range(600, 0, -1):
                    u = (mp.mpf(xi) - a + 2 * k - 1) - k * (k - mp.mpf(a)) / u
                assert abs(ui - u) / u < 4e-16

    @pytest.mark.parametrize("a", [3e6, 1e10, 1e14])
    def test_large_shapes_near_the_transition(self, a):
        # Above shapes of 1e6 the deviance is a series in (x - a) / (x + a).
        # The reference integrates the density at 40 digits from a - 40 sqrt(a).
        x = a + np.array([-8.0, -2.0, 0.0, 1.0, 5.0]) * math.sqrt(a)
        p, q = gamma_cdf(x, a, 1.0), gamma_cdf(x, a, 1.0, upper=True)
        with mp.workdps(40):
            big_a = mp.mpf(a)
            log_gamma, start = mp.loggamma(big_a), big_a - 40 * mp.sqrt(big_a)
            for xi, pi, qi in zip(x, p, q):
                nodes = [start + (mp.mpf(float(xi)) - start) * i / 16 for i in range(17)]
                ref = mp.quad(lambda t: mp.exp((big_a - 1) * mp.log(t) - t - log_gamma), nodes)
                assert abs(pi - ref) <= 1e-15 * ref and abs(qi - (1 - ref)) <= 1e-15 * (1 - ref)

    @pytest.mark.parametrize("a", [0.67, 2.5, 40.0, 16801.0, 3e6])
    def test_values_do_not_depend_on_the_batch(self, a):
        # Each argument alone and inside a batch that spans every region,
        # Temme's band near a and the far tails included: same bits, since
        # every choice of algorithm is made per element.
        near = a + math.sqrt(a) * np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        x = np.concatenate([a * np.geomspace(1e-3, 1e3, 41), near, a + np.array([1500.0, 3000.0])])
        x = x[x > 0]
        for upper in (False, True):
            batch = gamma_cdf(x, a, 1.0, upper=upper)
            assert np.array_equal(batch, [gamma_cdf(v, a, 1.0, upper=upper) for v in x])

    @pytest.mark.parametrize("a", [700.0, 2000.0, 1e4])
    def test_single_arguments_far_above_the_shape(self, a):
        # Beyond x = a + 1000 the prefactor need not underflow at these
        # shapes, so its exponent must stay exact for an argument alone too.
        for x in a + np.array([1001.0, 1500.0, 2200.0, 3000.0]):
            q = gamma_cdf(x, a, 1.0, upper=True)
            hi, lo = regularized_gamma(a, float(x))[1]
            assert abs((q - hi) - lo) <= 2e-15 * hi, (x, q, hi)

    def test_long_arrays_run_in_blocks(self):
        # The simulator asks for 65,536 exceedances at once; the fraction's
        # levels would take depth x size floats, so the kernel works in blocks.
        x = np.geomspace(1e-3, 1e3, 1 << 16)
        tracemalloc.start()
        try:
            tail = gamma_cdf(x, 0.67, 1.0, upper=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = _distributions._BLOCK
        parts = [gamma_cdf(x[i : i + block], 0.67, 1.0, upper=True) for i in range(0, x.size, block)]
        assert np.array_equal(tail, np.concatenate(parts))
        assert peak < 16 * 2**20, peak

    def test_non_convergence_names_shape_and_argument(self, monkeypatch):
        monkeypatch.setattr(_distributions, "MAX_TERMS", 5)
        with pytest.raises(BonusMalusError, match=r"shape a=0\.67 and x=3\.35"):
            gamma_cdf(5.0, 0.67, 1.0 / 0.67)

    def test_non_convergence_exits_3(self, monkeypatch, capsys, tmp_path):
        # A threshold and node count no other test uses, so no cached table answers.
        config = tmp_path / "config.json"
        config.write_text('{"thresholds": [12345.678], "quadrature_nodes": 11}')
        monkeypatch.setattr(_distributions, "MAX_TERMS", 5)
        args = ["relativities", "--preset", "ex2a", "--config", str(config), "--out", str(tmp_path)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the incomplete gamma") and "Traceback" not in err


def _full_depth_series(a: float, x: np.ndarray) -> np.ndarray:
    """The rising series with every element carried to the depth the largest ``x`` needs."""
    depth = _distributions._series_depth(a, float(np.max(x)))
    if depth == 0:
        return np.ones_like(x)
    terms = np.multiply.accumulate(x / (a + np.arange(1.0, depth + 1.0)[:, None]), axis=0)
    terms *= terms >= 2.0**-60
    return 1.0 + np.add.accumulate(terms[::-1], axis=0)[-1]


class TestRisingSeries:
    """Elements summed at a shallower depth than the batch's largest needs keep their bits."""

    @given(
        a=st.floats(min_value=0.05, max_value=60.0),
        width=st.sampled_from([1, 2, 255, 256, 257, 300, 1000, 4096]) | st.integers(1, 600),
        skew=st.floats(min_value=1.0, max_value=12.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        edges=st.sets(st.sampled_from(["zero", "top", "subnormal"])),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_full_depth_series_bitwise(self, a, width, skew, seed, edges):
        # Powers of uniforms crowd most arguments near 0, as the jump tails'
        # small-claim means are, with a few up to just below a + 1.
        x = (a + 1.0) * np.random.default_rng(seed).random(width) ** skew
        if "zero" in edges:
            x[0] = 0.0
        if "top" in edges:
            x[-1] = np.nextafter(a + 1.0, 0.0)
        if "subnormal" in edges:
            x[width // 2] = 5e-324
        series = _distributions._rising_series(a, x)
        assert series.tobytes() == _full_depth_series(a, x).tobytes()

    @pytest.mark.parametrize(("width", "depths"), [(256, 1), (4096, 2)])
    def test_only_wide_batches_take_two_depths(self, monkeypatch, width, depths):
        calls = []
        series_sum = _distributions._series_sum

        def counted(a, x, depth):
            calls.append(depth)
            return series_sum(a, x, depth)

        monkeypatch.setattr(_distributions, "_series_sum", counted)
        x = 10.0 * np.random.default_rng(20261019).random(width) ** 6
        x[0] = 9.9
        series = _distributions._rising_series(9.0, x)
        assert len(calls) == depths and calls == sorted(calls)
        assert series.tobytes() == _full_depth_series(9.0, x).tobytes()

    @pytest.mark.parametrize("width", [1, 256, 257, 3000])
    def test_row_sum_is_the_last_running_sum(self, width):
        rows = np.random.default_rng(width).random((10, width)) * 10.0 ** np.arange(-9, 1)[:, None]
        before = rows.copy()
        total = _distributions._row_sum(rows)
        assert total.tobytes() == np.add.accumulate(rows, axis=0)[-1].tobytes()
        assert np.array_equal(rows, before)
