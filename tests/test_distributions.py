"""Distribution functions and the quantile root finder against scipy oracles.

The package evaluates claim-size laws and the posterior gamma density on
``scipy.special`` alone and finds quantile roots with its own port of Brent's
method.  ``scipy.stats`` and ``scipy.optimize`` stay here as test-only
oracles: every value must agree bitwise, NaN included.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, stats

from bonusmalus import (
    BracketingFailureError,
    ClaimHistory,
    GammaSeverity,
    MixtureBayesModel,
    MixtureExponentialEffects,
    NonFiniteIntegrandError,
    PoissonSeverity,
    posterior_density,
)
from bonusmalus import quadrature
from bonusmalus._distributions import gamma_pdf
from bonusmalus.cli import parse_model
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


def _same(actual, expected) -> bool:
    return np.shape(actual) == np.shape(expected) and np.array_equal(
        actual, expected, equal_nan=True
    )


class TestClaimSizeLaws:
    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("x", POINTS)
    def test_exceedance_matches_scipy_stats(self, law, x):
        with np.errstate(all="ignore"):
            if isinstance(law, GammaSeverity):
                expected = stats.gamma.sf(x, law.shape, scale=MEANS / law.shape)
            else:
                expected = stats.poisson.sf(np.floor(x), MEANS)
            assert _same(severity_cdf(x, MEANS, law, upper=True), expected)

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("x", POINTS)
    def test_cdf_matches_scipy_stats(self, law, x):
        means = MEANS.reshape(2, -1)
        with np.errstate(all="ignore"):
            if isinstance(law, GammaSeverity):
                expected = stats.gamma.cdf(x, law.shape, scale=means / law.shape)
            else:
                expected = stats.poisson.cdf(np.floor(x), means)
            assert _same(severity_cdf(x, means, law), expected)

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_scalar_in_scalar_out(self, law):
        for x in POINTS:
            for mean in (0.0, 0.5, 7.0, np.inf, np.nan):
                with np.errstate(all="ignore"):
                    tail = severity_cdf(x, mean, law, upper=True)
                    if isinstance(law, GammaSeverity):
                        expected = stats.gamma.sf(x, law.shape, scale=mean / law.shape)
                    else:
                        expected = stats.poisson.sf(np.floor(x), mean)
                assert type(tail) is type(expected)
                assert _same(tail, expected)


class TestPosteriorGammaDensity:
    @pytest.mark.parametrize(
        "history",
        [ClaimHistory([]), ClaimHistory([1, 0, 2], [4, 0, 5]), ClaimHistory([30, 41], [90, 160])],
        ids=["empty", "small", "heavy"],
    )
    def test_matches_scipy_stats(self, history):
        model = MixtureBayesModel(0.5, 3.0, MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0))
        theta1 = np.concatenate([MEANS, POINTS])
        theta2 = theta1[::-1].copy()
        n = history.total_count
        s = history.total_aggregate if history.years else 0.0
        with np.errstate(all="ignore"):
            actual = posterior_density(theta1, theta2, history, model)
            # Reference: the component weights the package computes, with
            # scipy.stats supplying every gamma density.
            expected = np.zeros(theta1.shape)
            for weight, (_, c) in zip(_component_weights(model, history), model.components()):
                expected = expected + weight * stats.gamma.pdf(
                    theta1, n + 1.0, scale=1.0 / (c + model.freq_rate * history.years)
                ) * stats.gamma.pdf(theta2, s + 1.0, scale=1.0 / (c + model.sev_rate * n))
        assert _same(actual, expected)

    @pytest.mark.parametrize("shape", [1.0, 2.5, 31.0])
    @pytest.mark.parametrize("scale", [0.0, 5e-324, 0.37, 1e300, np.inf, np.nan, -1.0])
    def test_gamma_density_edges(self, shape, scale):
        x = np.concatenate([MEANS, POINTS])
        with np.errstate(all="ignore"):
            assert _same(gamma_pdf(x, shape, scale), stats.gamma.pdf(x, shape, scale=scale))


def _component_weights(model, history):
    from bonusmalus.bayes import _posterior

    n = history.total_count
    s = history.total_aggregate if history.years else 0.0
    weights, _, _ = _posterior(model, np.array([n]), np.array([history.years]), np.array([s]))
    return weights[:, 0]


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


def test_cli_imports_neither_scipy_stats_nor_scipy_optimize():
    code = (
        "import sys, bonusmalus.cli\n"
        "heavy = sorted(m for m in sys.modules"
        " if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize']))\n"
        "print(','.join(heavy))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
