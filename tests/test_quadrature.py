"""Quadrature grids, expectations, and the severity marginal quantile."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss
from scipy import stats

from bonusmalus import (
    DegenerateEffects,
    LognormalCopulaEffects,
    MixtureExponentialEffects,
    ModelValidationError,
    NonFiniteIntegrandError,
    PoissonSeverity,
    SeverityRule,
    build_grid,
    marginal_grid,
    optimal_relativity_severity,
    severity_marginal_quantile,
)
from bonusmalus import quadrature
from bonusmalus.quadrature import _hermite_nodes, _laguerre_nodes, severity_cdf
from conftest import GAMMA_SHAPE, dat_model, degenerate_model, study_model
from oracles import expect

LOGNORMAL = LognormalCopulaEffects(-0.8, 0.99, 0.29)
MIXTURE = MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0)


class TestBuildGrid:
    def test_degenerate_single_node(self):
        grid = build_grid(DegenerateEffects(), 32)
        assert grid.size == 1
        assert grid.theta1[0] == grid.theta2[0] == grid.weights[0] == 1.0

    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            build_grid(LognormalCopulaEffects(0.0, 0.5, 0.5), 4)

    def test_unsupported_effects(self):
        with pytest.raises(ModelValidationError, match="no quadrature scheme for object"):
            build_grid(object(), 32)

    @pytest.mark.parametrize(
        "effects",
        [
            LognormalCopulaEffects(-0.8, 0.99, 0.29),
            LognormalCopulaEffects(0.4, 0.99, 1.0),
            MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0),
            MixtureExponentialEffects(1.0, 1.0, 5.0),
        ],
    )
    def test_mass_and_means(self, effects):
        grid = build_grid(effects, 32)
        assert np.all(grid.weights > 0.0)
        assert abs(grid.weights.sum() - 1.0) < 1e-10
        assert abs(grid.weights @ grid.theta1 - 1.0) < 1e-6
        assert abs(grid.weights @ grid.theta2 - 1.0) < 1e-6

    def test_independent_lognormal_product_mean(self):
        grid = build_grid(LognormalCopulaEffects(0.0, 0.99, 0.29), 32)
        assert abs(grid.weights @ (grid.theta1 * grid.theta2) - 1.0) < 1e-8

    def test_correlated_lognormal_product_mean(self):
        s1, s2 = math.sqrt(0.99), math.sqrt(0.29)
        grid = build_grid(LognormalCopulaEffects(-0.8, 0.99, 0.29), 32)
        expected = math.exp(-0.8 * s1 * s2)
        assert abs(grid.weights @ (grid.theta1 * grid.theta2) - expected) < 1e-8

    def test_lognormal_second_moment(self):
        grid = build_grid(LognormalCopulaEffects(0.0, 0.99, 0.29), 32)
        assert grid.weights @ grid.theta1**2 == pytest.approx(math.exp(0.99), rel=1e-6)

    def test_mixture_product_mean(self):
        effects = MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0)
        grid = build_grid(effects, 32)
        expected = 0.5 / 2.0**2 + 0.5 / (2.0 / 3.0) ** 2
        assert grid.weights @ (grid.theta1 * grid.theta2) == pytest.approx(expected, rel=1e-10)

    def test_marginal_grid_matches_joint_marginals(self):
        effects = LognormalCopulaEffects(-0.5, 0.99, 0.29)
        theta2, w2 = marginal_grid(effects, 2, 32)
        assert abs(w2 @ theta2 - 1.0) < 1e-8
        assert abs(w2 @ theta2**2 - math.exp(0.29)) < 1e-6


class TestGaussRules:
    @pytest.mark.parametrize(
        "effects, n", [(LOGNORMAL, 512), (MIXTURE, 187)], ids=["hermite", "laguerre"]
    )
    def test_node_count_beyond_double_precision_rejected(self, effects, n):
        # numpy's rules overflow there and return non-finite nodes or weights.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelValidationError, match=f"quadrature_nodes={n} "):
                build_grid(effects, n)

    @pytest.mark.parametrize(
        "effects, n", [(LOGNORMAL, 370), (MIXTURE, 186)], ids=["hermite", "laguerre"]
    )
    def test_largest_finite_rules_still_build(self, effects, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes, weights = marginal_grid(effects, 2, n)
        assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "build, limit", [(hermgauss, 370), (laggauss, 186)], ids=["hermite", "laguerre"]
    )
    def test_numpy_rules_overflow_just_past_the_limits(self, build, limit):
        # The gate's limits are numpy's own edges: a numpy that moves either
        # one fails here instead of handing the grid a wrong rule.  Tail
        # weights underflow in every rule, harmlessly.
        with np.errstate(all="raise", under="ignore"):
            build(limit)
            with pytest.raises(FloatingPointError, match="overflow"):
                build(limit + 1)

    @pytest.mark.parametrize(
        "effects, name, n",
        [
            (LOGNORMAL, "Hermite", 371),
            (LOGNORMAL, "Hermite", 4096),
            (MIXTURE, "Laguerre", 187),
            (MIXTURE, "Laguerre", 4096),
        ],
        ids=["hermite-edge", "hermite-far", "laguerre-edge", "laguerre-far"],
    )
    def test_node_count_past_the_limit_refused_before_building(self, monkeypatch, effects, name, n):
        calls = []
        for build in ("hermgauss", "laggauss"):
            monkeypatch.setattr(f"bonusmalus.quadrature.{build}", calls.append)
        message = f"quadrature_nodes={n} overflows numpy's Gauss-{name} rule"
        with pytest.raises(ModelValidationError, match=message):
            build_grid(effects, n)
        with pytest.raises(ModelValidationError, match=message):
            marginal_grid(effects, 2, n)
        assert calls == []

    def test_marginal_of_a_constant_lognormal_effect_keeps_the_limit(self):
        # One node whatever n, but n is held to the joint grid's limit.
        effects = LognormalCopulaEffects(0.0, 0.99, 0.0)
        assert [a.tolist() for a in marginal_grid(effects, 2, 370)] == [[1.0], [1.0]]
        with pytest.raises(ModelValidationError, match="quadrature_nodes=371 "):
            marginal_grid(effects, 2, 371)

    def test_marginal_grid_checks_the_node_count_and_the_scheme(self):
        with pytest.raises(ModelValidationError, match="need at least 8 nodes"):
            marginal_grid(LOGNORMAL, 1, 4)
        with pytest.raises(ModelValidationError, match="no quadrature scheme for object"):
            marginal_grid(object(), 1, 32)
        assert [a.tolist() for a in marginal_grid(DegenerateEffects(), 1, 4)] == [[1.0], [1.0]]

    @pytest.mark.parametrize("rule", [_hermite_nodes, _laguerre_nodes])
    def test_built_once_per_node_count_and_read_only(self, rule):
        nodes, weights = rule(16)
        assert rule(16)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize(
        "effects",
        [LognormalCopulaEffects(-0.8, 0.99, 0.29), MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0)],
    )
    def test_grids_built_from_cached_rules_are_writable_copies(self, effects):
        grid = build_grid(effects, 16)
        arrays = (grid.theta1, grid.theta2, grid.weights, *marginal_grid(effects, 1, 16))
        assert all(a.flags.writeable for a in arrays)


class TestExpect:
    def test_constant(self, base_model):
        grid = build_grid(base_model.effects, 32)
        assert expect(lambda t1, t2: np.ones_like(t1), grid) == pytest.approx(1.0, abs=1e-10)

    def test_mean_one_invariant(self, base_model):
        grid = build_grid(base_model.effects, 32)
        assert expect(lambda t1, t2: t1, grid) == pytest.approx(1.0, abs=1e-6)

    def test_nonfinite_integrand_rejected(self, base_model):
        grid = build_grid(base_model.effects, 16)
        with pytest.raises(NonFiniteIntegrandError), np.errstate(divide="ignore"):
            expect(lambda t1, t2: np.log(t1 - t1), grid)


class TestSeverityMarginalQuantile:
    @pytest.mark.parametrize(
        "p,expected",
        [(0.75, 8200.0), (0.90, 16800.0), (0.99, 48100.0), (0.999, 94300.0)],
    )
    def test_study_quantiles(self, p, expected):
        model = study_model(-0.8)
        value = severity_marginal_quantile(p, model)
        assert value == pytest.approx(expected, rel=0.02)

    def test_degenerate_effect_median_matches_direct_inversion(self):
        model = degenerate_model(sev_rate=5000.0)
        value = severity_marginal_quantile(0.5, model)
        oracle = stats.gamma.ppf(0.5, GAMMA_SHAPE, scale=5000.0 / GAMMA_SHAPE)
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_exceedance_consistency(self):
        # Exceedance mixed over the severity effect at the p-quantile is 1-p.
        model = study_model(-0.8)
        for p in (0.75, 0.9, 0.99):
            phi = severity_marginal_quantile(p, model)
            theta2, w2 = marginal_grid(model.effects, 2, 32)
            tail = w2 @ severity_cdf(
                phi, model.portfolio.sev_rates[0] * theta2, model.severity, upper=True
            )
            assert tail == pytest.approx(1.0 - p, abs=1e-6)

    def test_rejects_degenerate_levels(self):
        model = study_model(-0.8)
        with pytest.raises(ValueError):
            severity_marginal_quantile(0.0, model)
        with pytest.raises(ValueError):
            severity_marginal_quantile(1.0, model)

    def test_level_below_the_mass_at_zero_names_both(self):
        # Poisson sizes of mean 0.5 put about 0.6 of the marginal mass on 0,
        # so no positive threshold has the 0.3 quantile.
        model = dataclasses.replace(
            study_model(-0.8, sev_rate=0.5), severity=PoissonSeverity()
        )
        theta2, w2 = marginal_grid(model.effects, 2, 32)
        at_zero = float(w2 @ np.exp(-0.5 * theta2))
        assert at_zero > 0.3
        with pytest.raises(ValueError, match=rf"level 0\.3 .*mass at zero is {at_zero:.6g}"):
            severity_marginal_quantile(0.3, model)
        assert severity_marginal_quantile(0.9, model) >= 1.0

    @pytest.mark.parametrize("nodes", [22, 28])
    def test_level_above_the_grid_mass_names_it(self, nodes):
        # These Hermite weights sum below 1 - 2**-53, so no claim size has the
        # cdf 1 - 2**-53; the bracket once doubled 200 times and gave up.
        model = study_model(-0.8)
        _, w2 = marginal_grid(model.effects, 2, nodes)
        total = float(np.sum(w2))
        assert total < 1.0 - 2.0**-53
        with pytest.raises(ValueError, match=rf"level 0\.9+ .*total claim-size mass is {total!r}"):
            severity_marginal_quantile(1.0 - 2.0**-53, model, nodes)
        assert severity_marginal_quantile(total, model, nodes) > 0.0

    def test_claim_size_cdf_refuses_an_unknown_law(self):
        with pytest.raises(ModelValidationError, match="no claim-size law for object"):
            severity_cdf(1.0, 1.0, object())

    def test_no_point_is_evaluated_twice(self, monkeypatch):
        # The root search starts from the bracket's ends, which the bracketing
        # has already evaluated: 17 claim-size calls on dat at 0.9, not 19.
        points = []

        def recorded(x, *args, **kwargs):
            points.append(x)
            return severity_cdf(x, *args, **kwargs)

        monkeypatch.setattr(quadrature, "severity_cdf", recorded)
        severity_marginal_quantile(0.9, dat_model(), 32)
        assert len(points) == len(set(points)) == 17


class TestRefinementStability:
    def test_doubling_nodes_is_quiet_at_small_level_count(self):
        # Convergence gate: reported numbers may move less than 1e-4 when the
        # grid is doubled from the production default.
        model = study_model(-0.8)
        rule = SeverityRule(3, 1, 2, 16800.0)
        coarse = optimal_relativity_severity(model, rule, 32)
        fine = optimal_relativity_severity(model, rule, 64)
        assert np.max(np.abs(coarse.relativities - fine.relativities)) < 1e-4
        assert abs(coarse.hmse_raw - fine.hmse_raw) / fine.hmse_raw < 1e-4
