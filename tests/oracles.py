"""Independent oracles used by the test suite.

Everything here deliberately avoids the production code paths: transition
masses and jump tails come from brute-force enumeration over claim-count
pairs with the level-update indicator, stationary rows from repeated
squaring of the transition matrix or from a rank-corrected linear solve on
any matrix, posterior means from adaptive quadrature of the prior times the
likelihood, severity tails from direct density integration, and Poisson
claim counts from the float pmf recurrence on uniforms.

Five helpers wrap package internals instead, as test-only conveniences.
The forward simulator loop steps every path through every year from level
0, with no coupling window, on the simulator's own profiles, word streams
and claim-count inversions.
``node_rows`` spreads the package's own field of a rule, one row per run of
equal effects, back over every grid node.  The score
double integral sums every (class, node, level) term of that field, one
class at a time, with no per-level moment in between.  The posterior density is a plain mixture of gamma densities on the package's own
posterior weights, shapes and rates, which its tests integrate back to 1 and
to the closed-form premium; and the frequency-family estimator wraps the
simulator's own ratio estimate on the rows of its accumulator that hold the
powers of the frequency effect.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, stats

from bonusmalus import NonFiniteIntegrandError, SingularSystemError
from bonusmalus.bayes import _posterior
from bonusmalus.model import FreqRule
from bonusmalus.quadrature import build_grid
from bonusmalus.simulate import (
    CHUNK,
    _draw_paths,
    _large_claims,
    _more_claims,
    _powers,
    _ratio_estimate,
    _stream,
    _words,
)
from bonusmalus.stationary import _stationary_fields

COND_WARN = 1e12
RESIDUAL_TOL = 1e-10


def poisson_truncation_bound(mean: float, tail: float = 1e-12) -> int:
    """Smallest count whose Poisson upper tail falls below ``tail``.

    Bounds every truncated claim-count sum used by the transition oracle;
    the bound is computed on the largest conditional mean in play.
    """
    if mean <= 0:
        return 1
    n = int(stats.poisson.isf(tail, mean))
    # isf can land one short of the requested tail mass; nudge upward.
    while stats.poisson.sf(n, mean) >= tail:
        n += 1
    return n + 1


def power_iteration_stationary(P: np.ndarray, doublings: int = 60) -> np.ndarray:
    """Stationary distribution by repeated squaring of the transition matrix."""
    Q = np.asarray(P, dtype=float)
    for _ in range(doublings):
        Q = Q @ Q
        Q /= Q.sum(axis=1, keepdims=True)
    pi = Q.mean(axis=0)
    return pi / pi.sum()


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of any row-stochastic matrix by one linear solve.

    Solves the all-ones rank correction of ``I - P``, warns when that system
    is ill-conditioned and rejects a solution whose fixed-point residual
    exceeds 1e-10.
    """
    P = np.asarray(P, dtype=float)
    rows = P.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > 1e-9 or np.min(P) < -1e-15:
        raise ValueError("matrix is not row-stochastic")
    A = np.eye(P.shape[0]) - P + 1.0
    cond = np.linalg.cond(A)
    if cond > COND_WARN:
        warnings.warn(
            f"stationary system condition number {cond:.3g} exceeds {COND_WARN:.0e}",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        pi = np.linalg.solve(A.T, np.ones(P.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary solve failed: {exc}") from exc
    residual = np.max(np.abs(pi @ P - pi))
    if not np.isfinite(residual) or residual > RESIDUAL_TOL:
        raise SingularSystemError(
            f"stationary residual {residual!r} exceeds {RESIDUAL_TOL}; chain is not unichain"
        )
    return pi


def expect(f, grid) -> float:
    """Expectation of ``f(theta1, theta2)`` on a quadrature grid.

    ``f`` must accept numpy arrays.  Summation is compensated and in fixed
    node order, so results are deterministic across runs and platforms.
    """
    values = np.asarray(f(grid.theta1, grid.theta2), dtype=float)
    if values.shape != grid.weights.shape:
        values = np.broadcast_to(values, grid.weights.shape)
    if not np.all(np.isfinite(values)):
        raise NonFiniteIntegrandError("integrand is not finite on all quadrature nodes")
    return math.fsum((grid.weights * values).tolist())


def indicator_level_update(level: int, k1: int, k2: int, rule) -> int:
    """Next level after k1 small and k2 large claims (brute-force rule)."""
    if k1 == 0 and k2 == 0:
        return max(level - 1, 0)
    if isinstance(rule, FreqRule):
        up = rule.step * (k1 + k2)
    else:
        up = rule.small_step * k1 + rule.large_step * k2
    return min(level + up, rule.max_level)


def poisson_claim_counts(u, p0, lam, cap: int) -> np.ndarray:
    """Poisson claim counts of claimants, by inverting their float uniforms.

    ``u >= p0 = exp(-lam)`` for every entry, so each count is at least one;
    the pmf recurrence ``p_k = p_{k-1} * lam / k`` runs at most ``cap - 1``
    steps, and a count of ``cap`` stands for ``cap`` or more claims.  The
    simulator's integer thresholds must reach exactly these counts.
    """
    n = np.ones(u.size, dtype=np.int64)
    active = np.arange(u.size)
    pmf = cdf = p0
    for k in range(1, cap):
        pmf = pmf * lam / k
        cdf = cdf + pmf
        more = np.flatnonzero(u >= cdf)
        if not more.size:
            break
        active = active[more]
        n[active] += 1
        u, lam, pmf, cdf = u[more], lam[more], pmf[more], cdf[more]
    return n


def enumeration_matrix(rule, freq_mean: float, exceed: float, tail: float = 1e-15) -> np.ndarray:
    """Transition matrix by exhaustive (k1, k2) enumeration.

    Truncates the claim count where the Poisson upper tail drops below
    ``tail``; the missing mass (which lands on the top level) bounds the
    entrywise error of the oracle.
    """
    z = rule.max_level
    n_max = max(int(stats.poisson.isf(tail, freq_mean)) + 2, 3) if freq_mean > 0 else 2
    P = np.zeros((z + 1, z + 1))
    for n in range(n_max + 1):
        pn = stats.poisson.pmf(n, freq_mean)
        # An exceedance of 0 or 1 leaves one split of n claims; the others add 0.
        splits = range(n + 1) if 0.0 < exceed < 1.0 else [n if exceed == 1.0 else 0]
        for k2 in splits:
            k1 = n - k2
            split = math.comb(n, k2) * exceed**k2 * (1.0 - exceed) ** k1
            for level in range(z + 1):
                P[level, indicator_level_update(level, k1, k2, rule)] += pn * split
    return P


def enumeration_tails(rule, freq_mean: float, exceed: float) -> tuple[float, np.ndarray]:
    """No-claim mass ``p0`` and jump tails ``T[g-1] = P(jump >= g)``, g = 1..z.

    Read off row 0 of the enumerated matrix: from the bottom level a
    claim-free year stays put and a jump of g lands on level g, the top
    taking every longer jump, so a tail is the row's mass at or above g.
    """
    row = enumeration_matrix(rule, freq_mean, exceed)[0]
    return row[0], np.cumsum(row[:0:-1])[::-1]


def pair_set_upmove(gap: int, small: int, large: int, q1, exceed: float) -> float:
    """Up-move mass from the explicit pair-set definition.

    Enumerates all (k1, k2) with ``k1*small + k2*large == gap`` directly,
    instead of iterating large-claim counts and dividing out the remainder.
    """
    total = 0.0
    for k1 in range(gap // small + 1):
        for k2 in range(gap // large + 1):
            if k1 * small + k2 * large == gap:
                total += (
                    q1[k1 + k2]
                    * math.comb(k1 + k2, k1)
                    * exceed**k2
                    * (1.0 - exceed) ** k1
                )
    return total


def gamma_tail_by_quadrature(threshold: float, mean: float, shape: float) -> float:
    """P(Y > threshold) for the mean-parameterized gamma, by density integration."""
    scale = mean / shape

    def pdf(y):
        return stats.gamma.pdf(y, shape, scale=scale)

    upper = mean + 200.0 * scale * math.sqrt(shape)
    value, _ = integrate.quad(pdf, threshold, upper, limit=400)
    return value


def mixture_prior_density(theta, effects):
    w, c1, c2 = effects.weight1, effects.rate1, effects.rate2
    return w * c1 * np.exp(-c1 * theta) + (1.0 - w) * c2 * np.exp(-c2 * theta)


def freq_posterior_mean_quad(history, model) -> float:
    """E[theta1 | counts] by adaptive quadrature of prior times likelihood."""
    lam = model.freq_rate
    counts = history.counts

    def weight(theta):
        out = mixture_prior_density(theta, model.effects)
        for n in counts:
            out = out * stats.poisson.pmf(n, lam * theta)
        return out

    upper = 50.0 + 20.0 * sum(counts)
    num, _ = integrate.quad(lambda t: t * weight(t), 0.0, upper, limit=500, epsabs=1e-14)
    den, _ = integrate.quad(weight, 0.0, upper, limit=500, epsabs=1e-14)
    return num / den


def _panel_legendre_nodes(upper: float, order: int = 160) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes over [0, upper], split into geometric panels."""
    base, base_w = np.polynomial.legendre.leggauss(order)
    edges = [0.0, 1.0, 4.0, 12.0, upper] if upper > 12.0 else [0.0, upper / 2.0, upper]
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * (base + 1.0) + lo)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def joint_posterior_moment_quad(history, model, use_sizes: bool, power1=1, power2=1) -> float:
    """E[theta1^p1 * theta2^p2 | history] by tensor quadrature.

    The integrand is the explicit prior density times the Poisson
    likelihoods evaluated on a dense Gauss-Legendre tensor grid; no
    conjugacy shortcuts are used.  ``use_sizes`` switches between the
    count-only and the full history.
    """
    lam1, lam2 = model.freq_rate, model.sev_rate
    counts = history.counts
    sizes = history.aggregates if use_sizes else None
    w, c1, c2 = model.effects.weight1, model.effects.rate1, model.effects.rate2

    t1, w1 = _panel_legendre_nodes(60.0 + 12.0 * sum(counts))
    t2, w2 = _panel_legendre_nodes(80.0 if sizes is None else 60.0 + 12.0 * sum(sizes))

    lik1 = np.ones_like(t1)
    for n in counts:
        lik1 *= stats.poisson.pmf(n, lam1 * t1)
    lik2 = np.ones_like(t2)
    if sizes is not None:
        for n, s in zip(counts, sizes):
            if n > 0:
                lik2 *= stats.poisson.pmf(s, lam2 * t2 * n)

    T1, T2 = np.meshgrid(t1, t2, indexing="ij")
    prior = w * c1**2 * np.exp(-c1 * (T1 + T2)) + (1.0 - w) * c2**2 * np.exp(-c2 * (T1 + T2))
    posterior = prior * lik1[:, None] * lik2[None, :]
    weight = w1[:, None] * w2[None, :]
    den = float(np.sum(weight * posterior))
    num = float(np.sum(weight * posterior * T1**power1 * T2**power2))
    return num / den


def _log_gamma_density(t, log_t, shape: float, rate: float):
    return shape * math.log(rate) + (shape - 1.0) * log_t - rate * t - math.lgamma(shape)


def posterior_density(theta1, theta2, history, model):
    """Joint posterior density of the effects at positive ``(theta1, theta2)``.

    Each component of ``bayes._posterior`` contributes its weight times a
    gamma density per effect, summed from log space.
    """
    aggregate = history.total_aggregate if history.years else 0.0
    weights, (shape1, rate1), (shape2, rate2) = _posterior(
        model, history.total_count, history.years, aggregate
    )
    t1, t2 = np.broadcast_arrays(np.asarray(theta1, float), np.asarray(theta2, float))
    log_t1, log_t2 = np.log(t1), np.log(t2)
    total = np.zeros(t1.shape)
    for weight, r1, r2 in zip(weights[:, 0], rate1[:, 0], rate2[:, 0]):
        log_term = math.log(weight) + _log_gamma_density(t1, log_t1, float(shape1), r1)
        total = total + np.exp(log_term + _log_gamma_density(t2, log_t2, float(shape2), r2))
    return total if total.shape else float(total)


def empirical_frequency_relativity(summary):
    """Simulated frequency relativities with delta-method standard errors.

    The simulator's ratio estimate of the premium-weighted mean of the
    frequency effect per level: rows 0, 5 and 6 of ``summary.sums`` hold its
    powers 0, 1 and 2, weighted by the squared frequency rates.
    """
    return _ratio_estimate(summary, [0, 5, 6], summary.freq_rates)


def node_rows(field: np.ndarray, rule, grid) -> np.ndarray:
    """A stationary field over every node of ``grid``, from the package's field of ``rule``.

    The package's field holds one row per run, a maximal stretch of
    consecutive nodes with equal effects: equal ``theta1`` under a rule with
    equal steps, equal ``(theta1, theta2)`` under a sized rule.  Each row is
    repeated over its run's nodes.
    """
    sized = rule.large_step > rule.small_step
    effects = list(zip(grid.theta1, grid.theta2)) if sized else list(grid.theta1)
    starts = [i for i in range(grid.size) if i == 0 or effects[i] != effects[i - 1]]
    return np.repeat(field, np.diff(starts + [grid.size]), axis=-2)


def hmse_double_integral(
    model, r, rule, nodes: int, family: str = "aggregate"
) -> tuple[float, float]:
    """Raw and normalized score of ``r`` by the node-by-node double integral.

    Integrates ``(target - r_l)^2`` against the stationary rows of every
    quadrature node, level by level, then sums the classes, each weighted by
    its squared premium factor.  The ``"aggregate"`` family targets
    ``theta1 * theta2`` with factor ``freq_rate * sev_rate``, the
    ``"frequency"`` family ``theta1`` with ``freq_rate``.  Undefined (NaN)
    relativities score as zero.
    """
    grid = build_grid(model.effects, nodes)
    field = node_rows(_stationary_fields(model, [rule], grid)[0], rule, grid)
    target = grid.theta1 if family == "frequency" else grid.theta1 * grid.theta2
    r = np.nan_to_num(np.asarray(r, dtype=float), nan=0.0)
    gaps = (target[:, None] - r[None, :]) ** 2  # (nodes, levels)
    raw = 0.0
    norm = 0.0
    for ci, cls in enumerate(model.portfolio.classes):
        rate = cls.freq_rate if family == "frequency" else cls.freq_rate * cls.sev_rate
        raw += cls.weight * rate**2 * float(grid.weights @ np.sum(gaps * field[ci], axis=1))
        norm += cls.weight * rate**2
    return raw, raw / norm


def forward_levels(cfg, chunk_index: int, size: int):
    """One simulator chunk stepped forward: its paths and its levels in every year.

    ``levels[year]`` holds each path's level after ``year`` years, row 0
    the start, level 0.  Every year draws one word per path from the
    ``(seed, chunk, year)`` stream and, under a sized rule, one more word per
    claimant, and moves every path one level down or up by its claims,
    capped at the top level: the simulator's year loop before its coupling
    window.
    """
    rule = cfg.rule
    z, small, large = rule.max_level, rule.small_step, rule.large_step
    cap = -(-z // small)
    freq_rates = cfg.model.portfolio.freq_rates
    paths, t = _draw_paths(cfg, chunk_index, size)
    years = cfg.burn_in_years + cfg.sample_years
    levels = np.empty((years + 1, size), dtype=np.int16)
    level = levels[0]
    level[:] = 0
    for year in range(1, years + 1):
        bits = _stream(cfg.seed, chunk_index, year).bit_generator
        words = _words(bits, size)
        claimants = np.flatnonzero(words >= paths.k0)
        moved = level[claimants]
        level = np.maximum(level - 1, 0)
        if claimants.size:
            words = words[claimants]
            many = np.flatnonzero(words >= paths.k1[claimants])
            if large > small:
                v = _words(bits, claimants.size) * 2.0**-53
                up = np.where(v >= 1.0 - paths.exceed[claimants], large, small)
            else:
                up = np.full(claimants.size, small)
            if many.size:
                c2 = claimants[many]
                lam = freq_rates[paths.cls_idx[c2]] * paths.theta1[c2]
                n = _more_claims(words[many] * 2.0**-53, paths.p0[c2], lam, cap)
                up[many] = small * n
                if large > small:
                    up[many] += (large - small) * _large_claims(v[many], n, paths.exceed[c2])
            level[claimants] = np.minimum(moved + up, z)
        levels[year] = level
    return paths, t, levels


def forward_sums(cfg) -> np.ndarray:
    """``SimSummary.sums`` of ``cfg`` by the forward loop, summed in the simulator's order."""
    classes, levels = cfg.model.portfolio.freq_rates.size, cfg.rule.levels
    sums = np.zeros((7, classes, levels))
    for chunk_index, done in enumerate(range(0, cfg.n_paths, CHUNK)):
        paths, t, path_levels = forward_levels(cfg, chunk_index, min(CHUNK, cfg.n_paths - done))
        for level in path_levels[cfg.burn_in_years + 1 :]:
            cell = paths.cls_idx * levels + level
            for row, values in enumerate(_powers(t, paths.theta1)):
                sums[row] += np.bincount(
                    cell, weights=values, minlength=classes * levels
                ).reshape(classes, levels)
    return sums
