"""One-step transition matrices for bonus-malus level chains.

For a fixed policyholder profile the level process is Markov: a claim-free
year moves one level down, every claim moves the level up by its penalty
step, capped at the top level.  Under a severity-aware rule each claim is
independently "large" with the exceedance probability of the claim-size law
at the rule's threshold, so the up-move mass mixes a Poisson count with a
binomial split into small and large claims.  A frequency-driven rule is the
severity-aware rule whose small and large claims move the same number of
levels, so one builder serves both families.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from ._distributions import gamma_cdf, poisson_cdf
from .errors import UnsupportedEffectsError
from .model import FreqRule, GammaSeverity, PoissonSeverity, SeverityLaw, validate_rule

EXACT_COMB_LIMIT = 30


def exceedance_profile(threshold: float, means: np.ndarray, law: SeverityLaw) -> np.ndarray:
    """Probability that a single claim exceeds ``threshold``, per conditional mean.

    Gamma sizes use the survival function of the mean-parameterized gamma;
    Poisson sizes the discrete upper tail.  Decreasing in the threshold.
    """
    means = np.asarray(means, dtype=float)
    if isinstance(law, GammaSeverity):
        shape = law.shape
        return gamma_cdf(threshold, shape, means / shape, upper=True)
    if isinstance(law, PoissonSeverity):
        return poisson_cdf(np.floor(threshold), means, upper=True)
    raise UnsupportedEffectsError(f"no claim-size law for {type(law).__name__}")


def _binom(n: int, k: int) -> float:
    if n <= EXACT_COMB_LIMIT:
        return float(math.comb(n, k))
    return math.exp(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


def _pmf_rows(max_k: int, means: np.ndarray) -> np.ndarray:
    """Poisson probabilities of 0..max_k claims, one row per mean.

    Evaluated in log space so extreme means stay finite; a mean of zero puts
    all mass on no claims.
    """
    k = np.arange(max_k + 1)
    positive = means > 0.0
    log_mean = np.log(np.where(positive, means, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = k * log_mean[:, None] - means[:, None] - gammaln(k + 1)
    q = np.exp(log_pmf)
    q[~positive] = 0.0
    q[~positive, 0] = 1.0
    return q


def build_matrices(rule, freq_means, exceed) -> np.ndarray:
    """Transition matrices for a stack of policyholder profiles.

    ``freq_means`` are conditional Poisson claim means and ``exceed`` the
    probabilities that a single claim exceeds the rule's threshold; they
    broadcast to ``N`` profiles and the result has shape ``(N, z+1, z+1)``.
    A ``FreqRule`` is the equal-step rule at exceedance 0.

    Row ``l`` places the no-claim mass on ``max(l - 1, 0)``, the mass of
    moving exactly ``g`` levels up on ``l + g`` for targets below the top,
    and the exact complement on the top (absorbing all larger jumps), which
    keeps rows stochastic to machine precision.
    """
    validate_rule(rule)
    if isinstance(rule, FreqRule):
        small = large = rule.step
    else:
        small, large = rule.small_step, rule.large_step
    means, exceed = (
        np.array(a, dtype=float)
        for a in np.broadcast_arrays(np.atleast_1d(freq_means), np.atleast_1d(exceed))
    )
    if not np.all((exceed >= 0.0) & (exceed <= 1.0)):
        raise ValueError("exceedance probabilities must lie in [0, 1]")
    z = rule.max_level
    q1 = _pmf_rows(max(z // small + 1, 1), means)
    # up[:, g] is the mass of moving exactly g levels up.  The (k1, k2)
    # small/large claim pairs of a gap do not depend on the profile; the count
    # bound is exact integer arithmetic, never a float membership test.
    up = np.zeros((means.size, z))
    for gap in range(1, z):
        for k2 in range(gap // large + 1):
            remainder = gap - k2 * large
            if remainder % small != 0:
                continue
            k1 = remainder // small
            # 0**0 == 1 covers the exceed in {0, 1} boundary rules.
            up[:, gap] += (
                q1[:, k1 + k2] * _binom(k1 + k2, k2) * exceed**k2 * (1.0 - exceed) ** k1
            )
    P = np.zeros((means.size, z + 1, z + 1))
    for lvl in range(z + 1):
        P[:, lvl, max(lvl - 1, 0)] = q1[:, 0]
        P[:, lvl, lvl + 1 : z] = up[:, 1 : z - lvl]
    # The complement is nonnegative; guard against a -1ulp rounding.
    P[:, :, z] = np.maximum(1.0 - P[:, :, :z].sum(axis=2), 0.0)
    return P
