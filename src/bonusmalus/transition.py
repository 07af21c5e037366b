"""Jump tails of bonus-malus level chains.

For a fixed policyholder profile the level process is Markov: a claim-free
year moves one level down, every claim moves the level up by its penalty
step, capped at the top level.  Under a severity-aware rule each claim is
independently "large" with the exceedance probability of the claim-size law
at the rule's threshold, so by Poisson thinning the small and large claim
counts are independent Poisson counts.  A profile's chain is then fixed by
the no-claim probability ``p0`` and the jump tails ``P(jump >= g)``, which do
not depend on the level; these two are all the stationary solver reads, and
no transition matrix is built.  A frequency-driven rule is the severity-aware
rule whose small and large claims move the same number of levels: every rule
is read through ``max_level``, ``small_step`` and ``large_step``, so one jump
law serves both families.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gammaln, xlogy

from ._distributions import poisson_cdf


@lru_cache(maxsize=128)
def _small_counts(z: int, small: int, large: int) -> np.ndarray:
    """Small-claim count to exceed per (jump g = 1..z, large-claim count k2).

    -1, the zero column appended to the small-claim tails, where the large
    claims reach g alone and the pair adds nothing.
    """
    rest = np.arange(1, z + 1)[:, None] - large * np.arange(z // large + 1)
    counts = np.where(rest > 0, (rest - 1) // small, -1)
    counts.flags.writeable = False
    return counts


def _poisson_pmf(k, means):  # log space; xlogy(0, 0) = 0 puts a zero mean on 0 claims
    return np.exp(xlogy(k, means[:, None]) - means[:, None] - gammaln(k + 1))


def jump_tails(rule, freq_means, exceed) -> tuple[np.ndarray, np.ndarray]:
    """No-claim probabilities ``p0`` and jump tails ``T`` for a stack of profiles.

    ``freq_means`` are conditional Poisson claim means and ``exceed`` the
    probabilities that a single claim exceeds the rule's threshold; they
    broadcast to ``N`` profiles.  ``p0`` has shape ``(N,)`` and ``T`` shape
    ``(N, z)`` with ``T[:, g-1] = P(jump >= g)``.  The tails sum over the
    large-claim count; the counts that reach g alone enter as the large-claim
    upper tail, so nothing is subtracted.
    """
    small, large = rule.small_step, rule.large_step
    means, exceed = np.broadcast_arrays(*np.atleast_1d(freq_means, exceed))
    if not np.all((exceed >= 0.0) & (exceed <= 1.0)):
        raise ValueError("exceedance probabilities must lie in [0, 1]")
    z = rule.max_level
    m1, m2 = means * (1.0 - exceed), means * exceed  # small and large claim means
    # A tail index never exceeds (z - 1) // step.
    tail1 = poisson_cdf(np.arange((z - 1) // small + 1), m1[:, None], upper=True)
    tail1 = np.concatenate([tail1, np.zeros((means.size, 1))], axis=1)
    counts = _small_counts(z, small, large)
    law2 = _poisson_pmf(np.arange(z // large + 1), m2)
    tails = np.zeros((means.size, z))
    # One large-claim count at a time keeps the memory at profiles x z.  A
    # count of zero probability for every profile adds nothing; at exceedance
    # 0 that is every count but 0.
    for k2 in np.flatnonzero(law2.any(axis=0)):
        tails += law2[:, k2, None] * tail1[:, counts[:, k2]]
    tail2 = poisson_cdf(np.arange((z - 1) // large + 1), m2[:, None], upper=True)
    tails += tail2[:, np.arange(z) // large]
    return np.exp(-means), tails
