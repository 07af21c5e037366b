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

The claim-count tails take no special function: each profile's Poisson
probabilities come by ratios of neighbours, one top tail per profile comes
from positive terms, and the lower tails follow by adding probabilities.
"""

from __future__ import annotations

import numpy as np

from ._distributions import _accumulate, _prefactor, _rising_series, _row_sum, _shape_terms
from .errors import ModelValidationError

# Above this mean exp(-m) nears the underflow bound, so a mean's pmf starts
# from its top count instead of from zero claims.
_TOP_START = 700.0


def _poisson_pmf(means: np.ndarray, kmax: int) -> np.ndarray:
    """Poisson probabilities of 0..kmax claims by ratios of neighbours, level-major.

    Row ``k`` holds ``pmf(k)`` for every mean.  A column runs up from
    ``exp(-m)`` by ``m / k``; where ``exp(-m)`` would underflow it runs down by
    ``k / m`` from the top probability ``pmf(kmax)``, the kernel's prefactor
    ``m**(kmax + 1) e**-m / kmax!`` over ``m``.
    """
    rows = np.empty((kmax + 1, means.size))
    rows[0] = np.exp(-means)
    np.divide(means, np.arange(1.0, kmax + 1.0)[:, None], out=rows[1:])
    _accumulate(np.multiply, rows)
    high = means > _TOP_START
    if high.any():
        m = means[high]
        down = np.empty((kmax + 1, m.size))
        down[0] = _prefactor(kmax + 1.0, m, _shape_terms(kmax + 1.0)[0]) / m
        down[1:] = np.arange(kmax, 0.0, -1.0)[:, None] / m
        rows[:, high] = _accumulate(np.multiply, down)[::-1]
    return rows


def _upper_tails(means: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """``P(N > k)`` for ``k = 0..kmax`` and every Poisson mean, level-major, from positive terms.

    ``pmf`` holds the probabilities of ``0..kmax + 1`` claims.  The top tail
    is ``1 - P(N <= kmax)`` where that is at least 1/2, and otherwise the
    upward series of the probabilities above ``kmax``; the rest follow down by
    ``P(N > k - 1) = P(N > k) + pmf(k)``, capped at 1 against the rounding of
    the sums.  The result is a reversed view of one new array.
    """
    kmax = len(pmf) - 2
    below = _row_sum(pmf[: kmax + 1])  # pmf stays as it is
    large = ~(below >= 0.5)  # and NaN, from an infinite mean
    top = 1.0 - below
    if not large.all():
        # P(N > kmax) = pmf(kmax + 1) sum_n m**n / ((kmax+2)...(kmax+1+n)), below kmax + 1
        m = np.where(large, 0.0, means)
        top = np.where(large, top, pmf[kmax + 1] * _rising_series(kmax + 1.0, m))
    terms = np.empty((kmax + 1, means.size))
    terms[0] = top
    terms[1:] = pmf[kmax:0:-1]
    tails = _accumulate(np.add, terms)[::-1]
    return np.minimum(tails, 1.0, out=tails)


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
        raise ModelValidationError("exceedance probabilities must lie in [0, 1]")
    z = rule.max_level
    m1, m2 = means * (1.0 - exceed), means * exceed  # small and large claim means
    # Row j: P(the small claims alone move more than j levels), whose count
    # tail index j // small never exceeds (z - 1) // small.
    reach = _upper_tails(m1, _poisson_pmf(m1, (z - 1) // small + 1))[np.arange(z) // small]
    # The large-claim counts 0..z // large and the large-claim upper tails
    # read one pmf, as z // large <= (z - 1) // large + 1.
    law2 = _poisson_pmf(m2, (z - 1) // large + 1)
    tails = np.zeros((-(-z // large) * large, means.size))  # whole large steps; rows from z are padding
    # k2 large claims reach jumps above large * k2, where the small claims add
    # the rest: one count at a time keeps the memory at profiles x z.  A count
    # of zero probability for every profile adds nothing; at exceedance 0
    # that is every count but 0.
    for k2 in np.flatnonzero(law2[: z // large + 1].any(axis=1)):
        shift = large * k2
        tails[shift:z] += law2[k2] * reach[: z - shift]
    del reach
    if m2.any():  # with no large claims the upper tail is all zeros
        by_step = tails.reshape(-1, large, means.size)  # a view: jumps g..g+large-1 per step
        by_step += _upper_tails(m2, law2)[:, None]
    return np.exp(-means), tails[:z].T
