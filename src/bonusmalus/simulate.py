"""Seeded Monte Carlo simulator of policyholder level paths.

The simulator realizes the full generative model -- class draw, effect draw,
yearly Poisson counts, per-claim threshold exceedances, level updates -- and
serves as the independent verification oracle for the analytic stationary
distributions, relativities, and scores.

Sampler: each path-year costs one uniform ``u``.  A path has no claim when
``u < exp(-lambda)`` and then only steps one level down; that decides most
path-years with one comparison.  For the claimants the same ``u`` is
inverted through the Poisson pmf recurrence, counting at most
``cap = ceil(max_level / small_step)`` claims, since that many reach the top
level whatever their sizes; so any claim rate computes, and no loop runs
longer than ``cap``.  Under a severity rule with distinct steps the claimants
alone draw a second uniform, inverted into their binomial number of large
claims.

Determinism: paths are processed in fixed-size chunks and every (chunk, year)
pair owns its own counter-based random stream derived from the master seed,
so results are bit-identical regardless of how chunks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOccupancyError, InvalidRuleError
from .model import BmsRule, DegenerateEffects, LognormalCopulaEffects, ModelSpec, _whole
from .quadrature import severity_cdf

CHUNK = 1 << 16
MIN_LEVEL_VISITS = 1000


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings for stationary-state estimation.

    ``burn_in_years`` should stay at 100 or more for stationary estimates;
    oracle comparisons need ``n_paths`` of 1e5 or more.  Each path
    contributes its level in the final ``sample_years`` years (keep at 1 for
    strictly independent observations).
    """

    model: ModelSpec
    rule: BmsRule
    n_paths: int
    seed: int
    burn_in_years: int = 120
    sample_years: int = 1
    start_level: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.rule, BmsRule):
            raise InvalidRuleError(f"unknown rule type {type(self.rule).__name__}")
        for name in ("n_paths", "seed", "burn_in_years", "sample_years", "start_level"):
            value = _whole(getattr(self, name))
            if value is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got seed={self.seed}")
        if self.n_paths < 1:
            raise ValueError(f"need at least one path, got n_paths={self.n_paths}")
        if self.burn_in_years < 0:
            raise ValueError(f"burn-in cannot be negative, got burn_in_years={self.burn_in_years}")
        if self.sample_years < 1:
            raise ValueError(
                f"need at least one sampled year, got sample_years={self.sample_years}"
            )
        if not 0 <= self.start_level <= self.rule.max_level:
            raise ValueError("start level outside the level range")


@dataclass(frozen=True)
class SimSummary:
    """Per-level occupancy counts and premium-weighted moment sums.

    ``prem_sq*`` columns accumulate powers of the squared a priori premium
    factor ``q = (freq_rate * sev_rate)**2 / 2**q_exp`` and the effect product
    ``t = theta1 * theta2`` per observation; they are sufficient for the
    level distribution, conditional-mean relativities, the empirical score of
    any relativity vector, and all their standard errors.  ``q_exp`` and
    ``f_exp`` put the largest class's factors in [0.5, 1), so the squares
    cannot overflow; a power of two scales exactly, so no estimate depends on
    it.
    """

    levels: int
    n_observations: int
    seed: int
    q_exp: int
    f_exp: int
    counts: np.ndarray
    prem_sq: np.ndarray          # sum of q
    prem_sq_t: np.ndarray        # sum of q * t
    prem_sq_t2: np.ndarray       # sum of q * t^2
    prem_sq2: np.ndarray         # sum of q^2
    prem_sq2_t: np.ndarray       # sum of q^2 * t
    prem_sq2_t2: np.ndarray      # sum of q^2 * t^2
    prem_sq2_t3: np.ndarray      # sum of q^2 * t^3
    prem_sq2_t4: np.ndarray      # sum of q^2 * t^4
    fprem: np.ndarray            # sum of f = freq_rate^2 / 2**f_exp
    fprem_t1: np.ndarray         # sum of f * theta1
    fprem2: np.ndarray           # sum of f^2
    fprem2_t1: np.ndarray        # sum of f^2 * theta1
    fprem2_t12: np.ndarray       # sum of f^2 * theta1^2

    @property
    def level_distribution(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def level_se(self) -> np.ndarray:
        p = self.level_distribution
        return np.sqrt(p * (1.0 - p) / self.counts.sum())


def _stream(seed: int, chunk_index: int, year: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.random.SeedSequence((seed, chunk_index, year)).generate_state(2, np.uint64))
    )


def _draw_profile(model: ModelSpec, rng: np.random.Generator, size: int):
    """Class index and effect pair for a chunk of fresh policyholders."""
    weights = model.portfolio.weights
    if len(weights) == 1:
        cls_idx = np.zeros(size, dtype=np.int64)
    else:
        cls_idx = np.searchsorted(np.cumsum(weights), rng.random(size), side="right")
        cls_idx = np.minimum(cls_idx, len(weights) - 1)
    effects = model.effects
    if isinstance(effects, DegenerateEffects):
        theta1 = np.ones(size)
        theta2 = np.ones(size)
    elif isinstance(effects, LognormalCopulaEffects):
        z1 = rng.standard_normal(size)
        z2 = effects.corr * z1 + math.sqrt(max(1.0 - effects.corr**2, 0.0)) * rng.standard_normal(
            size
        )
        s1 = math.sqrt(effects.log_var1)
        s2 = math.sqrt(effects.log_var2)
        theta1 = np.exp(-0.5 * effects.log_var1 + s1 * z1)
        theta2 = np.exp(-0.5 * effects.log_var2 + s2 * z2)
    else:  # a ModelSpec admits only the three effect laws
        second = rng.random(size) >= effects.weight1
        rates = np.where(second, effects.rate2, effects.rate1)
        theta1 = rng.exponential(1.0, size) / rates
        theta2 = rng.exponential(1.0, size) / rates
    return cls_idx, theta1, theta2


def _observables(q, t, f, theta1):
    """The 13 moment columns of ``SimSummary``, in field order, one at a time.

    Yielded lazily, so a chunk never holds all of them at once.
    """
    for power in range(3):
        yield q * t**power
    for power in range(5):
        yield q**2 * t**power
    yield f
    yield f * theta1
    for power in range(3):
        yield f**2 * theta1**power


def _claim_counts(u, p0, lam, cap: int) -> np.ndarray:
    """Poisson claim counts of claimants, by inverting their uniforms.

    ``u >= p0 = exp(-lam)`` for every entry, so each count is at least one;
    the pmf recurrence ``p_k = p_{k-1} * lam / k`` runs at most ``cap - 1``
    steps, and a count of ``cap`` stands for ``cap`` or more claims.  Only
    paths whose uniform lies above the running cdf stay in the loop.
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


def _large_claims(v, n, exceed) -> np.ndarray:
    """Binomial(n, exceed) large-claim counts, by inverting the uniforms ``v``.

    The count is the number of ``j < n`` with ``v`` at or above the binomial
    cdf at ``j``; exceedances of exactly 0 and 1 give 0 and ``n`` claims.
    """
    k2 = np.zeros(n.size, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        odds = exceed / (1.0 - exceed)
        pmf = (1.0 - exceed) ** n
        cdf = pmf
        active = np.arange(n.size)
        m = n
        for j in range(int(n.max())):
            more = np.flatnonzero((v >= cdf) & (m > j))
            if not more.size:
                break
            active = active[more]
            k2[active] += 1
            v, m, odds = v[more], m[more], odds[more]
            pmf = pmf[more] * odds * ((m - j) / (j + 1))
            cdf = cdf[more] + pmf
    return np.where(exceed >= 1.0, n, k2)


def simulate_paths(cfg: SimConfig) -> SimSummary:
    """Evolve policyholder level chains and collect stationary statistics."""
    rule = cfg.rule
    z = rule.max_level
    levels = rule.levels
    small, large = rule.small_step, rule.large_step
    # That many claims reach the top level whatever their sizes.
    cap = -(-z // small)
    model = cfg.model
    freq_rates = model.portfolio.freq_rates
    sev_rates = model.portfolio.sev_rates
    q_exp = int(np.frexp(np.max((freq_rates * sev_rates) ** 2))[1])
    f_exp = int(np.frexp(np.max(freq_rates**2))[1])

    counts = np.zeros(levels, dtype=np.int64)
    sums = np.zeros((13, levels))
    total_years = cfg.burn_in_years + cfg.sample_years

    done = 0
    chunk_index = 0
    while done < cfg.n_paths:
        size = min(CHUNK, cfg.n_paths - done)
        init = _stream(cfg.seed, chunk_index, 0)
        cls_idx, theta1, theta2 = _draw_profile(model, init, size)
        # A mean that overflows acts as the largest finite one: no pmf term of
        # the count inversion survives, so the count reaches the cap.
        freq_mean = np.minimum(freq_rates[cls_idx] * theta1, np.finfo(float).max)
        if large > small:  # claim sizes move the level only then
            sev_mean = sev_rates[cls_idx] * theta2
            exceed = severity_cdf(rule.threshold, sev_mean, model.severity, upper=True)
        p0 = np.exp(-freq_mean)
        level = np.full(size, cfg.start_level, dtype=np.int64)
        q = np.ldexp((freq_rates[cls_idx] * sev_rates[cls_idx]) ** 2, -q_exp)
        t = theta1 * theta2
        f = np.ldexp(freq_rates[cls_idx] ** 2, -f_exp)
        for year in range(1, total_years + 1):
            rng = _stream(cfg.seed, chunk_index, year)
            u = rng.random(size)
            claimants = np.flatnonzero(u >= p0)
            moved = level[claimants]
            level -= 1
            np.maximum(level, 0, out=level)
            if claimants.size:
                n = _claim_counts(u[claimants], p0[claimants], freq_mean[claimants], cap)
                up = small * n
                if large > small:
                    v = rng.random(claimants.size)
                    up += (large - small) * _large_claims(v, n, exceed[claimants])
                level[claimants] = np.minimum(moved + up, z)
            if year > cfg.burn_in_years:
                counts += np.bincount(level, minlength=levels)
                for row, values in enumerate(_observables(q, t, f, theta1)):
                    sums[row] += np.bincount(level, weights=values, minlength=levels)
        done += size
        chunk_index += 1

    return SimSummary(
        levels,
        cfg.n_paths * cfg.sample_years,
        cfg.seed,
        q_exp,
        f_exp,
        counts,
        *sums,
    )


def _require_occupancy(summary: SimSummary) -> None:
    low = summary.counts < MIN_LEVEL_VISITS
    if np.any(low):
        raise InsufficientOccupancyError(
            f"levels {np.flatnonzero(low).tolist()} visited fewer than {MIN_LEVEL_VISITS} times"
        )


def _ratio_estimate(counts, sum_x, sum_y, sum_x2, sum_xy, sum_y2):
    """Per-level ratio of means with the delta-method standard error."""
    n = counts.astype(float)
    mean_y = sum_y / n
    estimate = (sum_x / n) / mean_y
    var_resid = np.maximum(
        sum_x2 / n - 2.0 * estimate * (sum_xy / n) + estimate**2 * (sum_y2 / n), 0.0
    )
    se = np.sqrt(var_resid / n) / mean_y
    return estimate, se


def empirical_relativity(summary: SimSummary) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate-loss relativity estimates with delta-method standard errors.

    Estimates the premium-weighted conditional mean of the effect product
    given the level; each level must have been visited at least 1000 times.
    """
    _require_occupancy(summary)
    return _ratio_estimate(
        summary.counts,
        summary.prem_sq_t,
        summary.prem_sq,
        summary.prem_sq2_t2,
        summary.prem_sq2_t,
        summary.prem_sq2,
    )


def empirical_frequency_relativity(summary: SimSummary) -> tuple[np.ndarray, np.ndarray]:
    """Frequency relativity estimates (conditional mean of the frequency effect)."""
    _require_occupancy(summary)
    return _ratio_estimate(
        summary.counts,
        summary.fprem_t1,
        summary.fprem,
        summary.fprem2_t12,
        summary.fprem2_t1,
        summary.fprem2,
    )


def hmse_empirical(summary: SimSummary, relativities) -> tuple[float, float]:
    """Empirical score of a relativity vector with its standard error."""
    r = np.nan_to_num(np.asarray(relativities, dtype=float), nan=0.0)
    if r.shape != (summary.levels,):
        raise ValueError("relativity vector length does not match the level count")
    n_obs = summary.n_observations
    total = np.sum(summary.prem_sq_t2 - 2.0 * r * summary.prem_sq_t + r**2 * summary.prem_sq)
    second = np.sum(
        summary.prem_sq2_t4
        - 4.0 * r * summary.prem_sq2_t3
        + 6.0 * r**2 * summary.prem_sq2_t2
        - 4.0 * r**3 * summary.prem_sq2_t
        + r**4 * summary.prem_sq2
    )
    mean = total / n_obs
    var = max(second / n_obs - mean**2, 0.0)
    score, se = np.ldexp([mean, math.sqrt(var / n_obs)], summary.q_exp)  # undo the scaling of q
    return float(score), float(se)
