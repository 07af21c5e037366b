"""Seeded Monte Carlo simulator of policyholder level paths.

The simulator realizes the full generative model -- class draw, effect draw,
yearly Poisson counts, per-claim threshold exceedances, level updates -- and
serves as the independent verification oracle for the analytic stationary
distributions, relativities, and scores.

Sampler: each path-year costs one 53-bit Philox word ``w``, the word behind
the uniform ``u = w * 2**-53`` that ``Generator.random`` would draw.  Two
integer bounds per path, set once per chunk, decide most path-years without
a float: ``w`` below ``ceil(exp(-lambda) * 2**53)``, which is exactly
``u < exp(-lambda)``, means no claim and one level down, and ``w`` below the
cdf at one claim, scaled the same way, means exactly one claim.  Only the
paths above both turn ``w`` into ``u`` and invert it through the Poisson
pmf recurrence from two claims on, counting at most
``cap = ceil(max_level / small_step)`` claims, since that many reach the top
level whatever their sizes; so any claim rate computes, and no loop runs
longer than ``cap``.  Under a severity rule with distinct steps the claimants
alone draw a second uniform ``v``: one claim is large when
``v >= 1 - exceedance``, and only multi-claim claimants invert ``v`` into
their binomial number of large claims.

Coupling window: once a year's words are drawn, each path has one move, -1
for a claim-free year or its jump capped at ``max_level``, and the year maps
every level ``l`` to ``clip(l + move, 0, max_level)``, monotone in ``l``.
So each chunk draws the last ``WINDOW`` (32) burn-in years for all its paths
and steps two chains through them, from levels 0 and ``max_level``: Propp and
Wilson's monotone coupling, cut at the fixed burn-in.  Where the two chains
meet, every start level ends there, so the path's level after the burn-in is
exact whatever its earlier years would draw, and they are never drawn.  Only
the open paths, whose chains have not met (about one in ten under the
10-level study rules), run the early years from level 0 and then replay the
window's moves.  An open path's early years are drawn independently of its
window, as the forward loop's are, so the sampled law is the forward loop's
from level 0 at the same burn-in and sample years.

Accumulator: each sampled year adds up, per (risk class, level), the count
and the effect powers ``t``..``t**4`` (``t = theta1 * theta2``), ``theta1``
and ``theta1**2``.  A premium family weights its target's powers by each
class's squared premium factor: ``(freq_rate * sev_rate)**2`` for the
aggregate family, ``freq_rate**2`` for the frequency family.

Determinism: paths are processed in fixed-size chunks and every (chunk, year)
pair owns its own counter-based random stream derived from the master seed,
so results are bit-identical regardless of how chunks are scheduled.  The
open paths' early years draw from streams of their own, keyed
``(seed, chunk, year, 1)``, one word per open path (and one per claimant
under a sized rule).  A run whose ``burn_in_years`` is at most ``WINDOW`` has
no early years and draws what the forward loop draws, bit for bit; a longer
burn-in samples the same law from other draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InsufficientOccupancyError, ModelValidationError
from .model import (
    BmsRule,
    DegenerateEffects,
    LognormalCopulaEffects,
    ModelSpec,
    _at_least,
    _instance,
    _vector,
)
from .quadrature import severity_cdf

CHUNK = 1 << 16
# Claim means per ``severity_cdf`` call, so a chunk's exceedances hold one slice's temporaries
# (1.9 MB at 4,096 means of the study's gamma law, beside 2.1 MB of window moves).
CDF_SLICE = 1 << 12
MIN_LEVEL_VISITS = 1000
# Burn-in years, the last ones, that every path of a chunk draws.
WINDOW = 32


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings for stationary-state estimation.

    Every path starts at level 0.  ``burn_in_years`` should stay at 100 or
    more for stationary estimates; oracle comparisons need ``n_paths`` of 1e5
    or more.  Each path contributes its level in the final ``sample_years``
    years (keep at 1 for strictly independent observations).
    """

    model: ModelSpec
    rule: BmsRule
    n_paths: int
    seed: int
    burn_in_years: int = 120
    sample_years: int = 1

    def __post_init__(self) -> None:
        _instance(self.model, ModelSpec, "model")
        _instance(self.rule, BmsRule, "rule")
        floors = {"n_paths": 1, "seed": 0, "burn_in_years": 0, "sample_years": 1}
        for name, floor in floors.items():
            object.__setattr__(self, name, _at_least(getattr(self, name), name, floor))


@dataclass(frozen=True)
class SimSummary:
    """Per-(class, level) effect power sums, and the per-level counts they hold.

    ``sums[row, class, level]`` holds the rows count, t, t**2, t**3, t**4,
    theta1 and theta1**2; with the class rates they are sufficient for the
    level distribution, both families' relativities, the empirical score of
    any relativity vector, and all their standard errors.
    """

    sums: np.ndarray  # (7, classes, levels)
    freq_rates: np.ndarray
    sev_rates: np.ndarray

    @property
    def levels(self) -> int:
        return self.sums.shape[2]

    @property
    def counts(self) -> np.ndarray:
        return self.sums[0].sum(axis=0).astype(np.int64)  # whole numbers, summed exactly

    @property
    def level_distribution(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def level_se(self) -> np.ndarray:
        p = self.level_distribution
        return np.sqrt(p * (1.0 - p) / self.counts.sum())


def _stream(*key: int) -> np.random.Generator:
    """The stream of ``(seed, chunk, year)``, or of an open path's ``(seed, chunk, year, 1)``."""
    # Philox keys itself with the sequence's first two 64-bit words.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _words(bits: np.random.BitGenerator, size: int) -> np.ndarray:
    """``size`` 53-bit words; ``Generator.random`` draws ``word * 2**-53`` from each."""
    words = bits.random_raw(size)
    words >>= 11
    return words


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


def _powers(t, theta1):
    """The weights of the rows of ``SimSummary.sums`` (none for the count), one at a time."""
    yield None
    yield from (t**power for power in range(1, 5))
    yield from (theta1, theta1**2)


def _words_at_least(prob) -> np.ndarray:
    """The least 53-bit word ``w`` with ``w * 2**-53 >= prob``, per entry, as ``uint64``.

    ``Generator.random`` makes each double of a raw Philox word as
    ``(word >> 11) * 2**-53``, so ``u >= prob`` holds exactly when the
    shifted word reaches this bound: ``prob * 2**53`` scales exactly, and
    its ceiling is a whole float.  A probability of one or more, or NaN,
    gives ``2**53``, which no shifted word reaches.
    """
    return np.ceil(np.fmin(prob, 1.0) * 2.0**53).astype(np.uint64)


def _more_claims(u, p0, lam, cap: int) -> np.ndarray:
    """Poisson claim counts of claimants with two claims or more, by inverting their uniforms.

    ``u`` is at or above the cdf at one claim, ``p0 + p0 * lam``, so each
    count is at least two.  The pmf recurrence ``p_k = p_{k-1} * lam / k``
    runs from ``k = 2`` to at most ``cap - 1``, and a count of ``cap`` stands
    for ``cap`` or more claims.  Only paths whose uniform lies above the
    running cdf stay in the loop.
    """
    n = np.full(u.size, 2, dtype=np.int64)
    active = np.arange(u.size)
    pmf = p0 * lam  # the recurrence's first step; dividing by 1 is exact
    cdf = p0 + pmf
    for k in range(2, cap):
        pmf = pmf * lam / k
        cdf = cdf + pmf
        more = (u >= cdf).nonzero()[0]
        if not more.size:
            break
        active = active[more]
        n[active] = k + 1
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
            more = ((v >= cdf) & (m > j)).nonzero()[0]
            if not more.size:
                break
            active = active[more]
            k2[active] = j + 1
            v, m, odds = v[more], m[more], odds[more]
            pmf = pmf[more] * odds * ((m - j) / (j + 1))
            cdf = cdf[more] + pmf
    return np.where(exceed >= 1.0, n, k2)


class _Paths(NamedTuple):
    """A chunk's per-path draw constants, set once from its profiles.

    ``k0`` and ``k1`` are the word bounds of a claimant and of a claimant
    with two claims or more, ``p0`` the no-claim probability, and
    ``exceed`` the single-claim exceedance of a sized rule (``None`` under
    equal steps).  The claim mean is not held: the few multi-claim paths of
    a year recompute theirs from ``cls_idx`` and ``theta1``.
    """

    cls_idx: np.ndarray
    theta1: np.ndarray
    p0: np.ndarray
    k0: np.ndarray
    k1: np.ndarray
    exceed: np.ndarray | None

    def take(self, index) -> "_Paths":
        return _Paths(*(None if a is None else a[index] for a in self))


def _draw_paths(cfg: SimConfig, chunk_index: int, size: int):
    """A chunk's fresh profiles: their draw constants and their effect product ``t``."""
    rule, model = cfg.rule, cfg.model
    cls_idx, theta1, theta2 = _draw_profile(model, _stream(cfg.seed, chunk_index, 0), size)
    exceed = None
    if rule.large_step > rule.small_step:  # claim sizes move the level only then
        exceed = np.empty(size)
        for lo in range(0, size, CDF_SLICE):
            part = slice(lo, lo + CDF_SLICE)
            sev_mean = model.portfolio.sev_rates[cls_idx[part]] * theta2[part]
            exceed[part] = severity_cdf(rule.threshold, sev_mean, model.severity, upper=True)
    t = theta1 * theta2
    del theta2
    lam = model.portfolio.freq_rates[cls_idx] * theta1
    p0 = np.exp(-lam)
    # A claimant's word at or above ``k1`` has two claims or more, as the
    # recurrence's first step would find; with ``cap`` 1 none counts two.
    k0 = _words_at_least(p0)
    k1 = np.broadcast_to(_words_at_least(p0 + p0 * lam if _cap(rule) > 1 else 1.0), (size,))
    return _Paths(cls_idx, theta1, p0, k0, k1, exceed), t


def _cap(rule: BmsRule) -> int:
    """Claims that reach the top level whatever their sizes."""
    return -(-rule.max_level // rule.small_step)


def _move_type(rule: BmsRule) -> np.dtype:
    """The least signed integer type that holds a move, -1 up to ``max_level``."""
    return np.min_scalar_type(-rule.max_level - 1)


def _year_moves(bits: np.random.BitGenerator, paths: _Paths, rule: BmsRule, freq_rates):
    """Each path's move in one year: -1 if claim-free, else its jump capped at ``max_level``.

    A year maps a level ``l`` to ``clip(l + move, 0, max_level)`` whatever
    ``l`` is, so one year's moves step any number of chains.
    """
    z, small, large = rule.max_level, rule.small_step, rule.large_step
    move_type = _move_type(rule)
    words = _words(bits, paths.k0.size)
    # ``.nonzero()[0]`` is ``np.flatnonzero`` without its Python wrappers,
    # which cost about 2% of a run at tens of thousands of calls.
    claimants = (words >= paths.k0).nonzero()[0]
    moves = np.full(words.size, -1, dtype=move_type)
    if not claimants.size:
        return moves
    words = words[claimants]
    many = (words >= paths.k1[claimants]).nonzero()[0]
    if large > small:
        v = _words(bits, claimants.size) * 2.0**-53
        # One claim is large when ``v`` reaches the binomial cdf ``1 - exceed``.
        steps = move_type.type(min(large, z)), move_type.type(min(small, z))
        moves[claimants] = np.where(v >= 1.0 - paths.exceed[claimants], *steps)
    else:
        moves[claimants] = min(small, z)
    if many.size:
        c2 = claimants[many]
        lam = freq_rates[paths.cls_idx[c2]] * paths.theta1[c2]
        n = _more_claims(words[many] * 2.0**-53, paths.p0[c2], lam, _cap(rule))
        up = small * n
        if large > small:
            up += (large - small) * _large_claims(v[many], n, paths.exceed[c2])
        moves[c2] = np.minimum(up, z)
    return moves


def _step(levels: np.ndarray, moves: np.ndarray, z: int) -> None:
    """Move ``levels`` (one row or several) through one year's ``moves``, in place."""
    levels += moves
    np.clip(levels, 0, z, out=levels)


def _burn_in(cfg: SimConfig, chunk_index: int, paths: _Paths, window: np.ndarray):
    """A chunk's levels after the burn-in, and the open paths, which ran the early years.

    ``window`` receives the moves of the last ``len(window)`` burn-in years,
    one row per year, drawn from the ``(seed, chunk, year)`` streams.  Two
    chains step through them from levels 0 and ``max_level``; a year's map
    is monotone in the level, so where they meet every start level ends
    there, and the path's level is exact whatever its earlier years drew.
    Only the open paths, whose chains have not met, run the early years
    ``1 .. burn_in_years - len(window)`` from level 0, on streams of their
    own, ``(seed, chunk, year, 1)``, one word per open path, and then replay
    the window.  Without early years both chains start at 0, so no path is
    open and every draw is the forward loop's.
    """
    rule, z = cfg.rule, cfg.rule.max_level
    freq_rates = cfg.model.portfolio.freq_rates
    early = cfg.burn_in_years - len(window)
    for row, year in enumerate(range(early + 1, cfg.burn_in_years + 1)):
        bits = _stream(cfg.seed, chunk_index, year).bit_generator
        window[row] = _year_moves(bits, paths, rule, freq_rates)
    # ``int16`` holds any level plus any move: both are at most ``MAX_LEVEL``.
    top = z if early else 0
    chains = np.repeat(np.array([0, top], dtype=np.int16)[:, None], paths.k0.size, axis=1)
    for moves in window:
        _step(chains, moves, z)
    level = chains[0]
    open_paths = (level != chains[1]).nonzero()[0]
    if open_paths.size:
        sub = paths.take(open_paths)
        part = np.zeros(open_paths.size, dtype=np.int16)
        for year in range(1, early + 1):
            bits = _stream(cfg.seed, chunk_index, year, 1).bit_generator
            _step(part, _year_moves(bits, sub, rule, freq_rates), z)
        for moves in window[:, open_paths]:
            _step(part, moves, z)
        level[open_paths] = part
    return level, open_paths


def simulate_paths(cfg: SimConfig) -> SimSummary:
    """Evolve policyholder level chains and collect stationary statistics."""
    _instance(cfg, SimConfig, "config")
    rule = cfg.rule
    levels = rule.levels
    model = cfg.model
    freq_rates = model.portfolio.freq_rates
    sev_rates = model.portfolio.sev_rates
    classes = len(freq_rates)
    sums = np.zeros((7, classes, levels))
    # One buffer, allocated once, for every chunk's window moves.
    window = np.empty(
        (min(WINDOW, cfg.burn_in_years), min(CHUNK, cfg.n_paths)), dtype=_move_type(rule)
    )
    sampled = range(cfg.burn_in_years + 1, cfg.burn_in_years + cfg.sample_years + 1)

    done = 0
    chunk_index = 0
    while done < cfg.n_paths:
        size = min(CHUNK, cfg.n_paths - done)
        paths, t = _draw_paths(cfg, chunk_index, size)
        level, _ = _burn_in(cfg, chunk_index, paths, window[:, :size])
        for year in sampled:
            bits = _stream(cfg.seed, chunk_index, year).bit_generator
            _step(level, _year_moves(bits, paths, rule, freq_rates), rule.max_level)
            cell = paths.cls_idx * levels + level
            for row, values in enumerate(_powers(t, paths.theta1)):
                sums[row] += np.bincount(
                    cell, weights=values, minlength=classes * levels
                ).reshape(classes, levels)
        done += size
        chunk_index += 1

    return SimSummary(sums, freq_rates, sev_rates)


def _require_occupancy(summary: SimSummary) -> None:
    low = summary.counts < MIN_LEVEL_VISITS
    if np.any(low):
        raise InsufficientOccupancyError(
            f"levels {np.flatnonzero(low).tolist()} visited fewer than {MIN_LEVEL_VISITS} times"
        )


# Rows of ``SimSummary.sums`` holding x**0, x**1, ... of the aggregate target x.
_AGGREGATE_ROWS = [0, 1, 2, 3, 4]  # t = theta1 * theta2


def _family_sums(summary: SimSummary, rows, factor):
    """Per-level sums of ``p * x**k`` and ``p**2 * x**k`` of one family, with the scale of ``p``.

    ``x`` is the family's target, its powers in ``rows`` of ``summary.sums``,
    and ``p = factor**2 / 2**exp`` the squared premium factor of each class.
    ``exp`` puts the largest class's ``p`` in [0.5, 1), so the squares cannot
    overflow; a power of two scales exactly, so no ratio depends on it.
    """
    exp = int(np.frexp(np.max(factor**2))[1])
    p = np.ldexp(factor**2, -exp)
    powers = summary.sums[rows]  # (k, classes, levels)
    return np.tensordot(p, powers, axes=(0, 1)), np.tensordot(p**2, powers, axes=(0, 1)), exp


def _ratio_estimate(summary: SimSummary, rows, factor):
    """Per-level premium-weighted mean of a family's target, with its delta-method SE."""
    _require_occupancy(summary)
    first, second, _ = _family_sums(summary, rows, factor)
    n = summary.counts.astype(float)
    mean_p = first[0] / n
    estimate = (first[1] / n) / mean_p
    var_resid = np.maximum(
        second[2] / n - 2.0 * estimate * (second[1] / n) + estimate**2 * (second[0] / n), 0.0
    )
    se = np.sqrt(var_resid / n) / mean_p
    return estimate, se


def empirical_relativity(summary: SimSummary) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate-loss relativity estimates with delta-method standard errors.

    Estimates the premium-weighted conditional mean of the effect product
    given the level; each level must have been visited at least 1000 times.
    """
    _instance(summary, SimSummary, "summary")
    return _ratio_estimate(summary, _AGGREGATE_ROWS, summary.freq_rates * summary.sev_rates)


def hmse_empirical(summary: SimSummary, relativities) -> tuple[float, float]:
    """Empirical score of a relativity vector with its standard error."""
    _instance(summary, SimSummary, "summary")
    r = np.nan_to_num(_vector(relativities, "relativities"), nan=0.0)
    if r.shape != (summary.levels,):
        raise ModelValidationError(f"{r.size} relativities for a run of {summary.levels} levels")
    factor = summary.freq_rates * summary.sev_rates
    first, second, exp = _family_sums(summary, _AGGREGATE_ROWS, factor)
    n_obs = summary.counts.sum()
    total = np.sum(first[2] - 2.0 * r * first[1] + r**2 * first[0])
    fourth = np.sum(
        second[4]
        - 4.0 * r * second[3]
        + 6.0 * r**2 * second[2]
        - 4.0 * r**3 * second[1]
        + r**4 * second[0]
    )
    mean = total / n_obs
    var = max(fourth / n_obs - mean**2, 0.0)
    score, se = np.ldexp([mean, math.sqrt(var / n_obs)], exp)  # undo the scaling of p
    return float(score), float(se)
