"""Optimal per-level relativities for bonus-malus premiums.

The premium of a policyholder in class ``k`` at level ``l`` is the a priori
premium times the level's relativity.  The optimal relativity minimizes the
expected squared distance between the premium and the policyholder's
conditional mean loss in steady state; it equals a ratio of premium-weighted
conditional moments of the random effects given the occupied level.

Three families are provided:

* ``optimal_relativity_frequency`` -- frequency-driven chain, frequency
  premium target (relativity predicts the frequency effect).
* ``optimal_relativity_dependent`` -- frequency-driven chain, aggregate-loss
  premium target; claim-size information enters only through the dependence
  between the two effects.
* ``optimal_relativity_severity`` -- severity-aware chain, aggregate-loss
  premium target; the level itself carries claim-size history.

All three integrate over the same joint effect law and read one stationary
field per (model, chain, node count) only through per-level moments, which the
engine caches in place of the field; they differ in target and premium factor.
A table's score, like any vector's (``_score``), is a sum of squares, never negative.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ModelValidationError
from .model import BmsRule, FreqRule, ModelSpec, SeverityRule, _instance, _number, _vector
from .quadrature import DEFAULT_NODES, QuadratureGrid, _read_only, build_grid
from .stationary import _PROFILES, _run_starts, _stationary_fields

MASS_FLOOR = 1e-14


@dataclass(frozen=True)
class RelativityTable:
    """Per-level relativities with their stationary distribution and score.

    ``relativities`` holds NaN at levels whose stationary mass is below
    1e-14 (the conditional moment there is undefined, not zero).
    """

    rule: BmsRule
    relativities: np.ndarray
    stationary: np.ndarray
    hmse_raw: float
    hmse_normalized: float
    family: str
    nodes: int

    @property
    def threshold(self) -> float | None:
        return self.rule.threshold if isinstance(self.rule, SeverityRule) else None


@dataclass(frozen=True)
class BalanceReport:
    """Normal-equation residuals of a relativity table.

    ``level_residuals`` are the premium-weighted conditional residuals of the
    target given each occupied level; ``global_lhs``/``global_rhs`` compare
    the premium collected against the expected loss over the whole portfolio.
    """

    level_residuals: np.ndarray
    global_lhs: float
    global_rhs: float

    @property
    def max_level_residual(self) -> float:
        finite = self.level_residuals[np.isfinite(self.level_residuals)]
        return float(np.max(np.abs(finite))) if finite.size else 0.0

    @property
    def global_gap(self) -> float:
        return abs(self.global_lhs - self.global_rhs)


@dataclass(frozen=True)
class _MomentField:
    """Per-level moment accumulators shared by relativity and score code.

    ``mass[l]``    -- P(L = l)
    ``prem_sq[l]`` -- E[premium_factor^2 ; L = l]
    ``target[l]``  -- E[premium_factor^2 * target ; L = l]
    ``resid[l]``   -- E[premium_factor^2 * (target - r*_l)^2 ; L = l]

    where the premium factor is the family's a priori rate (the frequency
    rate, or frequency times severity rate), the target is the effect, or
    effect product, the relativity should track, and ``r*`` is the level's
    best relativity (``_best``).  ``resid`` is summed as squares, so a score
    built from it cancels nothing and is never negative.
    """

    mass: np.ndarray
    prem_sq: np.ndarray
    target: np.ndarray
    resid: np.ndarray
    norm: float


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _MomentCache(OrderedDict):
    """An ``OrderedDict`` that counts its lookups, with ``lru_cache``'s ``cache_info``."""

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize
        self.hits = self.misses = 0

    def holds(self, key) -> bool:
        """Whether ``key`` has an entry, counted as a hit or a miss."""
        found = key in self
        self.hits += found
        self.misses += not found
        return found

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self))

    def cache_clear(self) -> None:
        self.clear()
        self.hits = self.misses = 0


# Per-level moments by (model, chain, nodes), least recently yielded by
# ``_fields_for`` first, the chain being the rule whose field a rule reads
# (``_chain``); an entry maps each family the chain serves to its moments.  A
# field pass fills several entries at once, so the cache is kept here rather
# than by ``lru_cache``.  Each lookup of a rule's moments counts once, as a hit
# or a miss.
_MOMENTS = _MomentCache(maxsize=128)
# Only the instance may show a ``cache_info`` here: code that sums every
# ``cache_info`` in this module, as the benchmark does, fails on an unbound one.
del _MomentCache


@lru_cache(maxsize=16)
def _grid(effects, nodes: int) -> QuadratureGrid:
    """The read-only joint grid every field of ``(effects, nodes)`` shares."""
    grid = build_grid(effects, nodes)
    _read_only(grid.theta1, grid.theta2, grid.weights)
    return grid


def _shape(rule: BmsRule) -> tuple[int, int, int]:
    return rule.max_level, rule.small_step, rule.large_step


def _chain(rule: BmsRule) -> BmsRule:
    """The rule whose chains ``rule`` runs: the small-step frequency rule where no claim moves further.

    Equal steps, or a threshold no claim exceeds, leave the claim sizes
    unread, so such a rule shares the frequency rule's field, bit for bit.
    """
    if rule.large_step == rule.small_step or rule.threshold == math.inf:
        return FreqRule(rule.max_level, rule.small_step)
    return rule


def _fields_for(model: ModelSpec, rules: list, nodes: int):
    """Yield ``rules`` in order, each once the moments of its chain are cached.

    A chain whose moments are missing is solved in one field pass with the
    next missing chains of its shape, as many as one solve's ``_PROFILES``
    profiles hold, a chain taking one per class and run (``_run_starts``),
    and no more than the cache keeps, so a pass holds no more at once than
    one solve.  Each field goes with its pass, contracted into
    ``"aggregate"`` moments, and ``"frequency"`` ones too for a frequency
    chain, which the equal-step severity rules of its step share.
    ``_tables`` asks for all its rules this way, and each moment field for
    its one rule; a yielded rule's entry is the last the cache evicts.
    """
    _instance(model, ModelSpec, "model")
    nodes = _number(nodes, "nodes", whole=True)
    grid = _grid(model.effects, nodes)
    classes = model.portfolio.freq_rates.size
    for i, rule in enumerate(rules):
        chain = _chain(rule)
        if not _MOMENTS.holds((model, chain, nodes)):
            runs = _run_starts(grid, chain.large_step > chain.small_step).size
            per_pass = min(max(_PROFILES // (classes * runs), 1), _MOMENTS.maxsize)
            batch = [
                later
                for later in dict.fromkeys(map(_chain, rules[i:]))
                if _shape(later) == _shape(chain) and (model, later, nodes) not in _MOMENTS
            ][:per_pass]
            for solved, field in zip(batch, _stationary_fields(model, batch, grid)):
                moments = {"aggregate": _contract(model, solved, nodes, "aggregate", field)}
                if isinstance(solved, FreqRule):
                    moments["frequency"] = _contract(model, solved, nodes, "frequency", field)
                _MOMENTS[model, solved, nodes] = moments
                if len(_MOMENTS) > _MOMENTS.maxsize:
                    _MOMENTS.popitem(last=False)
        _MOMENTS.move_to_end((model, chain, nodes))
        yield rule


@lru_cache(maxsize=32)
def _run_moments(effects, nodes: int, family: str, sized: bool) -> tuple:
    """Per-run moments ``(W, M, c, D, S)`` of a family's target; cached, read-only.

    Over the nodes of each run of equal effects (``_run_starts``), with weights
    ``w`` and target ``t``: ``W = sum w``, ``M = sum w t``, the centre ``c = M / W``,
    ``D = sum w (t - c)`` and ``S = sum w (t - c)^2``.  Then for any ``r``,
    ``sum w (r - t)^2 = W (r - c)^2 - 2 (r - c) D + S``: the spread is summed
    as squares about the centre, and ``D`` carries the centre's rounding.
    """
    grid = _grid(effects, nodes)
    target = grid.theta1 if family == "frequency" else grid.theta1 * grid.theta2
    w = grid.weights
    starts = _run_starts(grid, sized)
    weight = np.add.reduceat(w, starts)
    first = np.add.reduceat(w * target, starts)
    centre = np.divide(first, weight, out=target[starts], where=weight > 0)
    dev = target - np.repeat(centre, np.diff(starts, append=grid.size))
    drift = np.add.reduceat(w * dev, starts)
    dev *= dev
    dev *= w
    return _read_only(weight, first, centre, drift, np.add.reduceat(dev, starts))


def _contract(model: ModelSpec, chain: BmsRule, nodes: int, family: str, field: np.ndarray):
    """Per-level moments of one relativity family from ``chain``'s field; read-only arrays.

    The field, ``(classes, runs, levels)``, one row per run of equal effects, is
    contracted over runs, then classes, through the run moments of ``_run_moments``.  The
    ``"frequency"`` family targets the frequency effect with premium factor
    ``freq_rate**2``; the ``"aggregate"`` family targets the effect product
    with premium factor ``(freq_rate * sev_rate)**2``.  The residual gaps are
    squared per (level, run) before any sum, each run's spread about its
    centre added as a sum of squares.
    """
    sized = chain.large_step > chain.small_step
    weight, first_w, centre, drift, spread = _run_moments(model.effects, nodes, family, sized)
    portfolio = model.portfolio
    rate = portfolio.freq_rates
    if family != "frequency":
        rate = rate * portfolio.sev_rates
    prem_sq = portfolio.weights * rate**2
    by_class = np.stack([weight, first_w]) @ field  # (class, moment, level)
    mass = portfolio.weights @ by_class[:, 0]
    prem, first = np.tensordot(prem_sq, by_class, axes=1)
    gaps = np.subtract.outer(_best(prem, first), centre)  # (level, run)
    gaps = gaps * gaps * weight - 2.0 * gaps * drift + spread
    resid = prem_sq @ np.einsum("ln,cnl->cl", gaps, field)
    _read_only(mass, prem, first, resid)
    return _MomentField(mass, prem, first, resid, float(np.sum(prem_sq)))


def _moment_field(model: ModelSpec, rule: BmsRule, nodes: int, family: str) -> _MomentField:
    """The cached moments of one family under ``rule``'s chain; a sized chain has no frequency."""
    moments = _MOMENTS.get((model, rule, nodes))
    if moments is None:  # not solved yet, or a rule that reads another rule's chain
        (rule,) = _fields_for(model, [rule], nodes)  # which counts the lookup
        moments = _MOMENTS[model, _chain(rule), nodes]
    else:
        _MOMENTS.hits += 1
    if family not in moments:
        raise ModelValidationError(f"the {family!r} family does not apply to {rule}")
    return moments[family]


def unconditional_level_distribution(
    model: ModelSpec, rule: BmsRule, nodes: int = DEFAULT_NODES
) -> np.ndarray:
    """Level distribution of a randomly drawn policyholder in steady state.

    The mass of the joint stationary field; every relativity table of
    ``(model, rule, nodes)`` carries these values as ``stationary``.  Read-only.
    """
    _instance(model, ModelSpec, "model")
    _instance(rule, BmsRule, "rule")
    return _moment_field(model, rule, _number(nodes, "nodes", whole=True), "aggregate").mass


def _best(prem_sq: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``r*``: per level, the relativity that zeroes the premium-weighted residual.

    Zero where the level carries no premium weight; its residual is then
    zero too, so ``_score``'s split holds at every level.
    """
    return np.divide(target, prem_sq, out=np.zeros_like(target), where=prem_sq > 0)


def _levels(relativities, rule: BmsRule) -> np.ndarray:
    """``relativities`` as a flat float vector, one entry per level of ``rule``."""
    r = _vector(relativities, "relativities")
    if r.shape != (rule.levels,):
        raise ModelValidationError(f"table has {r.shape[0]} levels but the rule has {rule.levels}")
    return r


def _score(field: _MomentField, relativities: np.ndarray) -> tuple[float, float]:
    """Raw and normalized score of any relativity vector, in O(levels).

    ``sum_l resid_l + (r_l - r*_l)^2 prem_sq_l``: both terms are squares, and
    undefined (NaN) relativities score as zero.
    """
    gaps = np.nan_to_num(relativities, nan=0.0) - _best(field.prem_sq, field.target)
    raw = float(np.sum(field.resid + gaps**2 * field.prem_sq))
    return raw, raw / field.norm


def _table(model: ModelSpec, rule: BmsRule, nodes: int, family: str) -> RelativityTable:
    _instance(model, ModelSpec, "model")
    nodes = _number(nodes, "nodes", whole=True)
    field = _moment_field(model, rule, nodes, family)
    r = np.where(field.mass > MASS_FLOOR, _best(field.prem_sq, field.target), np.nan)
    return RelativityTable(rule, r, field.mass, *_score(field, r), family, nodes)


def optimal_relativity_frequency(
    model: ModelSpec, rule: FreqRule, nodes: int = DEFAULT_NODES
) -> RelativityTable:
    """Optimal relativities targeting next-year claim frequency.

    The table's score is the squared-error of the frequency target (claims
    squared), normalized by the mean squared frequency rate; aggregate-loss
    scores for such a table come from ``hmse_eval``.
    """
    if not isinstance(rule, FreqRule):
        raise ModelValidationError("frequency relativities require a frequency-driven rule")
    return _table(model, rule, nodes, "frequency")


def optimal_relativity_dependent(
    model: ModelSpec, rule: FreqRule, nodes: int = DEFAULT_NODES
) -> RelativityTable:
    """Optimal aggregate-loss relativities under a frequency-driven chain."""
    if not isinstance(rule, FreqRule):
        raise ModelValidationError(
            "the dependence-adjusted family requires a frequency-driven rule"
        )
    return _table(model, rule, nodes, "aggregate")


def optimal_relativity_severity(
    model: ModelSpec, rule: SeverityRule, nodes: int = DEFAULT_NODES
) -> RelativityTable:
    """Optimal aggregate-loss relativities under a severity-aware chain."""
    if not isinstance(rule, SeverityRule):
        raise ModelValidationError("the severity family requires a severity-aware rule")
    return _table(model, rule, nodes, "aggregate")


def _tables(model: ModelSpec, rules: list, nodes: int, family: str = "aggregate"):
    """Yield each rule's table in order, its chain solved in ``_fields_for``'s shared passes.

    A severity-aware rule's table is the severity family's; a frequency
    rule's is the frequency family's where ``family == "frequency"``, and the
    dependence-adjusted one otherwise.  The table verbs, the scans and the
    oracle check read their tables here.
    """
    for rule in _fields_for(model, rules, nodes):
        if isinstance(rule, SeverityRule):
            yield optimal_relativity_severity(model, rule, nodes)
        elif family == "frequency":
            yield optimal_relativity_frequency(model, rule, nodes)
        else:
            yield optimal_relativity_dependent(model, rule, nodes)


def balance_check(model: ModelSpec, table: RelativityTable) -> BalanceReport:
    """Normal-equation residuals of a computed table.

    At the optimum every defined level has zero premium-weighted residual and
    the portfolio-level premium identity holds up to quadrature roundoff.
    """
    _instance(model, ModelSpec, "model")
    _instance(table, RelativityTable, "table")
    rule = _instance(table.rule, BmsRule, "rule")
    r = np.nan_to_num(_levels(table.relativities, rule), nan=0.0)
    field = _moment_field(model, rule, _number(table.nodes, "nodes", whole=True), table.family)
    defined = field.mass > MASS_FLOOR
    gaps = field.target - r * field.prem_sq
    residuals = np.divide(gaps, field.mass, out=np.full_like(gaps, np.nan), where=defined)
    global_lhs = float(np.sum(r * field.prem_sq))
    global_rhs = float(np.sum(field.target))
    return BalanceReport(residuals, global_lhs, global_rhs)
