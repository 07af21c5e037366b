"""Scoring of relativity tables and search over rules and thresholds.

The score of a table is the steady-state expected squared gap between the
policyholder's conditional mean loss and the charged premium.  It is reported
raw (currency squared) and normalized by the portfolio mean of the squared
a priori premium factor, which makes configurations comparable across
currency scales.  Every score is a sum of squares, never negative: per level,
the residual around the level's best relativity plus the squared distance of
the charged relativity from it, weighted by the level's premium mass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelValidationError
from .model import BmsRule, FreqRule, ModelSpec, SeverityRule, _instance, _number, _sequence
from .quadrature import DEFAULT_NODES
from .relativity import RelativityTable, _levels, _moment_field, _score, _shape, _tables


@dataclass(frozen=True)
class HmseReport:
    """Score of one relativity vector under one transition rule."""

    hmse_raw: float
    hmse_normalized: float


@dataclass(frozen=True)
class RuleDominanceReport:
    """Best tables over a frequency-rule grid and a severity-rule grid."""

    freq_best: RelativityTable
    severity_best: RelativityTable

    @property
    def severity_no_worse(self) -> bool:
        return self.severity_best.hmse_raw <= self.freq_best.hmse_raw


def hmse_eval(
    model: ModelSpec,
    relativities,
    rule,
    nodes: int = DEFAULT_NODES,
) -> HmseReport:
    """Score a relativity vector under a rule: the aggregate-loss score.

    ``relativities`` may be a table or a plain vector; its length must match
    the rule's level count, and undefined (NaN) levels score as zero.  The
    score reads the per-level residuals and moments of the rule's aggregate
    moment field, the ones the tables are scored from, so it costs O(levels)
    once that field is cached.
    """
    _instance(model, ModelSpec, "model")
    _instance(rule, BmsRule, "rule")
    if isinstance(relativities, RelativityTable):
        relativities = relativities.relativities
    r = _levels(relativities, rule)
    field = _moment_field(model, rule, _number(nodes, "nodes", whole=True), "aggregate")
    return HmseReport(*_score(field, r))


def _rank(table: RelativityTable):
    """Sort key: the table's own score, ties to the smaller threshold.

    Frequency tables carry no threshold and keep their grid order on ties.
    """
    return table.hmse_raw, table.threshold or 0.0


def threshold_scan(
    model: ModelSpec,
    rule: SeverityRule,
    thresholds,
    nodes: int = DEFAULT_NODES,
) -> list[RelativityTable]:
    """The optimal table at each candidate threshold, best score first.

    Tables are ranked by their own ``hmse_raw``, ties broken by the smaller
    threshold.  Each threshold passes ``SeverityRule``'s checks as it is.
    The candidates' stationary fields are solved several to a field pass.
    """
    if not isinstance(rule, SeverityRule):
        raise ModelValidationError("a threshold scan needs a severity-aware rule")
    thresholds = _sequence(thresholds, "thresholds")
    if not thresholds:
        raise ModelValidationError("need at least one threshold candidate")
    rules = [rule.with_threshold(phi) for phi in thresholds]
    return sorted(_tables(model, rules, nodes), key=_rank)


def rule_dominance_check(
    model: ModelSpec,
    freq_rules,
    severity_rules,
    nodes: int = DEFAULT_NODES,
) -> RuleDominanceReport:
    """Compare the best severity-aware rule against the best frequency rule.

    Every frequency step must appear as an equal-step severity rule in the
    severity grid; the severity minimum then cannot exceed the frequency
    minimum, and the report keeps both best tables.
    """
    freq_rules = [_instance(r, FreqRule, "frequency rule") for r in _sequence(freq_rules, "rules")]
    severity_rules = [
        _instance(r, SeverityRule, "severity rule") for r in _sequence(severity_rules, "rules")
    ]
    if not freq_rules or not severity_rules:
        raise ModelValidationError("both rule grids must be non-empty")
    diagonal = set(map(_shape, severity_rules))
    for fr in freq_rules:
        if _shape(fr) not in diagonal:
            raise ModelValidationError(
                f"severity grid must contain the equal-step rule matching {fr}"
            )
    freq_best = min(_tables(model, freq_rules, nodes), key=_rank)
    severity_best = min(_tables(model, severity_rules, nodes), key=_rank)
    return RuleDominanceReport(freq_best, severity_best)
