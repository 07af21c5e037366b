"""Command-line front end.

Verbs: ``relativities``, ``hmse-scan``, ``bayes``, ``simulate``, ``verify``,
``reproduce-table``.  A run is configured by an optional bundled preset plus
an optional JSON config file (the file overlays the preset), plus flag
overrides.  Exit codes: 0 ok, 2 config error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .bayes import (
    MixtureBayesModel,
    bayes_agg_premium_freqhist,
    bayes_agg_premium_fullhist,
    bayes_freq_premium,
)
from .errors import BonusMalusError, InsufficientOccupancyError, ModelValidationError
from .hmse import _rank
from .model import (
    ClaimHistory,
    DegenerateEffects,
    FreqRule,
    GammaSeverity,
    LognormalCopulaEffects,
    MixtureExponentialEffects,
    ModelSpec,
    PoissonSeverity,
    Portfolio,
    RiskClass,
    SeverityRule,
    _number,
)
from .presets import get_preset
from .quadrature import severity_marginal_quantile
from .relativity import _tables
from .simulate import SimConfig, empirical_relativity, simulate_paths
from .verify import check_rule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

SEVERITY_KINDS = {"gamma": GammaSeverity, "poisson": PoissonSeverity}
EFFECT_KINDS = {
    "lognormal_copula": LognormalCopulaEffects,
    "mixture_exponential": MixtureExponentialEffects,
    "degenerate": DegenerateEffects,
}


def _keys(*kinds: type, given: tuple = ()) -> dict:
    """The field names of ``kinds`` but ``given``, as keys whose values the model types check."""
    return {f.name: None for kind in kinds for f in fields(kind) if f.name not in given}


# The config format, walked once per run by ``_check_settings``: a dict is a JSON
# object of only those keys, each mapped to its value's schema; a one-entry list
# is a JSON array of that schema; None is a value the model type or verb checks.
# A section of several kinds takes the union of their field names, so a merge
# that changes a preset's kind keeps the preset's keys; the kind reads its own.
SCHEMA = {
    "model": {
        "classes": [_keys(RiskClass)],
        "classes_template": [_keys(RiskClass, given=("weight",))],  # weighed by 'weights'
        "weights": [None],
        "severity": {"kind": None, **_keys(*SEVERITY_KINDS.values())},
        "effects": {"kind": None, **_keys(*EFFECT_KINDS.values())},
    },
    "rules": [_keys(FreqRule, SeverityRule)],
    "thresholds": [None],
    "quantiles": [None],
    "family": None,
    "quadrature_nodes": None,
    "format": None,
    "precision": None,
    "simulation": dict.fromkeys(("paths", "seed", "burn_in_years")),
    "bayes": {**_keys(MixtureBayesModel, given=("effects",)), **_keys(MixtureExponentialEffects)},
    "history": _keys(ClaimHistory),
}


# ---------------------------------------------------------------------------
# configuration loading


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(preset: str | None, config_path: str | None) -> dict:
    cfg = get_preset(preset) if preset else {}
    if config_path:
        path = Path(config_path)
        try:
            user = json.loads(path.read_text())
        except OSError as exc:  # missing, a directory, or not readable by this process
            raise ModelValidationError(f"cannot read config file {path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelValidationError(f"config file is not valid JSON: {exc}") from exc
        cfg = _deep_merge(cfg, _shaped(user, "config root"))
    if not cfg:
        raise ModelValidationError("no configuration given; pass --config and/or --preset")
    return cfg


def _shaped(value, key: str, kind: type = dict):
    """``value`` if it is a JSON object (``dict``) or array (``list``), else an input error."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ModelValidationError(f"'{key}' must be a JSON {name}, got {value!r}")
    return value


def _walk(value, schema, name: str) -> None:
    """Refuse a section of another shape than ``schema``, or a key it does not take."""
    if isinstance(schema, list):
        for entry in _shaped(value, name, list):
            if schema[0] is not None and not isinstance(entry, dict):
                keys = ", ".join(schema[0])
                raise ModelValidationError(
                    f"every entry of '{name}' must be a JSON object of {keys}, got {entry!r}"
                )
            _walk(entry, schema[0], name)
    # A 'history' array holds [n, s] rows, which parse_history reads.
    elif isinstance(schema, dict) and not (name == "history" and isinstance(value, list)):
        for key, item in _shaped(value, name).items():
            if key not in schema:
                raise ModelValidationError(f"'{name}' takes only {tuple(schema)}, got {key!r}")
            _walk(item, schema[key], key)


def _build(kind: type, section: dict, **given):
    """A ``kind`` of ``given`` and the section's value of each other field, else its default."""
    for f in fields(kind):
        if f.name not in given and (f.name in section or f.default is MISSING):
            given[f.name] = section[f.name]  # a KeyError names a missing field without a default
    return kind(**given)


def _kind(section: dict, kinds: dict, name: str):
    """The law of the section's ``kind`` (the first of ``kinds`` if none), built by ``_build``."""
    kind = section.get("kind", next(iter(kinds)))
    if not isinstance(kind, str) or kind not in kinds:
        raise ModelValidationError(f"unknown {name} kind {kind!r}")
    return _build(kinds[kind], section)


def parse_model(cfg: dict) -> ModelSpec:
    """The model of a config that ``_check_settings`` has passed."""
    try:
        section = cfg["model"]
        if "classes_template" in section:
            if "classes" in section:
                raise ModelValidationError("give 'classes' or 'classes_template', not both")
            weights, cells = section.get("weights"), section["classes_template"]
            if not weights:
                raise ModelValidationError(
                    "this preset needs class weights: supply 'model.weights' "
                    f"({len(cells)} values, one per listed cell)"
                )
            if len(weights) != len(cells):
                raise ModelValidationError(f"expected {len(cells)} weights, got {len(weights)}")
            classes = [_build(RiskClass, cell, weight=w) for w, cell in zip(weights, cells)]
        elif "weights" in section:
            raise ModelValidationError("'weights' weighs 'classes_template' cells, not 'classes'")
        else:
            classes = [_build(RiskClass, entry) for entry in section["classes"]]
        severity = _kind(section["severity"], SEVERITY_KINDS, "severity")
        effects = _kind(section["effects"], EFFECT_KINDS, "effects")
        return ModelSpec(Portfolio(classes), severity, effects)
    except (KeyError, ModelValidationError) as exc:
        raise ModelValidationError(f"bad model configuration: {exc}") from exc


def _parse_rule(entry: dict, threshold: float | None = None):
    """One rule; a severity entry without its own threshold takes ``threshold``."""
    try:
        if "step" in entry:
            return _build(FreqRule, entry)
        return _build(SeverityRule, {"threshold": threshold, **entry})
    except (KeyError, ModelValidationError) as exc:
        raise ModelValidationError(f"bad rule entry {entry!r}: {exc}") from exc


def _thresholds(cfg: dict, model: ModelSpec, nodes: int) -> list[tuple[float, float | None]]:
    """``(threshold, quantile level or None)``: the listed thresholds, then one per level."""
    listed = [(_number(phi, "thresholds"), None) for phi in cfg.get("thresholds", [])]
    levels = [_number(q, "quantiles") for q in cfg.get("quantiles", [])]
    return listed + [(severity_marginal_quantile(q, model, nodes), q) for q in levels]


def _rules(cfg: dict, thresholds: list[float]) -> list:
    """The one fan-out: each rule entry, a severity entry without a threshold once per threshold."""
    rules = []
    for entry in cfg.get("rules", []):
        if "step" in entry or "threshold" in entry:
            rules.append(_parse_rule(entry))
        elif not thresholds:
            raise ModelValidationError(
                "severity rule without explicit threshold needs 'thresholds' or 'quantiles'"
            )
        else:
            rules.extend(_parse_rule(entry, phi) for phi in thresholds)
    if not rules:
        raise ModelValidationError("no transition rules configured")
    return rules


def resolve_rules(cfg: dict, model: ModelSpec, nodes: int) -> list:
    """Instantiate rules; severity rules fan out over thresholds and quantiles."""
    return _rules(cfg, [phi for phi, _ in _thresholds(cfg, model, nodes)])


def parse_history(cfg: dict) -> ClaimHistory:
    section = cfg.get("history")
    if section is None:
        raise ModelValidationError("no claim history configured")
    try:
        if isinstance(section, dict):
            return _build(ClaimHistory, section)
        rows = [_shaped(row, "history", list) for row in section]
        return ClaimHistory([row[0] for row in rows], [row[1] for row in rows])
    except (IndexError, KeyError, ModelValidationError) as exc:
        raise ModelValidationError(f"bad claim history: {exc}") from exc


def parse_bayes_model(cfg: dict) -> MixtureBayesModel:
    try:
        section = cfg["bayes"]
        effects = _build(MixtureExponentialEffects, section)
        return _build(MixtureBayesModel, section, effects=effects)
    except (KeyError, ModelValidationError) as exc:
        raise ModelValidationError(f"bad bayes model configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x, precision: int) -> str:
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return "undefined"
    if precision < 0:
        return repr(x)
    try:
        return f"{x:.{precision}f}"
    except ValueError as exc:  # a precision beyond what str.format takes
        raise ModelValidationError(f"bad 'precision' {precision}: {exc}") from exc


def _jnum(x, precision: int):
    if x is None or np.isnan(x):
        return None
    x = float(x)
    return x if precision < 0 else round(x, precision)


def _rule_tag(rule) -> str:
    if isinstance(rule, FreqRule):
        return f"h{rule.step}"
    return f"h{rule.small_step}_{rule.large_step}_phi{rule.threshold:g}"


def _steps(rule) -> str:
    if isinstance(rule, FreqRule):
        return f"-1/+{rule.step}"
    return f"-1/+{rule.small_step}/+{rule.large_step}"


def _rule_name(rule) -> str:
    threshold = "" if isinstance(rule, FreqRule) else f" (threshold {rule.threshold:g})"
    return _steps(rule) + threshold


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(path)


def _tables_csv(tables, header: list, precision: int) -> str:
    """Tables of one level count side by side: relativity and mass columns, then the scores."""
    lines = [",".join(header)]
    for lvl in range(tables[0].rule.max_level, -1, -1):
        row = [str(lvl)]
        for table in tables:
            row += [
                _fmt(table.relativities[lvl], precision),
                _fmt(table.stationary[lvl], precision),
            ]
        lines.append(",".join(row))
    for label in ("hmse_raw", "hmse_normalized"):
        row = [label]
        for table in tables:
            row += [_fmt(getattr(table, label), precision), ""]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _table_payload(table, precision: int) -> dict:
    return {
        "rule": _rule_name(table.rule),
        "threshold": _jnum(table.threshold, precision),
        "family": table.family,
        "quadrature_nodes": table.nodes,
        "levels": [
            {
                "level": lvl,
                "relativity": _jnum(table.relativities[lvl], precision),
                "stationary_prob": _jnum(table.stationary[lvl], precision),
            }
            for lvl in range(table.rule.max_level, -1, -1)
        ],
        "hmse_raw": _jnum(table.hmse_raw, precision),
        "hmse_normalized": _jnum(table.hmse_normalized, precision),
    }


# ---------------------------------------------------------------------------
# verbs


def cmd_relativities(cfg: dict, args) -> int:
    model = parse_model(cfg)
    nodes = cfg["quadrature_nodes"]
    family = cfg.get("family", "aggregate")
    out = Path(args.out)
    for table in _tables(model, resolve_rules(cfg, model, nodes), nodes, family):
        name = f"relativities_{_rule_tag(table.rule)}.{cfg['format']}"
        if cfg["format"] == "csv":
            header = ["level", "relativity", "stationary_prob"]
            _write(out / name, _tables_csv([table], header, cfg["precision"]))
        else:
            _write(out / name, _json(_table_payload(table, cfg["precision"])))
    return EXIT_OK


def cmd_hmse_scan(cfg: dict, args) -> int:
    model = parse_model(cfg)
    nodes = cfg["quadrature_nodes"]
    precision = cfg["precision"]
    pairs = _thresholds(cfg, model, nodes)
    quantile_of = {phi: q for phi, q in pairs if q is not None}
    resolved = dict.fromkeys(_rules(cfg, [phi for phi, _ in pairs]))  # each rule once
    rules = [rule for rule in resolved if isinstance(rule, SeverityRule)]
    if not rules:
        raise ModelValidationError("hmse-scan needs at least one severity-aware rule")
    tables = sorted(_tables(model, rules, nodes), key=_rank)
    out = Path(args.out)
    if cfg["format"] == "csv":
        lines = ["rule,threshold,quantile,hmse_raw,hmse_normalized"]
        for table in tables:
            q = quantile_of.get(table.threshold)
            lines.append(
                f"{_steps(table.rule)},"
                f"{_fmt(table.threshold, precision)},{'' if q is None else q},"
                f"{_fmt(table.hmse_raw, precision)},"
                f"{_fmt(table.hmse_normalized, precision)}"
            )
        _write(out / "hmse_scan.csv", "\n".join(lines) + "\n")
    else:
        payload = [
            {
                "rule": _steps(table.rule),
                "threshold": _jnum(table.threshold, precision),
                "quantile": quantile_of.get(table.threshold),
                "hmse_raw": _jnum(table.hmse_raw, precision),
                "hmse_normalized": _jnum(table.hmse_normalized, precision),
            }
            for table in tables
        ]
        _write(out / "hmse_scan.json", json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_bayes(cfg: dict, args) -> int:
    model = parse_bayes_model(cfg)
    history = parse_history(cfg)
    precision = cfg["precision"]
    freq = bayes_freq_premium(history, model)
    agg_freq = bayes_agg_premium_freqhist(history, model)
    values = [("frequency_premium", freq), ("aggregate_premium_count_history", agg_freq)]
    if history.aggregates is not None or history.years == 0:
        values.append(
            ("aggregate_premium_full_history", bayes_agg_premium_fullhist(history, model))
        )
    out = Path(args.out)
    if cfg["format"] == "csv":
        lines = ["premium,value"] + [f"{k},{_fmt(v, precision)}" for k, v in values]
        _write(out / "bayes_premiums.csv", "\n".join(lines) + "\n")
    else:
        _write(
            out / "bayes_premiums.json",
            json.dumps({k: _jnum(v, precision) for k, v in values}, indent=2) + "\n",
        )
    return EXIT_OK


def _aggregate_only(cfg: dict, verb: str) -> None:
    """Refuse a frequency ``family`` in a verb that compares aggregate relativities only."""
    if cfg.get("family") == "frequency":
        raise ModelValidationError(f"{verb} compares aggregate relativities only: drop 'family'")


def cmd_simulate(cfg: dict, args) -> int:
    _aggregate_only(cfg, "simulate")
    model = parse_model(cfg)
    nodes = cfg["quadrature_nodes"]
    rule = resolve_rules(cfg, model, nodes)[0]
    sim = cfg.get("simulation", {})
    config = SimConfig(
        model, rule, sim.get("paths", 100_000), sim.get("seed", 0), sim.get("burn_in_years", 120)
    )
    summary = simulate_paths(config)
    precision = cfg["precision"]
    dist = summary.level_distribution
    ses = summary.level_se
    try:
        rel, rel_se = empirical_relativity(summary)
    except InsufficientOccupancyError:  # the relativity columns stay empty
        rel = rel_se = [None] * len(dist)
    out = Path(args.out)
    lines = ["level,stationary_prob,stationary_se,relativity,relativity_se"]
    for lvl in range(rule.max_level, -1, -1):
        cells = (dist[lvl], ses[lvl], rel[lvl], rel_se[lvl])
        lines.append(",".join([str(lvl)] + [_fmt(x, precision) for x in cells]))
    _write(out / f"simulation_{_rule_tag(rule)}.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(cfg: dict, args) -> int:
    _aggregate_only(cfg, "verify")
    model = parse_model(cfg)
    nodes = cfg["quadrature_nodes"]
    rules = resolve_rules(cfg, model, nodes)
    sim = cfg.get("simulation", {})
    n_paths = sim.get("paths", 1_000_000)
    seed = sim.get("seed", 20260809)
    burn_in_years = sim.get("burn_in_years", 120)
    checks = [
        check_rule(model, rule, n_paths, seed + index, max(nodes, 64), burn_in_years)
        for index, rule in enumerate(rules)
    ]
    # Printed only once every check has run, so a failure leaves no partial report.
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(
            f"[{status}] {c.label}: levels {c.level_gap_sigmas:.2f} sigma, "
            f"relativities {c.relativity_gap_sigmas:.2f} sigma, score {c.hmse_gap_sigmas:.2f} sigma"
        )
        for msg in c.failures:
            print(f"    {msg}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY


def cmd_reproduce_table(cfg: dict, args) -> int:
    model = parse_model(cfg)
    nodes = cfg["quadrature_nodes"]
    precision = cfg["precision"]
    rules = resolve_rules(cfg, model, nodes)
    if cfg["format"] == "csv" and len({rule.max_level for rule in rules}) > 1:
        raise ModelValidationError("a CSV table needs every rule on the same number of levels")
    tables = list(_tables(model, rules, nodes, cfg.get("family", "aggregate")))
    out = Path(args.out)
    if cfg["format"] == "csv":
        header = ["level"]
        for table in tables:
            header += [f"r_{_rule_tag(table.rule)}", f"p_{_rule_tag(table.rule)}"]
        _write(out / f"table_{args.preset or 'custom'}.csv", _tables_csv(tables, header, precision))
    else:
        payload = [_table_payload(table, precision) for table in tables]
        _write(out / f"table_{args.preset or 'custom'}.json", _json(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "relativities": (cmd_relativities, "emit optimal relativity tables per rule and threshold"),
    "hmse-scan": (cmd_hmse_scan, "rank thresholds of severity-aware rules by score"),
    "bayes": (cmd_bayes, "closed-form credibility premiums for a claim history"),
    "simulate": (cmd_simulate, "run the Monte Carlo simulator for the first configured rule"),
    "verify": (cmd_verify, "oracle-agreement battery (exits 4 on disagreement)"),
    "reproduce-table": (cmd_reproduce_table, "emit a study-layout table for a preset"),
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: every verb takes the same options, so the verb is a positional choice."""
    verbs = "\n".join(f"  {name:<17} {text}" for name, (_, text) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="bonusmalus",
        description="Design and evaluate bonus-malus systems under a dependent "
        "frequency-severity risk model.",
        epilog=f"verbs:\n{verbs}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="verb", help="one of the verbs below")
    parser.add_argument("--config", help="JSON config file (overlays the preset)")
    parser.add_argument("--preset", help="bundled preset id, e.g. ex2a")
    parser.add_argument("--format", choices=["csv", "json"], help="output format")
    parser.add_argument("--precision", type=int, help="decimal places (-1 for full)")
    parser.add_argument("--seed", type=int, help="master simulation seed")
    parser.add_argument("--quadrature-nodes", type=int, help="nodes per dimension")
    parser.add_argument("--out", default=".", help="output directory")
    return parser


def _apply_overrides(cfg: dict, args) -> dict:
    for key, default in (("format", "csv"), ("precision", 3), ("quadrature_nodes", 32)):
        flag = getattr(args, key)
        cfg[key] = cfg.get(key, default) if flag is None else flag
    if args.seed is not None and isinstance(cfg.setdefault("simulation", {}), dict):
        cfg["simulation"]["seed"] = args.seed
    _check_settings(cfg)
    return cfg


def _check_settings(cfg: dict) -> None:
    """Refuse ill-typed run settings, and any key ``SCHEMA`` does not take, before a verb runs.

    Whole numbers are stored as ints.  The ``simulation`` values are converted
    before the walk, so a fraction under an unknown key is named as a fraction.
    """
    for key, allowed in (("format", ("csv", "json")), ("family", ("aggregate", "frequency"))):
        if cfg.get(key, allowed[0]) not in allowed:
            raise ModelValidationError(f"'{key}' must be one of {allowed}, got {cfg[key]!r}")
    for key in ("precision", "quadrature_nodes"):
        cfg[key] = _number(cfg[key], key, whole=True)
    simulation = cfg.get("simulation")
    for key, value in simulation.items() if isinstance(simulation, dict) else ():
        try:
            simulation[key] = _number(value, key, whole=True)
        except ModelValidationError as exc:
            raise ModelValidationError(f"bad 'simulation.{key}': {exc}") from exc
    _walk(cfg, SCHEMA, "config root")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.preset, args.config), args)
        return _COMMANDS[args.command][0](cfg, args)
    except ModelValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BonusMalusError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
