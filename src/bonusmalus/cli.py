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
from pathlib import Path

import numpy as np

from .bayes import (
    MixtureBayesModel,
    bayes_agg_premium_freqhist,
    bayes_agg_premium_fullhist,
    bayes_freq_premium,
)
from .errors import BonusMalusError, InsufficientOccupancyError, ModelValidationError
from .hmse import _rank, threshold_scan
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
# The ``simulation`` keys ``simulate`` and ``verify`` read; any other one is refused.
SIMULATION_KEYS = ("paths", "seed", "burn_in_years")


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


def _fields(section: dict, *keys: str) -> list:
    if not isinstance(section, dict):
        raise ModelValidationError(f"expected a JSON object of {', '.join(keys)}, got {section!r}")
    return [section[key] for key in keys]


def parse_model(cfg: dict) -> ModelSpec:
    try:
        section = _shaped(cfg["model"], "model")
        if "classes_template" in section:
            weights = section.get("weights")
            cells = _shaped(section["classes_template"], "classes_template", list)
            if not weights:
                raise ModelValidationError(
                    "this preset needs class weights: supply 'model.weights' "
                    f"({len(cells)} values, one per listed cell)"
                )
            if len(_shaped(weights, "weights", list)) != len(cells):
                raise ModelValidationError(f"expected {len(cells)} weights, got {len(weights)}")
            classes = [
                RiskClass(w, *_fields(c, "freq_rate", "sev_rate")) for w, c in zip(weights, cells)
            ]
        else:
            classes = [
                RiskClass(*_fields(c, "weight", "freq_rate", "sev_rate"))
                for c in _shaped(section["classes"], "classes", list)
            ]
        sev_cfg = _shaped(section["severity"], "severity")
        kind = sev_cfg.get("kind", "gamma")
        if kind == "gamma":
            severity = GammaSeverity(*_fields(sev_cfg, "dispersion"))
        elif kind == "poisson":
            severity = PoissonSeverity()
        else:
            raise ModelValidationError(f"unknown severity kind {kind!r}")
        eff_cfg = _shaped(section["effects"], "effects")
        eff_kind = eff_cfg.get("kind", "lognormal_copula")
        if eff_kind == "lognormal_copula":
            effects = LognormalCopulaEffects(*_fields(eff_cfg, "corr", "log_var1", "log_var2"))
        elif eff_kind == "mixture_exponential":
            effects = MixtureExponentialEffects(*_fields(eff_cfg, "weight1", "rate1", "rate2"))
        elif eff_kind == "degenerate":
            effects = DegenerateEffects()
        else:
            raise ModelValidationError(f"unknown effects kind {eff_kind!r}")
        return ModelSpec(Portfolio(classes), severity, effects)
    except (KeyError, ModelValidationError) as exc:
        raise ModelValidationError(f"bad model configuration: {exc}") from exc


def _parse_rule(entry: dict, threshold: float | None = None):
    """One rule; a severity entry without its own threshold takes ``threshold``."""
    try:
        if "step" in entry:
            return FreqRule(*_fields(entry, "max_level", "step"))
        return SeverityRule(
            *_fields(entry, "max_level", "small_step", "large_step"),
            entry.get("threshold", threshold),
        )
    except (KeyError, ModelValidationError) as exc:
        raise ModelValidationError(f"bad rule entry {entry!r}: {exc}") from exc


def _sim_int(cfg: dict, key: str, default: int) -> int:
    try:
        return _number(cfg.get("simulation", {}).get(key, default), key, whole=True)
    except ModelValidationError as exc:
        raise ModelValidationError(f"bad 'simulation.{key}': {exc}") from exc


def _thresholds(cfg: dict, model: ModelSpec, nodes: int) -> list[tuple[float, float | None]]:
    """``(threshold, quantile level or None)``: the listed thresholds, then one per level."""
    listed = [(_number(phi, "thresholds"), None) for phi in cfg.get("thresholds", [])]
    levels = [_number(q, "quantiles") for q in cfg.get("quantiles", [])]
    return listed + [(severity_marginal_quantile(q, model, nodes), q) for q in levels]


def resolve_rules(cfg: dict, model: ModelSpec, nodes: int) -> list:
    """Instantiate rules; severity rules fan out over thresholds and quantiles."""
    thresholds = [phi for phi, _ in _thresholds(cfg, model, nodes)]
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


def parse_history(cfg: dict) -> ClaimHistory:
    section = cfg.get("history")
    if section is None:
        raise ModelValidationError("no claim history configured")
    try:
        if isinstance(section, dict):
            return ClaimHistory(section.get("counts", []), section.get("aggregates"))
        rows = [_shaped(row, "history", list) for row in _shaped(section, "history", list)]
        return ClaimHistory([row[0] for row in rows], [row[1] for row in rows])
    except (IndexError, ModelValidationError) as exc:
        raise ModelValidationError(f"bad claim history: {exc}") from exc


def parse_bayes_model(cfg: dict) -> MixtureBayesModel:
    try:
        section = _shaped(cfg["bayes"], "bayes")
        effects = MixtureExponentialEffects(*_fields(section, "weight1", "rate1", "rate2"))
        unit = section.get("unit_severity_effect", False)
        return MixtureBayesModel(*_fields(section, "freq_rate", "sev_rate"), effects, unit)
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
    entries = [e for e in cfg.get("rules", []) if "step" not in e]
    templates = [_parse_rule(e, 1.0) for e in entries]
    pairs = _thresholds(cfg, model, nodes)
    quantile_of = {phi: q for phi, q in pairs if q is not None}
    thresholds = [phi for phi, q in pairs if q is None]
    thresholds += [t.threshold for e, t in zip(entries, templates) if "threshold" in e]
    thresholds = list(dict.fromkeys(thresholds + list(quantile_of)))
    if not thresholds:
        raise ModelValidationError(
            "hmse-scan needs 'thresholds', 'quantiles', or explicit rule thresholds"
        )
    if not templates:
        raise ModelValidationError("hmse-scan needs at least one severity-aware rule")
    tables = [
        table
        for template in templates
        for table in threshold_scan(model, template, thresholds, nodes)
    ]
    tables.sort(key=_rank)
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


def cmd_simulate(cfg: dict, args) -> int:
    model = parse_model(cfg)
    nodes = cfg["quadrature_nodes"]
    rule = resolve_rules(cfg, model, nodes)[0]
    summary = simulate_paths(
        SimConfig(
            model,
            rule,
            _sim_int(cfg, "paths", 100_000),
            _sim_int(cfg, "seed", 0),
            burn_in_years=_sim_int(cfg, "burn_in_years", 120),
        )
    )
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
    model = parse_model(cfg)
    nodes = cfg["quadrature_nodes"]
    rules = resolve_rules(cfg, model, nodes)
    n_paths = _sim_int(cfg, "paths", 1_000_000)
    seed = _sim_int(cfg, "seed", 20260809)
    burn_in_years = _sim_int(cfg, "burn_in_years", 120)
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
    tables = list(_tables(model, rules, nodes))
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
    cfg.setdefault("format", "csv")
    cfg.setdefault("precision", 3)
    cfg.setdefault("quadrature_nodes", 32)
    if args.format:
        cfg["format"] = args.format
    if args.precision is not None:
        cfg["precision"] = args.precision
    if args.quadrature_nodes is not None:
        cfg["quadrature_nodes"] = args.quadrature_nodes
    _check_settings(cfg)
    if args.seed is not None:
        cfg.setdefault("simulation", {})
        cfg["simulation"]["seed"] = args.seed
    return cfg


def _check_settings(cfg: dict) -> None:
    """Reject ill-typed run settings before a verb reads them; whole numbers are stored as ints."""
    for key, allowed in (("format", ("csv", "json")), ("family", ("aggregate", "frequency"))):
        if cfg.get(key, allowed[0]) not in allowed:
            raise ModelValidationError(f"'{key}' must be one of {allowed}, got {cfg[key]!r}")
    for key in ("precision", "quadrature_nodes"):
        cfg[key] = _number(cfg[key], key, whole=True)
    for key in ("rules", "thresholds", "quantiles"):
        _shaped(cfg.get(key, []), key, list)
    for key, value in _shaped(cfg.get("simulation", {}), "simulation").items():
        if key not in SIMULATION_KEYS:
            _number(value, key, whole=True)  # a fraction is named as one, as for the keys read
            raise ModelValidationError(f"'simulation' takes only {SIMULATION_KEYS}, got {key!r}")
    if not all(isinstance(entry, dict) for entry in cfg.get("rules", [])):
        raise ModelValidationError("every entry of 'rules' must be a JSON object")


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
