"""Command-line interface: verbs, formats, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bonusmalus import SingularSystemError, cli
from bonusmalus.model import FreqRule, SeverityRule
from bonusmalus.verify import OracleCheck

BAYES_CONFIG = {
    "bayes": {
        "freq_rate": 0.5,
        "sev_rate": 3.0,
        "weight1": 0.5,
        "rate1": 2.0,
        "rate2": 2.0 / 3.0,
    },
    "history": {"counts": [1, 0, 2], "aggregates": [4, 0, 5]},
}

SMALL_MODEL = {
    "model": {
        "classes": [{"weight": 1.0, "freq_rate": 0.5, "sev_rate": math.exp(8.8)}],
        "severity": {"kind": "gamma", "dispersion": 1.0 / 0.67},
        "effects": {
            "kind": "lognormal_copula",
            "corr": -0.8,
            "log_var1": 0.99,
            "log_var2": 0.29,
        },
    },
    "rules": [{"max_level": 9, "step": 1}, {"max_level": 9, "small_step": 1, "large_step": 2}],
    "thresholds": [16800.0],
    "quadrature_nodes": 16,
}


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv) -> int:
    return cli.main(argv)


def _set_class(payload: dict, **values) -> None:
    payload["model"]["classes"][0].update(values)


class TestRelativities:
    def test_writes_one_csv_per_rule(self, tmp_path):
        config = write_config(tmp_path, SMALL_MODEL)
        out = tmp_path / "out"
        assert run(["relativities", "--config", config, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == ["relativities_h1.csv", "relativities_h1_2_phi16800.csv"]
        text = (out / "relativities_h1.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "level,relativity,stationary_prob"
        assert lines[1].startswith("9,")
        assert lines[-2].startswith("hmse_raw,")
        assert lines[-1].startswith("hmse_normalized,")

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, SMALL_MODEL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["relativities", "--config", config, "--out", str(out_a)]) == 0
        assert run(["relativities", "--config", config, "--out", str(out_b)]) == 0
        for path in sorted(out_a.glob("*.csv")):
            assert path.read_bytes() == (out_b / path.name).read_bytes()

    def test_json_format_carries_the_same_numbers(self, tmp_path):
        config = write_config(tmp_path, SMALL_MODEL)
        out = tmp_path / "out"
        assert run(
            ["relativities", "--config", config, "--out", str(out), "--format", "json"]
        ) == 0
        payload = json.loads((out / "relativities_h1.json").read_text())
        csv_out = tmp_path / "csv_out"
        assert run(["relativities", "--config", config, "--out", str(csv_out)]) == 0
        lines = (csv_out / "relativities_h1.csv").read_text().strip().splitlines()
        top = lines[1].split(",")
        assert payload["levels"][0]["level"] == int(top[0])
        assert payload["levels"][0]["relativity"] == float(top[1])
        assert payload["levels"][0]["stationary_prob"] == float(top[2])

    @pytest.mark.parametrize("precision", [3, -1])
    def test_json_thresholds_rounded_like_the_scan(self, tmp_path, precision):
        # A quantile threshold has more digits than the precision keeps.
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["quantiles"] = [0.9]
        config = write_config(tmp_path, payload)
        args = ["--config", config, "--format", "json", "--precision", str(precision)]
        assert run(["relativities", *args, "--out", str(tmp_path / "tables")]) == 0
        assert run(["hmse-scan", *args, "--out", str(tmp_path / "scan")]) == 0
        tables = [json.loads(p.read_text()) for p in sorted((tmp_path / "tables").glob("*.json"))]
        scan = json.loads((tmp_path / "scan" / "hmse_scan.json").read_text())
        thresholds = [t["threshold"] for t in tables if t["threshold"] is not None]
        assert [t["threshold"] for t in tables].count(None) == 1  # the frequency rule
        assert sorted(thresholds) == sorted(row["threshold"] for row in scan)
        if precision >= 0:
            assert all(t == round(t, precision) for t in thresholds)
        else:
            assert any(t != round(t, 3) for t in thresholds)

    def test_frequency_rule_alone_needs_no_thresholds(self, tmp_path):
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload.pop("thresholds")
        payload["rules"] = [{"max_level": 9, "step": 1}]
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(["relativities", "--config", config, "--out", str(out)]) == 0
        assert [p.name for p in out.glob("*.csv")] == ["relativities_h1.csv"]

    def test_precision_flag(self, tmp_path):
        config = write_config(tmp_path, SMALL_MODEL)
        out = tmp_path / "out"
        assert run(
            ["relativities", "--config", config, "--out", str(out), "--precision", "6"]
        ) == 0
        line = (out / "relativities_h1.csv").read_text().splitlines()[1]
        assert len(line.split(",")[1].split(".")[1]) == 6


class TestHmseScan:
    def test_ranked_output_with_quantile_echo(self, tmp_path):
        payload = dict(SMALL_MODEL)
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["thresholds"] = [8200.0, 48100.0]
        payload["quantiles"] = [0.90]
        payload["rules"] = [{"max_level": 9, "small_step": 1, "large_step": 2}]
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(["hmse-scan", "--config", config, "--out", str(out)]) == 0
        lines = (out / "hmse_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "rule,threshold,quantile,hmse_raw,hmse_normalized"
        assert len(lines) == 4
        scores = [float(line.split(",")[3]) for line in lines[1:]]
        assert scores == sorted(scores)
        echoed = [line for line in lines[1:] if line.split(",")[2] == "0.9"]
        assert len(echoed) == 1
        # The 90th-quantile threshold sits near 16800 and wins the scan.
        assert float(echoed[0].split(",")[1]) == pytest.approx(16800, rel=0.02)
        assert lines[1] is echoed[0]

    def test_needs_candidates(self, tmp_path):
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload.pop("thresholds")
        payload["rules"] = [{"max_level": 9, "small_step": 1, "large_step": 2}]
        config = write_config(tmp_path, payload)
        assert run(["hmse-scan", "--config", config, "--out", str(tmp_path)]) == 2


class TestBayes:
    def test_premium_report(self, tmp_path):
        config = write_config(tmp_path, BAYES_CONFIG)
        out = tmp_path / "out"
        assert run(["bayes", "--config", config, "--out", str(out), "--precision", "-1"]) == 0
        lines = (out / "bayes_premiums.csv").read_text().strip().splitlines()
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["frequency_premium"]) == pytest.approx(0.81553175, rel=1e-6)
        assert float(values["aggregate_premium_full_history"]) == pytest.approx(
            2.51678469, rel=1e-6
        )

    def test_json_format_carries_the_csv_values(self, tmp_path):
        config = write_config(tmp_path, BAYES_CONFIG)
        for fmt in ("csv", "json"):
            argv = ["bayes", "--config", config, "--format", fmt, "--precision", "-1"]
            assert run([*argv, "--out", str(tmp_path / fmt)]) == 0
        lines = (tmp_path / "csv" / "bayes_premiums.csv").read_text().strip().splitlines()
        values = {key: float(value) for key, value in (line.split(",") for line in lines[1:])}
        assert json.loads((tmp_path / "json" / "bayes_premiums.json").read_text()) == values
        assert len(values) == 3

    def test_empty_history_boundary_mixture_prices_at_priori(self, tmp_path):
        payload = {
            "bayes": {
                "freq_rate": 0.5,
                "sev_rate": 3.0,
                "weight1": 1.0,
                "rate1": 1.0,
                "rate2": 5.0,
            },
            "history": {"counts": []},
        }
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(["bayes", "--config", config, "--out", str(out), "--precision", "-1"]) == 0
        lines = (out / "bayes_premiums.csv").read_text().strip().splitlines()
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["frequency_premium"]) == pytest.approx(0.5, rel=1e-12)
        assert float(values["aggregate_premium_count_history"]) == pytest.approx(1.5, rel=1e-12)
        assert float(values["aggregate_premium_full_history"]) == pytest.approx(1.5, rel=1e-12)

    def test_malformed_history_exits_2(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BAYES_CONFIG))
        payload["history"] = {"counts": [0, 2], "aggregates": [3.0, 1.0]}
        config = write_config(tmp_path, payload)
        assert run(["bayes", "--config", config, "--out", str(tmp_path)]) == 2
        assert "no claims but positive aggregate severity" in capsys.readouterr().err


class TestBayesInputs:
    @pytest.mark.parametrize(
        "history",
        [
            '{"counts": [1e400]}',
            '{"counts": [-0.5]}',
            '{"counts": "12"}',
            '{"counts": [true, 0]}',
            '{"counts": [1, 0, 2], "aggregates": [NaN, 0, 5]}',
            '{"counts": [1, 0, 2], "aggregates": [Infinity, 0, 5]}',
            '{"counts": [1, 1], "aggregates": [1e308, 1e308]}',
        ],
        ids=[
            "count_overflow",
            "count_fraction",
            "counts_string",
            "count_bool",
            "aggregate_nan",
            "aggregate_inf",
            "aggregate_total_overflow",
        ],
    )
    def test_malformed_history_exits_2(self, tmp_path, capsys, history):
        # Raw JSON text: 1e400, NaN and Infinity are what a hand-written file holds.
        path = tmp_path / "config.json"
        path.write_text(f'{{"bayes": {json.dumps(BAYES_CONFIG["bayes"])}, "history": {history}}}')
        assert run(["bayes", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "bad claim history" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_posterior_weights_exit_2(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BAYES_CONFIG))
        payload["history"] = {"counts": [1, 0, 2], "aggregates": [1e308, 0, 5]}
        config = write_config(tmp_path, payload)
        assert run(["bayes", "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "posterior weights overflow at total aggregate 1e+308" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "out").exists()


_JSON_LEAF = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
_JSON_VALUE = st.one_of(_JSON_LEAF, st.lists(_JSON_LEAF, max_size=3))


@st.composite
def _bayes_configs(draw):
    """The default bayes config with some model values and the history fuzzed."""
    bayes = dict(BAYES_CONFIG["bayes"])
    keys = [*bayes, "unit_severity_effect"]
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=2)):
        bayes[key] = draw(_JSON_VALUE)
    entry = st.one_of(st.integers(0, 4), _JSON_LEAF)
    counts = draw(st.lists(entry, max_size=4))
    history = {"counts": counts}
    if draw(st.booleans()):
        history["aggregates"] = draw(
            st.lists(entry, min_size=len(counts), max_size=len(counts)) | _JSON_VALUE
        )
    rows = st.lists(st.lists(entry, min_size=2, max_size=2), max_size=3)
    return {"bayes": bayes, "history": draw(st.one_of(st.just(history), rows, _JSON_VALUE))}


class TestBayesFuzz:
    @given(_bayes_configs())
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_exits_0_or_2_without_traceback(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(payload))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(["bayes", "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()


MIXTURE_EFFECTS = {"kind": "mixture_exponential", "weight1": 0.5, "rate1": 2.0, "rate2": 2.0 / 3.0}


_POSITIVE = st.floats(1e-3, 1e6)
# Numbers inside each value's valid range, so that most fuzzed configs reach the engine.
_VALID = {
    "weight": st.floats(1.0 - 1e-10, 1.0),
    "freq_rate": st.floats(1e-3, 20.0),
    "sev_rate": _POSITIVE,
    "dispersion": st.floats(0.05, 20.0),
    "corr": st.floats(-1.0, 1.0),
    "log_var1": st.floats(0.0, 4.0),
    "log_var2": st.floats(0.0, 4.0),
    "weight1": st.floats(0.0, 1.0),
    "rate1": st.floats(0.1, 10.0),
    "rate2": st.floats(0.1, 10.0),
    "max_level": st.integers(1, 30),
    "step": st.integers(1, 6),
    "small_step": st.integers(1, 2),
    "large_step": st.integers(2, 6),
    "threshold": _POSITIVE,
    0: _POSITIVE,
    "paths": st.integers(1, 3000),
    "seed": st.integers(0, 2**63),
    "burn_in_years": st.integers(0, 150),
}


@st.composite
def _relativities_configs(draw):
    """SMALL_MODEL, or its mixture variant, with one to three of its numbers fuzzed.

    A fuzzed number is drawn from the value's valid range seven times in
    eight, else it is an arbitrary JSON leaf.  Either rule may come first,
    and a small ``simulation`` section is fuzzed with the rest.
    """
    payload = json.loads(json.dumps(SMALL_MODEL))
    payload["simulation"] = {"paths": 2000, "seed": 1, "burn_in_years": 100}
    model = payload["model"]
    if draw(st.booleans()):
        model["effects"] = dict(MIXTURE_EFFECTS)
    freq_rule, sev_rule = payload["rules"]
    if draw(st.booleans()):
        payload["rules"].reverse()
    slots = [(model["classes"][0], key) for key in ("weight", "freq_rate", "sev_rate")]
    slots.append((model["severity"], "dispersion"))
    slots += [(model["effects"], key) for key in model["effects"] if key != "kind"]
    slots += [(freq_rule, key) for key in ("max_level", "step")]
    slots += [(sev_rule, key) for key in ("max_level", "small_step", "large_step", "threshold")]
    slots.append((payload["thresholds"], 0))
    sim = payload["simulation"]
    slots += [(sim, key) for key in ("paths", "seed", "burn_in_years")]
    indexes = st.lists(st.integers(0, len(slots) - 1), min_size=1, max_size=3, unique=True)
    for index in draw(indexes):
        section, key = slots[index]
        arbitrary = draw(st.integers(0, 7)) == 7
        section[key] = draw(_JSON_LEAF if arbitrary else _VALID[key])
    return payload


def _run_fuzzed(verb: str, payload: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(payload))
        argv = [verb, "--config", str(path), "--quadrature-nodes", "8"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([*argv, "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


class TestRelativitiesFuzz:
    @given(_relativities_configs())
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_exits_0_2_or_3_without_traceback(self, payload):
        code, err = _run_fuzzed("relativities", payload)
        assert code in (0, 2, 3)
        assert "Traceback" not in err


class TestScanAndTableFuzz:
    @pytest.mark.parametrize("verb", ["hmse-scan", "reproduce-table"])
    @given(payload=_relativities_configs())
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_exits_0_2_or_3_without_traceback(self, verb, payload):
        code, err = _run_fuzzed(verb, payload)
        assert code in (0, 2, 3)
        assert "Traceback" not in err


class TestSimulateFuzz:
    @given(_relativities_configs())
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_exits_0_2_or_3_without_traceback(self, payload):
        code, err = _run_fuzzed("simulate", payload)
        assert code in (0, 2, 3)
        assert "Traceback" not in err


@st.composite
def _verify_configs(draw):
    """A fuzzed relativities config with its node count drawn, and at times a quantile level.

    A quantile makes the verb resolve a threshold on the effect grid before
    any check runs, so the node count reaches numpy's Gauss rules.
    """
    payload = draw(_relativities_configs())
    payload["quadrature_nodes"] = draw(st.integers(8, 4096))
    if draw(st.booleans()):
        payload["quantiles"] = [0.9]
    return payload


def _record_checks(model, rule, n_paths, seed, nodes, burn_in_years):
    return OracleCheck("stub", (), 0.0, 0.0, 0.0, None, None)


class TestVerifyFuzz:
    @given(_verify_configs())
    @example({**SMALL_MODEL, "quadrature_nodes": 512, "quantiles": [0.9]})
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_exits_0_2_3_or_4_without_traceback(self, payload):
        # The checks themselves are recorded, not run, so no example simulates.
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            cli, "check_rule", _record_checks
        ):
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(payload))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(["verify", "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()


class TestSimulateVerb:
    def test_writes_summary(self, tmp_path):
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["simulation"] = {"paths": 30_000, "seed": 11, "burn_in_years": 100}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", str(out)]) == 0
        lines = (out / "simulation_h1.csv").read_text().strip().splitlines()
        assert lines[0] == "level,stationary_prob,stationary_se,relativity,relativity_se"
        assert len(lines) == 11


    def test_failed_relativity_estimate_exits_3_without_a_file(self, tmp_path, monkeypatch):
        # Only an under-visited level leaves the relativity columns blank;
        # any other failure of the estimate is a numeric failure.
        def singular(summary):
            raise SingularSystemError("stub")

        monkeypatch.setattr(cli, "empirical_relativity", singular)
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["simulation"] = {"paths": 2_000, "seed": 11, "burn_in_years": 100}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", str(out)]) == 3
        assert not out.exists()


def _seeded_run(tmp_path, capsys, verb: str, simulation: dict, flags=()) -> tuple:
    """Exit code, printed bytes and written files of one run of ``verb`` on the small model."""
    payload = json.loads(json.dumps(SMALL_MODEL))
    payload["rules"] = [{"max_level": 9, "step": 1}]
    payload["simulation"] = simulation
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"  # one path for every run, since the verbs print it
    shutil.rmtree(out, ignore_errors=True)
    code = run([verb, "--config", config, "--out", str(out), *flags])
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize(
    "verb,paths", [("simulate", 20_000), ("verify", 100_000)], ids=["simulate", "verify"]
)
def test_seed_flag_is_the_configured_seed(tmp_path, capsys, verb, paths):
    by_flag = _seeded_run(tmp_path, capsys, verb, {"paths": paths}, ["--seed", "5"])
    by_config = _seeded_run(tmp_path, capsys, verb, {"paths": paths, "seed": 5})
    by_default = _seeded_run(tmp_path, capsys, verb, {"paths": paths})
    assert by_flag == by_config
    assert by_flag[1] or by_flag[2]  # the run printed or wrote something
    assert by_flag[1:] != by_default[1:]


class TestVerifyVerb:
    def test_passing_battery_exits_0(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["rules"] = [{"max_level": 9, "step": 1}]
        payload["simulation"] = {"paths": 120_000, "seed": 12}
        config = write_config(tmp_path, payload)
        assert run(["verify", "--config", config, "--out", str(tmp_path)]) == 0
        assert "[pass]" in capsys.readouterr().out

    def test_failing_battery_exits_4(self, tmp_path, monkeypatch, capsys):
        def fake_check(model, rule, *args, **kwargs):
            return OracleCheck("stub", ("forced",), 9.0, 9.0, 9.0, None, None)

        monkeypatch.setattr(cli, "check_rule", fake_check)
        config = write_config(tmp_path, SMALL_MODEL)
        assert run(["verify", "--config", config, "--out", str(tmp_path)]) == 4
        assert "[FAIL]" in capsys.readouterr().out

    def test_report_bytes(self, tmp_path, monkeypatch, capsys):
        # perfbench parses these lines; the failures sit indented under their rule.
        checks = iter(
            [
                OracleCheck("-1/+1", (), 0.5, 1.25, 2.0, None, None),
                OracleCheck("-1/+1/+2 at 16800", ("a", "b"), 3.5, 0.0, 10.0, None, None),
            ]
        )
        monkeypatch.setattr(cli, "check_rule", lambda *args, **kwargs: next(checks))
        config = write_config(tmp_path, SMALL_MODEL)
        assert run(["verify", "--config", config, "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().out == (
            "[pass] -1/+1: levels 0.50 sigma, relativities 1.25 sigma, score 2.00 sigma\n"
            "[FAIL] -1/+1/+2 at 16800: levels 3.50 sigma, relativities 0.00 sigma, "
            "score 10.00 sigma\n"
            "    a\n"
            "    b\n"
        )

    @pytest.mark.parametrize("nodes, used", [(16, 64), (80, 80)])
    def test_passes_simulation_settings_to_each_check(self, tmp_path, monkeypatch, nodes, used):
        calls = []

        def recorder(model, rule, n_paths, seed, nodes, burn_in_years):
            calls.append((rule, n_paths, seed, nodes, burn_in_years))
            return OracleCheck("stub", (), 0.0, 0.0, 0.0, None, None)

        monkeypatch.setattr(cli, "check_rule", recorder)
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["quadrature_nodes"] = nodes
        payload["simulation"] = {"paths": 200_000, "seed": 7, "burn_in_years": 150}
        config = write_config(tmp_path, payload)
        assert run(["verify", "--config", config, "--out", str(tmp_path)]) == 0
        assert calls == [
            (FreqRule(9, 1), 200_000, 7, used, 150),
            (SeverityRule(9, 1, 2, 16800.0), 200_000, 8, used, 150),
        ]

    def test_short_burn_in_exits_2(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["simulation"] = {"paths": 100_000, "burn_in_years": 50}
        config = write_config(tmp_path, payload)
        assert run(["verify", "--config", config, "--out", str(tmp_path)]) == 2
        assert "at least 100 burn-in years" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_preset_exits_2(self, capsys):
        assert run(["relativities", "--preset", "nope", "--out", "."]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["tabulate", "--preset", "ex2a", "--out", "."])
        assert exc.value.code == 2
        assert "invalid choice: 'tabulate'" in capsys.readouterr().err

    def test_help_lists_every_verb_with_its_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for verb, (_, text) in cli._COMMANDS.items():
            assert any(line.split() == [verb, *text.split()] for line in lines), verb

    def test_options_go_before_or_after_the_verb(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["--config", write_config(tmp_path, SMALL_MODEL), "relativities", "--out", str(first)]) == 0
        assert run(["relativities", "--config", write_config(tmp_path, SMALL_MODEL), "--out", str(second)]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir()) and names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_config_exits_2(self, capsys):
        assert run(["relativities", "--out", "."]) == 2

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["relativities", "--config", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("verb", ["relativities", "hmse-scan"])
    def test_invalid_rule_exits_2(self, tmp_path, capsys, verb):
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["rules"] = [{"max_level": 9, "small_step": 2, "large_step": 1}]
        config = write_config(tmp_path, payload)
        assert run([verb, "--config", config, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "verb,overlay",
        [
            ("relativities", {"quadrature_nodes": "abc"}),
            ("relativities", {"quadrature_nodes": 8.5}),
            ("relativities", {"precision": "x"}),
            ("relativities", {"rules": 5}),
            ("relativities", {"format": "xml"}),
            ("relativities", {"family": "nope"}),
            ("simulate", {"simulation": 5}),
            ("simulate", {"simulation": {"paths": 1_000, "burn_in_years": -1}}),
            ("hmse-scan", {"rules": [{"max_level": 9, "small_step": 1}]}),
            ("bayes", {"bayes": {**BAYES_CONFIG["bayes"], "weight1": 1.5}}),
            ("bayes", {"bayes": {**BAYES_CONFIG["bayes"], "unit_severity_effect": "false"}}),
            ("bayes", {"bayes": {**BAYES_CONFIG["bayes"], "rate1": math.inf, "rate2": 0.5}}),
        ],
        ids=[
            "nodes_text",
            "nodes_fraction",
            "precision_text",
            "rules_number",
            "format_xml",
            "family_unknown",
            "simulation_number",
            "negative_burn_in",
            "scan_rule_without_large_step",
            "bayes_weight",
            "bayes_unit_flag_string",
            "bayes_infinite_mixture_rate",
        ],
    )
    def test_bad_settings_exit_2(self, tmp_path, capsys, verb, overlay):
        base = BAYES_CONFIG if verb == "bayes" else SMALL_MODEL
        payload = {**json.loads(json.dumps(base)), **overlay}
        config = write_config(tmp_path, payload)
        assert run([verb, "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "verb,edit,named",
        [
            ("relativities", lambda p: _set_class(p, freq_rate=math.nan), "model"),
            ("relativities", lambda p: _set_class(p, freq_rate=math.inf), "model"),
            ("relativities", lambda p: _set_class(p, sev_rate=math.nan), "model"),
            ("relativities", lambda p: p["model"]["severity"].update(dispersion=math.nan), "model"),
            ("relativities", lambda p: p["model"]["effects"].update(log_var1=math.inf), "model"),
            ("relativities", lambda p: _set_class(p, freq_rate=1e160), "model"),
            ("relativities", lambda p: _set_class(p, sev_rate=1e200), "model"),
            ("relativities", lambda p: _set_class(p, freq_rate=10**400), "model"),
            (
                "relativities",
                lambda p: p["model"].update(
                    classes_template=p["model"]["classes"], weights=[10**400]
                ),
                "model",
            ),
            ("relativities", lambda p: p["rules"][1].update(threshold=10**400), "rule"),
            ("relativities", lambda p: p["rules"][0].update(max_level=math.inf), "rule"),
            ("relativities", lambda p: p.update(thresholds=[10**400]), "'thresholds'"),
            ("relativities", lambda p: p.update(quantiles=[10**400]), "'quantiles'"),
            ("hmse-scan", lambda p: p.update(thresholds=[10**400]), "'thresholds'"),
            ("hmse-scan", lambda p: p.update(quantiles=[10**400]), "'quantiles'"),
            ("simulate", lambda p: p.update(simulation={"paths": math.inf}), "'simulation.paths'"),
            ("simulate", lambda p: p.update(simulation={"burn_in_years": math.inf}), "burn_in"),
            ("verify", lambda p: p.update(simulation={"paths": math.inf}), "'simulation.paths'"),
        ],
        ids=[
            "freq_rate_nan",
            "freq_rate_inf",
            "sev_rate_nan",
            "dispersion_nan",
            "log_var1_inf",
            "freq_rate_square_overflow",
            "premium_square_overflow",
            "class_rate_beyond_float",
            "class_weight_beyond_float",
            "rule_threshold_beyond_float",
            "rule_max_level_infinite",
            "thresholds_beyond_float",
            "quantiles_beyond_float",
            "scan_thresholds_beyond_float",
            "scan_quantiles_beyond_float",
            "simulate_paths_infinite",
            "simulate_burn_in_infinite",
            "verify_paths_infinite",
        ],
    )
    def test_out_of_range_numbers_exit_2(self, tmp_path, capsys, verb, edit, named):
        # Non-finite model numbers once failed late (exit 3, or exit 2 after a
        # file was written), and numbers past float or int range escaped as
        # OverflowError tracebacks.
        payload = json.loads(json.dumps(SMALL_MODEL))
        edit(payload)
        config = write_config(tmp_path, payload)
        assert run([verb, "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "verb,edit,named",
        [
            ("relativities", lambda p: _set_class(p, weight=True), "'weight'"),
            ("relativities", lambda p: p["rules"][0].update(max_level=True), "'max_level'"),
            ("relativities", lambda p: p.update(thresholds=[True]), "'thresholds'"),
            ("relativities", lambda p: p["model"]["effects"].update(corr=True), "'corr'"),
            ("hmse-scan", lambda p: p["rules"][1].update(large_step=False), "'large_step'"),
            ("simulate", lambda p: p.update(simulation={"paths": True}), "'paths'"),
            ("bayes", lambda p: p["bayes"].update(freq_rate=True), "'freq_rate'"),
            ("relativities", lambda p: _set_class(p, weight="1.0"), "'weight'"),
            ("relativities", lambda p: p["rules"][0].update(step="2"), "'step'"),
            ("relativities", lambda p: p.update(thresholds=["16800"]), "'thresholds'"),
        ],
        ids=[
            "class_weight",
            "rule_max_level",
            "thresholds",
            "effects_corr",
            "scan_large_step",
            "simulation_paths",
            "bayes_freq_rate",
            "class_weight_string",
            "rule_step_string",
            "thresholds_string",
        ],
    )
    def test_booleans_are_not_numbers(self, tmp_path, capsys, verb, edit, named):
        # float(True) is 1.0, so a boolean once read as the number 1; and
        # float("1.0") is 1.0, so a numeric string once read as a number.
        payload = json.loads(json.dumps(BAYES_CONFIG if verb == "bayes" else SMALL_MODEL))
        edit(payload)
        config = write_config(tmp_path, payload)
        assert run([verb, "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{named} must be a number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "verb,edit,named",
        [
            ("relativities", lambda p: p["rules"][0].update(step=1.9), "'step'"),
            ("relativities", lambda p: p["rules"][0].update(max_level=9.7), "'max_level'"),
            ("relativities", lambda p: p["rules"][1].update(small_step=1.5), "'small_step'"),
            ("hmse-scan", lambda p: p["rules"][1].update(large_step=2.5), "'large_step'"),
            ("simulate", lambda p: p.update(simulation={"paths": 100_000.5}), "'paths'"),
            ("simulate", lambda p: p.update(simulation={"seed": 1.5}), "'seed'"),
            (
                "simulate",
                lambda p: p.update(simulation={"burn_in_years": 100.5}),
                "'burn_in_years'",
            ),
            ("simulate", lambda p: p.update(simulation={"start_level": 0.5}), "'start_level'"),
            ("verify", lambda p: p.update(simulation={"paths": 120_000.5}), "'paths'"),
        ],
        ids=[
            "rule_step",
            "rule_max_level",
            "rule_small_step",
            "scan_large_step",
            "simulation_paths",
            "simulation_seed",
            "simulation_burn_in",
            "simulation_start_level",
            "verify_paths",
        ],
    )
    def test_fractions_are_not_integers(self, tmp_path, capsys, verb, edit, named):
        # int() truncates, so "step": 1.9 once ran the -1/+1 rule and exited 0.
        payload = json.loads(json.dumps(SMALL_MODEL))
        edit(payload)
        config = write_config(tmp_path, payload)
        assert run([verb, "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{named} must be an integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["simulate", "verify"])
    @pytest.mark.parametrize(
        "simulation, named",
        [
            ({"start_level": 0}, "'start_level'"),
            ({"paths": 100_000, "burn_in_year": 5}, "'burn_in_year'"),
        ],
        ids=["start_level", "misspelt"],
    )
    def test_unknown_simulation_key_exits_2(self, tmp_path, capsys, verb, simulation, named):
        # A misspelt "burn_in_year" once ran the default 120 burn-in years and exited 0.
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["simulation"] = simulation
        config = write_config(tmp_path, payload)
        with (
            mock.patch.object(cli, "simulate_paths") as simulate,
            mock.patch.object(cli, "check_rule") as check,
        ):
            assert run([verb, "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert not simulate.called and not check.called
        err = capsys.readouterr().err
        assert err.startswith("configuration error: 'simulation' takes only ") and named in err
        assert not (tmp_path / "out").exists()

    def test_docs_list_the_simulation_keys(self):
        # The config schema's "simulation" block names exactly the keys the CLI reads.
        doc = (Path(__file__).resolve().parents[1] / "docs" / "config_schema.md").read_text()
        block = doc.split('"simulation": {', 1)[1].split("}", 1)[0]
        keys = [line.split('"')[1] for line in block.splitlines() if line.strip()]
        assert tuple(keys) == cli.SIMULATION_KEYS

    def test_node_count_beyond_numpy_rule_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["relativities", "--preset", "ex2a", "--quadrature-nodes", "512", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: quadrature_nodes=512 ")
        assert not out.exists()

    def test_config_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        # Reading it raised IsADirectoryError, which escaped as a traceback.
        argv = ["relativities", "--config", str(tmp_path), "--out", str(tmp_path / "out")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {tmp_path}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "verb,edit,named",
        [
            ("relativities", lambda p: p["model"].update(severity=5), "'severity'"),
            ("relativities", lambda p: p["model"].update(effects=[1]), "'effects'"),
            ("relativities", lambda p: p["model"].update(classes=[5]), "JSON object of weight"),
            ("relativities", lambda p: p.update(model="m"), "'model'"),
            ("bayes", lambda p: p.update(bayes=[0.5]), "'bayes'"),
            ("bayes", lambda p: p.update(history=[5]), "'history'"),
        ],
        ids=["severity", "effects", "class", "model", "bayes", "history_row"],
    )
    def test_sections_of_the_wrong_shape_exit_2(self, tmp_path, capsys, verb, edit, named):
        # A non-object severity or effects section once raised an AttributeError traceback.
        payload = json.loads(json.dumps(BAYES_CONFIG if verb == "bayes" else SMALL_MODEL))
        edit(payload)
        config = write_config(tmp_path, payload)
        assert run([verb, "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err and "Traceback" not in err

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run(["relativities", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config file is not valid JSON" in capsys.readouterr().err

    def test_precision_beyond_str_format_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_MODEL)
        argv = ["relativities", "--config", config, "--precision", str(10**11)]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "bad 'precision'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exit_code_follows_the_exception_type_alone(self, tmp_path, monkeypatch):
        # No catch-all: a bare ValueError is a defect to type where it is raised.
        def untyped(*args, **kwargs):
            raise ValueError("untyped")

        monkeypatch.setattr(cli, "parse_model", untyped)
        config = write_config(tmp_path, SMALL_MODEL)
        with pytest.raises(ValueError, match="untyped"):
            run(["relativities", "--config", config, "--out", str(tmp_path)])

    def test_numeric_failures_exit_3(self, tmp_path, monkeypatch):
        from bonusmalus.errors import BracketingFailureError

        def explode(*args, **kwargs):
            raise BracketingFailureError("no bracket")

        monkeypatch.setattr(cli, "severity_marginal_quantile", explode)
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["quantiles"] = [0.9]
        config = write_config(tmp_path, payload)
        assert run(["relativities", "--config", config, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("verb", ["relativities", "hmse-scan", "reproduce-table"])
    def test_unattainable_quantile_exits_2(self, tmp_path, capsys, verb):
        overlay = {
            "model": {
                "classes": [{"weight": 1.0, "freq_rate": 0.5, "sev_rate": 0.5}],
                "severity": {"kind": "poisson"},
            },
            "thresholds": [],
            "quantiles": [0.3],
        }
        config = write_config(tmp_path, overlay)
        argv = [verb, "--preset", "ex2a", "--config", config, "--out", str(tmp_path / "out")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error: quantile level 0.3 is unattainable" in err
        assert "mass at zero" in err

    def test_quantile_above_the_grid_mass_exits_2(self, tmp_path, capsys):
        # 22 Hermite weights sum to 1 - 3 * 2**-53: the bracket once doubled 200 times, then exit 3.
        overlay = {"quantiles": [0.9999999999999999], "thresholds": [], "quadrature_nodes": 22}
        config = write_config(tmp_path, overlay)
        argv = ["relativities", "--preset", "ex2a", "--config", config]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == (
            "configuration error: quantile level 0.9999999999999999 is unattainable: "
            "the grid's total claim-size mass is 0.9999999999999997\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "verb,preset,edit,named",
        [
            (
                "relativities",
                "dat",
                lambda p: p.update(model={"weights": [1.0] * 17}),
                "expected 18 weights, got 17",
            ),
            (
                "relativities",
                None,
                lambda p: p["model"].update(severity={"kind": "lognormal"}),
                "unknown severity kind 'lognormal'",
            ),
            (
                "relativities",
                None,
                lambda p: p["model"].update(effects={"kind": "gaussian"}),
                "unknown effects kind 'gaussian'",
            ),
            (
                "relativities",
                None,
                lambda p: p.pop("thresholds"),
                "severity rule without explicit threshold needs 'thresholds' or 'quantiles'",
            ),
            ("relativities", None, lambda p: p.update(rules=[]), "no transition rules configured"),
            (
                "hmse-scan",
                None,
                lambda p: p.update(rules=[{"max_level": 9, "step": 1}]),
                "hmse-scan needs at least one severity-aware rule",
            ),
            (
                "relativities",
                None,
                lambda p: p.update(rules=[{"max_level": 9, "step": 1}, 5]),
                "every entry of 'rules' must be a JSON object",
            ),
        ],
        ids=[
            "weight_count",
            "severity_kind",
            "effects_kind",
            "no_threshold_source",
            "no_rules",
            "scan_without_severity_rule",
            "rule_not_an_object",
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, capsys, verb, preset, edit, named):
        payload = {} if preset else json.loads(json.dumps(SMALL_MODEL))
        edit(payload)
        argv = [verb, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "out")]
        assert run(argv + (["--preset", preset] if preset else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_degenerate_effects_from_a_config(self, tmp_path):
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["model"]["effects"] = {"kind": "degenerate"}
        out = tmp_path / "out"
        config = write_config(tmp_path, payload)
        assert run(["relativities", "--config", config, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "relativities_h1.csv").read_text().splitlines()]
        assert [row[1] for row in rows[1:]] == ["1.000"] * 10 + ["0.000"] * 2

    def test_top_level_weights_are_not_class_weights(self, tmp_path, capsys):
        # Class weights have one home, 'model.weights'.
        config = write_config(tmp_path, {"weights": [1.0 / 18.0] * 18})
        argv = ["relativities", "--preset", "dat", "--config", config]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "supply 'model.weights'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_constant_severity_effect_keeps_the_node_limit(self, tmp_path, capsys):
        # The severity marginal of a zero log-variance is one node, but the
        # node count is held to the joint grid's Gauss-Hermite limit.
        overlay = {"model": {"effects": {"log_var2": 0.0}}, "thresholds": [], "quantiles": [0.9]}
        argv = ["simulate", "--preset", "ex2a", "--config", write_config(tmp_path, overlay)]
        assert run([*argv, "--quadrature-nodes", "371", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: quadrature_nodes=371 overflows")
        assert not (tmp_path / "out").exists()

    def test_data_preset_requires_weights(self, tmp_path, capsys):
        assert run(["relativities", "--preset", "dat", "--out", str(tmp_path)]) == 2
        assert "weights" in capsys.readouterr().err

    def test_data_preset_runs_with_weights(self, tmp_path):
        overlay = {
            "model": {"weights": [1.0 / 18.0] * 18},
            "quantiles": [],
            "thresholds": [10100.0],
            "quadrature_nodes": 8,
            "rules": [{"max_level": 9, "small_step": 1, "large_step": 2}],
        }
        config = write_config(tmp_path, overlay)
        out = tmp_path / "out"
        code = run(["relativities", "--preset", "dat", "--config", config, "--out", str(out)])
        assert code == 0
        assert (out / "relativities_h1_2_phi10100.csv").exists()


class TestReproduceTable:
    def test_study_preset_layout(self, tmp_path):
        out = tmp_path / "out"
        assert run(
            [
                "reproduce-table",
                "--preset",
                "ex2a",
                "--out",
                str(out),
                "--quadrature-nodes",
                "16",
            ]
        ) == 0
        lines = (out / "table_ex2a.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "level"
        assert len(header) == 1 + 2 * 5  # frequency rule plus four thresholds
        assert lines[1].split(",")[0] == "9"
        assert lines[-2].split(",")[0] == "hmse_raw"
        assert lines[-1].split(",")[0] == "hmse_normalized"

    @pytest.mark.parametrize("first_level", [10, 4])
    def test_csv_rules_on_different_scales_exit_2(self, tmp_path, capsys, first_level):
        # The rows follow the first rule's scale: a longer first scale once
        # raised an IndexError traceback, a shorter one cut the other columns.
        payload = json.loads(json.dumps(SMALL_MODEL))
        payload["rules"][0]["max_level"] = first_level
        config = write_config(tmp_path, payload)
        assert run(["reproduce-table", "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "same number of levels" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        argv = ["reproduce-table", "--config", config, "--format", "json"]
        assert run([*argv, "--out", str(tmp_path / "json")]) == 0
