"""One child interpreter of the benchmark: imports the package, runs a job.

Usage: ``child.py JOB.json RESULT.json``.  The job file holds the ops, the
directory their outputs go to, and whether to trace.  The result file gets
the set-up time (interpreter start to ``import bonusmalus`` done, the start
being the monotonic time the parent put in ``PERFBENCH_SPAWN_NS``), the
job's wall time, each op's timed seconds and the problems the checks found,
all in measured and in calibrated seconds (see ``calibrate.py``).

Only the ops are timed.  Preparing inputs and checking outputs happen
outside the timed regions and outside the wall time, with tracing paused.
The machine's speed is sampled during every timed op and during the import.
"""

import os
import sys
import time

from calibrate import Speedometer  # numpy's import counts as set-up time

SETUP_SPEED = Speedometer()
with SETUP_SPEED:
    import bonusmalus as bm
IMPORT_DONE_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from bonusmalus import cli  # noqa: E402
from bonusmalus.presets import get_preset  # noqa: E402

import checks  # noqa: E402
from spans import Recorder  # noqa: E402


class Job:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.out_root = Path(spec["out_dir"])
        self.out_root.mkdir(parents=True, exist_ok=True)
        self.check_s = 0.0
        self.speed = Speedometer()  # all samples taken during the ops
        self.recorder = None
        if spec.get("trace"):
            self.recorder = Recorder(spec["trace_id"])
            self.recorder.install()
        self.cache_hits = 0
        self.controls = {"run": 0, "detected": 0}

    @contextlib.contextmanager
    def timed(self, record: dict):
        """Time an op; tracing and speed sampling are on only inside."""
        hits = _cache_hits()
        speed = Speedometer()
        if self.recorder:
            self.recorder.enabled = True
        start = time.perf_counter()
        try:
            with speed:
                yield
        finally:
            seconds = time.perf_counter() - start - speed.spent_s
            if self.recorder:
                self.recorder.enabled = False
            self.check_s += speed.spent_s
            if not speed.samples:  # shorter than the sampling interval
                speed.burst()
            self.speed.samples += speed.samples
            record["seconds"] += seconds
            record["cal_seconds"] += seconds * speed.factor
            self.cache_hits += _cache_hits() - hits

    @contextlib.contextmanager
    def checking(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - start

    def control(self, detected: bool) -> None:
        self.controls["run"] += 1
        self.controls["detected"] += int(detected)

    # -- ops -----------------------------------------------------------------

    def run_cli(self, op: dict, out: Path, record: dict) -> None:
        cfg = dict(op["overlay"])
        if op["extra_thresholds"]:
            published = get_preset(op["preset"]).get("thresholds", [])
            cfg["thresholds"] = list(published) + op["extra_thresholds"]
        config_path = out.parent / f"{op['tag']}.config.json"
        config_path.write_text(json.dumps(cfg))
        argv = [op["verb"], "--preset", op["preset"], "--config", str(config_path),
                "--out", str(out)]
        buf = io.StringIO()
        with self.timed(record), contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        record["code"] = code
        with self.checking():
            if op["verb"] == "verify":
                rules = len(cfg["rules"])
                record["problems"] += checks.verify_problems(code, buf.getvalue(), rules)
                self.control(checks.verify_control_detected(buf.getvalue(), rules))
                record["tables"] = rules
                record["path_years"] = rules * cfg["simulation"]["paths"] * (
                    get_preset(op["preset"])["simulation"]["burn_in_years"] + 1
                )
            elif code != 0:
                record["problems"].append(f"{op['verb']} exited with code {code}")
            else:
                self.check_tables(op, config_path, record)

    def check_tables(self, op: dict, config_path: Path, record: dict) -> None:
        """Re-derive the verb's tables (cache hits) and check their invariants."""
        cfg = cli.load_config(op["preset"], str(config_path))
        nodes = cfg.get("quadrature_nodes", 32)
        model = cli.parse_model(cfg)
        rules = cli.resolve_rules(cfg, model, nodes)
        if op["verb"] == "hmse-scan":
            rules = [r for r in dict.fromkeys(rules) if isinstance(r, bm.SeverityRule)]
        for i, rule in enumerate(rules):
            if isinstance(rule, bm.SeverityRule):
                table = bm.optimal_relativity_severity(model, rule, nodes)
            else:
                table = bm.optimal_relativity_dependent(model, rule, nodes)
            record["problems"] += checks.table_problems(bm, model, table, rule, nodes)
            if i == 0:
                self.control(checks.table_control_detected(bm, model, table, rule, nodes))
        record["tables"] = len(rules)

    def run_freq_grid(self, op: dict, out: Path, record: dict) -> None:
        nodes = op["nodes"]
        models = {p: cli.parse_model(get_preset(p)) for p in {pt[0] for pt in op["points"]}}
        lines = []
        for preset, z, h in op["points"]:
            model, rule = models[preset], bm.FreqRule(z, h)
            with self.timed(record):
                freq = bm.optimal_relativity_frequency(model, rule, nodes)
                dep = bm.optimal_relativity_dependent(model, rule, nodes)
                bm.hmse_eval(model, dep, rule, nodes)
                levels = bm.unconditional_level_distribution(model, rule, nodes)
            with self.checking():
                problems = checks.table_problems(bm, model, freq, rule, nodes)
                problems += checks.table_problems(bm, model, dep, rule, nodes)
                problems += checks.distribution_problems(f"levels for {rule}", levels)
                if max(abs(levels - dep.stationary)) > 1e-10:
                    problems.append(f"marginal and joint level masses differ for {rule}")
                record["problems"] += problems
                if not lines:
                    self.control(checks.table_control_detected(bm, model, dep, rule, nodes))
                for table in (freq, dep):
                    lines.append(
                        f"{preset},{z},{h},{table.family},{checks.fmt(table.hmse_raw)},"
                        f"{checks.fmt(table.hmse_normalized)},"
                        + ";".join(map(checks.fmt, table.relativities))
                        + ","
                        + ";".join(map(checks.fmt, table.stationary))
                    )
        record["tables"] = 2 * len(op["points"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "tables.csv").write_text("\n".join(sorted(lines)) + "\n")

    def run_credibility(self, op: dict, out: Path, record: dict) -> None:
        p = op["bayes"]
        model = bm.MixtureBayesModel(
            p["freq_rate"], p["sev_rate"],
            bm.MixtureExponentialEffects(p["weight1"], p["rate1"], p["rate2"]),
        )
        histories = [bm.ClaimHistory(counts, sizes) for counts, sizes in op["histories"]]
        premiums = []
        with self.timed(record):
            comparison = bm.mse_comparison_mc(model, op["years"], op["mc_paths"], op["mc_seed"])
            for history in histories:
                premiums.append(
                    (
                        bm.bayes_freq_premium(history, model),
                        bm.bayes_agg_premium_freqhist(history, model),
                        bm.bayes_agg_premium_fullhist(history, model),
                    )
                )
        with self.checking():
            problems = record["problems"]
            if not all(math.isfinite(v) and v > 0 for row in premiums for v in row):
                problems.append("a premium is not finite and positive")
            if not abs(premiums[0][0] - p["freq_rate"]) <= 1e-12:
                problems.append(f"empty-history premium {premiums[0][0]!r} != a priori rate")
            # The full history is the larger information set: its error
            # cannot be worse beyond sampling noise.
            if not (comparison.diff_se > 0 and comparison.diff_mean > -checks.SIGMA_FAIL
                    * comparison.diff_se):
                problems.append(f"premium comparison out of range: {comparison}")
            out.mkdir(parents=True, exist_ok=True)
            lines = ["history,frequency,aggregate_count_history,aggregate_full_history"]
            lines += [f"{i}," + ",".join(map(checks.fmt, row)) for i, row in enumerate(premiums)]
            (out / "premiums.csv").write_text("\n".join(lines) + "\n")
        record["premiums"] = 3 * len(histories)

    def run(self) -> dict:
        records = []
        for op in self.spec["ops"]:
            record = {"tag": op["tag"], "seconds": 0.0, "cal_seconds": 0.0, "tables": 0,
                      "problems": []}
            records.append(record)
            out = self.out_root / op["tag"]
            try:
                getattr(self, "run_" + op["kind"])(op, out, record)
            except Exception:  # an op that raises is a failed op; keep going
                record["problems"].append(traceback.format_exc())
        return records


def _cache_hits() -> int:
    from bonusmalus import relativity

    return sum(
        fn.cache_info().hits
        for fn in vars(relativity).values()
        if hasattr(fn, "cache_info")
    )


def main(job_path: str, result_path: str) -> None:
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
    with open(job_path) as fh:
        spec = json.load(fh)
    setup_s = (IMPORT_DONE_NS - spawn_ns) / 1e9 - SETUP_SPEED.spent_s
    if not SETUP_SPEED.samples:
        SETUP_SPEED.burst()
    job = Job(spec)
    # The untimed rest of the job is scaled by the speed over the whole job.
    result = {
        "module": bm.__file__,
        "setup_s": setup_s,
        "cal_setup_s": setup_s * SETUP_SPEED.factor,
    }
    if spec["ops"]:
        ops = job.run()
        wall_s = (time.monotonic_ns() - spawn_ns) / 1e9 - job.check_s - SETUP_SPEED.spent_s
        untimed_s = wall_s - setup_s - sum(op["seconds"] for op in ops)
        job.speed.samples += SETUP_SPEED.samples
        result.update(
            ops=ops,
            wall_s=wall_s,
            cal_wall_s=result["cal_setup_s"] + untimed_s * job.speed.factor
            + sum(op["cal_seconds"] for op in ops),
            speed=job.speed.factor,
            cache_hits=job.cache_hits,
            controls=job.controls,
        )
        if job.recorder:
            job.recorder.dump(spec["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
