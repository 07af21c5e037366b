"""Benchmark driver.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study-scan [--seed 0] [--seconds 20] [--trace 0|1]

The driver runs one child interpreter at a time (``child.py``), each with a
fresh ``import bonusmalus`` from ``src/`` and BLAS/OpenMP threads capped at
the CPUs this process may use.  It repeats the workload's round until
``--seconds`` are used, checks every output, and prints the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) as the last
line of standard output.  A traced run alternates untraced and traced rounds,
so the tracing overhead is the difference of their medians.  See README.md
for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
from spans import LAYERS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PROBES = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Verb-level metrics, each fed by the ops with the tag of the same name.
VERB_METRICS = {
    "reproduce_table_s": "reproduce-table",
    "hmse_scan_s": "hmse-scan",
    "relativities_s": "relativities",
    "verify_s": "verify",
    "credibility_s": "credibility",
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def _median(values) -> float:
    """Median of the finite values; 0 when a failed run left none."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(caps: dict) -> dict:
    return {
        "commit": _commit(),
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_caps": caps,
    }


class Bench:
    def __init__(self, workload, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.jobs = workload.jobs(seed)
        self.work = WORK / f"run-{os.getpid()}"
        caps = {name: str(_nproc()) for name in THREAD_VARS}
        self.env = {**os.environ, **caps}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.environment = environment(caps)
        self.setup_samples: list[float] = []
        self.rounds: list[dict] = []
        self.controls = {"run": 0, "detected": 0}
        self.children = 0

    # -- children --------------------------------------------------------------

    def child(self, spec: dict) -> tuple[dict | None, str]:
        """Run one child; return its result (None if it failed) and its error text."""
        self.children += 1
        job_dir = self.work / f"child-{self.children}"
        job_dir.mkdir(parents=True)
        spec = {**spec, "out_dir": str(job_dir / "out"), "spans_path": str(job_dir / "spans.json")}
        (job_dir / "job.json").write_text(json.dumps(spec))
        result_path = job_dir / "result.json"
        env = {**self.env, "PERFBENCH_SPAWN_NS": str(time.monotonic_ns())}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_dir / "job.json"),
                 str(result_path)],
                cwd=job_dir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"child timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not result_path.is_file():
            return None, f"child exited with code {proc.returncode}: {proc.stderr[-2000:]}"
        result = json.loads(result_path.read_text())
        module = Path(result["module"]).resolve()
        if SRC.resolve() not in module.parents:
            raise BenchError(f"child imported bonusmalus from {module}, not from {SRC}")
        self.setup_samples.append((result["cal_setup_s"], result["setup_s"]))
        return result, ""

    def probe(self, timed: bool = True) -> None:
        result, error = self.child({"ops": []})
        if result is None:
            raise BenchError(f"cannot import bonusmalus: {error}")
        if not timed:
            self.setup_samples.pop()

    # -- rounds ----------------------------------------------------------------

    def run_round(self, traced: bool) -> dict:
        index = len(self.rounds)
        rnd = {"traced": traced, "cal_wall_s": 0.0, "wall_s": 0.0, "ops": [], "summaries": [],
               "cache_hits": 0}
        for j, ops in enumerate(self.jobs):
            spec = {"ops": ops, "trace": traced, "trace_id": f"{self.workload.name}/r{index}/j{j}"}
            result, error = self.child(spec)
            if result is None:
                rnd["cal_wall_s"] = rnd["wall_s"] = float("nan")
                rnd["ops"] += [
                    {"tag": op["tag"], "seconds": 0.0, "cal_seconds": 0.0, "tables": 0,
                     "problems": [error]}
                    for op in ops
                ]
                continue
            rnd["cal_wall_s"] += result["cal_wall_s"]
            rnd["wall_s"] += result["wall_s"]
            rnd["cache_hits"] += result["cache_hits"]
            for key in self.controls:
                self.controls[key] += result["controls"][key]
            job_dir = self.work / f"child-{self.children}"
            for op, record in zip(ops, result["ops"]):
                # The battery prints sigma gaps, which the simulator's stream
                # sets; it is checked by gap size, not against a reference.
                if self.seed == DEFAULT_SEED and op.get("verb") != "verify":
                    out = job_dir / "out" / op["tag"]
                    record["problems"] += checks.reference_problems(
                        out, HERE / "refs" / self.workload.name / op["tag"]
                    )
                    self.controls["run"] += 1
                    self.controls["detected"] += int(checks.reference_control_detected(out))
                rnd["ops"].append(record)
            if traced:
                traced_job = json.loads((job_dir / "spans.json").read_text())
                traced_job["speed"] = result["speed"]
                rnd["summaries"].append(traced_job)
        self.rounds.append(rnd)
        return rnd

    def measure(self, seconds: float) -> None:
        self.probe(timed=False)  # compiles bytecode on a fresh checkout
        for _ in range(PROBES):
            self.probe()
        start = time.monotonic()
        while True:
            traced = self.trace and len(self.rounds) % 2 == 1
            rnd = self.run_round(traced)
            elapsed = time.monotonic() - start
            if len(self.rounds) >= MIN_ROUNDS and elapsed * (1 + 0.5 / len(self.rounds)) >= seconds:
                break

    # -- metrics ---------------------------------------------------------------

    def _rounds(self, traced: bool) -> list[dict]:
        return [r for r in self.rounds if r["traced"] == traced]

    def counts(self) -> tuple[int, int]:
        ops = [op for r in self.rounds for op in r["ops"]]
        return len(ops), sum(1 for op in ops if op["problems"])

    def op_medians(self, rounds: list[dict]) -> dict[str, tuple[float, float]]:
        """Per op tag: (tables, median calibrated seconds) over the rounds."""
        by_tag: dict[str, list] = {}
        for rnd in rounds:
            for op in rnd["ops"]:
                by_tag.setdefault(op["tag"], []).append(op)
        return {
            tag: (statistics.median(op["tables"] for op in ops),
                  statistics.median(op["cal_seconds"] for op in ops))
            for tag, ops in by_tag.items()
        }

    def end_to_end(self) -> dict:
        plain = self._rounds(False)
        ops = [v for v in self.op_medians(plain).values() if v[0]]
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": (_median(cal for cal, _ in self.setup_samples), "s"),
            "wall_s": (_median(r["cal_wall_s"] for r in plain), "s"),
            "tables_per_s": (_ratio(sum(t for t, _ in ops), sum(s for _, s in ops)), "1/s"),
            "peak_rss_mb": (max(own, kids) / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        plain, traced = self._rounds(False), self._rounds(True)
        n = len(traced)
        self_s, errors, counts, calls = {}, {}, {}, {}
        for rnd in traced:
            for job in rnd["summaries"]:
                s, speed = job["summary"], job["speed"]
                for target, source, scale in (
                    (self_s, "self_s", speed), (errors, "errors", 1.0), (counts, "counts", 1.0)
                ):
                    for key, value in s[source].items():
                        target[key] = target.get(key, 0.0) + value * scale / n
                for key, (_, total) in s["calls"].items():
                    calls[key] = calls.get(key, 0.0) + total * speed / n

        c = counts.get
        premium_s = sum(
            calls.get(f"bayes.{name}", 0.0)
            for name in ("bayes_freq_premium", "bayes_agg_premium_freqhist",
                         "bayes_agg_premium_fullhist")
        )
        m = {}
        for layer in LAYERS:
            if layer != "bayes":
                m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
            m[f"{layer}.errors"] = (errors.get(layer, 0.0), "count")
        m.update({
            "transition.matrices": (c("transition.matrices", 0.0), "count"),
            "transition.us_per_matrix": (
                _ratio(self_s.get("transition", 0.0), c("transition.matrices", 0.0), 1e6), "us"),
            "transition.matrix_mb": (c("transition.matrix_bytes", 0.0) / 1e6, "MB"),
            "stationary.chains": (c("stationary.chains", 0.0), "count"),
            "stationary.fields_per_table": (
                _ratio(c("stationary.fields", 0.0), c("relativity.tables", 0.0)), "ratio"),
            "quadrature.grids": (c("quadrature.grids", 0.0), "count"),
            "quadrature.quantile_s": (calls.get("quadrature.severity_marginal_quantile", 0.0), "s"),
            "relativity.tables": (c("relativity.tables", 0.0), "count"),
            "relativity.cache_hits": (
                sum(r["cache_hits"] for r in traced) / n if n else 0.0, "count"),
            "hmse.evals": (c("hmse.evals", 0.0), "count"),
            "simulate.path_years": (c("simulate.path_years", 0.0), "count"),
            "simulate.ns_per_path_year": (
                _ratio(self_s.get("simulate", 0.0), c("simulate.path_years", 0.0), 1e9), "ns"),
            "bayes.premiums": (c("bayes.premiums", 0.0), "count"),
            "bayes.premium_us": (_ratio(premium_s, c("bayes.premiums", 0.0), 1e6), "us"),
            "bayes.mc_self_s": (calls.get("bayes.mse_comparison_mc", 0.0), "s"),
        })
        for name, tag in VERB_METRICS.items():
            per_round = [sum(op["cal_seconds"] for op in r["ops"] if op["tag"] == tag)
                         for r in plain]
            m[name] = (_median(per_round), "s")
        verify_ops = [op for r in plain for op in r["ops"] if op.get("path_years")]
        m["path_years_per_s"] = (
            _ratio(sum(op["path_years"] for op in verify_ops),
                  sum(op["cal_seconds"] for op in verify_ops)), "1/s")
        attempted, failed = self.counts()
        m["failed_frac"] = (failed / attempted, "ratio")
        m["trace.overhead_s"] = (
            _median(r["cal_wall_s"] for r in traced) - _median(r["cal_wall_s"] for r in plain),
            "s")
        return m

    # -- output ----------------------------------------------------------------

    def report(self) -> tuple[dict, dict]:
        attempted, failed = self.counts()
        controls_ok = self.controls["run"] > 0 and self.controls["detected"] == self.controls["run"]
        metrics = self.per_layer() if self.trace else self.end_to_end()
        record = {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": self.trace,
            "environment": self.environment,
            "negative_controls": self.controls,
            "setup_samples_s": [{"calibrated": c, "measured": m} for c, m in self.setup_samples],
            "rounds": [
                {"traced": r["traced"], "cal_wall_s": r["cal_wall_s"], "wall_s": r["wall_s"],
                 "ops": [{k: op[k] for k in ("tag", "cal_seconds", "seconds", "tables",
                                             "problems")}
                         for op in r["ops"]]}
                for r in self.rounds
            ],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload.name}-seed{self.seed}-trace{int(self.trace)}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if self.trace:
            spans = [s for r in self.rounds for s in r["summaries"]]
            (results / f"{stem}-spans.json").write_text(json.dumps(spans))
        return {
            "correct": failed == 0 and controls_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": record["metrics"],
        }, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bonusmalus" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        bench.measure(args.seconds)
        result, record = bench.report()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print("environment: " + json.dumps(record["environment"]))
    for i, rnd in enumerate(record["rounds"]):
        ops = ", ".join(
            f"{op['tag']} {op['cal_seconds']:.3f} ({op['seconds']:.3f}) s" for op in rnd["ops"])
        print(f"round {i}{' traced' if rnd['traced'] else ''}: wall {rnd['cal_wall_s']:.3f} "
              f"({rnd['wall_s']:.3f}) s; {ops}")
        for op in rnd["ops"]:
            for problem in op["problems"]:
                print(f"  problem in {op['tag']}: {problem.strip()}")
    print(f"negative controls detected: {record['negative_controls']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
