"""Benchmark workloads and their seeded input generators.

A workload turns the benchmark seed into the jobs of one round.  A job is
one fresh child interpreter, and its ops run in order inside it, so the
``lru_cache``s of the package start cold for every job, as they do for a
command-line user.  A run repeats the same round until its time is up.

An op is a plain dict:

* ``cli``: one command-line verb on a bundled preset plus a generated JSON
  overlay; ``extra_thresholds`` are appended to the preset's published
  thresholds.
* ``freq_grid``: library calls over a grid of frequency rules.
* ``credibility``: the Monte Carlo premium comparison plus the three
  closed-form premiums over generated claim histories.

Each op has a ``tag``: its outputs are compared under ``refs/<workload>/<tag>``
and its time feeds the verb-level metric ``<tag>_s`` (dashes as underscores).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

# Single-class study presets that share the -1/+1 and -1/+1/+2 rule shapes,
# so a seeded pick changes the inputs but not the amount of work.
STUDY_PRESETS = ("ex2a", "ex2b", "ex2c", "ex3a", "ex3c", "ex4a", "ex4b", "ex4c")
# Study presets whose every level is visited often enough at 2e5 paths for
# the simulated relativities to be compared.
VERIFY_PRESETS = ("ex2a", "ex2b", "ex2c", "ex3a", "ex4b")
FREQ_MODELS = ("ex2a", "ex2c", "ex3a", "ex3c", "ex4a", "ex4c")
FREQ_MAX_LEVELS = (4, 9, 14, 19)
FREQ_STEPS = (1, 2, 3, 4)
DAT_CLASSES = 18
SEV_RULE = {"max_level": 9, "small_step": 1, "large_step": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Callable[[int], list]  # seed -> jobs of one round, each a list of ops


def _cli(verb: str, preset: str, overlay: dict, extra_thresholds=()) -> dict:
    return {
        "kind": "cli",
        "tag": verb,
        "verb": verb,
        "preset": preset,
        "overlay": overlay,
        "extra_thresholds": list(extra_thresholds),
    }


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def study_scan(seed: int) -> list:
    rng = random.Random(f"study-scan/{seed}")
    table_preset = rng.choice(STUDY_PRESETS)
    scan_preset = rng.choice(STUDY_PRESETS)
    # Published thresholds are multiples of 100; the extras end in 50 and
    # are distinct, so every seed scans the same number of thresholds.
    extra: set[float] = set()
    while len(extra) < 4:
        extra.add(round(_log_uniform(rng, 4000.0, 250000.0), -2) + 50.0)
    extra = sorted(extra)
    return [
        [_cli("reproduce-table", table_preset, {}, extra)],
        [_cli("hmse-scan", scan_preset, {}, extra)],
    ]


def portfolio_dat(seed: int) -> list:
    rng = random.Random(f"portfolio-dat/{seed}")
    levels = sorted(round(rng.uniform(0.70, 0.995), 3) for _ in range(3))
    base = {
        "model": {"weights": [1.0 / DAT_CLASSES] * DAT_CLASSES},
        "rules": [SEV_RULE],
        "thresholds": [],
    }
    return [
        [_cli("relativities", "dat", {**base, "quantiles": levels[:1]})],
        [_cli("hmse-scan", "dat", {**base, "quantiles": levels[1:]})],
    ]


def freq_design(seed: int) -> list:
    points = [
        [preset, z, h]
        for preset in FREQ_MODELS
        for z in FREQ_MAX_LEVELS
        for h in FREQ_STEPS
        if h <= z
    ]
    random.Random(f"freq-design/{seed}").shuffle(points)
    return [[{"kind": "freq_grid", "tag": "freq-grid", "nodes": 64, "points": points}]]


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's product method; the means here are small.
    limit, k, product = math.exp(-mean), 0, rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


def mc_verify(seed: int) -> list:
    rng = random.Random(f"mc-verify/{seed}")
    preset = rng.choice(VERIFY_PRESETS)
    threshold = round(_log_uniform(rng, 8000.0, 100000.0), -2)
    verify = _cli(
        "verify",
        preset,
        {
            "rules": [{"max_level": 9, "step": 1}, {**SEV_RULE, "threshold": threshold}],
            "simulation": {"paths": 200_000, "seed": rng.randrange(1 << 31)},
        },
    )
    bayes = {"freq_rate": 0.5, "sev_rate": 3.0, "weight1": 0.5, "rate1": 2.0, "rate2": 2.0 / 3.0}
    histories = [[[], []]]  # the empty history prices at the a priori rates
    for _ in range(999):
        rate = bayes["rate1"] if rng.random() < bayes["weight1"] else bayes["rate2"]
        theta1, theta2 = rng.expovariate(rate), rng.expovariate(rate)
        counts = [_poisson(rng, bayes["freq_rate"] * theta1) for _ in range(rng.randint(1, 10))]
        sizes = [_poisson(rng, bayes["sev_rate"] * theta2 * n) for n in counts]
        histories.append([counts, sizes])
    credibility = {
        "kind": "credibility",
        "tag": "credibility",
        "bayes": bayes,
        "years": 5,
        "mc_paths": 500_000,
        "mc_seed": rng.randrange(1 << 31),
        "histories": histories,
    }
    return [[verify, credibility]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study-scan",
            "reproduce-table and hmse-scan on single-class study presets; the "
            "severity transition builder dominates",
            study_scan,
        ),
        Workload(
            "portfolio-dat",
            "relativities and hmse-scan on the 18-class dat preset: the only "
            "multi-class batch and quantile root-finding",
            portfolio_dat,
        ),
        Workload(
            "freq-design",
            "library grid of frequency rules at 64 nodes; never calls the "
            "severity builder, so a severity-builder change reads flat",
            freq_design,
        ),
        Workload(
            "mc-verify",
            "verify at 2e5 paths plus credibility premiums; the only workload "
            "for the simulator and bayes",
            mc_verify,
        ),
    )
}
