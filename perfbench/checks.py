"""Output checks of the benchmark.

* At the default seed, every output file must be byte-identical to the
  reference captured under ``refs/<workload>/<op tag>/``.
* At any seed, invariants of public calls must hold: ``hmse_eval`` of a
  table matches its ``hmse_raw``, ``balance_check`` residuals stay at
  roundoff and level distributions sum to one.
* The oracle battery may miss 3 sigma by chance; it fails here
  only on an abnormal exit or a gap beyond ``SIGMA_FAIL``.

Each check has a negative control: the same check applied to a perturbed
reference or result must report a problem, or the run is not correct.
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

SIGMA_FAIL = 6.0
REL_TOL = 1e-8
SUM_TOL = 1e-9
_SIGMA_LINE = re.compile(
    r"^\[(pass|FAIL)\] .*: levels ([0-9.]+) sigma, relativities ([0-9.]+) sigma, "
    r"score ([0-9.]+) sigma$"
)


def fmt(x) -> str:
    """Default-precision number formatting, as the command line writes it."""
    x = float(x)
    return "undefined" if math.isnan(x) else f"{x:.3f}"


# -- invariants of library results -------------------------------------------


def distribution_problems(label: str, dist) -> list[str]:
    total = float(sum(dist))
    if not abs(total - 1.0) <= SUM_TOL or min(dist) < -SUM_TOL:
        return [f"{label}: level distribution sums to {total!r}"]
    return []


def table_problems(bm, model, table, rule, nodes: int) -> list[str]:
    """Score, balance and mass invariants of one relativity table."""
    label = f"{table.family} table for {rule}"
    problems = distribution_problems(label, table.stationary)
    if table.family != "frequency":
        score = bm.hmse_eval(model, table, rule, nodes).hmse_raw
        if not abs(score - table.hmse_raw) <= REL_TOL * max(abs(table.hmse_raw), 1.0):
            problems.append(f"{label}: hmse_eval {score!r} != hmse_raw {table.hmse_raw!r}")
    balance = bm.balance_check(model, table)
    defined = [p for p in table.stationary if p > 1e-14]
    scale = max(abs(balance.global_rhs), 1.0) / min(defined)
    if not balance.max_level_residual <= REL_TOL * scale:
        problems.append(f"{label}: level residual {balance.max_level_residual!r}")
    if not balance.global_gap <= REL_TOL * max(abs(balance.global_rhs), 1.0):
        problems.append(f"{label}: global balance gap {balance.global_gap!r}")
    return problems


def table_control_detected(bm, model, table, rule, nodes: int) -> bool:
    """Negative control: a table with a perturbed score must fail."""
    bad = dataclasses.replace(
        table,
        hmse_raw=table.hmse_raw * (1.0 + 1e-6) + 1e-6,
        stationary=table.stationary * (1.0 + 1e-6),
    )
    return bool(table_problems(bm, model, bad, rule, nodes))


# -- the oracle battery -------------------------------------------------------


def verify_problems(code: int, stdout: str, expected_rules: int) -> list[str]:
    if code not in (0, 4):
        return [f"verify exited with code {code}"]
    rows = [_SIGMA_LINE.match(line) for line in stdout.splitlines() if line.startswith("[")]
    if len(rows) != expected_rules or not all(rows):
        return [f"verify printed {len(rows)} parsable result lines, expected {expected_rules}"]
    worst = max(float(g) for m in rows for g in m.groups()[1:])
    if worst > SIGMA_FAIL:
        return [f"verify gap {worst} sigma exceeds {SIGMA_FAIL}"]
    return []


def verify_control_detected(stdout: str, expected_rules: int) -> bool:
    """Negative control: a battery line far beyond 3 sigma must fail."""
    bad = re.sub(r"levels [0-9.]+ sigma", "levels 50.00 sigma", stdout, count=1)
    return bool(verify_problems(0, bad, expected_rules))


# -- byte references ----------------------------------------------------------


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_files(actual: dict[str, bytes], expected: dict[str, bytes]) -> list[str]:
    problems = []
    for name in sorted(set(actual) | set(expected)):
        if name not in expected:
            problems.append(f"unexpected output {name}")
        elif name not in actual:
            problems.append(f"missing output {name}")
        elif actual[name] != expected[name]:
            problems.append(f"output {name} differs from its reference")
    return problems


def reference_problems(out_dir: Path, ref_dir: Path) -> list[str]:
    if not ref_dir.is_dir():
        return [f"no reference directory {ref_dir.name}"]
    return compare_files(_files(out_dir), _files(ref_dir))


def reference_control_detected(out_dir: Path) -> bool:
    """Negative control: the outputs against a one-digit-perturbed copy must fail."""
    actual = _files(out_dir)
    if not actual:
        return True  # nothing to compare: the reference check itself fails
    name = next(iter(actual))
    data = bytearray(actual[name])
    digits = [i for i, b in enumerate(data) if 0x30 <= b <= 0x39]
    if not digits:
        data += b"0"
    else:
        i = digits[-1]
        data[i] = 0x30 + (data[i] - 0x30 + 1) % 10
    return bool(compare_files(actual, {**actual, name: bytes(data)}))
