"""Capture the default-seed reference outputs the benchmark compares against.

Run from the repository root, only at a commit whose outputs are the
reference (a change that alters output at the default precision must state
the difference, not re-capture silently)::

    python3 perfbench/capture_refs.py [WORKLOAD ...]
"""

from __future__ import annotations

import shutil
import sys

from run import HERE, Bench
from workloads import DEFAULT_SEED, WORKLOADS


def capture(name: str) -> None:
    bench = Bench(WORKLOADS[name], DEFAULT_SEED, trace=False)
    target = HERE / "refs" / name
    shutil.rmtree(target, ignore_errors=True)
    try:
        for ops in bench.jobs:
            result, error = bench.child({"ops": ops})
            problems = [p for op in result["ops"] for p in op["problems"]] if result else [error]
            if problems:
                raise SystemExit(f"{name}: outputs fail their checks: {problems}")
            out = bench.work / f"child-{bench.children}" / "out"
            for op in ops:
                if op.get("verb") != "verify":
                    shutil.copytree(out / op["tag"], target / op["tag"])
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(f"captured {target}")


if __name__ == "__main__":
    for workload in sys.argv[1:] or sorted(WORKLOADS):
        capture(workload)
