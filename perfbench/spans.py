"""Span recorder for traced benchmark runs.

The recorder measures each layer from outside: it wraps the public functions
of the package modules (plus the batched stationary solver, whose batch size
is the layer's work count) and rebinds every module attribute that refers to
one of them, so calls through names re-bound by importing modules, such as
``stationary.build_matrix_sev`` or ``cli.simulate_paths``, are timed too.

Every wrapped call updates its layer's self time: the call's duration minus
the time its wrapped callees took.  Calls made once per quadrature node or
per claim history are folded into a per-function count and total; every
other call also keeps a span record (name, start, end, parent) in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "quadrature",
    "transition",
    "stationary",
    "relativity",
    "hmse",
    "simulate",
    "verify",
    "bayes",
)

# Private functions that are a layer's unit of work and so are traced too.
EXTRA = {"stationary": ("_stationary_batch",)}

# Called once per node, per claim history or per root-finding step: counted
# and summed, but no span record is kept.
FOLDED = frozenset(
    {
        "transition.build_matrix",
        "transition.build_matrix_freq",
        "transition.build_matrix_sev",
        "transition.claim_count_pmf",
        "transition.severity_exceedance",
        "quadrature.severity_cdf",
        "bayes.bayes_freq_premium",
        "bayes.bayes_agg_premium_freqhist",
        "bayes.bayes_agg_premium_fullhist",
        "bayes.posterior_density",
    }
)


class Recorder:
    """Collects spans, folded call totals and per-layer counters."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.enabled = False
        self.stack: list[list] = []  # [span id, time spent in wrapped callees]
        self.spans: list[tuple] = []
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [count, seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._last_error = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' functions and rebind every alias in the package."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules.get(f"bonusmalus.{layer}")
            if module is None:
                continue
            names = [
                name
                for name, value in vars(module).items()
                if inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
            ]
            names += [name for name in EXTRA.get(layer, ()) if hasattr(module, name)]
            for name in names:
                fn = getattr(module, name)
                wrapped[id(fn)] = self._wrap(fn, layer, f"{layer}.{name}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bonusmalus" and not mod_name.startswith("bonusmalus."):
                continue
            for attr, value in list(vars(module).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

    def _wrap(self, fn, layer: str, name: str):
        folded = name in FOLDED
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1][0] if self.stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - start
                if self.stack:
                    self.stack[-1][1] += duration
                self.self_s[layer] += duration - frame[1]
                totals = self.calls[name]
                totals[0] += 1
                totals[1] += duration
                if not folded:
                    self.spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "calls": {name: list(v) for name, v in self.calls.items()},
        }

    def dump(self, path) -> None:
        """Write spans and totals; span times are relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        spans = [
            {
                "trace": self.trace_id,
                "id": sid,
                "parent": parent,
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
            }
            for sid, parent, name, start, end in sorted(self.spans, key=lambda s: s[3])
        ]
        with open(path, "w") as fh:
            json.dump({"summary": self.summary(), "spans": spans}, fh)


# -- per-layer work counters: (counts, args, kwargs, result) -> None ---------


def _count_matrix(counts, args, kwargs, result):
    counts["transition.matrices"] += 1
    counts["transition.matrix_bytes"] += result.nbytes


def _count_chains(counts, args, kwargs, result):
    counts["stationary.chains"] += result.shape[0]


def _count_path_years(counts, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    counts["simulate.path_years"] += cfg.n_paths * (cfg.burn_in_years + cfg.sample_years)


def _counter(key: str):
    def count(counts, args, kwargs, result):
        counts[key] += 1

    return count


_COUNTERS = {
    "transition.build_matrix_freq": _count_matrix,
    "transition.build_matrix_sev": _count_matrix,
    "stationary._stationary_batch": _count_chains,
    "stationary.stationary_distribution": _counter("stationary.chains"),
    "stationary.conditional_stationary_field": _counter("stationary.fields"),
    "quadrature.build_grid": _counter("quadrature.grids"),
    "quadrature.marginal_grid": _counter("quadrature.grids"),
    "relativity.optimal_relativity_frequency": _counter("relativity.tables"),
    "relativity.optimal_relativity_dependent": _counter("relativity.tables"),
    "relativity.optimal_relativity_severity": _counter("relativity.tables"),
    "hmse.hmse_eval": _counter("hmse.evals"),
    "simulate.simulate_paths": _count_path_years,
    "bayes.bayes_freq_premium": _counter("bayes.premiums"),
    "bayes.bayes_agg_premium_freqhist": _counter("bayes.premiums"),
    "bayes.bayes_agg_premium_fullhist": _counter("bayes.premiums"),
}
