"""Shared fixtures: study models and small helper factories."""

from __future__ import annotations

import math
import tracemalloc

import pytest

from bonusmalus import (
    DegenerateEffects,
    GammaSeverity,
    LognormalCopulaEffects,
    MixtureExponentialEffects,
    ModelSpec,
    Portfolio,
    RiskClass,
)
from bonusmalus import relativity
from bonusmalus.cli import parse_model
from bonusmalus.presets import get_preset
from bonusmalus.stationary import _stationary_fields
from oracles import node_rows

SEV_RATE = math.exp(8.8)
GAMMA_SHAPE = 0.67


def study_model(
    corr: float,
    freq_rate: float = 0.5,
    log_var1: float = 0.99,
    log_var2: float = 0.29,
    sev_rate: float = SEV_RATE,
) -> ModelSpec:
    """Single-class lognormal-copula model used throughout the numeric study."""
    return ModelSpec(
        Portfolio([RiskClass(1.0, freq_rate, sev_rate)]),
        GammaSeverity(1.0 / GAMMA_SHAPE),
        LognormalCopulaEffects(corr, log_var1, log_var2),
    )


def degenerate_model(freq_rate: float = 0.5, sev_rate: float = SEV_RATE) -> ModelSpec:
    return ModelSpec(
        Portfolio([RiskClass(1.0, freq_rate, sev_rate)]),
        GammaSeverity(1.0 / GAMMA_SHAPE),
        DegenerateEffects(),
    )


def dat_model() -> ModelSpec:
    """The 18-cell ``dat`` preset with equal class weights."""
    cfg = get_preset("dat")
    cfg["model"]["weights"] = [1.0 / 18] * 18
    return parse_model(cfg)


def stationary_field(model, rule, grid):
    """Stationary rows ``(classes, grid.size, levels)`` of one rule: a one-rule pass, over nodes."""
    return node_rows(_stationary_fields(model, [rule], grid)[0], rule, grid)


def traced_peak(call):
    """Run ``call()`` under ``tracemalloc``: its result, peak bytes traced and bytes left held."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


@pytest.fixture
def fresh_cache():
    """Empty the engine's moment cache, so every field the test asks for is solved in it.

    Its hit and miss counts restart from zero too.
    """
    relativity._MOMENTS.cache_clear()


@pytest.fixture(scope="session")
def base_model() -> ModelSpec:
    """The study's base parameter block (strongly negative dependence)."""
    return study_model(-0.8)


@pytest.fixture(scope="session")
def mixture_effects() -> MixtureExponentialEffects:
    return MixtureExponentialEffects(0.5, 2.0, 2.0 / 3.0)
