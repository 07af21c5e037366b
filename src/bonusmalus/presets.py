"""Bundled run configurations.

Each preset is a plain JSON-compatible dict with the same schema as a user
config file (see docs/config_schema.md); a user config overlays a preset.
The ``ex*`` presets cover the single-class study grid; the ``dat`` preset
carries the fitted 18-cell classification model and requires user-supplied
class weights, which are not part of the published estimates.
"""

from __future__ import annotations

import copy
import math

from .errors import ModelValidationError

_STUDY_THRESHOLDS = [8200.0, 16800.0, 48100.0, 94300.0]


def _study_config(
    corr: float,
    freq_rate: float = 0.5,
    log_var2: float = 0.29,
    small_step: int = 1,
    large_step: int = 2,
    freq_step: int = 1,
    thresholds=None,
) -> dict:
    return {
        "model": {
            "classes": [
                {"weight": 1.0, "freq_rate": freq_rate, "sev_rate": math.exp(8.8)}
            ],
            "severity": {"kind": "gamma", "dispersion": 1.0 / 0.67},
            "effects": {
                "kind": "lognormal_copula",
                "corr": corr,
                "log_var1": 0.99,
                "log_var2": log_var2,
            },
        },
        "rules": [
            {"max_level": 9, "step": freq_step},
            {"max_level": 9, "small_step": small_step, "large_step": large_step},
        ],
        "thresholds": list(thresholds if thresholds is not None else _STUDY_THRESHOLDS),
        "quadrature_nodes": 32,
        "precision": 3,
        "format": "csv",
        "simulation": {"paths": 1_000_000, "seed": 20260809, "burn_in_years": 120},
    }


# Fitted classification model: log-linear rates over entity type and coverage
# band, gamma shape 0.670, lognormal effect variances 0.992 / 0.293 with
# latent correlation -0.447.
_FREQ_COEF = {
    "intercept": -2.767,
    "entity": {
        "miscellaneous": 0.0,
        "city": 0.597,
        "county": 1.907,
        "school": 0.411,
        "town": -1.351,
        "village": -0.012,
    },
    "coverage": {"band1": 0.0, "band2": 1.247, "band3": 2.139},
}
_SEV_COEF = {
    "intercept": 8.829,
    "entity": {
        "miscellaneous": 0.0,
        "city": -0.036,
        "county": 0.341,
        "school": -0.173,
        "town": 0.497,
        "village": 0.316,
    },
    "coverage": {"band1": 0.0, "band2": 0.180, "band3": -0.027},
}


def _data_cells() -> list[dict]:
    cells = []
    for entity, f_ent in _FREQ_COEF["entity"].items():
        for band, f_cov in _FREQ_COEF["coverage"].items():
            cells.append(
                {
                    "label": f"{entity}/{band}",
                    "freq_rate": math.exp(_FREQ_COEF["intercept"] + f_ent + f_cov),
                    "sev_rate": math.exp(
                        _SEV_COEF["intercept"]
                        + _SEV_COEF["entity"][entity]
                        + _SEV_COEF["coverage"][band]
                    ),
                }
            )
    return cells


def _data_config() -> dict:
    return {
        # Cell weights are not published; supply "model.weights" (18 values,
        # one per cell in listed order) through a config overlay.
        "model": {
            "classes_template": _data_cells(),
            "severity": {"kind": "gamma", "dispersion": 1.0 / 0.670},
            "effects": {
                "kind": "lognormal_copula",
                "corr": -0.447,
                "log_var1": 0.992,
                "log_var2": 0.293,
            },
        },
        "rules": [
            {"max_level": 9, "small_step": 1, "large_step": 2},
            {"max_level": 9, "small_step": 2, "large_step": 3},
        ],
        "quantiles": [0.75, 0.90, 0.99, 0.999],
        "quadrature_nodes": 32,
        "precision": 3,
        "format": "csv",
        "simulation": {"paths": 1_000_000, "seed": 20260809, "burn_in_years": 120},
    }


PRESETS: dict[str, dict] = {
    "ex2a": _study_config(-0.8),
    "ex2b": _study_config(-0.4),
    "ex2c": _study_config(0.4),
    "ex3a": _study_config(-0.45),
    "ex3b": _study_config(-0.45, freq_step=2, small_step=2, large_step=3),
    "ex3c": _study_config(-0.45, freq_rate=2.0),
    "ex4a": _study_config(0.0, log_var2=0.01, thresholds=[9000, 16800, 38000, 60400]),
    "ex4b": _study_config(0.0, log_var2=0.29),
    "ex4c": _study_config(0.0, log_var2=1.0, thresholds=[6400, 16100, 68100, 182300]),
    "dat": _data_config(),
}


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        available = ", ".join(sorted(PRESETS))
        raise ModelValidationError(f"unknown preset {name!r}; available: {available}")
    return copy.deepcopy(PRESETS[name])
