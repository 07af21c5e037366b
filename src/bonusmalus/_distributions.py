"""Gamma and Poisson distribution functions on ``scipy.special`` alone.

``scipy.stats`` evaluates these laws with the same ``scipy.special`` kernels,
but importing it costs more than everything else the package loads.  Each
function here calls the kernel ``scipy.stats`` calls, on the same arguments,
and reproduces its edge handling, so results are bitwise those of
``scipy.stats.gamma`` and ``scipy.stats.poisson``: NaN for an invalid
parameter or a NaN argument, the limits at the support edges and at +-inf.
A 0-d result comes back as a numpy scalar, as from ``scipy.stats``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, pdtr, pdtrc, xlogy


def _standardized(x, shape: float, scale):
    """``x / scale`` in float64, and the mask of valid parameters, broadcast together."""
    x = np.asarray(x)
    scale = np.asarray(scale)
    y = np.asarray(x / scale, dtype=np.promote_types(x.dtype, np.float64))
    valid = np.broadcast_to((shape > 0) & (scale > 0), y.shape)
    return y, valid


def gamma_cdf(x, shape: float, scale, upper: bool = False):
    """Gamma CDF at ``x``, or the survival function when ``upper``."""
    y, valid = _standardized(x, shape, scale)
    inside = valid & (y > 0) & (y < np.inf)
    edge = valid & ((y <= 0) if upper else (y >= np.inf))
    out = np.zeros(y.shape)
    out[~valid | np.isnan(y)] = np.nan
    out[edge] = 1.0
    out[inside] = (gammaincc if upper else gammainc)(shape, y[inside])
    return out[()]


def gamma_pdf(x, shape: float, scale):
    """Gamma density at ``x``."""
    y, valid = _standardized(x, shape, scale)
    inside = valid & (y >= 0)
    out = np.zeros(y.shape)
    out[~valid | np.isnan(y)] = np.nan
    y_in = y[inside]
    log_pdf = xlogy(shape - 1.0, y_in) - y_in - gammaln(shape)
    out[inside] = np.exp(log_pdf) / np.broadcast_to(scale, y.shape)[inside]
    return out[()]


def poisson_cdf(k, mean, upper: bool = False):
    """Poisson CDF at ``k``, or the survival function when ``upper``."""
    k, mean = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(mean))
    valid = mean >= 0
    inside = valid & (k >= 0) & (k < np.inf)
    edge = valid & ((k < 0) if upper else (k >= np.inf))
    out = np.zeros(k.shape)
    out[edge] = 1.0
    out[~valid | np.isnan(k)] = np.nan
    kernel = pdtrc if upper else pdtr
    out[inside] = np.clip(kernel(np.floor(k[inside]), mean[inside]), 0, 1)
    return out[()]
