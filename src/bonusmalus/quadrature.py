"""Deterministic quadrature over the bivariate random effect.

Lognormal-copula effects are integrated with a tensor Gauss-Hermite grid in
the latent bivariate normal space; mixture-exponential effects with a
Gauss-Laguerre grid per mixture branch.  Grids are immutable and reusable
across all analyses of a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss

from ._distributions import gamma_cdf, poisson_cdf
from .errors import BracketingFailureError, ModelValidationError, NonFiniteIntegrandError
from .model import (
    DegenerateEffects,
    GammaSeverity,
    LognormalCopulaEffects,
    MixtureExponentialEffects,
    ModelSpec,
    PoissonSeverity,
    RandomEffectJoint,
    SeverityLaw,
    _instance,
    _number,
    _vector,
)

DEFAULT_NODES = 32
MIN_NODES = 8


@dataclass(frozen=True)
class QuadratureGrid:
    """Weighted nodes ``(theta1, theta2)`` approximating the joint effect law.

    Weights sum to one (up to the scheme's own truncation error); node means
    reproduce the unit effect means.  On construction the three arrays must
    be flat and of one non-zero length, the nodes finite and positive and the
    weights finite and non-negative; float arrays are kept as they are.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2", "weights"):
            object.__setattr__(self, name, _vector(getattr(self, name), name))
        sizes = {self.theta1.size, self.theta2.size, self.weights.size}
        if len(sizes) != 1 or 0 in sizes:
            raise ModelValidationError(
                f"grid arrays need one non-zero length, got {self.theta1.size}, "
                f"{self.theta2.size} and {self.weights.size}"
            )
        for name in ("theta1", "theta2"):
            nodes = getattr(self, name)
            if not np.all(np.isfinite(nodes) & (nodes > 0.0)):
                raise ModelValidationError(f"grid nodes '{name}' must be finite and positive")
        if not np.all(np.isfinite(self.weights) & (self.weights >= 0.0)):
            raise ModelValidationError("grid weights must be finite and non-negative")

    @property
    def size(self) -> int:
        return self.weights.size


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


# (rule, node count) pairs numpy cannot build: lru_cache keeps no exception.
_REFUSED: set[tuple[str, int]] = set()


def _gauss_rule(build, n: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """numpy's rule ``build(n)``, refused where building it overflows (past a few hundred nodes)."""
    if (name, n) not in _REFUSED:
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                rule = build(n)
        except FloatingPointError:
            rule = (np.array([math.nan]),)
        if all(np.all(np.isfinite(part)) for part in rule):
            return rule
        _REFUSED.add((name, n))
    raise ModelValidationError(f"quadrature_nodes={n} overflows numpy's {name} rule")


@lru_cache(maxsize=16)
def _hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Nodes/weights for a standard normal: integrate f(z) phi(z) dz.
    x, w = _gauss_rule(hermgauss, n, "Gauss-Hermite")
    return _read_only(math.sqrt(2.0) * x, w / math.sqrt(math.pi))


@lru_cache(maxsize=16)
def _laguerre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return _read_only(*_gauss_rule(laggauss, n, "Gauss-Laguerre"))


def _branches(effects: MixtureExponentialEffects) -> list[tuple[float, float]]:
    """``(weight, rate)`` of the mixture branches that carry mass."""
    pairs = ((effects.weight1, effects.rate1), (1.0 - effects.weight1, effects.rate2))
    return [(weight, rate) for weight, rate in pairs if weight != 0.0]


def _lognormal(log_var: float, z: np.ndarray) -> np.ndarray:
    if log_var == 0.0:
        return np.ones_like(z)
    sigma = math.sqrt(log_var)
    return np.exp(-0.5 * log_var + sigma * z)


def build_grid(effects: RandomEffectJoint, n: int = DEFAULT_NODES) -> QuadratureGrid:
    """Build the joint quadrature grid for a random-effect law.

    ``n`` is the node count per dimension (and per mixture branch) and must be
    at least 8 for the mean-one checks to hold at their stated tolerances,
    and no more than numpy's Gauss rule builds without overflow.
    """
    n = _number(n, "n", whole=True)
    if isinstance(effects, DegenerateEffects):
        one = np.array([1.0])
        return QuadratureGrid(one, one.copy(), one.copy())
    if n < MIN_NODES:
        raise ModelValidationError(f"need at least {MIN_NODES} nodes per dimension, got {n}")
    if isinstance(effects, LognormalCopulaEffects):
        z, w = _hermite_nodes(n)
        z1 = np.repeat(z, n)
        z2_orth = np.tile(z, n)
        weights = np.outer(w, w).ravel()
        rho = effects.corr
        z2 = rho * z1 + math.sqrt(max(1.0 - rho * rho, 0.0)) * z2_orth
        theta1 = _lognormal(effects.log_var1, z1)
        theta2 = _lognormal(effects.log_var2, z2)
        return QuadratureGrid(theta1, theta2, weights)
    if isinstance(effects, MixtureExponentialEffects):
        t, v = _laguerre_nodes(n)
        parts = []
        for branch_weight, rate in _branches(effects):
            nodes = t / rate
            th1 = np.repeat(nodes, n)
            th2 = np.tile(nodes, n)
            wts = branch_weight * np.outer(v, v).ravel()
            parts.append((th1, th2, wts))
        theta1 = np.concatenate([p[0] for p in parts])
        theta2 = np.concatenate([p[1] for p in parts])
        weights = np.concatenate([p[2] for p in parts])
        return QuadratureGrid(theta1, theta2, weights)
    raise ModelValidationError(f"no quadrature scheme for {type(effects).__name__}")


def marginal_grid(
    effects: RandomEffectJoint, component: int, n: int = DEFAULT_NODES
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted nodes for one effect marginal (``component`` is 1 or 2)."""
    n = _number(n, "n", whole=True)
    if _number(component, "component", whole=True) not in (1, 2):
        raise ModelValidationError("component must be 1 or 2")
    if isinstance(effects, DegenerateEffects):
        return np.array([1.0]), np.array([1.0])
    if n < MIN_NODES:
        raise ModelValidationError(f"need at least {MIN_NODES} nodes per dimension, got {n}")
    if isinstance(effects, LognormalCopulaEffects):
        log_var = effects.log_var1 if component == 1 else effects.log_var2
        if log_var == 0.0:
            return np.array([1.0]), np.array([1.0])
        z, w = _hermite_nodes(n)
        return _lognormal(log_var, z), w.copy()
    if isinstance(effects, MixtureExponentialEffects):
        t, v = _laguerre_nodes(n)
        values, weights = [], []
        for branch_weight, rate in _branches(effects):
            values.append(t / rate)
            weights.append(branch_weight * v)
        return np.concatenate(values), np.concatenate(weights)
    raise ModelValidationError(f"no quadrature scheme for {type(effects).__name__}")


def severity_cdf(x, mean, law: SeverityLaw, upper: bool = False):
    """Conditional claim-size CDF at ``x``, or its survival function when ``upper``."""
    if isinstance(law, GammaSeverity):
        shape = law.shape
        return gamma_cdf(x, shape, np.asarray(mean) / shape, upper)
    if isinstance(law, PoissonSeverity):
        return poisson_cdf(np.floor(x), mean, upper)
    raise ModelValidationError(f"no claim-size law for {type(law).__name__}")


def severity_marginal_quantile(
    p: float,
    model: ModelSpec,
    n: int = DEFAULT_NODES,
) -> float:
    """Quantile of the portfolio-marginal claim-size distribution.

    Solves ``F(x) = p`` where ``F`` mixes the conditional severity CDF over
    classes (portfolio weights) and over the severity effect marginal.  The
    root is found by Brent's method on ``[0, hi]`` with absolute tolerance
    1e-12 and relative tolerance 1e-10.  A level the claim-size mass at zero
    already reaches has no positive quantile and raises ``ModelValidationError``.
    """
    _instance(model, ModelSpec, "model")
    p = _number(p, "p")
    if not 0.0 < p < 1.0:
        raise ModelValidationError(f"quantile level must lie in (0, 1), got {p}")
    theta2, w2 = marginal_grid(model.effects, 2, n)
    class_w = model.portfolio.weights
    means = np.outer(model.portfolio.sev_rates, theta2)  # (K, nodes)
    joint_w = np.outer(class_w, w2)
    known: dict[float, float] = {}  # the root search starts from the bracket's two ends

    def cdf(x: float) -> float:
        if x not in known:
            known[x] = float(np.sum(joint_w * severity_cdf(x, means, model.severity)))
        return known[x]

    at_zero = cdf(0.0)
    if at_zero >= p:
        raise ModelValidationError(
            f"quantile level {p} is unattainable: the claim-size mass at zero is {at_zero:.6g}"
        )
    hi = float(np.max(means)) or 1.0
    lo = 0.0
    for _ in range(200):
        if cdf(hi) >= p:
            break
        hi *= 2.0
    else:
        raise BracketingFailureError(f"could not bracket the {p} quantile")
    return _brentq(lambda x: cdf(x) - p, lo, hi)


def _brentq(f, xa: float, xb: float, xtol=1e-12, rtol=1e-10, maxiter=200) -> float:
    """Root of ``f`` in ``[xa, xb]`` by Brent's method.

    A statement-by-statement port of the C routine behind
    ``scipy.optimize.brentq`` (``Zeros/brentq.c``); Python floats are IEEE
    doubles, so the iterates and the root are bitwise the same.  Raises
    ``NonFiniteIntegrandError`` on a NaN function value and
    ``BracketingFailureError`` when the endpoint values have equal signs or
    ``maxiter`` iterations do not converge.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NonFiniteIntegrandError(f"the function value at x={x:.6g} is NaN")
        return fx

    def signbit(v: float) -> bool:
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if signbit(fpre) == signbit(fcur):
        raise BracketingFailureError(
            f"f(a) and f(b) must have different signs, got f({xa})={fpre} and f({xb})={fcur}"
        )
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and signbit(fpre) != signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise BracketingFailureError(f"failed to converge after {maxiter} iterations, value is {xcur}")
