"""Exceptions: ``ModelValidationError`` for any wrong input, the rest for failed computations."""

from __future__ import annotations


class BonusMalusError(Exception):
    """Base class for all errors raised by this package."""


class ModelValidationError(BonusMalusError, ValueError):
    """A wrong input value: a model, rule, history, setting or argument; the message names it."""


class SingularSystemError(BonusMalusError):
    """Stationary rows fail the fixed-point check (the chain is not unichain)."""


class NonFiniteIntegrandError(BonusMalusError):
    """An integrand evaluated to NaN or infinity on a quadrature node."""


class BracketingFailureError(BonusMalusError):
    """A root-finding bracket could not be established."""


class InsufficientOccupancyError(BonusMalusError):
    """A simulated level was visited too rarely to estimate conditional moments."""
