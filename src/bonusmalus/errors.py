"""Exception hierarchy for the bonusmalus package."""

from __future__ import annotations


class BonusMalusError(Exception):
    """Base class for all errors raised by this package."""


class ModelValidationError(BonusMalusError, ValueError):
    """A model specification violates a structural invariant."""


class NonUnitWeightsError(ModelValidationError):
    """Portfolio class weights do not sum to one."""


class NonUnitEffectMeanError(ModelValidationError):
    """A random-effect marginal does not have mean one."""


class InvalidRuleError(ModelValidationError):
    """A transition rule violates its constraints (level count, penalty steps)."""


class InconsistentHistoryError(ModelValidationError):
    """A claim history is malformed or reports positive severity in a claim-free year."""


class SingularSystemError(BonusMalusError):
    """Stationary rows fail the fixed-point check (the chain is not unichain)."""


class UnsupportedEffectsError(BonusMalusError):
    """No quadrature scheme is available for the given random-effect law."""


class NonFiniteIntegrandError(BonusMalusError):
    """An integrand evaluated to NaN or infinity on a quadrature node."""


class BracketingFailureError(BonusMalusError):
    """A root-finding bracket could not be established."""


class LevelMismatchError(BonusMalusError, ValueError):
    """A relativity table's level count does not match the rule it is scored under."""


class InsufficientOccupancyError(BonusMalusError):
    """A simulated level was visited too rarely to estimate conditional moments."""
