"""The package's three failures: a wrong input, too few simulated visits, a failed computation."""


class BonusMalusError(Exception):
    """A computation failed on valid input; also the base class of the other two."""


class ModelValidationError(BonusMalusError, ValueError):
    """A wrong input value: a model, rule, history, setting or argument; the message names it."""


class InsufficientOccupancyError(BonusMalusError):
    """A simulated level was visited too rarely to estimate conditional moments."""
