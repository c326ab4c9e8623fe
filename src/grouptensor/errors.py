"""Exception types shared across the package."""

from __future__ import annotations

# The default memory cap, in bytes, that `_check_bytes` estimates are held to.
DEFAULT_MAX_BYTES = 1 << 30


class BudgetExceeded(RuntimeError):
    """A coset enumeration did not close within its resource budget.

    Raised both when the count of defined cosets passes the requested
    budget and when the table would outgrow the allowed memory.  The
    condition is recoverable: retry with a larger budget, a different
    strategy, or a simplified presentation.
    """

    def __init__(self, message: str, *, defined: int, budget: int):
        super().__init__(message)
        self.defined = defined
        self.budget = budget


def _check_bytes(need: int, max_bytes: int, what: str):
    """Raise BudgetExceeded when `what` would need more than max_bytes."""
    if need > max_bytes:
        message = f"{what} would need about {need} bytes (memory cap {max_bytes} bytes)"
        raise BudgetExceeded(message, defined=0, budget=max_bytes)


class EnumerationCancelled(RuntimeError):
    """An enumeration stopped because its cancellation flag was set."""


class ParseError(ValueError):
    """Malformed input text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IncompatibleActions(ValueError):
    """A pair of group actions fails the compatibility equations.

    Carries the ``report`` describing the first violating triple.
    """

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class NotInvertibleInRing(ValueError):
    """Matrix inversion requested outside the supported exact classes."""


class InternalInvariantError(AssertionError):
    """A structural self-check failed; indicates a bug, not bad input."""
