"""Shared exception types."""

from __future__ import annotations


class ComselError(Exception):
    """Base class for errors raised by this package.

    ``code`` is a short machine-readable name for the problem; the CLI
    prints it as ``error[code]``.
    """

    code = "internal"


class InputError(ComselError, ValueError):
    """Invalid input data: unknown identifiers, malformed values, bad bounds.

    Each instance carries its own ``code``.
    """

    def __init__(self, message: str, code: str = "invalid-input"):
        super().__init__(message)
        self.code = code


class ContractViolation(ComselError):
    """An operation was invoked outside its stated preconditions."""

    code = "contract"


class BudgetExceededError(ComselError):
    """Work past a fixed budget: brute-force enumeration past the oracle's,
    or a graph reduction past ``generators.MAX_REDUCTION_ENTRIES``."""

    code = "budget"

