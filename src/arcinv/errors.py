"""Exception types shared across the package.

The command line maps these onto distinct exit codes, so the split matters:
malformed input documents, violated mathematical preconditions and exhausted
iteration budgets are three different kinds of failure.
"""

from __future__ import annotations


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class NotInSingularLocus(PreconditionError):
    """The chosen center fails the order >= weight test for some generator."""


class DocumentError(ValueError):
    """An input document cannot be parsed into a valid object."""


class BudgetExhausted(RuntimeError):
    """An iteration finished its step budget without reaching a verdict."""
