"""Exception types shared across the package.

The engine distinguishes hard usage errors (bad input, mixed rings,
dimension mismatches) from *inconclusive* outcomes, where a bounded
search ran out of budget without producing a wrong answer.  The CLI
maps the former to exit code 1 and the latter to exit code 2.
"""


class MCMError(Exception):
    """Base class for all package errors."""


class UsageError(MCMError):
    """Invalid input or misuse of an operation (precondition violation)."""


class Inconclusive(MCMError):
    """A bounded computation could not certify an answer.

    Never raised in place of a *wrong* answer; it means "raise the
    bounds and retry".  ``bound`` is the bound that was hit and ``flag``
    the CLI option that raises it; both are None when no option sets it.
    """

    def __init__(self, reason: str, bound=None, flag=None):
        super().__init__(reason)
        self.reason = reason
        self.bound, self.flag = bound, flag


class DegreeBoundExceeded(Inconclusive):
    """A degreewise scan hit a degree bound."""

    def __init__(self, reason: str = "degree bound", bound=None, flag=None):
        super().__init__(reason, bound, flag)
