"""Exception hierarchy shared across the package.

One class per outcome: ``cli.main`` maps a ``DomainError`` to exit 2, a
``SearchFailureError`` to exit 3 and a ``ResourceError`` to exit 4.  A
``ConsistencyError`` is an internal cross-check failure and is not caught.
"""


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain, or makes the
    requested quantity singular or undefined."""


class ConsistencyError(ArithmeticError):
    """An internal cross-check between two computation routes failed."""


class ResourceError(RuntimeError):
    """The requested problem size exceeds a configured limit."""


class SearchFailureError(RuntimeError):
    """A parameter search terminated without reaching its target.

    The best candidate found is attached as ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
