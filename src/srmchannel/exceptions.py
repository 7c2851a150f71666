"""Exception hierarchy shared across the package.

One class per outcome: ``cli.main`` maps a ``DomainError`` to exit 2 and a
``ResourceError`` to exit 4.  A ``ConsistencyError`` is an internal
cross-check failure and is not caught.  Exit 3, a failed verification, is
no exception: the subcommand that checks its results returns it.
"""


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain, or makes the
    requested quantity singular or undefined."""


class ConsistencyError(ArithmeticError):
    """An internal cross-check between two computation routes failed."""


class ResourceError(RuntimeError):
    """The requested problem size exceeds a configured limit."""
