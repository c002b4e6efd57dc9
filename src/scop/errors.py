"""Exception types shared across the package.

The CLI maps DomainError (and subclasses) to exit code 2 and
ContractError to exit code 3.
"""


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


class SeedError(DomainError):
    """Rejected generator seed: not an integer in 1..0xFFFF (zero is absorbing)."""


class ContractError(Exception):
    """Internal consistency violation between components (shape or length mismatch)."""
