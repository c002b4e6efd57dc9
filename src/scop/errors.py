"""Exception types shared across the package, and the integer rule behind DomainError.

The CLI maps DomainError (and subclasses) to exit code 2 and
ContractError to exit code 3.
"""

import numpy as np


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


class SeedError(DomainError):
    """Rejected generator seed: not an integer in 1..0xFFFF (zero is absorbing)."""


class ContractError(Exception):
    """Internal consistency violation between components (shape or length mismatch)."""


def is_int(value, low: int) -> bool:
    """True for a Python or numpy integer of at least low; floats and bools never pass."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low
