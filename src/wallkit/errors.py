"""Exception types shared across the package.

The CLI maps these onto exit codes, so raising the right class matters:
InputError / ConfigurationError / EnumerationBudgetExceeded -> exit 2,
OnWallError -> exit 3, InternalError -> exit 4.
"""

from __future__ import annotations


class WallkitError(Exception):
    """Base class for all package errors."""


class InputError(WallkitError):
    """Out-of-contract input: wrong shape, parity, sign, rank, ..."""


class ConfigurationError(WallkitError):
    """An operation needs state (e.g. a reference class) that was not set."""


class OnWallError(WallkitError):
    """The reference class lies exactly on a wall; the chamber is ambiguous.

    Carries the offending wall divisor so callers (and the CLI) can name it.
    """

    def __init__(self, message: str, wall):
        super().__init__(message)
        self.wall = wall


class EnumerationBudgetExceeded(WallkitError):
    """An enumeration would visit more cells than the configured cap."""


class InternalError(WallkitError):
    """A broken internal invariant: a bug in wallkit, never bad input."""
