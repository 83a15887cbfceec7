"""Exception types and the integer and real-number tests shared across the
package."""

import numpy as np


def is_integer(value) -> bool:
    """Whether ``value`` is an int or NumPy integer; a bool or an integral
    float would fail later, deep inside a computation."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is an int, a float or a NumPy integer or floating
    scalar; a bool, a complex number, a string or None is not."""
    return is_integer(value) or isinstance(value, (float, np.floating))


class ConfigError(ValueError):
    """Invalid game or run configuration (caught before anything runs)."""


class ContractError(RuntimeError):
    """An operation was called outside its contract (programming error)."""


class UnsupportedGameError(ConfigError):
    """Requested an exact computation the game family does not support."""


class TrainingDiverged(RuntimeError):
    """A loss or gradient went non-finite; the run aborts with diagnostics."""
