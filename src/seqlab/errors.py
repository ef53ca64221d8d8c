"""Exception types shared across the package, and the one rule for a real parameter."""

import sys


def _real(x, kind=float) -> bool:
    """Whether ``x`` is a real parameter, the rule of every record's check: an int, or a float (``np.float64``
    too, not ``np.float32``) unless ``kind`` is int, never a bool; read as a float, finite as one (not inf, NaN
    or an int past float range), while an int read as an int is exact. Loads nothing, so NumPy stays unloaded."""
    return (isinstance(x, int if kind is int else (int, float)) and not isinstance(x, bool)
            and (kind is int or abs(x) <= sys.float_info.max))


class ParameterError(ValueError):
    """A model parameter is outside its admissible range."""


class DomainError(ValueError):
    """An evaluation point lies outside a function's domain."""


class ConfigError(ValueError):
    """A config string, flag, or grid spec could not be parsed or validated."""


class SolverError(RuntimeError):
    """A numerical routine failed to produce a usable result."""
