"""Exception types shared across the package, and the one rule for a
number: each scalar a library entry takes is a real (``is_real``) or a
count (``is_count``), tested with its range, and a bool is neither."""

import numpy as np


class DomainError(ValueError):
    """An argument violates a documented precondition (bad physics input)."""


class NumericalConsistencyError(RuntimeError):
    """An internal invariant broke down (e.g. a little-group element that
    fails to stabilize the reference momentum)."""


class DegenerateProtocolError(RuntimeError):
    """A post-selected protocol step has vanishing success probability."""


class ConfigError(ValueError):
    """A scenario/configuration file or CLI override is malformed."""


def is_real(value) -> bool:
    """Whether ``value`` is an int or a float, numpy's included, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def is_count(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
