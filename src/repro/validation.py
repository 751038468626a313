"""Parameter validation helpers.

Small guard functions used at public API boundaries. They raise
:class:`repro.errors.ParameterError` with a message that names the offending
parameter, so user mistakes fail fast and clearly instead of producing NaNs
deep inside a solver.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ParameterError

#: Exact types that pass as real numbers without the ABC check (bool,
#: an int subclass, is deliberately absent).
_PLAIN_REALS = (float, int)


def require_positive(value, name):
    """Return ``value`` if it is a finite number > 0, else raise."""
    require_finite(value, name)
    if value <= 0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value, name):
    """Return ``value`` if it is a finite number >= 0, else raise."""
    require_finite(value, name)
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value!r}")
    return value


def require_finite(value, name):
    """Return ``value`` if it is a finite real number, else raise."""
    # Exact float/int first: the numbers.Real ABC check is slow, and
    # these guards sit on per-request and per-table-build paths.
    if type(value) not in _PLAIN_REALS and (
            not isinstance(value, numbers.Real) or isinstance(value, bool)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except (OverflowError, TypeError, ValueError):
        finite = False  # an int past float range, or no float form
    if not finite:
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def require_in_range(value, name, low, high, inclusive=True):
    """Return ``value`` if ``low <= value <= high`` (or strict), else raise."""
    require_finite(value, name)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ParameterError(f"{name} must be in {bounds}, got {value!r}")
    return value


def require_fraction(value, name):
    """Return ``value`` if it lies in [0, 1], else raise."""
    return require_in_range(value, name, 0.0, 1.0)


def require_int_in_range(value, name, low, high):
    """Return ``value`` if it is an integer in [low, high], else raise."""
    if type(value) is not int and (
            not isinstance(value, numbers.Integral)
            or isinstance(value, bool)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ParameterError(
            f"{name} must be in [{low}, {high}], got {value!r}")
    return int(value)


def jobs_argument(value):
    """``argparse`` type for a ``--jobs`` flag: a positive worker count.

    Shared by every CLI that forwards into :mod:`repro.sweep`, so the
    flag validates identically everywhere.
    """
    import argparse
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 1, got {jobs}")
    return jobs


def as_point_array(points, name="points"):
    """Coerce ``points`` to a float array of shape (N, 3).

    Accepts a single (3,) point or an (N, 3) array. Raises
    :class:`ParameterError` for anything else or for non-finite entries.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (3,):
            raise ParameterError(
                f"{name} must have shape (3,) or (N, 3), got {arr.shape}")
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ParameterError(
            f"{name} must have shape (3,) or (N, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains non-finite coordinates")
    return arr
