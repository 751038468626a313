"""Neel-Arrhenius retention statistics.

A retention fault occurs when the FL magnetization flips spontaneously by
thermal activation. The flip rate over a barrier ``Delta`` (in units of
``kB T``) is ``r = f0 * exp(-Delta)``; the mean retention time is ``1/r``
and the failure probability over an interval ``t`` is ``1 - exp(-r t)``.

The paper quantifies retention through ``Delta`` (its Fig. 6); these
helpers translate ``Delta`` into the time-domain quantities an engineer
actually budgets (years of retention, FIT rates, array-level failure
probability).
"""

from __future__ import annotations

import math

import numpy as np

from ..constants import ATTEMPT_FREQUENCY
from ..validation import require_non_negative, require_positive

#: Seconds per year, used for the "10 years" storage-class requirement.
SECONDS_PER_YEAR = 365.25 * 24.0 * 3600.0

#: One FIT = one failure per 1e9 device-hours.
FIT_HOURS = 1.0e9


def flip_rate(delta, attempt_frequency=ATTEMPT_FREQUENCY):
    """Spontaneous flip rate [1/s] for a barrier ``delta`` [kB*T units]."""
    require_non_negative(delta, "delta")
    require_positive(attempt_frequency, "attempt_frequency")
    return attempt_frequency * math.exp(-delta)


def retention_time(delta, attempt_frequency=ATTEMPT_FREQUENCY):
    """Mean retention time [s]: ``exp(Delta) / f0``."""
    return 1.0 / flip_rate(delta, attempt_frequency)


def retention_failure_probability(delta, interval,
                                  attempt_frequency=ATTEMPT_FREQUENCY):
    """Probability that one bit flips within ``interval`` seconds.

    Vectorized over ``delta`` (numpy arrays allowed).
    """
    require_positive(interval, "interval")
    require_positive(attempt_frequency, "attempt_frequency")
    delta_arr = np.asarray(delta, dtype=float)
    if np.any(delta_arr < 0):
        raise ValueError("delta must be >= 0")
    rate = attempt_frequency * np.exp(-delta_arr)
    prob = -np.expm1(-rate * interval)
    if np.isscalar(delta) or np.asarray(delta).ndim == 0:
        return float(prob)
    return prob


def fit_rate(delta, attempt_frequency=ATTEMPT_FREQUENCY):
    """Failure-in-time rate (failures per 1e9 device-hours)."""
    return flip_rate(delta, attempt_frequency) * 3600.0 * FIT_HOURS


def array_retention_failure_probability(
        delta, interval, n_bits, attempt_frequency=ATTEMPT_FREQUENCY):
    """Probability that at least one of ``n_bits`` identical bits flips."""
    require_positive(n_bits, "n_bits")
    p_bit = retention_failure_probability(delta, interval,
                                          attempt_frequency)
    return 1.0 - (1.0 - p_bit) ** n_bits
