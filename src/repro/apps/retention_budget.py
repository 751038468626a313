"""Retention budgeting: from worst-case Delta to scrub intervals.

Section II-A of the paper sets the requirements (storage >10 years, cache
milliseconds); Fig. 6 computes the worst-case Delta. This module closes
the loop: given an array size, a temperature corner, and a target
failure probability, what scrub (refresh) interval — if any — makes the
design safe, and which application class does it land in?
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..arrays.victim import VictimAnalysis
from ..device.mtj import MTJDevice, MTJState
from ..device.retention import (
    SECONDS_PER_YEAR,
    flip_rate,
    retention_time,
)
from ..errors import ParameterError
from ..validation import require_in_range, require_positive


def classify_retention(mean_retention_time):
    """Application class for a mean retention time [s].

    ``"storage"`` (>10 years), ``"embedded"`` (>1 month), ``"cache"``
    (>1 ms), or ``"unusable"``.
    """
    require_positive(mean_retention_time, "mean_retention_time")
    if mean_retention_time > 10.0 * SECONDS_PER_YEAR:
        return "storage"
    if mean_retention_time > SECONDS_PER_YEAR / 12.0:
        return "embedded"
    if mean_retention_time > 1.0e-3:
        return "cache"
    return "unusable"


@dataclass(frozen=True)
class RetentionBudget:
    """Retention budget of one array design at one temperature corner.

    Attributes
    ----------
    worst_delta:
        Worst-case thermal stability (victim P, NP8=0, at temperature).
    mean_retention:
        Mean retention time of the worst-case bit [s].
    scrub_interval:
        Scrub interval [s] meeting the target array failure probability,
        or ``inf`` if no scrubbing is needed over the mission time.
    application_class:
        Result of :func:`classify_retention`.
    """

    worst_delta: float
    mean_retention: float
    scrub_interval: float
    application_class: str


class RetentionBudgetPlanner:
    """Plans scrub intervals for an array under coupling + temperature.

    Parameters
    ----------
    device:
        :class:`~repro.device.mtj.MTJDevice`.
    pitch:
        Array pitch [m].
    n_bits:
        Array capacity in bits.
    """

    def __init__(self, device, pitch, n_bits):
        if not isinstance(device, MTJDevice):
            raise ParameterError(
                f"device must be an MTJDevice, got {type(device)!r}")
        require_positive(pitch, "pitch")
        require_positive(n_bits, "n_bits")
        self.device = device
        self.victim = VictimAnalysis(device, pitch)
        self.n_bits = int(n_bits)

    def worst_delta(self, temperature):
        """Worst-case Delta at ``temperature`` [K] (victim P, NP8=0)."""
        from ..arrays.pattern import ALL_P
        return self.victim.delta(MTJState.P, ALL_P,
                                 temperature=temperature)

    def scrub_interval(self, temperature, target_failure_probability,
                       mission_time=10.0 * SECONDS_PER_YEAR):
        """Scrub interval [s] keeping the array failure budget.

        The per-scrub-period failure probability budget is the mission
        budget divided across periods; solving
        ``n_bits * rate * t_scrub * (mission/t_scrub periods) <= target``
        gives a mission-level bound independent of the interval for the
        (memoryless) flip process — so the controlling constraint is per
        *period*: each bit must flip with probability well below the
        correctable threshold between scrubs. We budget the whole target
        onto one period (scrubbing restores every bit), i.e.::

            t_scrub = target / (n_bits * rate)

        Returns ``inf`` when even the full mission time meets the budget.
        """
        require_in_range(target_failure_probability,
                         "target_failure_probability", 0.0, 1.0,
                         inclusive=False)
        require_positive(mission_time, "mission_time")
        delta = self.worst_delta(temperature)
        rate = flip_rate(delta,
                         self.device.params.attempt_frequency)
        expected_mission_failures = self.n_bits * rate * mission_time
        if expected_mission_failures <= target_failure_probability:
            return math.inf
        return target_failure_probability / (self.n_bits * rate)

    def flip_probability(self, temperature, interval):
        """Per-bit flip probability over ``interval`` [s] (worst case)."""
        require_positive(interval, "interval")
        rate = flip_rate(self.worst_delta(temperature),
                         self.device.params.attempt_frequency)
        return -math.expm1(-rate * interval)

    def budget(self, temperature, target_failure_probability,
               mission_time=10.0 * SECONDS_PER_YEAR):
        """Full :class:`RetentionBudget` at one temperature corner."""
        delta = self.worst_delta(temperature)
        mean_ret = retention_time(
            delta, self.device.params.attempt_frequency)
        return RetentionBudget(
            worst_delta=float(delta),
            mean_retention=float(mean_ret),
            scrub_interval=float(self.scrub_interval(
                temperature, target_failure_probability, mission_time)),
            application_class=classify_retention(mean_ret),
        )
