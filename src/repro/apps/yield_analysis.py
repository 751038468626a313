"""Monte-Carlo array yield under process variation plus coupling.

The paper's Fig. 2b error bars show real device-to-device variation; its
coupling analysis is for the nominal device. This module combines the
two: sample an ensemble of device instances (size/Hk/Delta0 variation),
expose each to the worst-case coupling corner at the chosen pitch, and
count how many violate the write- and retention-margin specifications.
The result is an array-level parametric yield versus pitch — the number
a product engineer signs off on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arrays.pattern import ALL_P
from ..arrays.victim import VictimAnalysis
from ..characterization.variation import (
    ProcessVariation,
    sample_device_parameters,
)
from ..device.mtj import DeviceParameters, MTJDevice, MTJState
from ..errors import ParameterError
from ..validation import require_int_in_range, require_positive


@dataclass(frozen=True)
class YieldResult:
    """Outcome of one Monte-Carlo yield run.

    Attributes
    ----------
    n_samples:
        Ensemble size.
    n_retention_fail:
        Devices whose worst-case Delta fell below the retention spec.
    n_write_fail:
        Devices whose worst-case tw exceeded the write spec.
    worst_delta_mean / worst_delta_std:
        Ensemble statistics of the worst-case Delta.
    """

    n_samples: int
    n_retention_fail: int
    n_write_fail: int
    worst_delta_mean: float
    worst_delta_std: float

    @property
    def yield_fraction(self):
        """Fraction of devices meeting both specs."""
        failed = self.n_retention_fail + self.n_write_fail
        # A device can fail both ways; this is a conservative lower bound.
        return max(0.0, 1.0 - failed / self.n_samples)


class ArrayYieldAnalysis:
    """Parametric yield of an array design.

    Parameters
    ----------
    base_params:
        Nominal :class:`~repro.device.mtj.DeviceParameters`.
    pitch:
        Array pitch [m].
    variation:
        :class:`~repro.characterization.variation.ProcessVariation`
        (defaults to typical values).
    """

    def __init__(self, base_params, pitch, variation=None):
        if not isinstance(base_params, DeviceParameters):
            raise ParameterError(
                f"base_params must be DeviceParameters, got "
                f"{type(base_params)!r}")
        require_positive(pitch, "pitch")
        self.base_params = base_params
        self.pitch = float(pitch)
        self.variation = (ProcessVariation() if variation is None
                          else variation)

    def run(self, n_samples=200, rng=None, min_delta=30.0,
            max_tw=20e-9, probe_voltage=0.9):
        """Sample devices and evaluate both margins at the worst corner.

        Parameters
        ----------
        n_samples:
            Monte-Carlo ensemble size.
        rng:
            Seed or generator.
        min_delta:
            Retention spec: worst-case Delta must stay above this.
        max_tw:
            Write spec [s]: worst-case mean switching time at
            ``probe_voltage`` must stay below this.
        probe_voltage:
            Write voltage [V] of the write-margin check.

        Returns
        -------
        YieldResult
        """
        n_samples = require_int_in_range(n_samples, "n_samples", 1,
                                         1_000_000)
        require_positive(min_delta, "min_delta")
        require_positive(max_tw, "max_tw")
        samples = sample_device_parameters(
            self.base_params, n_samples, variation=self.variation,
            rng=rng)

        n_retention_fail = 0
        n_write_fail = 0
        worst_deltas = np.empty(n_samples)
        for i, params in enumerate(samples):
            device = MTJDevice(params)
            victim = VictimAnalysis(device, self.pitch)
            worst_delta = victim.delta(MTJState.P, ALL_P)
            worst_deltas[i] = worst_delta
            if worst_delta < min_delta:
                n_retention_fail += 1
            tw = victim.switching_time(probe_voltage, ALL_P)
            if not np.isfinite(tw) or tw > max_tw:
                n_write_fail += 1

        return YieldResult(
            n_samples=n_samples,
            n_retention_fail=n_retention_fail,
            n_write_fail=n_write_fail,
            worst_delta_mean=float(np.mean(worst_deltas)),
            worst_delta_std=float(np.std(worst_deltas)),
        )
