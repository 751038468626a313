"""Write-pulse waveforms and their switching effectiveness.

Real write drivers do not produce ideal rectangular pulses: rise and fall
times eat into the effective drive. In the precessional picture the FL
angle grows as ``exp( integral r(t) dt )`` with the instantaneous rate
``r(t)`` proportional to the overdrive current ``I(t) - Ic`` (Sun's
model), so a shaped pulse is exactly equivalent to a rectangular pulse of
the same *rate integral*. This module provides waveform primitives, the
equivalent rectangular duration, and the WER of a shaped pulse via
:class:`repro.apps.write_error.WriteErrorModel`'s closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..validation import require_non_negative, require_positive


@dataclass(frozen=True)
class TrapezoidalPulse:
    """A trapezoidal voltage pulse.

    Parameters
    ----------
    amplitude:
        Plateau voltage [V].
    width:
        Total pulse duration [s] (start of rise to end of fall).
    rise_time, fall_time:
        Edge durations [s]; their sum must not exceed ``width``.
    """

    amplitude: float
    width: float
    rise_time: float = 0.0
    fall_time: float = 0.0

    def __post_init__(self):
        require_positive(self.amplitude, "amplitude")
        require_positive(self.width, "width")
        require_non_negative(self.rise_time, "rise_time")
        require_non_negative(self.fall_time, "fall_time")
        if self.rise_time + self.fall_time > self.width:
            raise ParameterError(
                "rise_time + fall_time exceeds the pulse width")

    def voltage(self, t):
        """Instantaneous voltage [V] at time ``t`` (vectorized)."""
        t = np.asarray(t, dtype=float)
        v = np.zeros_like(t)
        rising = (t >= 0) & (t < self.rise_time)
        if self.rise_time > 0:
            v[rising] = self.amplitude * t[rising] / self.rise_time
        flat = (t >= self.rise_time) & (t <= self.width - self.fall_time)
        v[flat] = self.amplitude
        falling = ((t > self.width - self.fall_time) & (t <= self.width))
        if self.fall_time > 0:
            v[falling] = (self.amplitude
                          * (self.width - t[falling]) / self.fall_time)
        return v if v.ndim else float(v)

    def sample(self, n=200):
        """(times, voltages) sampled across the pulse."""
        times = np.linspace(0.0, self.width, int(n))
        return times, self.voltage(times)


def rectangular(amplitude, width):
    """A rectangular pulse (zero-length edges)."""
    return TrapezoidalPulse(amplitude=amplitude, width=width)


def rate_integral(pulse, device, hz_stray=0.0, initial_state=None,
                  n_samples=400):
    """``integral r(t) dt`` of a pulse on a device (dimensionless).

    ``r(t)`` is the angle-growth rate at the instantaneous voltage;
    negative rates (below threshold) contribute zero — thermal decay of
    the angle during sub-threshold intervals is neglected, which is
    accurate for edges much shorter than the thermal relaxation time.
    """
    from ..apps.write_error import WriteErrorModel
    from .mtj import MTJState

    state = MTJState.AP if initial_state is None else initial_state
    model = WriteErrorModel(device)
    times, voltages = pulse.sample(n_samples)
    rates = np.zeros_like(times)
    for i, v in enumerate(voltages):
        if v <= 0.0:
            continue
        rate = model._angle_rate(float(v), hz_stray, state)
        rates[i] = max(rate, 0.0)
    return float(np.trapezoid(rates, times))


def equivalent_rectangular_width(pulse, device, hz_stray=0.0,
                                 initial_state=None):
    """Width [s] of the rectangular pulse with the same rate integral.

    The figure of merit for driver design: how much of the shaped pulse
    actually drives the switching.
    """
    from ..apps.write_error import WriteErrorModel
    from .mtj import MTJState

    state = MTJState.AP if initial_state is None else initial_state
    model = WriteErrorModel(device)
    plateau_rate = model._angle_rate(pulse.amplitude, hz_stray, state)
    if plateau_rate <= 0.0:
        raise ParameterError(
            f"plateau voltage {pulse.amplitude} V is below threshold")
    return rate_integral(pulse, device, hz_stray, state) / plateau_rate


def shaped_pulse_wer(pulse, device, hz_stray=0.0, initial_state=None):
    """Write-error rate of a shaped pulse.

    Uses the rate-integral equivalence: a shaped pulse with integral
    ``G`` has ``WER = 1 - exp(-Delta (pi/2)^2 exp(-2G))``.
    """
    grown = rate_integral(pulse, device, hz_stray, initial_state)
    delta = device.params.delta0
    exponent = delta * (math.pi / 2.0) ** 2 * math.exp(-2.0 * grown)
    return -math.expm1(-exponent)
