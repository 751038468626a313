"""Stochastic R-H hysteresis loop simulation.

Emulates the paper's Section III measurement: an out-of-plane external
field is ramped 0 -> +Hmax -> -Hmax -> 0 over ``n_points`` field points,
with a low-voltage resistance readout after every point. The FL switches by
thermal activation over the field-dependent barrier

``Delta_leave(H_eff) = Delta0 * (1 - s * H_eff / Hk)^2``

where ``s`` is +1 when leaving the AP state (a +z field destabilizes AP)
and -1 when leaving P, and ``H_eff = H_ext + Hz_stray`` is the field the FL
actually sees. Each field point is held for ``dwell_time`` seconds and the
flip probability is ``1 - exp(-f0 * dwell * exp(-Delta_leave))`` — the
Kurkijarvi swept-field switching picture, which makes the switching fields
``Hsw_p``/``Hsw_n`` intrinsically stochastic exactly as in the measured
loops.

Because switching happens at (nearly) fixed *effective* field thresholds,
the simulated loop is offset by ``-Hz_stray``: extracting
``Hoffset = (Hsw_p + Hsw_n)/2`` recovers the stray field with flipped sign,
which is precisely the measurement principle the paper uses to
characterize intra-cell coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..constants import ATTEMPT_FREQUENCY
from ..errors import MeasurementError, ParameterError
from ..validation import require_int_in_range, require_positive


@dataclass(frozen=True)
class SweepProtocol:
    """The field-sweep protocol of the R-H measurement.

    Parameters
    ----------
    h_max:
        Sweep amplitude [A/m] (paper: 3 kOe).
    n_points:
        Total number of field points over the full loop (paper: 1000).
    dwell_time:
        Hold time per field point [s]; sets the thermal switching-field
        scale via the attempt statistics.
    read_voltage:
        Readout voltage [V] (paper: 20 mV).
    """

    h_max: float
    n_points: int = 1000
    dwell_time: float = 1.0e-3
    read_voltage: float = 0.02

    def __post_init__(self):
        require_positive(self.h_max, "h_max")
        require_int_in_range(self.n_points, "n_points", 8, 1_000_000)
        require_positive(self.dwell_time, "dwell_time")
        require_positive(self.read_voltage, "read_voltage")

    def field_points(self):
        """Field values [A/m]: 0 -> +h_max -> -h_max -> 0.

        The three ramps share the total point budget 1:2:1.
        """
        n_up = self.n_points // 4
        n_down = self.n_points // 2
        n_back = self.n_points - n_up - n_down
        up = np.linspace(0.0, self.h_max, n_up, endpoint=False)
        down = np.linspace(self.h_max, -self.h_max, n_down, endpoint=False)
        back = np.linspace(-self.h_max, 0.0, n_back)
        return np.concatenate([up, down, back])


@dataclass
class HysteresisLoop:
    """Result of one simulated R-H loop.

    Attributes
    ----------
    fields:
        External field values [A/m] in sweep order.
    resistances:
        Readout resistance [Ohm] after each field point.
    states:
        FL state after each field point ("P"/"AP" as +1/-1 mz).
    hsw_p:
        AP->P switching field [A/m] (on the rising branch), or None if the
        device never switched.
    hsw_n:
        P->AP switching field [A/m] (on the falling branch), or None.
    """

    fields: np.ndarray
    resistances: np.ndarray
    states: np.ndarray
    hsw_p: Optional[float] = None
    hsw_n: Optional[float] = None

    @property
    def coercivity(self):
        """``Hc = (Hsw_p - Hsw_n) / 2`` [A/m]."""
        self._require_switches()
        return 0.5 * (self.hsw_p - self.hsw_n)

    @property
    def offset_field(self):
        """``Hoffset = (Hsw_p + Hsw_n) / 2`` [A/m]."""
        self._require_switches()
        return 0.5 * (self.hsw_p + self.hsw_n)

    @property
    def stray_field(self):
        """Inferred stray field at the FL: ``-Hoffset`` [A/m]."""
        return -self.offset_field

    @property
    def rp(self):
        """Low (parallel) resistance level [Ohm] of the loop."""
        return float(np.min(self.resistances))

    @property
    def rap(self):
        """High (anti-parallel) resistance level [Ohm] of the loop."""
        return float(np.max(self.resistances))

    def _require_switches(self):
        if self.hsw_p is None or self.hsw_n is None:
            raise MeasurementError(
                "loop shows no complete switching cycle; cannot extract "
                "Hc/Hoffset")


class RHLoopSimulator:
    """Simulates stochastic R-H loops for one device.

    Parameters
    ----------
    delta0:
        Intrinsic thermal stability factor (field-driven barrier height).
    hk:
        Anisotropy field [A/m] (field axis scale of the barrier).
    rp, rap:
        Read resistances [Ohm] of the two states at the read voltage.
    hz_stray:
        Constant stray field at the FL [A/m] (intra-cell and/or inter-cell).
    protocol:
        :class:`SweepProtocol`; required.
    attempt_frequency:
        Thermal attempt frequency [Hz].
    """

    def __init__(self, delta0, hk, rp, rap, hz_stray=0.0, protocol=None,
                 attempt_frequency=ATTEMPT_FREQUENCY):
        require_positive(delta0, "delta0")
        require_positive(hk, "hk")
        require_positive(rp, "rp")
        require_positive(rap, "rap")
        if rap <= rp:
            raise ParameterError(
                f"rap ({rap}) must exceed rp ({rp}) for a readable loop")
        if protocol is None:
            raise ParameterError("protocol is required")
        self.delta0 = float(delta0)
        self.hk = float(hk)
        self.rp = float(rp)
        self.rap = float(rap)
        self.hz_stray = float(hz_stray)
        self.protocol = protocol
        self.attempt_frequency = float(
            require_positive(attempt_frequency, "attempt_frequency"))

    def barrier_to_leave(self, state, h_eff):
        """Barrier ``Delta`` to leave ``state`` under effective field.

        Clamped at zero once the field reaches the anisotropy field.
        """
        sign = +1.0 if state == "AP" else -1.0
        reduced = 1.0 - sign * h_eff / self.hk
        if reduced <= 0.0:
            return 0.0
        # Fields that *stabilize* the state deepen the well; the (1-x)^2
        # law is only meaningful for destabilizing fields up to Hk.
        if reduced >= 2.0:
            reduced = 2.0
        return self.delta0 * reduced * reduced

    def flip_probability(self, state, h_ext):
        """Probability of flipping during one dwell at ``h_ext`` [A/m]."""
        h_eff = h_ext + self.hz_stray
        delta = self.barrier_to_leave(state, h_eff)
        rate = self.attempt_frequency * math.exp(-delta)
        return -math.expm1(-rate * self.protocol.dwell_time)

    def simulate(self, rng=None, initial_state="AP"):
        """Run one stochastic loop; returns a :class:`HysteresisLoop`."""
        if initial_state not in ("P", "AP"):
            raise ParameterError(
                f"initial_state must be 'P' or 'AP', got {initial_state!r}")
        rng = np.random.default_rng(rng)
        fields = self.protocol.field_points()
        n = fields.shape[0]
        resistances = np.empty(n)
        states = np.empty(n, dtype=np.int8)
        uniforms = rng.random(n)

        state = initial_state
        hsw_p = None
        hsw_n = None
        for i, h_ext in enumerate(fields):
            p_flip = self.flip_probability(state, h_ext)
            if uniforms[i] < p_flip:
                if state == "AP":
                    state = "P"
                    if hsw_p is None:
                        hsw_p = float(h_ext)
                else:
                    state = "AP"
                    # Record the first P->AP event on the falling branch
                    # (negative-going fields), the paper's Hsw_n.
                    if hsw_n is None and h_ext < 0:
                        hsw_n = float(h_ext)
            resistances[i] = self.rp if state == "P" else self.rap
            states[i] = +1 if state == "P" else -1

        return HysteresisLoop(fields=fields, resistances=resistances,
                              states=states, hsw_p=hsw_p, hsw_n=hsw_n)
