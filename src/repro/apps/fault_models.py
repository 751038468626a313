"""Coupling-aware fault analysis and test-pattern recommendation.

The paper's group works on STT-MRAM testing (its refs [6], [14], [16]);
the coupling model feeds directly into test engineering: which cells can
fail *because of their neighborhood*, and which data backgrounds must a
march test write to provoke those failures?

Two coupling-induced fault mechanisms follow from Sections IV-V:

* **write-margin fault** — the AP->P write of a victim under NP8 = 0 is
  slower than the pulse budget (worst at small pitch / low voltage),
* **retention fault** — the victim's worst-case Delta (P state, NP8 = 0)
  falls below the retention spec.

Both are *pattern-sensitive* faults: detecting them requires the
aggressor background that maximizes the stray field, exactly like
classical coupling faults in DRAM testing. This module classifies a
design against specs and emits the stress backgrounds and march-style
test description that sensitizes the worst corner.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arrays.pattern import ALL_AP, ALL_P
from ..arrays.victim import VictimAnalysis
from ..device.mtj import MTJDevice, MTJState
from ..errors import ParameterError
from ..validation import require_positive


@dataclass(frozen=True)
class FaultAssessment:
    """Coupling-fault assessment of one array design point.

    Attributes
    ----------
    pitch:
        Array pitch [m].
    write_margin_ns:
        Pulse budget minus worst-case switching time [ns]; negative means
        a write-margin fault is possible.
    retention_margin:
        Worst-case Delta minus the retention spec; negative means a
        retention fault is possible.
    write_fault_possible / retention_fault_possible:
        The two verdicts.
    """

    pitch: float
    write_margin_ns: float
    retention_margin: float

    @property
    def write_fault_possible(self):
        """True when the worst-case write exceeds the pulse budget."""
        return self.write_margin_ns < 0.0

    @property
    def retention_fault_possible(self):
        """True when the worst-case Delta violates the retention spec."""
        return self.retention_margin < 0.0


#: The aggressor background sensitizing each fault type. Writing the
#: victim AP->P is hardest when every neighbor stores P (solid 0s), and
#: the P-state retention corner also occurs under solid 0s — so the
#: classical solid background, not the checkerboard, is the coupling
#: stress pattern for this technology.
STRESS_BACKGROUNDS = {
    "write_margin": ("solid-0", ALL_P),
    "retention": ("solid-0", ALL_P),
    "opposite_corner": ("solid-1", ALL_AP),
}


class CouplingFaultAnalyzer:
    """Classifies coupling-induced fault risk and builds stress tests.

    Parameters
    ----------
    device:
        :class:`~repro.device.mtj.MTJDevice`.
    pitch:
        Array pitch [m].
    """

    def __init__(self, device, pitch):
        if not isinstance(device, MTJDevice):
            raise ParameterError(
                f"device must be an MTJDevice, got {type(device)!r}")
        require_positive(pitch, "pitch")
        self.device = device
        self.victim = VictimAnalysis(device, pitch)
        self.pitch = float(pitch)

    def assess(self, pulse_budget, write_voltage, min_delta):
        """Assess the design against write/retention specs.

        Parameters
        ----------
        pulse_budget:
            Write pulse width the controller guarantees [s].
        write_voltage:
            Write voltage [V].
        min_delta:
            Retention spec on the worst-case Delta.

        Returns
        -------
        FaultAssessment
        """
        require_positive(pulse_budget, "pulse_budget")
        require_positive(write_voltage, "write_voltage")
        require_positive(min_delta, "min_delta")
        tw_worst = self.victim.switching_time(write_voltage, ALL_P)
        delta_worst = self.victim.delta(MTJState.P, ALL_P)
        return FaultAssessment(
            pitch=self.pitch,
            write_margin_ns=(pulse_budget - tw_worst) * 1e9,
            retention_margin=delta_worst - min_delta,
        )

    def sensitizing_background(self, fault_type):
        """(name, NeighborhoodPattern) stressing ``fault_type``."""
        try:
            return STRESS_BACKGROUNDS[fault_type]
        except KeyError:
            known = ", ".join(sorted(STRESS_BACKGROUNDS))
            raise ParameterError(
                f"unknown fault type {fault_type!r}; known: {known}"
            ) from None

    def march_test(self, write_voltage):
        """March-style coupling stress test description.

        Returns the element list of a coupling-targeted march test: write
        the sensitizing background, then for each cell write the victim
        value against that background and read it back; repeat for the
        opposite corner. The notation follows the usual
        ``{ direction (ops) }`` convention.
        """
        require_positive(write_voltage, "write_voltage")
        return [
            # Write-margin corner: victim AP->P with all-P aggressors.
            "{ up (w0) }",                 # solid-0 background
            "{ up (w1, r1) }",             # hardest AP->P per cell + read
            "{ up (w0) }",                 # restore background
            # Retention corner: P cells under all-P neighborhood; pause
            # then read (retention faults need hold time).
            f"{{ pause({self._retention_pause():.0f}s) }}",
            "{ up (r0) }",
            # Opposite corner for completeness (NP8 = 255 extreme).
            "{ up (w1) }",
            "{ down (w0, r0) }",
        ]

    def _retention_pause(self):
        """A hold time [s] that resolves marginal retention corners.

        One tenth of the worst-case mean retention time, capped to a
        practical test-floor range.
        """
        worst_delta = self.victim.delta(MTJState.P, ALL_P)
        from ..device.retention import retention_time
        pause = 0.1 * retention_time(
            worst_delta, self.device.params.attempt_frequency)
        return min(max(pause, 1.0), 1.0e4)
