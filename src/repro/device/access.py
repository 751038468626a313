"""1T-1R access-path model: the access device in series with the MTJ.

The paper's test structures are 0T1R (direct probing), but its
conclusions target product arrays, which are 1T-1R: a select transistor
in series with the MTJ divides the write voltage and — because the MTJ
resistance is state- and bias-dependent — does so asymmetrically between
the two write directions. This module models that divider with a simple
linear on-resistance access device and solves the nonlinear operating
point by fixed-point iteration, so switching-time analyses can be run
against the *cell terminal* voltage instead of the MTJ voltage.

The same series divider governs the read path:
:class:`repro.memsys.sense.SenseMarginModel` puts the identical
:class:`AccessTransistor` in the sense branch, where the bias-dependent
AP resistance sets the read operating point and the margin to the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError, SimulationError
from ..validation import require_positive


@dataclass(frozen=True)
class AccessTransistor:
    """A select transistor reduced to a linear on-resistance.

    Parameters
    ----------
    r_on:
        On-resistance [Ohm] in the selected state (write or read).
    """

    r_on: float

    def __post_init__(self):
        require_positive(self.r_on, "r_on")


class WritePath:
    """Series connection of an access device and one MTJ.

    Parameters
    ----------
    device:
        :class:`~repro.device.mtj.MTJDevice`.
    access:
        :class:`AccessTransistor`.
    """

    def __init__(self, device, access):
        from .mtj import MTJDevice
        if not isinstance(device, MTJDevice):
            raise ParameterError(
                f"device must be an MTJDevice, got {type(device)!r}")
        if not isinstance(access, AccessTransistor):
            raise ParameterError(
                f"access must be an AccessTransistor, got {type(access)!r}")
        self.device = device
        self.access = access

    def mtj_voltage(self, v_cell, initial_state, tolerance=1e-9,
                    max_iterations=200):
        """MTJ terminal voltage [V] for a cell write voltage ``v_cell``.

        Solves ``v_mtj = v_cell * R_mtj(v_mtj) / (R_mtj(v_mtj) + r_on)``
        by damped fixed-point iteration. The AP branch's bias-dependent
        resistance makes this nonlinear; convergence is monotone for the
        physical parameter range.
        """
        require_positive(v_cell, "v_cell")
        resistance = self.device.params.resistance
        ecd = self.device.params.ecd
        state = initial_state.value if hasattr(initial_state, "value") \
            else str(initial_state)

        v_mtj = v_cell * 0.7  # reasonable starting split
        for _ in range(max_iterations):
            r_mtj = resistance.resistance(ecd, state, v_mtj)
            v_next = v_cell * r_mtj / (r_mtj + self.access.r_on)
            if abs(v_next - v_mtj) < tolerance:
                return v_next
            v_mtj = 0.5 * (v_mtj + v_next)
        raise SimulationError(
            f"write-path operating point did not converge at "
            f"v_cell={v_cell} V")

    def switching_time(self, v_cell, hz_stray=0.0, initial_state=None):
        """Switching time [s] driven from the cell terminal.

        Same as :meth:`MTJDevice.switching_time` but with the access
        device eating part of the drive — the realistic array situation.
        """
        from .mtj import MTJState
        state = MTJState.AP if initial_state is None else initial_state
        v_mtj = self.mtj_voltage(v_cell, state)
        return self.device.switching_time(v_mtj, hz_stray,
                                          initial_state=state)
