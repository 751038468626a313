"""The MTJ device facade.

:class:`MTJDevice` ties the stack geometry, the resistance model, and the
switching/retention physics together behind one object, parameterized by a
:class:`DeviceParameters` record. The module also ships
:data:`PAPER_EVAL_DEVICE`, the calibrated parameter set of the paper's
Section V evaluation device (eCD = 35 nm, Delta0 = 45.5, Hk = 4646.8 Oe,
Ic0 = 57.2 uA).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from ..constants import (
    ATTEMPT_FREQUENCY,
    BOLTZMANN,
    MU0,
    ROOM_TEMPERATURE,
)
from ..errors import ParameterError
from ..fields import LoopCollection, layer_to_loops
from ..stack import build_reference_stack
from ..units import am_to_oe, oe_to_am
from ..validation import require_in_range, require_positive
from .energy import delta_with_stray
from .hysteresis import RHLoopSimulator, SweepProtocol
from .resistance import ResistanceModel
from .retention import retention_time
from .switching import SunModel, critical_current, intrinsic_critical_current
from .thermal import ThermalModel


class MTJState(enum.Enum):
    """Binary magnetization state of the free layer."""

    P = "P"
    AP = "AP"

    @property
    def mz(self):
        """FL magnetization direction along z: +1 for P, -1 for AP."""
        return +1 if self is MTJState.P else -1

    @property
    def opposite(self):
        """The other state."""
        return MTJState.AP if self is MTJState.P else MTJState.P

    @property
    def bit(self):
        """Data convention of the paper: 0 stores P, 1 stores AP."""
        return 0 if self is MTJState.P else 1

    @classmethod
    def from_bit(cls, bit):
        """Map a data bit (0/1) to a state (P/AP)."""
        if bit == 0:
            return cls.P
        if bit == 1:
            return cls.AP
        raise ParameterError(f"bit must be 0 or 1, got {bit!r}")


@dataclass(frozen=True)
class DeviceParameters:
    """Calibrated electrical/magnetic parameters of one MTJ design.

    Parameters
    ----------
    ecd:
        Electrical critical diameter [m].
    hk:
        Anisotropy field [A/m].
    delta0:
        Intrinsic thermal stability factor at ``temperature``.
    hc:
        FL coercivity [A/m] (measured; used for the Psi factor).
    alpha:
        Gilbert damping constant.
    eta:
        STT efficiency (calibrated against the measured Ic0).
    polarization:
        Effective spin polarization of Sun's model (calibrated).
    resistance:
        :class:`~repro.device.resistance.ResistanceModel`.
    temperature:
        Reference temperature [K] of the quoted parameters.
    attempt_frequency:
        Thermal attempt frequency [Hz].
    """

    ecd: float
    hk: float
    delta0: float
    hc: float
    alpha: float
    eta: float
    polarization: float
    resistance: ResistanceModel
    temperature: float = ROOM_TEMPERATURE
    attempt_frequency: float = ATTEMPT_FREQUENCY

    def __post_init__(self):
        require_positive(self.ecd, "ecd")
        require_positive(self.hk, "hk")
        require_positive(self.delta0, "delta0")
        require_positive(self.hc, "hc")
        require_positive(self.alpha, "alpha")
        require_in_range(self.eta, "eta", 0.0, 1.0, inclusive=False)
        require_in_range(self.polarization, "polarization", 0.0, 1.0,
                         inclusive=False)
        require_positive(self.temperature, "temperature")
        require_positive(self.attempt_frequency, "attempt_frequency")

    def with_ecd(self, ecd):
        """Copy with a different eCD (Delta0/Hk kept as quoted)."""
        return replace(self, ecd=ecd)


class MTJDevice:
    """One MTJ device: stack + parameters + physics models.

    Parameters
    ----------
    params:
        :class:`DeviceParameters`.
    stack:
        Optional :class:`~repro.stack.MTJStack`; the calibrated reference
        stack at ``params.ecd`` is built when omitted.
    state:
        Initial :class:`MTJState` (default AP, matching the paper's loop).
    """

    def __init__(self, params, stack=None, state=MTJState.AP):
        if not isinstance(params, DeviceParameters):
            raise ParameterError(
                f"params must be DeviceParameters, got {type(params)!r}")
        self.params = params
        self.stack = (build_reference_stack(params.ecd)
                      if stack is None else stack)
        if not math.isclose(self.stack.ecd, params.ecd,
                            rel_tol=1e-9, abs_tol=0.0):
            raise ParameterError(
                f"stack eCD {self.stack.ecd} != params eCD {params.ecd}")
        if not isinstance(state, MTJState):
            raise ParameterError(
                f"state must be MTJState, got {state!r}")
        self.state = state
        self._thermal = ThermalModel(
            material=self.stack.free_layer.material,
            reference_temperature=params.temperature)
        self._intra_field_cache = None

    # -- geometry ----------------------------------------------------------

    @property
    def area(self):
        """Pillar cross-section [m^2]."""
        return self.stack.area

    @property
    def fl_volume(self):
        """Geometric FL volume [m^3]."""
        return self.area * self.stack.free_layer.thickness

    @property
    def activation_volume(self):
        """Activation volume [m^3] implied by the measured ``Delta0``.

        ``V_act = 2 Delta0 kB T / (mu0 Ms Hk)`` — below the geometric FL
        volume for nucleation-limited devices.
        """
        p = self.params
        ms = self.stack.free_layer.material.ms
        return (2.0 * p.delta0 * BOLTZMANN * p.temperature
                / (MU0 * ms * p.hk))

    @property
    def thermal_model(self):
        """The :class:`~repro.device.thermal.ThermalModel` of the FL."""
        return self._thermal

    # -- stray field of the device's own fixed layers ----------------------

    def fixed_layer_loops(self):
        """Bound-current loops of the RL and HL (state independent)."""
        loops = []
        for layer in self.stack.fixed_layers():
            loops.extend(layer_to_loops(layer, self.stack.radius))
        return LoopCollection(loops)

    def intra_stray_field(self):
        """Intra-cell stray field z-component at the FL center [A/m].

        The paper's calibration point: the out-of-plane field generated by
        the device's own RL and HL, evaluated at the FL midplane center.
        Cached (the fixed layers never change).
        """
        if self._intra_field_cache is None:
            col = self.fixed_layer_loops()
            self._intra_field_cache = float(
                col.field((0.0, 0.0, 0.0))[2])
        return self._intra_field_cache

    def intra_stray_field_oe(self):
        """:meth:`intra_stray_field` in oersted."""
        return am_to_oe(self.intra_stray_field())

    # -- switching ---------------------------------------------------------

    def ic0(self, temperature=None):
        """Intrinsic critical current [A] at ``temperature``."""
        p = self.params
        temp = p.temperature if temperature is None else temperature
        delta0 = self._thermal.delta0_at(p.delta0, temp)
        return intrinsic_critical_current(p.alpha, p.eta, delta0, temp)

    def ic(self, direction, hz_stray=0.0, temperature=None):
        """Critical current [A] for ``direction`` under ``hz_stray`` [A/m].

        ``direction`` is ``"P->AP"`` or ``"AP->P"`` (paper Eq. 2).
        """
        p = self.params
        temp = p.temperature if temperature is None else temperature
        hk = self._thermal.hk_at(p.hk, temp)
        return critical_current(self.ic0(temp), float(hz_stray) / hk,
                                direction)

    def sun_model(self):
        """Sun's switching-time model bound to this device."""
        p = self.params
        return SunModel(
            ms=self.stack.free_layer.material.ms,
            fl_volume=self.fl_volume,
            polarization=p.polarization,
            delta0=p.delta0,
            resistance_model=p.resistance,
            ecd=p.ecd,
        )

    def switching_time(self, vp, hz_stray=0.0, initial_state=MTJState.AP):
        """Average switching time [s] for a write at ``vp`` volts.

        The write direction follows from ``initial_state``; the stray field
        shifts the critical current per Eq. 2 before entering Sun's model.
        """
        direction = ("AP->P" if initial_state is MTJState.AP else "P->AP")
        ic = self.ic(direction, hz_stray)
        return self.sun_model().switching_time(
            vp, ic, initial_state=initial_state.value)

    # -- retention ---------------------------------------------------------

    def delta(self, state, hz_stray=0.0, temperature=None):
        """Thermal stability factor of ``state`` under ``hz_stray`` [A/m].

        Applies the paper's Eq. 5 on top of the thermal scaling of
        ``Delta0`` and ``Hk``.
        """
        if not isinstance(state, MTJState):
            raise ParameterError(f"state must be MTJState, got {state!r}")
        p = self.params
        temp = p.temperature if temperature is None else temperature
        delta0 = self._thermal.delta0_at(p.delta0, temp)
        hk = self._thermal.hk_at(p.hk, temp)
        return delta_with_stray(delta0, float(hz_stray) / hk, state.value)

    def retention_time(self, state, hz_stray=0.0, temperature=None):
        """Mean retention time [s] of ``state`` under ``hz_stray``."""
        return retention_time(
            self.delta(state, hz_stray, temperature),
            self.params.attempt_frequency)

    # -- measurement emulation ---------------------------------------------

    def rh_simulator(self, protocol=None, hz_stray=None):
        """An :class:`RHLoopSimulator` for this device.

        ``hz_stray`` defaults to the device's own intra-cell stray field —
        the situation of the paper's Fig. 2a measurement on an isolated
        device.
        """
        p = self.params
        if protocol is None:
            protocol = SweepProtocol(h_max=oe_to_am(3000.0))
        if hz_stray is None:
            hz_stray = self.intra_stray_field()
        return RHLoopSimulator(
            delta0=p.delta0,
            hk=p.hk,
            rp=p.resistance.rp(p.ecd),
            rap=p.resistance.rap(p.ecd, protocol.read_voltage),
            hz_stray=hz_stray,
            protocol=protocol,
            attempt_frequency=p.attempt_frequency,
        )

    def describe(self):
        """Summary dict of the device (for reports and tables)."""
        p = self.params
        return {
            "ecd_nm": p.ecd * 1e9,
            "hk_oe": am_to_oe(p.hk),
            "delta0": p.delta0,
            "hc_oe": am_to_oe(p.hc),
            "ic0_ua": self.ic0() * 1e6,
            "rp_ohm": p.resistance.rp(p.ecd),
            "intra_stray_oe": self.intra_stray_field_oe(),
            "state": self.state.value,
        }


def _paper_eval_parameters():
    """The calibrated Section V evaluation device (eCD = 35 nm)."""
    alpha = 0.015
    delta0 = 45.5
    hk = oe_to_am(4646.8)
    temperature = ROOM_TEMPERATURE
    # eta calibrated so Ic0 = 57.2 uA (paper Section V-A).
    from .switching import calibrate_eta
    eta = calibrate_eta(57.2e-6, alpha, delta0, temperature)
    return DeviceParameters(
        ecd=35.0e-9,
        hk=hk,
        delta0=delta0,
        hc=oe_to_am(2200.0),
        alpha=alpha,
        eta=eta,
        polarization=0.30,
        resistance=ResistanceModel(ra=6.4e-12, tmr0=1.5, v_half=0.55),
        temperature=temperature,
    )


#: Calibrated parameters of the paper's evaluation device (Section V).
PAPER_EVAL_DEVICE = _paper_eval_parameters()
