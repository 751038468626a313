"""STT switching models: critical current and average switching time.

Critical current (paper Eq. 2, Khvalkovskiy et al. [15])
--------------------------------------------------------
``Ic(Hz_stray) = (1/eta) * (2 alpha e / hbar) * mu0 Ms V Hk * (1 +/- h) / 2``

Using the identity ``mu0 Ms V_act Hk = 2 Delta0 kB T`` this becomes the
implementation form::

    Ic0 = 4 alpha e Delta0 kB T / (hbar eta)
    Ic(P->AP) = Ic0 * (1 + h),   Ic(AP->P) = Ic0 * (1 - h)

with ``h = Hz_stray / Hk`` under the sign conventions of DESIGN.md
section 4. The measured intra-cell stray field is negative, which makes
``Ic(AP->P)`` ~7 % *larger* than intrinsic, exactly as the paper reports.

Average switching time (paper Eq. 3-4, Sun's precessional model [22])
---------------------------------------------------------------------
``tw = [ (2 / (C + ln(pi^2 Delta / 4))) * (muB P / (e m (1 + P^2))) * Im ]^-1``
``Im = Vp / R(Vp) - Ic(Hz_stray)``

where ``m = Ms * V_geom`` is the total FL moment and ``R(Vp)`` the
state-dependent, bias-dependent resistance. Below threshold (``Im <= 0``)
precessional switching does not occur and ``tw`` is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import (
    BOHR_MAGNETON,
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    EULER_GAMMA,
    HBAR,
)
from ..errors import ParameterError
from ..validation import require_in_range, require_positive
from .resistance import ResistanceModel


def intrinsic_critical_current(alpha, eta, delta0, temperature):
    """Intrinsic critical switching current ``Ic0`` [A].

    ``Ic0 = 4 alpha e Delta0 kB T / (hbar eta)`` — Eq. 2 with the barrier
    identity folded in.
    """
    require_positive(alpha, "alpha")
    require_positive(eta, "eta")
    require_positive(delta0, "delta0")
    require_positive(temperature, "temperature")
    return (4.0 * alpha * ELEMENTARY_CHARGE * delta0 * BOLTZMANN
            * temperature) / (HBAR * eta)


def calibrate_eta(target_ic0, alpha, delta0, temperature):
    """STT efficiency ``eta`` that reproduces a measured ``Ic0`` [A]."""
    require_positive(target_ic0, "target_ic0")
    eta = (4.0 * alpha * ELEMENTARY_CHARGE * delta0 * BOLTZMANN
           * temperature) / (HBAR * target_ic0)
    return require_in_range(eta, "calibrated eta", 0.0, 1.0,
                            inclusive=False)


def critical_current(ic0, h_stray_over_hk, direction):
    """Critical current [A] for a switching ``direction`` under stray field.

    ``direction`` is ``"P->AP"`` or ``"AP->P"``. The sign rule follows the
    paper's Eq. 2: '+' for P->AP, '-' for AP->P.
    """
    require_positive(ic0, "ic0")
    require_in_range(h_stray_over_hk, "h_stray_over_hk", -1.0, 1.0,
                     inclusive=False)
    if direction == "P->AP":
        sign = +1.0
    elif direction == "AP->P":
        sign = -1.0
    else:
        raise ParameterError(
            f"direction must be 'P->AP' or 'AP->P', got {direction!r}")
    return ic0 * (1.0 + sign * h_stray_over_hk)


def _bad_state(state):
    raise ParameterError(f"state must be 'P' or 'AP', got {state!r}")


@dataclass(frozen=True)
class SunModel:
    """Sun's precessional average-switching-time model (paper Eq. 3-4).

    Parameters
    ----------
    ms:
        FL saturation magnetization [A/m].
    fl_volume:
        Geometric FL volume [m^3] (moment ``m = Ms * V``).
    polarization:
        Effective spin polarization ``P`` (calibrated; see
        :func:`calibrate_polarization`).
    delta0:
        Intrinsic thermal stability factor entering the logarithmic
        prefactor.
    resistance_model:
        :class:`~repro.device.resistance.ResistanceModel` providing
        ``R(Vp)``.
    ecd:
        Device eCD [m] for the resistance evaluation.
    """

    ms: float
    fl_volume: float
    polarization: float
    delta0: float
    resistance_model: ResistanceModel
    ecd: float

    def __post_init__(self):
        require_positive(self.ms, "ms")
        require_positive(self.fl_volume, "fl_volume")
        require_in_range(self.polarization, "polarization", 0.0, 1.0,
                         inclusive=False)
        require_positive(self.delta0, "delta0")
        require_positive(self.ecd, "ecd")

    @property
    def moment(self):
        """Total FL moment ``m = Ms * V`` [A*m^2]."""
        return self.ms * self.fl_volume

    @property
    def rate_coefficient(self):
        """``k`` [1/(A*s)] such that ``1/tw = k * Im``.

        ``k = (2 / (C + ln(pi^2 Delta/4))) * muB P / (e m (1 + P^2))``.
        """
        log_term = EULER_GAMMA + math.log(
            math.pi * math.pi * self.delta0 / 4.0)
        pref = 2.0 / log_term
        p = self.polarization
        return (pref * BOHR_MAGNETON * p
                / (ELEMENTARY_CHARGE * self.moment * (1.0 + p * p)))

    def overdrive_current(self, vp, ic, initial_state="AP"):
        """``Im = Vp / R(Vp) - Ic`` [A] for a write pulse of ``vp`` volts.

        ``initial_state`` selects the resistance branch: an AP->P write
        sees ``R_AP(Vp)``, a P->AP write sees ``R_P``.
        """
        require_positive(vp, "vp")
        require_positive(ic, "ic")
        if initial_state not in ("P", "AP"):
            _bad_state(initial_state)
        resistance = self.resistance_model.resistance(
            self.ecd, initial_state, vp)
        return vp / resistance - ic

    def switching_time(self, vp, ic, initial_state="AP"):
        """Average switching time [s]; ``inf`` below threshold."""
        im = self.overdrive_current(vp, ic, initial_state)
        if im <= 0.0:
            return math.inf
        return 1.0 / (self.rate_coefficient * im)


def calibrate_polarization(target_tw, vp, ic, ms, fl_volume, delta0,
                           resistance_model, ecd, initial_state="AP"):
    """Effective polarization ``P`` such that ``tw(vp) == target_tw``.

    Solves ``k(P) * Im = 1/target_tw`` for ``P`` in (0, 1); the mapping
    ``P -> P/(1+P^2)`` is monotonically increasing on (0, 1), so a unique
    solution exists whenever the target rate is reachable.
    """
    require_positive(target_tw, "target_tw")
    probe = SunModel(ms=ms, fl_volume=fl_volume, polarization=0.5,
                     delta0=delta0, resistance_model=resistance_model,
                     ecd=ecd)
    im = probe.overdrive_current(vp, ic, initial_state)
    if im <= 0.0:
        raise ParameterError(
            f"vp={vp} V is below the switching threshold; cannot calibrate")
    log_term = EULER_GAMMA + math.log(math.pi * math.pi * delta0 / 4.0)
    moment = ms * fl_volume
    # Required P/(1+P^2) for the target rate:
    needed = (1.0 / (target_tw * im)) * (log_term / 2.0) \
        * ELEMENTARY_CHARGE * moment / BOHR_MAGNETON
    # Solve p/(1+p^2) = needed for p in (0, 1): p = (1-sqrt(1-4n^2))/(2n).
    if needed <= 0.0 or needed >= 0.5:
        raise ParameterError(
            f"target switching time {target_tw} s unreachable at vp={vp} V "
            f"(needed P/(1+P^2) = {needed:.4f}, must be in (0, 0.5))")
    disc = math.sqrt(1.0 - 4.0 * needed * needed)
    return (1.0 - disc) / (2.0 * needed)
