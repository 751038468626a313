"""MTJ resistance model: RA product, TMR, bias dependence, eCD extraction.

The paper uses two resistance facts heavily:

* The RA product is size-independent, so the *electrical critical diameter*
  of a device follows from its parallel resistance:
  ``eCD = sqrt(4/pi * RA / RP)`` (Section III, citing [18]).
* The anti-parallel resistance rolls off with bias: we use the standard
  empirical form ``TMR(V) = TMR0 / (1 + V^2 / Vh^2)``, where ``Vh`` is the
  voltage at which the TMR has halved. The parallel resistance is treated
  as bias-independent, which is the usual experimental observation. This
  provides the non-linear ``R(Vp)`` required by Sun's switching-time model
  (paper Eq. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterError
from ..validation import require_non_negative, require_positive


def rp_from_ecd(ra, ecd):
    """Parallel resistance [Ohm] from RA [Ohm*m^2] and eCD [m]."""
    require_positive(ra, "ra")
    require_positive(ecd, "ecd")
    area = math.pi * (0.5 * ecd) ** 2
    return ra / area


def ecd_from_rp(ra, rp):
    """Electrical critical diameter [m] from RA [Ohm*m^2] and RP [Ohm].

    ``eCD = sqrt(4/pi * RA / RP)`` — the paper's Section III formula.
    """
    require_positive(ra, "ra")
    require_positive(rp, "rp")
    return math.sqrt(4.0 / math.pi * ra / rp)


@dataclass(frozen=True)
class ResistanceModel:
    """Bias-dependent two-state resistance of an MTJ.

    Parameters
    ----------
    ra:
        Resistance-area product [Ohm*m^2] (size independent).
    tmr0:
        Zero-bias tunneling magneto-resistance ratio
        ``(RAP - RP) / RP`` (dimensionless, e.g. 1.2 for 120 %).
    v_half:
        Bias voltage [V] at which the TMR has dropped to half its zero-bias
        value.
    """

    ra: float
    tmr0: float
    v_half: float

    def __post_init__(self):
        require_positive(self.ra, "ra")
        require_positive(self.tmr0, "tmr0")
        require_positive(self.v_half, "v_half")

    def rp(self, ecd):
        """Parallel-state resistance [Ohm] for a device of ``ecd`` [m]."""
        return rp_from_ecd(self.ra, ecd)

    def tmr(self, voltage=0.0):
        """TMR ratio at bias ``voltage`` [V] (symmetric in sign)."""
        require_non_negative(abs(float(voltage)), "abs(voltage)")
        ratio = float(voltage) / self.v_half
        return self.tmr0 / (1.0 + ratio * ratio)

    def rap(self, ecd, voltage=0.0):
        """Anti-parallel resistance [Ohm] at bias ``voltage`` [V]."""
        return self.rp(ecd) * (1.0 + self.tmr(voltage))

    def resistance(self, ecd, state, voltage=0.0):
        """Resistance [Ohm] in ``state`` ('P' or 'AP') at ``voltage`` [V]."""
        if state == "P":
            return self.rp(ecd)
        if state == "AP":
            return self.rap(ecd, voltage)
        raise ParameterError(f"state must be 'P' or 'AP', got {state!r}")

    def current(self, ecd, state, voltage):
        """Current [A] driven through the device at ``voltage`` [V]."""
        return float(voltage) / self.resistance(ecd, state, voltage)
