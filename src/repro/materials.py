"""Material models for MTJ stack layers.

A :class:`Material` bundles the magnetic parameters of one layer material:
its room-temperature saturation magnetization, its Curie temperature (for
the Bloch-law temperature scaling used by the retention analysis), and an
optional free-text note describing the physical composition.

The constants at the bottom are the calibrated *effective* materials of
the reference stack (see DESIGN.md section 6). The RL and HL entries are
effective two-loop reductions of the real multilayer SAF: only the product
``Ms * t`` enters the bound-current stray-field model, and those products are
calibrated against the paper's reported offset-field anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .constants import ROOM_TEMPERATURE
from .errors import ParameterError
from .validation import require_positive


@dataclass(frozen=True)
class Material:
    """A (possibly effective) ferromagnetic layer material.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"CoFeB-FL"``.
    ms:
        Saturation magnetization at the reference temperature [A/m].
        Zero for non-magnetic materials (MgO, Ru, Ta).
    curie_temperature:
        Curie temperature [K] used by :meth:`ms_at`. Ignored for
        non-magnetic materials.
    reference_temperature:
        Temperature [K] at which ``ms`` is quoted (default 298.15 K).
    note:
        Free-text physical description.
    """

    name: str
    ms: float
    curie_temperature: float = 1300.0
    reference_temperature: float = ROOM_TEMPERATURE
    note: str = ""

    def __post_init__(self):
        if self.ms < 0:
            raise ParameterError(f"ms must be >= 0, got {self.ms!r}")
        if self.ms > 0:
            require_positive(self.curie_temperature, "curie_temperature")
            require_positive(
                self.reference_temperature, "reference_temperature")
            if self.reference_temperature >= self.curie_temperature:
                raise ParameterError(
                    "reference_temperature must be below curie_temperature")

    @property
    def is_magnetic(self):
        """True if the material carries a magnetic moment."""
        return self.ms > 0.0

    def bloch_factor(self, temperature):
        """Bloch-law magnetization ratio ``Ms(T) / Ms(T_ref)``.

        Uses ``Ms(T) = Ms(0) * (1 - (T/Tc)^1.5)`` normalized to the
        reference temperature. Returns 0 at or above the Curie temperature.
        """
        if not self.is_magnetic:
            return 0.0
        require_positive(temperature, "temperature")
        if temperature >= self.curie_temperature:
            return 0.0
        tc = self.curie_temperature
        raw = 1.0 - (temperature / tc) ** 1.5
        ref = 1.0 - (self.reference_temperature / tc) ** 1.5
        return raw / ref

    def ms_at(self, temperature):
        """Saturation magnetization at ``temperature`` [A/m]."""
        return self.ms * self.bloch_factor(temperature)

    def with_ms(self, ms):
        """Return a copy of this material with a different ``ms``."""
        return replace(self, ms=ms)


#: CoFeB dual-MgO free layer (data-storing layer).
COFEB_FREE = Material(
    name="CoFeB-FL",
    ms=1.1e6,
    curie_temperature=1300.0,
    note="CoFeB free layer between dual MgO interfaces",
)

#: Effective reference layer: thin CoFeB/Co with dead-layer correction.
#: The effective Ms*t is calibrated; see DESIGN.md section 6.
COFEB_REFERENCE_EFF = Material(
    name="CoFeB-RL-eff",
    ms=1.0e6,
    curie_temperature=1300.0,
    note=("Effective RL of the SAF: thin Co/spacer/CoFeB multilayer, "
          "dead-layer corrected net moment"),
)

#: Effective hard layer: [Co/Pt]x multilayer lumped with the SAF bottom.
COPT_HARD_EFF = Material(
    name="CoPt-HL-eff",
    ms=6.0e5,
    curie_temperature=1100.0,
    note="Effective [Co/Pt]x hard layer (Pt-diluted net magnetization)",
)

#: MgO tunnel barrier (non-magnetic dielectric).
MGO = Material(name="MgO", ms=0.0, note="MgO tunnel barrier")

#: Ru/Ta/W spacer material (non-magnetic).
SPACER = Material(name="Ru-spacer", ms=0.0, note="SAF coupling spacer stack")
