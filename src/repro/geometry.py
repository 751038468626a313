"""Layer and device geometry primitives.

The MTJ pillar is modeled as a stack of coaxial cylindrical layers. Each
:class:`Layer` records its vertical extent (``z_bottom``/``z_top``, in
metres, measured in the device frame where z=0 is the *free-layer midplane*)
and its role in the stack. The lateral size is shared by all layers of one
pillar and is expressed as the electrical critical diameter (eCD) of the
device.

Conventions
-----------
* +z points from the pinned layers toward the free layer and is the
  reference-layer magnetization direction (see DESIGN.md section 4).
* Layers are listed from the *top* of the pillar downward; the free layer
  sits above the tunnel barrier, the SAF below it (bottom-pinned stack as in
  the paper's Fig. 1a).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import GeometryError
from .materials import Material
from .validation import require_positive


class LayerRole(enum.Enum):
    """Functional role of a layer within the MTJ stack."""

    FREE = "free"
    BARRIER = "barrier"
    REFERENCE = "reference"
    SPACER = "spacer"
    HARD = "hard"
    CAP = "cap"


#: Roles whose layers carry a magnetic moment in the coupling model.
MAGNETIC_ROLES = (LayerRole.FREE, LayerRole.REFERENCE, LayerRole.HARD)


@dataclass(frozen=True)
class Layer:
    """One cylindrical layer of an MTJ pillar.

    Parameters
    ----------
    role:
        Functional role (:class:`LayerRole`).
    material:
        The :class:`~repro.materials.Material` of the layer.
    z_bottom, z_top:
        Vertical extent [m] in the device frame (z=0 at FL midplane).
    direction:
        Magnetization direction along z: +1, -1, or 0 for non-magnetic
        layers. The free layer's direction is its *initial/default* state;
        the dynamic state lives on the device object.
    """

    role: LayerRole
    material: Material
    z_bottom: float
    z_top: float
    direction: int = 0

    def __post_init__(self):
        if self.z_top <= self.z_bottom:
            raise GeometryError(
                f"layer {self.role.value}: z_top ({self.z_top}) must be "
                f"above z_bottom ({self.z_bottom})")
        if self.direction not in (-1, 0, 1):
            raise GeometryError(
                f"layer {self.role.value}: direction must be -1, 0 or +1, "
                f"got {self.direction!r}")
        if self.direction != 0 and not self.material.is_magnetic:
            raise GeometryError(
                f"layer {self.role.value}: non-magnetic material "
                f"{self.material.name!r} cannot have a direction")
        if self.direction == 0 and self.is_magnetic_role:
            raise GeometryError(
                f"layer {self.role.value}: magnetic layer needs direction")

    @property
    def thickness(self):
        """Layer thickness [m]."""
        return self.z_top - self.z_bottom

    @property
    def is_magnetic_role(self):
        """True for FL/RL/HL layers (those that source stray fields)."""
        return self.role in MAGNETIC_ROLES

    @property
    def moment_per_area(self):
        """Areal moment ``Ms * t`` [A], signed by ``direction``."""
        return self.direction * self.material.ms * self.thickness


@dataclass(frozen=True)
class PillarGeometry:
    """Lateral geometry of one MTJ pillar.

    The electrical critical diameter (eCD) is the diameter inferred from the
    parallel resistance and the RA product; it is the effective magnetic
    diameter used throughout the paper.
    """

    ecd: float

    def __post_init__(self):
        require_positive(self.ecd, "ecd")

    @property
    def radius(self):
        """Pillar radius [m]."""
        return 0.5 * self.ecd

    @property
    def area(self):
        """Pillar cross-sectional area [m^2]."""
        import math
        return math.pi * self.radius ** 2


def check_no_overlap(layers):
    """Validate that ``layers`` do not overlap vertically.

    ``layers`` may be in any order; the check sorts them by ``z_bottom``.
    Raises :class:`~repro.errors.GeometryError` on overlap.
    """
    ordered = sorted(layers, key=lambda la: la.z_bottom)
    for below, above in zip(ordered, ordered[1:]):
        if above.z_bottom < below.z_top - 1e-15:
            raise GeometryError(
                f"layers {below.role.value} and {above.role.value} overlap: "
                f"{below.z_top} > {above.z_bottom}")
    return ordered
