"""Areal density bookkeeping for STT-MRAM arrays.

The motivation for small pitches is density: with one MTJ per cell on a
square pitch, the cell area is ``pitch^2``. These helpers convert between
pitch and density and build the density-vs-pitch tables used by the
examples.
"""

from __future__ import annotations

from ..validation import require_positive

#: Square millimetres per square metre.
_MM2_PER_M2 = 1.0e6


def cell_area(pitch):
    """Cell area [m^2] on a square pitch grid."""
    require_positive(pitch, "pitch")
    return pitch * pitch


def areal_density_gbit_per_mm2(pitch):
    """Bit density [Gbit/mm^2] for a square-pitch 1-bit-per-cell array."""
    bits_per_m2 = 1.0 / cell_area(pitch)
    return bits_per_m2 / _MM2_PER_M2 / 1.0e9


def density_table(pitches):
    """Rows of (pitch [m], cell area [m^2], density [Gbit/mm^2])."""
    rows = []
    for pitch in pitches:
        rows.append((float(pitch), cell_area(pitch),
                     areal_density_gbit_per_mm2(pitch)))
    return rows
