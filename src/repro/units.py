"""Unit conversions between SI and the practical CGS units of the paper.

The STT-MRAM literature (and this paper) quotes magnetic fields in oersted
(Oe), magnetizations in emu/cc, and resistance-area products in Ohm*um^2.
Internally every computation in this library is SI:

* magnetic field ``H`` in A/m,
* magnetization ``Ms`` in A/m,
* lengths in m,
* moments in A*m^2.

These helpers are the single authority for conversions; they are written as
plain functions (vectorized over numpy arrays) so there is exactly one
obvious way to convert a quantity.
"""

from __future__ import annotations

import math

#: A/m per oersted: 1 Oe = 1000/(4*pi) A/m.
AM_PER_OE = 1.0e3 / (4.0 * math.pi)


def oe_to_am(field_oe):
    """Convert a magnetic field from oersted to A/m."""
    return field_oe * AM_PER_OE


def am_to_oe(field_am):
    """Convert a magnetic field from A/m to oersted."""
    return field_am / AM_PER_OE


def nm_to_m(length_nm):
    """Convert a length from nanometres to metres."""
    return length_nm * 1.0e-9


def m_to_nm(length_m):
    """Convert a length from metres to nanometres."""
    return length_m * 1.0e9


def celsius_to_kelvin(temp_c):
    """Convert a temperature from degrees Celsius to kelvin."""
    return temp_c + 273.15


def s_to_ns(time_s):
    """Convert a time from seconds to nanoseconds."""
    return time_s * 1.0e9
