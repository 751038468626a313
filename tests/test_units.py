"""Unit-conversion tests (exact values and hypothesis roundtrips)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import units

FINITE = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)


class TestKnownValues:
    def test_one_oersted_in_am(self):
        assert units.oe_to_am(1.0) == pytest.approx(79.5774715, rel=1e-6)

    def test_zero_celsius(self):
        assert units.celsius_to_kelvin(0.0) == pytest.approx(273.15)

    def test_room_temperature(self):
        assert units.celsius_to_kelvin(25.0) == pytest.approx(298.15)

    def test_nm(self):
        assert units.nm_to_m(35.0) == pytest.approx(3.5e-8)


class TestRoundtrips:
    @given(FINITE)
    def test_oe_roundtrip(self, value):
        assert units.am_to_oe(units.oe_to_am(value)) == pytest.approx(
            value, abs=1e-9 * (1 + abs(value)))

    @given(FINITE)
    def test_length_roundtrip(self, value):
        assert units.m_to_nm(units.nm_to_m(value)) == pytest.approx(
            value, abs=1e-9 * (1 + abs(value)))

    @given(FINITE)
    def test_temperature_offset(self, value):
        assert units.celsius_to_kelvin(value) - 273.15 == pytest.approx(
            value, abs=1e-9)

    @given(FINITE)
    def test_time_scale(self, value):
        assert units.s_to_ns(value * 1e-9) == pytest.approx(
            value, abs=1e-12 * (1 + abs(value)))


class TestVectorized:
    def test_oe_to_am_on_arrays(self):
        fields = np.array([-100.0, 0.0, 2200.0])
        out = units.oe_to_am(fields)
        assert out.shape == fields.shape
        assert out[1] == 0.0
        assert out[2] == pytest.approx(units.oe_to_am(2200.0))

    def test_paper_hk_value(self):
        # Hk = 4646.8 Oe must convert to ~3.698e5 A/m.
        assert units.oe_to_am(4646.8) == pytest.approx(3.698e5, rel=1e-3)
