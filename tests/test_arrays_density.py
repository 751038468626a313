"""Tests for the areal-density helpers."""

from __future__ import annotations

import pytest

from repro.arrays import areal_density_gbit_per_mm2, cell_area, density_table


class TestDensityMath:
    def test_cell_area(self):
        assert cell_area(90e-9) == pytest.approx(8.1e-15)

    def test_density_value(self):
        # 90 nm pitch: 1 / (8.1e-15 m^2) bits = ~123 Gbit/mm^2... sanity:
        # 1e-6 mm^2 per m^2 and 1e9 bits per Gbit.
        density = areal_density_gbit_per_mm2(90e-9)
        assert density == pytest.approx(1 / 8.1e-15 / 1e6 / 1e9)

    def test_gain_quadratic(self):
        """Halving the pitch quadruples the density."""
        assert (areal_density_gbit_per_mm2(52.5e-9)
                / areal_density_gbit_per_mm2(105e-9)) == pytest.approx(4.0)

    def test_density_table_rows(self):
        rows = density_table([70e-9, 90e-9])
        assert len(rows) == 2
        assert rows[0][2] > rows[1][2]

    def test_smaller_pitch_denser(self):
        assert (areal_density_gbit_per_mm2(52.5e-9)
                > areal_density_gbit_per_mm2(80e-9))
