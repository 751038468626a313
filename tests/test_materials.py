"""Tests for the material models."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.materials import (
    COFEB_FREE,
    COPT_HARD_EFF,
    MGO,
    Material,
)


class TestMaterialBasics:
    def test_magnetic_flag(self):
        assert COFEB_FREE.is_magnetic
        assert not MGO.is_magnetic

    def test_with_ms_returns_copy(self):
        modified = COFEB_FREE.with_ms(5e5)
        assert modified.ms == 5e5
        assert COFEB_FREE.ms != 5e5
        assert modified.name == COFEB_FREE.name

    def test_negative_ms_rejected(self):
        with pytest.raises(ParameterError):
            Material(name="bad", ms=-1.0)

    def test_reference_above_curie_rejected(self):
        with pytest.raises(ParameterError):
            Material(name="bad", ms=1e6, curie_temperature=300.0,
                     reference_temperature=400.0)


class TestBlochLaw:
    def test_unity_at_reference(self):
        assert COFEB_FREE.bloch_factor(
            COFEB_FREE.reference_temperature) == pytest.approx(1.0)

    def test_decreases_with_temperature(self):
        t_ref = COFEB_FREE.reference_temperature
        assert COFEB_FREE.bloch_factor(t_ref + 100.0) < 1.0
        assert COFEB_FREE.bloch_factor(t_ref - 100.0) > 1.0

    def test_zero_at_curie(self):
        tc = COFEB_FREE.curie_temperature
        assert COFEB_FREE.bloch_factor(tc) == 0.0
        assert COFEB_FREE.bloch_factor(tc + 50.0) == 0.0

    def test_nonmagnetic_is_zero(self):
        assert MGO.bloch_factor(300.0) == 0.0
        assert MGO.ms_at(300.0) == 0.0

    def test_ms_at_consistency(self):
        t = 400.0
        assert COFEB_FREE.ms_at(t) == pytest.approx(
            COFEB_FREE.ms * COFEB_FREE.bloch_factor(t))

    def test_monotone_decrease(self):
        temps = [200.0, 300.0, 400.0, 500.0, 600.0]
        values = [COPT_HARD_EFF.bloch_factor(t) for t in temps]
        assert all(a > b for a, b in zip(values, values[1:]))
