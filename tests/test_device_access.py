"""Tests for the 1T-1R write-path model."""

from __future__ import annotations

import pytest

from repro.device import (
    AccessTransistor,
    MTJDevice,
    MTJState,
    PAPER_EVAL_DEVICE,
    WritePath,
)
from repro.errors import ParameterError


@pytest.fixture
def path(eval_device):
    return WritePath(eval_device, AccessTransistor(r_on=3000.0))


class TestOperatingPoint:
    def test_divider_drops_voltage(self, path):
        v_mtj = path.mtj_voltage(1.2, MTJState.AP)
        assert 0 < v_mtj < 1.2

    def test_consistency_of_fixed_point(self, path, eval_device):
        v_cell = 1.2
        v_mtj = path.mtj_voltage(v_cell, MTJState.AP)
        r_mtj = eval_device.params.resistance.resistance(
            eval_device.params.ecd, "AP", v_mtj)
        expected = v_cell * r_mtj / (r_mtj + 3000.0)
        assert v_mtj == pytest.approx(expected, abs=1e-6)

    def test_current_continuity(self, path, eval_device):
        """The MTJ and the access device carry the same current."""
        v_cell = 1.2
        v_mtj = path.mtj_voltage(v_cell, MTJState.AP)
        i_mtj = v_mtj / eval_device.params.resistance.resistance(
            eval_device.params.ecd, "AP", v_mtj)
        assert i_mtj == pytest.approx((v_cell - v_mtj) / 3000.0, rel=1e-4)

    def test_p_state_drops_more(self, path):
        # RP < RAP: the access device eats a larger share in P state.
        v_ap = path.mtj_voltage(1.2, MTJState.AP)
        v_p = path.mtj_voltage(1.2, MTJState.P)
        assert v_p < v_ap

    def test_zero_access_resistance_limit(self, eval_device):
        ideal = WritePath(eval_device, AccessTransistor(r_on=1e-3))
        assert ideal.mtj_voltage(1.0, MTJState.AP) == pytest.approx(
            1.0, abs=1e-5)


class TestWriteTiming:
    def test_access_device_slows_write(self, path, eval_device):
        h = eval_device.intra_stray_field()
        tw_direct = eval_device.switching_time(1.1, h)
        tw_through = path.switching_time(1.1, h)
        assert tw_through > tw_direct


class TestValidation:
    def test_bad_r_on(self):
        with pytest.raises(Exception):
            AccessTransistor(r_on=0.0)

    def test_bad_device(self):
        with pytest.raises(ParameterError):
            WritePath("device", AccessTransistor(r_on=1000.0))

    def test_bad_access(self, eval_device):
        with pytest.raises(ParameterError):
            WritePath(eval_device, 1000.0)
