"""Tests for the MTJDevice facade and the paper parameter set."""

from __future__ import annotations

import math

import pytest

from repro.device import (
    DeviceParameters,
    MTJDevice,
    MTJState,
    PAPER_EVAL_DEVICE,
)
from repro.errors import ParameterError
from repro.stack import build_reference_stack
from repro.units import am_to_oe


class TestMTJState:
    def test_mz(self):
        assert MTJState.P.mz == +1
        assert MTJState.AP.mz == -1

    def test_opposite(self):
        assert MTJState.P.opposite is MTJState.AP
        assert MTJState.AP.opposite is MTJState.P

    def test_bit_convention(self):
        # Paper: 0 stores P, 1 stores AP.
        assert MTJState.P.bit == 0
        assert MTJState.AP.bit == 1
        assert MTJState.from_bit(0) is MTJState.P
        assert MTJState.from_bit(1) is MTJState.AP

    def test_bad_bit(self):
        with pytest.raises(ParameterError):
            MTJState.from_bit(2)


class TestPaperParameters:
    def test_ic0_calibrated(self, eval_device):
        assert eval_device.ic0() * 1e6 == pytest.approx(57.2, rel=1e-6)

    def test_hk_and_delta0(self):
        assert am_to_oe(PAPER_EVAL_DEVICE.hk) == pytest.approx(4646.8)
        assert PAPER_EVAL_DEVICE.delta0 == 45.5

    def test_intra_field_anchor(self, eval_device):
        # ~ -325 Oe, the value implied by the paper's 7 % Ic shift.
        assert eval_device.intra_stray_field_oe() == pytest.approx(
            -325.0, abs=25.0)

    def test_seven_percent_ic_shift(self, eval_device):
        h = eval_device.intra_stray_field()
        up = eval_device.ic("AP->P", h)
        down = eval_device.ic("P->AP", h)
        ic0 = eval_device.ic0()
        assert up / ic0 == pytest.approx(1.07, abs=0.01)
        assert down / ic0 == pytest.approx(0.93, abs=0.01)

    def test_activation_volume_below_geometric(self, eval_device):
        ratio = eval_device.activation_volume / eval_device.fl_volume
        assert 0.2 < ratio < 0.6

    def test_intra_field_cached(self, eval_device):
        first = eval_device.intra_stray_field()
        assert eval_device.intra_stray_field() is not None
        assert eval_device._intra_field_cache == first


class TestDeviceBehaviour:
    def test_delta_ordering_under_negative_field(self, eval_device):
        h = eval_device.intra_stray_field()
        dp = eval_device.delta(MTJState.P, h)
        dap = eval_device.delta(MTJState.AP, h)
        assert dp < PAPER_EVAL_DEVICE.delta0 < dap

    def test_delta_at_temperature(self, eval_device):
        h = eval_device.intra_stray_field()
        cold = eval_device.delta(MTJState.P, h, temperature=273.15)
        hot = eval_device.delta(MTJState.P, h, temperature=423.15)
        assert hot < cold

    def test_retention_time_exponential_sensitivity(self, eval_device):
        h = eval_device.intra_stray_field()
        t_p = eval_device.retention_time(MTJState.P, h)
        t_ap = eval_device.retention_time(MTJState.AP, h)
        # Delta_AP - Delta_P ~ 13 units -> ~e^13 ratio.
        assert t_ap / t_p > 1e4

    def test_switching_time_direction(self, eval_device):
        h = eval_device.intra_stray_field()
        tw_ap = eval_device.switching_time(0.9, h, MTJState.AP)
        tw_p = eval_device.switching_time(0.9, h, MTJState.P)
        assert tw_p < tw_ap  # P->AP is the fast direction here.

    def test_describe_keys(self, eval_device):
        desc = eval_device.describe()
        for key in ("ecd_nm", "hk_oe", "delta0", "ic0_ua",
                    "intra_stray_oe"):
            assert key in desc
        assert desc["ecd_nm"] == pytest.approx(35.0)

    def test_stack_mismatch_rejected(self):
        stack55 = build_reference_stack(55e-9)
        with pytest.raises(ParameterError):
            MTJDevice(PAPER_EVAL_DEVICE, stack=stack55)

    def test_params_validated(self):
        with pytest.raises(ParameterError):
            DeviceParameters(
                ecd=35e-9, hk=3.7e5, delta0=45.5, hc=1.75e5,
                alpha=0.015, eta=1.5, polarization=0.3,
                resistance=PAPER_EVAL_DEVICE.resistance)

    def test_with_ecd(self):
        bigger = PAPER_EVAL_DEVICE.with_ecd(55e-9)
        assert bigger.ecd == pytest.approx(55e-9)
        assert bigger.hk == PAPER_EVAL_DEVICE.hk

    def test_rh_simulator_uses_intra_field(self, eval_device):
        sim = eval_device.rh_simulator()
        assert sim.hz_stray == pytest.approx(
            eval_device.intra_stray_field())

    def test_fixed_layer_loops_give_the_intra_field(self, eval_device):
        hx, hy, hz = eval_device.fixed_layer_loops().field((0.0, 0.0, 0.0))
        assert hx == pytest.approx(0.0, abs=1e-6)
        assert hy == pytest.approx(0.0, abs=1e-6)
        assert hz == pytest.approx(eval_device.intra_stray_field())

    def test_sun_model_bound_to_device(self, eval_device):
        sun = eval_device.sun_model()
        params = eval_device.params
        assert sun.ms == eval_device.stack.free_layer.material.ms
        assert sun.fl_volume == eval_device.fl_volume
        assert (sun.polarization, sun.delta0, sun.ecd) == (
            params.polarization, params.delta0, params.ecd)
        ic = eval_device.ic("AP->P")
        assert eval_device.switching_time(0.9) == sun.switching_time(
            0.9, ic, initial_state="AP")

    def test_thermal_model_scales_delta0(self, eval_device):
        thermal = eval_device.thermal_model
        delta0 = eval_device.params.delta0
        t_ref = eval_device.params.temperature
        assert thermal.delta0_at(delta0, t_ref) == pytest.approx(delta0)
        assert thermal.delta0_at(delta0, t_ref + 100.0) < delta0
