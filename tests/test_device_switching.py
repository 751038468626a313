"""Tests for the critical current (Eq. 2) and Sun's tw model (Eq. 3-4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.constants import ROOM_TEMPERATURE
from repro.device import (
    ResistanceModel,
    SunModel,
    calibrate_eta,
    calibrate_polarization,
    critical_current,
    intrinsic_critical_current,
)
from repro.errors import ParameterError
from repro.units import oe_to_am


@pytest.fixture
def eval_resistance():
    return ResistanceModel(ra=6.4e-12, tmr0=1.5, v_half=0.55)


@pytest.fixture
def sun(eval_resistance):
    area = math.pi * (17.5e-9) ** 2
    return SunModel(ms=1.1e6, fl_volume=area * 2e-9, polarization=0.30,
                    delta0=45.5, resistance_model=eval_resistance,
                    ecd=35e-9)


class TestCriticalCurrent:
    def test_eta_calibration_roundtrip(self):
        eta = calibrate_eta(57.2e-6, 0.015, 45.5, ROOM_TEMPERATURE)
        assert intrinsic_critical_current(
            0.015, eta, 45.5, ROOM_TEMPERATURE) == pytest.approx(57.2e-6)

    def test_eta_is_physical(self):
        eta = calibrate_eta(57.2e-6, 0.015, 45.5, ROOM_TEMPERATURE)
        assert 0.1 < eta < 0.6

    def test_paper_seven_percent_shift(self):
        # h = -325 Oe / 4646.8 Oe = -0.07: AP->P goes 7% up, P->AP 7% down.
        h = -325.0 / 4646.8
        ic0 = 57.2e-6
        up = critical_current(ic0, h, "AP->P")
        down = critical_current(ic0, h, "P->AP")
        assert up == pytest.approx(61.2e-6, rel=0.01)
        assert down == pytest.approx(53.2e-6, rel=0.01)
        assert up + down == pytest.approx(2 * ic0, rel=1e-12)

    def test_zero_field_symmetric(self):
        assert critical_current(57.2e-6, 0.0, "AP->P") == pytest.approx(
            critical_current(57.2e-6, 0.0, "P->AP"))

    def test_direction_validation(self):
        with pytest.raises(ParameterError):
            critical_current(57.2e-6, 0.0, "sideways")

    def test_ic_scales_with_damping(self):
        low = intrinsic_critical_current(0.01, 0.3, 45.5, 300.0)
        high = intrinsic_critical_current(0.02, 0.3, 45.5, 300.0)
        assert high == pytest.approx(2 * low)


class TestSunModel:
    def test_rate_linear_in_overdrive(self, sun):
        ic = 61.7e-6
        tw1 = sun.switching_time(0.9, ic)
        tw2 = sun.switching_time(1.1, ic)
        im1 = sun.overdrive_current(0.9, ic)
        im2 = sun.overdrive_current(1.1, ic)
        assert (1 / tw1) / (1 / tw2) == pytest.approx(im1 / im2,
                                                      rel=1e-9)

    def test_below_threshold_infinite(self, sun):
        # A tiny voltage cannot beat Ic.
        assert sun.switching_time(0.05, 61.7e-6) == math.inf

    def test_tw_monotone_decreasing_in_voltage(self, sun):
        voltages = np.linspace(0.75, 1.2, 10)
        times = [sun.switching_time(v, 61.7e-6) for v in voltages]
        finite = [t for t in times if math.isfinite(t)]
        assert all(a > b for a, b in zip(finite, finite[1:]))

    def test_stray_field_slows_ap_p(self, sun):
        # Larger Ic (from negative stray field) means longer tw.
        assert (sun.switching_time(0.9, 61.7e-6)
                > sun.switching_time(0.9, 57.2e-6))

    def test_nanosecond_scale(self, sun):
        tw = sun.switching_time(0.9, 61.7e-6)
        assert 2e-9 < tw < 40e-9

    def test_p_to_ap_faster_at_same_voltage(self, sun):
        # The P branch has lower resistance -> more current -> faster.
        tw_ap_p = sun.switching_time(0.9, 57.2e-6, initial_state="AP")
        tw_p_ap = sun.switching_time(0.9, 57.2e-6, initial_state="P")
        assert tw_p_ap < tw_ap_p

    def test_moment(self, sun):
        assert sun.moment == pytest.approx(sun.ms * sun.fl_volume)


class TestPolarizationCalibration:
    def test_roundtrip(self, eval_resistance):
        area = math.pi * (17.5e-9) ** 2
        target = 10e-9
        pol = calibrate_polarization(
            target, 0.9, 61.7e-6, 1.1e6, area * 2e-9, 45.5,
            eval_resistance, 35e-9)
        model = SunModel(ms=1.1e6, fl_volume=area * 2e-9,
                         polarization=pol, delta0=45.5,
                         resistance_model=eval_resistance, ecd=35e-9)
        assert model.switching_time(0.9, 61.7e-6) == pytest.approx(
            target, rel=1e-9)

    def test_below_threshold_rejected(self, eval_resistance):
        area = math.pi * (17.5e-9) ** 2
        with pytest.raises(ParameterError):
            calibrate_polarization(10e-9, 0.05, 61.7e-6, 1.1e6,
                                   area * 2e-9, 45.5, eval_resistance,
                                   35e-9)

    def test_unreachable_target_rejected(self, eval_resistance):
        area = math.pi * (17.5e-9) ** 2
        with pytest.raises(ParameterError):
            calibrate_polarization(1e-15, 0.9, 61.7e-6, 1.1e6,
                                   area * 2e-9, 45.5, eval_resistance,
                                   35e-9)


class TestRateCoefficient:
    def test_inverse_time_is_rate_times_overdrive(self, sun):
        ic = 61.7e-6
        im = sun.overdrive_current(0.9, ic)
        assert 1.0 / sun.switching_time(0.9, ic) == pytest.approx(
            sun.rate_coefficient * im, rel=1e-9)

    def test_larger_moment_switches_slower(self, sun, eval_resistance):
        thick = SunModel(ms=sun.ms, fl_volume=2.0 * sun.fl_volume,
                         polarization=sun.polarization, delta0=sun.delta0,
                         resistance_model=eval_resistance, ecd=sun.ecd)
        assert thick.rate_coefficient == pytest.approx(
            0.5 * sun.rate_coefficient, rel=1e-12)
