"""Tests for pulse waveforms and shaped-pulse switching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import WriteErrorModel
from repro.device import (
    TrapezoidalPulse,
    equivalent_rectangular_width,
    rectangular,
    shaped_pulse_wer,
)
from repro.device.pulse import rate_integral
from repro.errors import ParameterError


@pytest.fixture
def hz_intra(eval_device):
    return eval_device.intra_stray_field()


class TestWaveform:
    def test_rectangular_is_flat(self):
        pulse = rectangular(1.0, 10e-9)
        times, volts = pulse.sample(50)
        np.testing.assert_allclose(volts, 1.0)

    def test_trapezoid_edges(self):
        pulse = TrapezoidalPulse(amplitude=1.0, width=10e-9,
                                 rise_time=2e-9, fall_time=2e-9)
        assert pulse.voltage(0.0) == pytest.approx(0.0)
        assert pulse.voltage(1e-9) == pytest.approx(0.5)
        assert pulse.voltage(5e-9) == pytest.approx(1.0)
        assert pulse.voltage(9e-9) == pytest.approx(0.5)
        assert pulse.voltage(10e-9) == pytest.approx(0.0, abs=1e-12)

    def test_voltage_outside_pulse_zero(self):
        pulse = rectangular(1.0, 10e-9)
        assert pulse.voltage(-1e-9) == 0.0
        assert pulse.voltage(11e-9) == 0.0

    def test_edges_exceeding_width_rejected(self):
        with pytest.raises(ParameterError):
            TrapezoidalPulse(amplitude=1.0, width=3e-9, rise_time=2e-9,
                             fall_time=2e-9)


class TestRateIntegral:
    def test_rectangular_integral_linear_in_width(self, eval_device,
                                                  hz_intra):
        g1 = rate_integral(rectangular(0.95, 10e-9), eval_device,
                           hz_intra)
        g2 = rate_integral(rectangular(0.95, 20e-9), eval_device,
                           hz_intra)
        assert g2 == pytest.approx(2 * g1, rel=0.01)

    def test_edges_reduce_integral(self, eval_device, hz_intra):
        rect = rate_integral(rectangular(0.95, 20e-9), eval_device,
                             hz_intra)
        trap = rate_integral(
            TrapezoidalPulse(amplitude=0.95, width=20e-9,
                             rise_time=5e-9, fall_time=5e-9),
            eval_device, hz_intra)
        assert trap < rect

    def test_subthreshold_pulse_zero_integral(self, eval_device,
                                              hz_intra):
        g = rate_integral(rectangular(0.1, 20e-9), eval_device,
                          hz_intra)
        assert g == 0.0


class TestEquivalentWidth:
    def test_rectangular_maps_to_itself(self, eval_device, hz_intra):
        width = equivalent_rectangular_width(
            rectangular(0.95, 15e-9), eval_device, hz_intra)
        assert width == pytest.approx(15e-9, rel=0.01)

    def test_trapezoid_shorter_than_nominal(self, eval_device,
                                            hz_intra):
        pulse = TrapezoidalPulse(amplitude=0.95, width=15e-9,
                                 rise_time=3e-9, fall_time=3e-9)
        width = equivalent_rectangular_width(pulse, eval_device,
                                             hz_intra)
        plateau = pulse.width - pulse.rise_time - pulse.fall_time
        assert plateau < width < pulse.width

    def test_subthreshold_plateau_rejected(self, eval_device,
                                           hz_intra):
        with pytest.raises(ParameterError):
            equivalent_rectangular_width(rectangular(0.1, 15e-9),
                                         eval_device, hz_intra)


class TestShapedPulseWer:
    def test_matches_closed_form_for_rectangular(self, eval_device,
                                                 hz_intra):
        model = WriteErrorModel(eval_device)
        width = 20e-9
        expected = model.wer(width, vp=0.95, hz_stray=hz_intra)
        shaped = shaped_pulse_wer(rectangular(0.95, width), eval_device,
                                  hz_intra)
        assert shaped == pytest.approx(expected, rel=0.02)

    def test_slow_edges_raise_wer(self, eval_device, hz_intra):
        crisp = shaped_pulse_wer(rectangular(0.95, 20e-9), eval_device,
                                 hz_intra)
        sloppy = shaped_pulse_wer(
            TrapezoidalPulse(amplitude=0.95, width=20e-9,
                             rise_time=6e-9, fall_time=6e-9),
            eval_device, hz_intra)
        assert sloppy > crisp

    def test_shaped_equals_equivalent_rectangular(self, eval_device,
                                                  hz_intra):
        """A shaped pulse has the WER of the rectangular pulse with its
        equivalent width — the rate-integral equivalence, exactly.

        Note the edges are worth *less* than half their duration: the
        voltage spends part of each edge below the switching threshold
        where the growth rate is zero.
        """
        sloppy = TrapezoidalPulse(amplitude=0.95, width=26e-9,
                                  rise_time=6e-9, fall_time=6e-9)
        eq_width = equivalent_rectangular_width(sloppy, eval_device,
                                                hz_intra)
        assert eq_width < sloppy.width - 6e-9  # edges cost > half.
        wer_sloppy = shaped_pulse_wer(sloppy, eval_device, hz_intra)
        wer_eq = shaped_pulse_wer(rectangular(0.95, eq_width),
                                  eval_device, hz_intra)
        assert wer_sloppy == pytest.approx(wer_eq, rel=0.05)
