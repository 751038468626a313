"""Tests for the Ic / tw / Delta impact analyses (Figs. 4c, 5, 6)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import IcAnalysis, RetentionAnalysis, SwitchingTimeAnalysis
from repro.device import MTJState
from repro.errors import ParameterError
from repro.units import celsius_to_kelvin, nm_to_m


@pytest.fixture
def ic_analysis(eval_device):
    return IcAnalysis(eval_device)


@pytest.fixture
def tw_analysis(eval_device):
    return SwitchingTimeAnalysis(eval_device)


@pytest.fixture
def retention(eval_device):
    return RetentionAnalysis(eval_device)


class TestStrayFieldCases:
    def test_ideal_zero(self, ic_analysis):
        assert ic_analysis.stray_field("ideal") == 0.0

    def test_intra_matches_device(self, ic_analysis, eval_device):
        assert ic_analysis.stray_field("intra") == pytest.approx(
            eval_device.intra_stray_field())

    def test_np_cases_bracket_intra(self, ic_analysis):
        pitch = nm_to_m(52.5)
        h_np0 = ic_analysis.stray_field("np0", pitch)
        h_np255 = ic_analysis.stray_field("np255", pitch)
        h_intra = ic_analysis.stray_field("intra")
        assert h_np0 < h_intra < h_np255

    def test_pattern_case_requires_pitch(self, ic_analysis):
        with pytest.raises(ParameterError):
            ic_analysis.stray_field("np0")

    def test_unknown_case(self, ic_analysis):
        with pytest.raises(ParameterError):
            ic_analysis.stray_field("np128")


class TestIcAnalysis:
    def test_anchors(self, ic_analysis):
        anchors = ic_analysis.anchors()
        assert anchors["ic0"] * 1e6 == pytest.approx(57.2, rel=1e-6)
        assert anchors["ic_ap_p_intra"] * 1e6 == pytest.approx(61.2,
                                                               abs=1.0)
        assert anchors["ic_p_ap_intra"] * 1e6 == pytest.approx(53.2,
                                                               abs=1.0)

    def test_ideal_flat_vs_pitch(self, ic_analysis):
        pitches = np.array([nm_to_m(p) for p in (52.5, 100.0, 200.0)])
        values = ic_analysis.ic_vs_pitch(pitches, "AP->P", "ideal")
        assert np.ptp(values) < 1e-12

    def test_np_spread_shrinks_with_pitch(self, ic_analysis):
        pitches = np.array([nm_to_m(p) for p in (52.5, 200.0)])
        np0 = ic_analysis.ic_vs_pitch(pitches, "AP->P", "np0")
        np255 = ic_analysis.ic_vs_pitch(pitches, "AP->P", "np255")
        assert (np0[0] - np255[0]) > 5 * (np0[1] - np255[1]) > 0

    def test_directions_mirror(self, ic_analysis):
        pitches = np.array([nm_to_m(70.0)])
        up = ic_analysis.ic_vs_pitch(pitches, "AP->P", "np0")[0]
        down = ic_analysis.ic_vs_pitch(pitches, "P->AP", "np0")[0]
        ic0 = ic_analysis.anchors()["ic0"]
        assert up + down == pytest.approx(2 * ic0, rel=1e-9)

    def test_table_complete(self, ic_analysis):
        pitches = np.array([nm_to_m(70.0), nm_to_m(120.0)])
        table = ic_analysis.table(pitches)
        assert len(table) == 8
        for values in table.values():
            assert values.shape == (2,)


class TestSwitchingTimeAnalysis:
    def test_family_keys(self, tw_analysis):
        voltages = np.linspace(0.8, 1.2, 5)
        family = tw_analysis.family(voltages, nm_to_m(70.0))
        assert set(family) == {"ideal", "intra", "np0", "np255"}

    def test_stray_slows_down(self, tw_analysis):
        voltages = np.array([0.9])
        pitch = nm_to_m(52.5)
        tw_ideal = tw_analysis.tw_vs_voltage(voltages, "ideal")[0]
        tw_np0 = tw_analysis.tw_vs_voltage(voltages, "np0", pitch)[0]
        assert tw_np0 > tw_ideal

    def test_penalty_positive_and_grows_at_small_pitch(self, tw_analysis):
        p_small = tw_analysis.pattern_penalty(0.85, nm_to_m(52.5))
        p_large = tw_analysis.pattern_penalty(0.85, nm_to_m(105.0))
        assert p_small > p_large > 0

    def test_below_threshold_infinite(self, tw_analysis):
        voltages = np.array([0.3])
        tw = tw_analysis.tw_vs_voltage(voltages, "intra")[0]
        assert math.isinf(tw)

    def test_p_to_ap_direction_supported(self, tw_analysis):
        voltages = np.array([0.9])
        tw = tw_analysis.tw_vs_voltage(
            voltages, "intra", initial_state=MTJState.P)[0]
        assert 0 < tw < 20e-9


class TestRetentionAnalysis:
    def test_family_structure(self, retention):
        temps = celsius_to_kelvin(np.array([0.0, 75.0, 150.0]))
        family = retention.family(temps, nm_to_m(70.0))
        assert "delta0" in family
        assert ("P", "np0") in family

    def test_worst_case_below_everything(self, retention):
        temps = celsius_to_kelvin(np.array([25.0]))
        pitch = nm_to_m(70.0)
        family = retention.family(temps, pitch)
        worst = retention.worst_case_vs_temperature(temps, pitch)
        for key, values in family.items():
            if key == "delta0":
                continue
            assert worst[0] <= values[0] + 1e-12

    def test_delta_monotone_in_temperature(self, retention):
        temps = celsius_to_kelvin(np.linspace(0.0, 150.0, 7))
        worst = retention.worst_case_vs_temperature(temps, nm_to_m(70.0))
        assert np.all(np.diff(worst) < 0)

    def test_margin_sign(self, retention):
        temp = celsius_to_kelvin(25.0)
        generous = retention.retention_margin(temp, nm_to_m(70.0),
                                              target_delta=20.0)
        strict = retention.retention_margin(temp, nm_to_m(70.0),
                                            target_delta=60.0)
        assert generous > 0 > strict

    def test_delta0_curve_anchors_at_reference_temperature(
            self, retention, eval_device):
        curve = retention.delta0_vs_temperature(
            [eval_device.params.temperature])
        assert curve[0] == pytest.approx(eval_device.params.delta0)

    @pytest.mark.parametrize("state", [MTJState.P, MTJState.AP])
    def test_ideal_case_follows_delta0(self, retention, state):
        temps = celsius_to_kelvin(np.array([0.0, 75.0, 150.0]))
        np.testing.assert_allclose(
            retention.delta_vs_temperature(temps, state, "ideal"),
            retention.delta0_vs_temperature(temps), rtol=1e-12)

    @pytest.mark.parametrize("state", [MTJState.P, MTJState.AP])
    def test_delta_falls_with_temperature(self, retention, state):
        temps = celsius_to_kelvin(np.linspace(0.0, 150.0, 4))
        delta = retention.delta_vs_temperature(temps, state, "np0",
                                               nm_to_m(52.5))
        assert np.all(np.diff(delta) < 0)

    def test_negative_stray_field_splits_the_states(self, retention):
        """Hz_s < 0 lowers Delta_P and raises Delta_AP at every T."""
        temps = celsius_to_kelvin(np.array([0.0, 75.0, 150.0]))
        pitch = nm_to_m(52.5)
        ideal = retention.delta0_vs_temperature(temps)
        p = retention.delta_vs_temperature(temps, MTJState.P, "np0", pitch)
        ap = retention.delta_vs_temperature(temps, MTJState.AP, "np0",
                                            pitch)
        assert np.all(p < ideal) and np.all(ideal < ap)
