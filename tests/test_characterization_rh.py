"""Tests for the R-H measurement emulation and extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization import (
    RHMeasurement,
    extract_ecd,
    extract_hc_oe,
    extract_offset_oe,
    loop_statistics,
)
from repro.device import MTJDevice
from repro.errors import MeasurementError, ParameterError
from repro.experiments.data import (
    EVAL_ECD,
    WAFER_DELTA0_35NM,
    WAFER_DELTA0_CAP,
    WAFER_RESISTANCE,
    wafer_delta0,
    wafer_device_parameters,
)
from repro.units import am_to_oe, nm_to_m


@pytest.fixture(scope="module")
def wafer55():
    return MTJDevice(wafer_device_parameters(nm_to_m(55.0)))


@pytest.fixture(scope="module")
def stats55(wafer55):
    return RHMeasurement(wafer55).run(n_cycles=12, rng=2020)


class TestRHMeasurement:
    def test_counts(self, stats55):
        assert stats55.n_cycles == 12
        assert stats55.n_valid == 12

    def test_hc_in_wafer_range(self, stats55):
        assert 1500.0 < stats55.hc_oe < 3200.0

    def test_offset_positive(self, stats55):
        assert stats55.hoffset_oe > 0

    def test_stray_recovers_model(self, wafer55, stats55):
        model = wafer55.intra_stray_field()
        assert am_to_oe(stats55.stray_field) == pytest.approx(
            am_to_oe(model), abs=40.0)

    def test_cycle_spread_nonzero(self, stats55):
        assert stats55.hsw_p_std > 0

    def test_tmr_positive(self, stats55):
        assert 0.5 < stats55.tmr < 1.3

    def test_rejects_non_device(self):
        with pytest.raises(ParameterError):
            RHMeasurement("device")

    def test_offset_and_coercivity_split_the_switching_fields(
            self, stats55):
        assert stats55.hoffset == pytest.approx(
            0.5 * (stats55.hsw_p_mean + stats55.hsw_n_mean))
        assert stats55.stray_field == -stats55.hoffset
        assert stats55.hoffset + stats55.hc == pytest.approx(
            stats55.hsw_p_mean)
        assert stats55.hoffset - stats55.hc == pytest.approx(
            stats55.hsw_n_mean)


class TestWaferDelta0:
    def test_anchor_at_eval_size(self):
        assert wafer_delta0(EVAL_ECD) == pytest.approx(WAFER_DELTA0_35NM)

    def test_scales_with_area_then_caps(self):
        assert wafer_delta0(2.0 * EVAL_ECD) == pytest.approx(
            min(4.0 * WAFER_DELTA0_35NM, WAFER_DELTA0_CAP))
        assert wafer_delta0(0.5 * EVAL_ECD) == pytest.approx(
            0.25 * WAFER_DELTA0_35NM)
        assert wafer_delta0(nm_to_m(175.0)) == WAFER_DELTA0_CAP
        device = wafer_device_parameters(nm_to_m(55.0))
        assert device.delta0 == wafer_delta0(nm_to_m(55.0))


class TestLoopLevelExtraction:
    def test_statistics_keys(self, wafer55):
        sim = wafer55.rh_simulator()
        rng = np.random.default_rng(5)
        loops = [sim.simulate(rng=rng) for _ in range(5)]
        stats = loop_statistics(loops)
        assert stats["hsw_p_oe"] > 0 > stats["hsw_n_oe"]
        assert stats["hc_oe"] == pytest.approx(
            (stats["hsw_p_oe"] - stats["hsw_n_oe"]) / 2, rel=1e-9)
        assert stats["stray_oe"] == pytest.approx(
            -stats["hoffset_oe"], rel=1e-9)

    def test_hc_offset_helpers(self, wafer55):
        sim = wafer55.rh_simulator()
        rng = np.random.default_rng(6)
        loops = [sim.simulate(rng=rng) for _ in range(4)]
        assert extract_hc_oe(loops) > 0
        assert extract_offset_oe(loops) > 0

    def test_empty_loops_rejected(self):
        with pytest.raises(MeasurementError):
            loop_statistics([])

    def test_ecd_extraction(self, wafer55):
        sim = wafer55.rh_simulator()
        loop = sim.simulate(rng=8)
        ecd = extract_ecd(WAFER_RESISTANCE.ra, loop)
        assert ecd == pytest.approx(nm_to_m(55.0), rel=0.02)
