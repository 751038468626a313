"""Tests for the victim-cell analysis and full-array field maps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import ArrayLayout, VictimAnalysis
from repro.arrays.pattern import ALL_AP, ALL_P, checkerboard, solid
from repro.arrays.victim import array_field_map
from repro.device import MTJState
from repro.errors import ParameterError


@pytest.fixture
def victim(eval_device):
    return VictimAnalysis(eval_device, pitch=70e-9)


class TestTotals:
    def test_intra_only_without_pattern(self, victim, eval_device):
        assert victim.hz_total() == pytest.approx(
            eval_device.intra_stray_field())

    def test_total_is_sum(self, victim):
        total = victim.hz_total(ALL_AP)
        assert total == pytest.approx(
            victim.hz_intra() + victim.hz_inter(ALL_AP))

    def test_np0_more_negative_than_np255(self, victim):
        assert victim.hz_total(ALL_P) < victim.hz_total(ALL_AP)


class TestFiguresOfMerit:
    def test_ic_pattern_ordering(self, victim):
        # AP->P: NP8=0 (more negative field) needs more current.
        assert victim.ic("AP->P", ALL_P) > victim.ic("AP->P", ALL_AP)

    def test_tw_pattern_ordering(self, victim):
        assert (victim.switching_time(0.9, ALL_P)
                > victim.switching_time(0.9, ALL_AP))

    def test_delta_pattern_ordering(self, victim):
        assert (victim.delta(MTJState.P, ALL_P)
                < victim.delta(MTJState.P, ALL_AP))

    def test_worst_case_is_p_np0(self, victim):
        delta, state, pattern = victim.worst_case_delta()
        assert state is MTJState.P
        assert pattern.to_int() == 0
        assert delta == pytest.approx(victim.delta(MTJState.P, ALL_P))

    def test_spreads_ordered(self, victim):
        lo, hi = victim.ic_spread("AP->P")
        assert lo < hi

    def test_summary_keys(self, victim):
        summary = victim.summary()
        assert summary["pitch_nm"] == pytest.approx(70.0)
        assert summary["hz_intra_oe"] < 0
        assert summary["ic_ap_p_np0_ua"] > summary["ic_ap_p_np255_ua"]

    def test_rejects_non_device(self):
        with pytest.raises(ParameterError):
            VictimAnalysis("device", pitch=70e-9)


class TestArrayFieldMap:
    def test_border_is_nan(self, eval_device):
        layout = ArrayLayout(pitch=70e-9, rows=4, cols=4)
        out = array_field_map(eval_device, layout, solid(4, 4, 0))
        assert np.isnan(out[0, 0])
        assert np.isfinite(out[1, 1])

    def test_solid_patterns_bracket_checkerboard(self, eval_device):
        layout = ArrayLayout(pitch=70e-9, rows=5, cols=5)
        lo = array_field_map(eval_device, layout, solid(5, 5, 0))[2, 2]
        hi = array_field_map(eval_device, layout, solid(5, 5, 1))[2, 2]
        mid = array_field_map(eval_device, layout,
                              checkerboard(5, 5))[2, 2]
        assert lo < mid < hi

    def test_interior_uniform_for_solid(self, eval_device):
        layout = ArrayLayout(pitch=70e-9, rows=5, cols=5)
        out = array_field_map(eval_device, layout, solid(5, 5, 1))
        interior = out[1:-1, 1:-1]
        assert np.nanstd(interior) < 1e-9

    def test_shape_mismatch_rejected(self, eval_device):
        layout = ArrayLayout(pitch=70e-9, rows=4, cols=4)
        with pytest.raises(ParameterError):
            array_field_map(eval_device, layout, solid(5, 5, 0))
