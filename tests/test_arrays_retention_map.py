"""Tests for the whole-array retention-risk map."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import VictimAnalysis, retention_map
from repro.arrays.pattern import ALL_P, checkerboard, solid
from repro.device import MTJState
from repro.errors import ParameterError
from repro.units import celsius_to_kelvin


class TestRetentionMap:
    def test_border_nan_interior_finite(self, eval_device):
        rmap = retention_map(eval_device, 70e-9, solid(6, 6, 0))
        assert np.isnan(rmap.delta[0, 0])
        assert np.isfinite(rmap.delta[2, 2])

    def test_solid0_matches_victim_worst_case(self, eval_device):
        pitch = 70e-9
        rmap = retention_map(eval_device, pitch, solid(6, 6, 0))
        victim = VictimAnalysis(eval_device, pitch)
        expected = victim.delta(MTJState.P, ALL_P)
        assert rmap.delta[2, 2] == pytest.approx(expected, rel=1e-6)

    def test_solid0_weaker_than_solid1(self, eval_device):
        # All-P arrays sit at the retention worst corner; all-AP arrays
        # (storing 1s) are the stable corner under the negative field.
        weak = retention_map(eval_device, 70e-9, solid(6, 6, 0))
        strong = retention_map(eval_device, 70e-9, solid(6, 6, 1))
        assert np.nanmin(weak.delta) < np.nanmin(strong.delta)

    def test_checkerboard_has_two_levels(self, eval_device):
        rmap = retention_map(eval_device, 70e-9, checkerboard(7, 7))
        interior = rmap.delta[1:-1, 1:-1]
        unique = np.unique(np.round(interior, 6))
        assert unique.size == 2  # P cells and AP cells.

    def test_cells_below_spec(self, eval_device):
        rmap = retention_map(eval_device, 52.5e-9, solid(6, 6, 0))
        # The NaN border compares False: only the 16 interior cells of
        # a 6x6 are counted.
        assert np.sum(rmap.delta < 1000.0) == 16
        assert np.sum(rmap.delta < 1.0) == 0

    def test_statistics(self, eval_device):
        rmap = retention_map(eval_device, 70e-9, checkerboard(8, 8))
        interior = rmap.delta[np.isfinite(rmap.delta)]
        assert interior.size == 36
        assert interior.min() < interior.mean() < interior.max()
        assert interior.std() > 0

    def test_temperature_lowers_map(self, eval_device):
        cold = retention_map(eval_device, 70e-9, solid(6, 6, 0))
        hot = retention_map(eval_device, 70e-9, solid(6, 6, 0),
                            temperature=celsius_to_kelvin(125.0))
        assert np.nanmin(hot.delta) < np.nanmin(cold.delta)

    def test_rejects_non_device(self):
        with pytest.raises(ParameterError):
            retention_map("device", 70e-9, solid(6, 6, 0))
