"""Tests for extended neighborhoods and the vectorized array field map."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import (
    ArrayLayout,
    ExtendedNeighborhood,
    InterCellCoupling,
    fast_array_field_map,
)
from repro.arrays.pattern import checkerboard, random_pattern, solid
from repro.arrays.victim import array_field_map
from repro.errors import ParameterError
from repro.stack import build_reference_stack


@pytest.fixture(scope="module")
def stack55():
    return build_reference_stack(55e-9)


@pytest.fixture(scope="module")
def hood(stack55):
    return ExtendedNeighborhood(stack55, 90e-9, order=2)


class TestExtendedNeighborhood:
    def test_offset_count(self, hood):
        assert len(hood.offsets()) == 24  # 5x5 minus the victim.

    def test_order1_matches_3x3_model(self, stack55):
        hood1 = ExtendedNeighborhood(stack55, 90e-9, order=1)
        coupling = InterCellCoupling(stack55, 90e-9)
        assert hood1.max_variation() == pytest.approx(
            coupling.max_variation(), rel=1e-9)
        # All-P window == NP8 = 0 field.
        all_p = hood1.hz_inter({})
        assert all_p == pytest.approx(coupling.hz_inter_fast(0),
                                      rel=1e-9)

    def test_ring_breakdown_sums(self, hood):
        rings = hood.ring_contributions()
        assert set(rings) == {1, 2}
        total_fl = sum(fl for _, fl in rings.values())
        assert 2 * total_fl == pytest.approx(hood.max_variation(),
                                             rel=1e-9)

    def test_ring2_weaker_than_ring1(self, hood):
        rings = hood.ring_contributions()
        assert rings[2][1] < rings[1][1]

    def test_truncation_error_positive_but_bounded(self, hood):
        err = hood.truncation_error()
        assert 0.05 < err < 0.5

    def test_truncation_error_converges(self, stack55):
        # Adding ring 3 changes the total variation by less than adding
        # ring 2 did: the series converges.
        v1 = ExtendedNeighborhood(stack55, 90e-9, 1).max_variation()
        v2 = ExtendedNeighborhood(stack55, 90e-9, 2).max_variation()
        v3 = ExtendedNeighborhood(stack55, 90e-9, 3).max_variation()
        assert (v2 - v1) > (v3 - v2) > 0

    def test_hz_inter_sign_handling(self, hood):
        all_p = hood.hz_inter({})
        flipped = hood.hz_inter({(1, 0): -1})
        assert flipped > all_p  # flipping a P neighbor raises Hz.
        with pytest.raises(ParameterError):
            hood.hz_inter({(1, 0): 0})


class TestFastArrayFieldMap:
    @pytest.fixture(scope="class")
    def device(self):
        from repro.device import MTJDevice, PAPER_EVAL_DEVICE
        return MTJDevice(PAPER_EVAL_DEVICE)

    def test_matches_slow_map(self, device):
        layout = ArrayLayout(pitch=70e-9, rows=6, cols=6)
        for pattern in (solid(6, 6, 0), solid(6, 6, 1),
                        checkerboard(6, 6),
                        random_pattern(6, 6, rng=3)):
            slow = array_field_map(device, layout, pattern)
            fast = fast_array_field_map(device, 70e-9, pattern.bits,
                                        order=1)
            np.testing.assert_allclose(slow[1:-1, 1:-1],
                                       fast[1:-1, 1:-1], rtol=1e-9)

    def test_border_nan_depth_follows_order(self, device):
        bits = solid(8, 8, 0).bits
        fast2 = fast_array_field_map(device, 70e-9, bits, order=2)
        assert np.isnan(fast2[1, 1])  # ring-2 window incomplete there.
        assert np.isfinite(fast2[2, 2])

    def test_order2_differs_from_order1(self, device):
        bits = checkerboard(8, 8).bits
        f1 = fast_array_field_map(device, 70e-9, bits, order=1)
        f2 = fast_array_field_map(device, 70e-9, bits, order=2)
        assert not np.allclose(f1[2:-2, 2:-2], f2[2:-2, 2:-2])

    def test_large_array_performance_path(self, device):
        bits = random_pattern(64, 64, rng=5).bits
        out = fast_array_field_map(device, 70e-9, bits, order=1)
        assert np.isfinite(out[1:-1, 1:-1]).all()

    def test_too_small_array_rejected(self, device):
        with pytest.raises(ParameterError):
            fast_array_field_map(device, 70e-9, solid(3, 3, 0).bits,
                                 order=2)

    def test_non_binary_rejected(self, device):
        with pytest.raises(ParameterError):
            fast_array_field_map(device, 70e-9,
                                 np.full((5, 5), 2), order=1)
