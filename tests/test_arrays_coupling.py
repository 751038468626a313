"""Tests for the inter-cell coupling model (paper Section IV-B anchors)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import InterCellCoupling, NeighborhoodPattern
from repro.arrays.kernel_store import get_kernel_store
from repro.errors import ParameterError
from repro.stack import build_reference_stack
from repro.units import am_to_oe

NP8_INTS = st.integers(min_value=0, max_value=255)


def _kernel(coupling, offset_xy, kind):
    """Hz [A/m] at ``coupling``'s victim point from one neighbor."""
    return get_kernel_store().kernel(
        coupling.stack, offset_xy, kind,
        evaluation_point=tuple(coupling.evaluation_point),
        temperature=coupling.temperature)


@pytest.fixture(scope="module")
def coupling55():
    # The paper's Fig. 4a geometry: eCD = 55 nm, pitch = 90 nm.
    return InterCellCoupling(build_reference_stack(55e-9), 90e-9)


class TestKernels:
    def test_direct_stronger_than_diagonal(self, coupling55):
        k = coupling55.kernels()
        assert abs(k.fl_direct) > abs(k.fl_diagonal)
        assert abs(k.fixed_direct) > abs(k.fixed_diagonal)

    def test_fl_kernel_negative_for_p_neighbor(self, coupling55):
        # A P-state neighbor (moment +z) produces a -z field at the victim
        # (equatorial dipole field opposes the moment).
        k = coupling55.kernels()
        assert k.fl_direct < 0
        assert k.fl_diagonal < 0

    def test_fixed_kernel_positive(self, coupling55):
        # The fixed SAF has net -z moment (HL dominant) -> +z field at the
        # victim.
        k = coupling55.kernels()
        assert k.fixed_direct > 0

    def test_four_direct_neighbors_equal(self, coupling55):
        values = {
            round(_kernel(coupling55, pos, "fl"), 3)
            for pos in coupling55.neighborhood.aggressor_positions()[:4]
        }
        assert len(values) == 1

    def test_four_diagonal_neighbors_equal(self, coupling55):
        values = {
            round(_kernel(coupling55, pos, "fixed"), 3)
            for pos in coupling55.neighborhood.aggressor_positions()[4:]
        }
        assert len(values) == 1

    def test_kernels_memoized_per_instance(self, coupling55):
        assert coupling55.kernels() is coupling55.kernels()

    def test_off_axis_evaluation_point_rejected(self):
        # The symmetry reduction (4 equal direct, 4 equal diagonal
        # kernels) only holds on the victim axis; off-axis sampling
        # must fail loudly instead of returning wrong fields.
        stack = build_reference_stack(55e-9)
        with pytest.raises(ParameterError):
            InterCellCoupling(stack, 90e-9,
                              evaluation_point=(10e-9, 0.0, 0.0))
        with pytest.raises(ParameterError):
            InterCellCoupling(stack, 90e-9,
                              evaluation_point=(0.0, -5e-9, 0.0))
        # On-axis but above the FL center stays legal (z breaks no
        # lateral symmetry).
        InterCellCoupling(stack, 90e-9,
                          evaluation_point=(0.0, 0.0, 1e-9)).kernels()


class TestPaperAnchors:
    def test_extremes(self, coupling55):
        lo, hi = coupling55.extremes()
        assert am_to_oe(lo) == pytest.approx(-16.0, abs=8.0)
        assert am_to_oe(hi) == pytest.approx(64.0, abs=8.0)

    def test_steps(self, coupling55):
        k = coupling55.kernels()
        assert am_to_oe(2 * abs(k.fl_direct)) == pytest.approx(15.0,
                                                               abs=3.0)
        assert am_to_oe(2 * abs(k.fl_diagonal)) == pytest.approx(5.0,
                                                                 abs=2.0)

    def test_variation(self, coupling55):
        assert am_to_oe(coupling55.max_variation()) == pytest.approx(
            80.0, abs=10.0)

    def test_min_at_np0_max_at_np255(self, coupling55):
        values = coupling55.hz_inter_all()
        assert int(np.argmin(values)) == 0
        assert int(np.argmax(values)) == 255


class TestPatternAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(NP8_INTS)
    def test_symmetry_path_equals_per_position_sum(self, value):
        # hz_inter is symmetry-reduced; check it against the explicit
        # 8-position kernel sum it replaced.
        coupling = InterCellCoupling(build_reference_stack(55e-9), 90e-9)
        pattern = NeighborhoodPattern.from_int(value)
        reference = sum(
            _kernel(coupling, pos, "fixed")
            + sign * _kernel(coupling, pos, "fl")
            for pos, sign in zip(
                coupling.neighborhood.aggressor_positions(),
                pattern.signs()))
        assert coupling.hz_inter(pattern) == pytest.approx(reference,
                                                           rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(NP8_INTS)
    def test_depends_only_on_counts(self, value):
        coupling = InterCellCoupling(build_reference_stack(55e-9), 90e-9)
        pattern = NeighborhoodPattern.from_int(value)
        table = coupling.class_table()
        assert coupling.hz_inter_fast(pattern) == pytest.approx(
            table[pattern.direct_ones, pattern.diagonal_ones], rel=1e-9)

    def test_all_256_consistent_with_classes(self, coupling55):
        values = coupling55.hz_inter_all()
        table = coupling55.class_table()
        for v in (0, 15, 240, 255, 0b10101010):
            pattern = NeighborhoodPattern.from_int(v)
            assert values[v] == pytest.approx(
                table[pattern.direct_ones, pattern.diagonal_ones])

    def test_batch_matches_per_pattern(self, coupling55):
        patterns = np.arange(256).reshape(16, 16)
        batch = coupling55.hz_inter_batch(patterns)
        assert batch.shape == (16, 16)
        np.testing.assert_allclose(batch.reshape(-1),
                                   coupling55.hz_inter_all(), rtol=1e-12)

    def test_batch_rejects_bad_patterns(self, coupling55):
        with pytest.raises(ParameterError, match="integers"):
            coupling55.hz_inter_batch(np.array([0.0, 1.0]))
        with pytest.raises(ParameterError, match="0, 255"):
            coupling55.hz_inter_batch(np.array([0, 256]))
        with pytest.raises(ParameterError, match="0, 255"):
            coupling55.hz_inter_batch(np.array([-1]))

    def test_complement_symmetry(self, coupling55):
        # Flipping every neighbor mirrors the FL term around the fixed
        # baseline.
        k = coupling55.kernels()
        base = k.pattern_independent
        for v in (0, 37, 129):
            p = NeighborhoodPattern.from_int(v)
            a = coupling55.hz_inter_fast(p)
            b = coupling55.hz_inter_fast(
                NeighborhoodPattern.from_int(255 - v))
            assert a + b == pytest.approx(2 * base, rel=1e-9)


class TestPitchScaling:
    def test_variation_decreases_with_pitch(self):
        stack = build_reference_stack(35e-9)
        variations = [
            InterCellCoupling(stack, p).max_variation()
            for p in (52.5e-9, 70e-9, 105e-9, 200e-9)
        ]
        assert all(a > b for a, b in zip(variations, variations[1:]))

    def test_far_pitch_negligible(self):
        stack = build_reference_stack(20e-9)
        coupling = InterCellCoupling(stack, 200e-9)
        assert am_to_oe(coupling.max_variation()) < 3.0

    def test_kernel_store_reused(self, coupling55):
        from repro.arrays import get_kernel_store
        store = get_kernel_store()
        coupling55.kernels()
        n_before = len(store)
        coupling55.hz_inter_all()
        coupling55.class_table()
        # Same geometry -> every further lookup hits the shared store.
        assert len(store) == n_before
        InterCellCoupling(build_reference_stack(55e-9), 90e-9).kernels()
        assert len(store) == n_before

    def test_validation(self):
        with pytest.raises(ParameterError):
            InterCellCoupling("not a stack", 90e-9)
        with pytest.raises(ParameterError):
            InterCellCoupling(build_reference_stack(55e-9), -1e-9)
