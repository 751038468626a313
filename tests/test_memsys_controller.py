"""Tests for the array controller and its probability tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays.layout import ArrayLayout
from repro.arrays.pattern import random_pattern
from repro.errors import ParameterError
from repro.memsys.controller import (
    ArrayController,
    WordMap,
    neighborhood_class_map,
)
from repro.memsys.ecc import HammingSECDED


@pytest.fixture(scope="module")
def controller():
    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    device = MTJDevice(PAPER_EVAL_DEVICE)
    layout = ArrayLayout(pitch=70e-9, rows=16, cols=16)
    return ArrayController(device, layout, HammingSECDED(64))


class TestClassMap:
    def test_interior_counts_match_neighborhood_of(self):
        bits = random_pattern(8, 8, rng=3).bits
        nd, ng = neighborhood_class_map(bits)
        from repro.arrays.pattern import DataPattern
        pattern = DataPattern(bits)
        for row in range(1, 7):
            for col in range(1, 7):
                np8 = pattern.neighborhood_of(row, col)
                assert nd[row, col] == np8.direct_ones
                assert ng[row, col] == np8.diagonal_ones

    def test_border_uses_dummy_p_cells(self):
        bits = np.ones((3, 3), dtype=np.int8)
        nd, ng = neighborhood_class_map(bits)
        # Corner cell: two direct + one diagonal in-array neighbor.
        assert nd[0, 0] == 2
        assert ng[0, 0] == 1
        assert nd[1, 1] == 4
        assert ng[1, 1] == 4

    def test_rejects_non_2d(self):
        with pytest.raises(ParameterError):
            neighborhood_class_map(np.zeros(9, dtype=np.int8))

    def test_controller_class_maps_are_flat_row_major(self, controller):
        bits = random_pattern(16, 16, rng=5).bits
        nd, ng = controller.class_maps(bits.reshape(-1))
        ref_nd, ref_ng = neighborhood_class_map(bits)
        assert nd.shape == ng.shape == (256,)
        assert np.array_equal(nd, ref_nd.reshape(-1))
        assert np.array_equal(ng, ref_ng.reshape(-1))


class TestWordMap:
    def test_capacity(self):
        layout = ArrayLayout(pitch=70e-9, rows=64, cols=64)
        words = WordMap(layout, 72)
        assert words.n_words == 4096 // 72
        assert words.cells.shape == (words.n_words, 72)
        assert words.n_mapped_cells <= layout.n_cells

    def test_too_small(self):
        layout = ArrayLayout(pitch=70e-9, rows=4, cols=4)
        with pytest.raises(ParameterError):
            WordMap(layout, 72)


class TestTables:
    def test_shapes_and_ranges(self, controller):
        for table in (controller.wer_table, controller.disturb_table,
                      controller.retention_rate_table):
            assert table.shape == (2, 5, 5)
            assert np.all(table >= 0.0)
        assert np.all(controller.wer_table <= 1.0)
        assert np.all(controller.disturb_table <= 1.0)

    def test_trim_hits_nominal_at_mean_class(self, controller):
        """At the trim point (class 2,2 field) WER equals the target."""
        assert controller.class_field(2, 2) == pytest.approx(
            controller.hz_operating)
        for bit in (0, 1):
            assert controller.wer_table[bit, 2, 2] == pytest.approx(
                controller.nominal_wer, rel=1e-6)

    def test_write0_worst_at_all_p_neighbors(self, controller):
        """AP->P writes are hardest at NP8 = 0 (paper Fig. 5)."""
        table = controller.wer_table[0]
        assert table[0, 0] == table.max()
        assert table[4, 4] == table.min()

    def test_write1_worst_at_all_ap_neighbors(self, controller):
        table = controller.wer_table[1]
        assert table[4, 4] == table.max()
        assert table[0, 0] == table.min()

    def test_wer_monotone_in_class_counts(self, controller):
        """More AP neighbors monotonically ease AP->P writes."""
        table = controller.wer_table[0]
        assert np.all(np.diff(table, axis=0) < 0)
        assert np.all(np.diff(table, axis=1) < 0)

    def test_probability_lookups_vectorized(self, controller):
        """A flat class view reshaped to (2, 5, 5) prices any-shape
        per-cell (bit, nd, ng) arrays by one gather."""
        bits = np.array([[0, 1], [1, 0]])
        nd = np.array([[0, 1], [2, 3]])
        ng = np.array([[4, 3], [2, 1]])
        p = controller.wer_class_probability().reshape(2, 5, 5)[
            bits, nd, ng]
        assert p.shape == (2, 2)
        assert p[0, 0] == controller.wer_table[0, 0, 4]
        assert p[1, 1] == controller.wer_table[0, 3, 1]

    def test_retention_probability_scales_with_interval(self,
                                                        controller):
        p_short = controller.retention_class_probability(1.0)
        p_long = controller.retention_class_probability(1e6)
        assert p_short.shape == (50,)
        assert np.all(p_long >= p_short)

    def test_retention_zero_interval_allowed(self, controller):
        """A zero-dwell window (scrub immediately before the access)
        is valid and yields flip probability exactly 0."""
        assert np.all(controller.retention_class_probability(0.0)
                      == 0.0)

    def test_retention_negative_interval_rejected(self, controller):
        with pytest.raises(ParameterError):
            controller.retention_class_probability(-1.0)
        with pytest.raises(ParameterError):
            controller.retention_class_probability(-1e-9)

    def test_half_select_probability_compounds_exposures(self,
                                                         controller):
        single = np.clip(controller.half_select_table.reshape(-1), 0.0,
                         1.0 - 1e-15)
        assert np.allclose(
            controller.half_select_class_probability(1.0), single,
            rtol=0.0, atol=1e-15)
        assert np.all(controller.half_select_class_probability(0.0)
                      == 0.0)
        assert np.all(controller.half_select_class_probability(3.0)
                      >= controller.half_select_class_probability(1.0))
        with pytest.raises(ParameterError):
            controller.half_select_class_probability(-1.0)

    def test_class_probability_views_match_tables(self, controller):
        """Flat views follow the class_index memory layout exactly."""
        from repro.memsys.sampling import class_index
        bits = np.array([0, 1, 1, 0])
        nd = np.array([0, 2, 4, 1])
        ng = np.array([3, 0, 4, 2])
        ci = class_index(bits, nd, ng)
        assert np.array_equal(
            controller.wer_class_probability()[ci],
            controller.wer_table[bits, nd, ng])
        assert np.array_equal(
            controller.disturb_class_probability()[ci],
            controller.disturb_table[bits, nd, ng])
        assert np.array_equal(
            controller.retention_class_probability(0.5)[ci],
            -np.expm1(-controller.retention_rate_table[bits, nd, ng]
                      * 0.5))

    def test_describe(self, controller):
        info = controller.describe()
        assert info["code_bits"] == 72
        assert info["n_words"] == 256 // 72
        assert info["wer_spread"] > 1.0


class TestValidation:
    def test_device_type_checked(self):
        layout = ArrayLayout(pitch=70e-9, rows=16, cols=16)
        with pytest.raises(ParameterError):
            ArrayController("device", layout, HammingSECDED(64))

    def test_nominal_wer_range(self):
        from repro.device import MTJDevice, PAPER_EVAL_DEVICE
        layout = ArrayLayout(pitch=70e-9, rows=16, cols=16)
        with pytest.raises(Exception):
            ArrayController(MTJDevice(PAPER_EVAL_DEVICE), layout,
                            HammingSECDED(64), nominal_wer=1.5)
