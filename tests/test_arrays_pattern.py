"""Tests for NP8 neighborhood patterns and array data patterns."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arrays import (
    DataPattern,
    NeighborhoodPattern,
    all_patterns,
    checkerboard,
    pattern_classes,
    solid,
)
from repro.arrays.pattern import ALL_AP, ALL_P, random_pattern
from repro.device import MTJState
from repro.errors import ParameterError

NP8_INTS = st.integers(min_value=0, max_value=255)


class TestNeighborhoodPattern:
    @given(NP8_INTS)
    def test_int_roundtrip(self, value):
        assert NeighborhoodPattern.from_int(value).to_int() == value

    def test_bit_order_is_little_endian(self):
        pattern = NeighborhoodPattern.from_int(0b00000001)
        assert pattern.bits[0] == 1
        assert sum(pattern.bits) == 1

    def test_counts(self):
        pattern = NeighborhoodPattern((1, 1, 0, 0, 1, 0, 0, 0))
        assert pattern.direct_ones == 2
        assert pattern.diagonal_ones == 1

    def test_extremes(self):
        assert ALL_P.to_int() == 0
        assert ALL_AP.to_int() == 255
        assert ALL_P.direct_ones == 0
        assert ALL_AP.diagonal_ones == 4

    def test_states_and_signs(self):
        pattern = NeighborhoodPattern((0, 1, 0, 1, 0, 1, 0, 1))
        states = pattern.states()
        assert states[0] is MTJState.P
        assert states[1] is MTJState.AP
        np.testing.assert_allclose(
            pattern.signs(), [1, -1, 1, -1, 1, -1, 1, -1])

    @given(NP8_INTS)
    def test_inversion_complements_counts(self, value):
        pattern = NeighborhoodPattern.from_int(value)
        inv = NeighborhoodPattern.from_int(255 - value)
        assert pattern.direct_ones + inv.direct_ones == 4
        assert pattern.diagonal_ones + inv.diagonal_ones == 4

    def test_all_patterns_complete(self):
        patterns = all_patterns()
        assert len(patterns) == 256
        assert len({p.to_int() for p in patterns}) == 256

    def test_class_count(self):
        classes = pattern_classes()
        assert len(classes) == 25
        for (nd, ng), rep in classes.items():
            assert rep.direct_ones == nd
            assert rep.diagonal_ones == ng

    def test_validation(self):
        with pytest.raises(ParameterError):
            NeighborhoodPattern((1, 0, 1))
        with pytest.raises(ParameterError):
            NeighborhoodPattern((1, 0, 1, 0, 2, 0, 0, 0))
        with pytest.raises(ParameterError):
            NeighborhoodPattern.from_int(256)


class TestDataPattern:
    def test_solid(self):
        zeros = solid(4, 4, 0)
        ones = solid(4, 4, 1)
        assert zeros.bits.sum() == 0
        assert ones.bits.sum() == 16
        assert zeros.state(1, 1) is MTJState.P
        assert ones.state(1, 1) is MTJState.AP

    def test_checkerboard_alternates(self):
        board = checkerboard(4, 4)
        assert board.bit(0, 0) != board.bit(0, 1)
        assert board.bit(0, 0) != board.bit(1, 0)
        assert board.bit(0, 0) == board.bit(1, 1)

    def test_checkerboard_phase(self):
        assert checkerboard(4, 4, 0).bit(0, 0) == 0
        assert checkerboard(4, 4, 1).bit(0, 0) == 1

    def test_neighborhood_of_solid(self):
        np8 = solid(3, 3, 1).neighborhood_of(1, 1)
        assert np8.to_int() == 255

    def test_neighborhood_of_checkerboard(self):
        # Around a checkerboard center: all direct neighbors differ from
        # the center, all diagonals match it.
        board = checkerboard(3, 3)
        np8 = board.neighborhood_of(1, 1)
        center = board.bit(1, 1)
        assert np8.direct_ones == (4 if center == 0 else 0)
        assert np8.diagonal_ones == (0 if center == 0 else 4)

    def test_border_rejected(self):
        with pytest.raises(ParameterError):
            solid(3, 3, 0).neighborhood_of(0, 1)

    def test_random_pattern_probability(self):
        pattern = random_pattern(40, 40, rng=3, p_one=0.25)
        fraction = pattern.bits.mean()
        assert 0.15 < fraction < 0.35

    def test_non_binary_rejected(self):
        with pytest.raises(ParameterError):
            DataPattern(np.array([[0, 2], [1, 0]]))

    @pytest.mark.parametrize("bad", ([[0, -1], [1, 0]],
                                     [[0.5, 1.0], [1.0, 0.0]],
                                     [[np.nan, 1.0], [1.0, 0.0]],
                                     [[256, 0], [1, 0]]))
    def test_non_binary_rejected_after_int8_cast(self, bad):
        """Values the int8 cast would wrap or truncate onto 0/1 are
        still rejected."""
        with pytest.raises(ParameterError):
            DataPattern(np.array(bad))

    @pytest.mark.parametrize("dtype", (bool, np.int8, np.int64, float))
    def test_binary_of_any_dtype_stored_as_int8(self, dtype):
        bits = np.array([[0, 1], [1, 0]], dtype=dtype)
        stored = DataPattern(bits).bits
        assert stored.dtype == np.int8
        assert np.array_equal(stored, [[0, 1], [1, 0]])
