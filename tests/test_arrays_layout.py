"""Tests for array layout and the 3x3 neighborhood geometry."""

from __future__ import annotations

import math

import pytest

from repro.arrays import ArrayLayout, Neighborhood3x3
from repro.errors import ParameterError


class TestArrayLayout:
    def test_positions(self):
        layout = ArrayLayout(pitch=90e-9, rows=3, cols=3)
        assert layout.position(0, 0) == (0.0, 0.0)
        assert layout.position(0, 2)[0] == pytest.approx(180e-9)
        assert layout.position(2, 0)[1] == pytest.approx(-180e-9)

    def test_cell_count_and_iteration(self):
        layout = ArrayLayout(pitch=90e-9, rows=4, cols=5)
        assert layout.n_cells == 20
        assert len(list(layout.cells())) == 20

    def test_interior_neighbor_count(self):
        layout = ArrayLayout(pitch=90e-9, rows=3, cols=3)
        assert len(layout.neighbors(1, 1)) == 8
        assert len(layout.neighbors(1, 1, include_diagonal=False)) == 4

    def test_corner_neighbor_count(self):
        layout = ArrayLayout(pitch=90e-9, rows=3, cols=3)
        assert len(layout.neighbors(0, 0)) == 3

    def test_out_of_bounds(self):
        layout = ArrayLayout(pitch=90e-9, rows=3, cols=3)
        with pytest.raises(ParameterError):
            layout.position(3, 0)
        with pytest.raises(ParameterError):
            layout.neighbors(0, 5)


class TestNeighborhood3x3:
    def test_aggressor_count(self):
        hood = Neighborhood3x3(pitch=90e-9)
        assert len(hood.aggressor_positions()) == 8

    def test_direct_distances(self):
        hood = Neighborhood3x3(pitch=90e-9)
        for i in range(4):
            assert math.hypot(*hood.aggressor_positions()[i]) == \
                pytest.approx(90e-9)

    def test_victim_at_origin(self):
        """The aggressors surround the victim at (0, 0): C0-C3 and C4-C7
        each form two opposite pairs, so every ring sums to zero."""
        positions = Neighborhood3x3(pitch=90e-9).aggressor_positions()
        for ring in (positions[:4], positions[4:]):
            assert sum(x for x, _ in ring) == pytest.approx(0.0, abs=1e-24)
            assert sum(y for _, y in ring) == pytest.approx(0.0, abs=1e-24)

    def test_diagonal_distances(self):
        hood = Neighborhood3x3(pitch=90e-9)
        for i in range(4, 8):
            assert math.hypot(*hood.aggressor_positions()[i]) == \
                pytest.approx(90e-9 * math.sqrt(2))
