"""Tests for CurrentLoop / LoopCollection superposition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fields import CurrentLoop, LoopCollection
from repro.fields.biot_savart import loop_field_biot_savart


@pytest.fixture
def loop():
    return CurrentLoop(center=(0.0, 0.0, -3e-9), radius=17.5e-9,
                       current=1.5e-3)


def shifted(loop, dx):
    x, y, z = loop.center
    return CurrentLoop((x + dx, y, z), loop.radius, loop.current)


class TestCurrentLoop:
    def test_moment(self, loop):
        assert loop.moment == pytest.approx(
            loop.current * np.pi * loop.radius ** 2)

    def test_scaled(self, loop):
        double = loop.scaled(2.0)
        assert double.current == pytest.approx(2 * loop.current)
        point = np.array([40e-9, 0.0, 0.0])
        np.testing.assert_allclose(double.field(point),
                                   2 * loop.field(point), rtol=1e-12)

    def test_translated_field_shifts(self, loop):
        moved = shifted(loop, 10e-9)
        a = loop.field(np.array([0.0, 0.0, 0.0]))
        b = moved.field(np.array([10e-9, 0.0, 0.0]))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_biot_savart_agrees(self, loop):
        pts = np.array([[0.0, 0.0, 0.0], [30e-9, 10e-9, 5e-9]])
        np.testing.assert_allclose(
            loop_field_biot_savart(loop.current, loop.radius, pts,
                                   n_segments=2000, center=loop.center),
            loop.field(pts), rtol=5e-5, atol=1e-2)

    def test_invalid_center_rejected(self):
        with pytest.raises(ParameterError):
            CurrentLoop(center=(0.0, 0.0), radius=1e-9, current=1e-3)


class TestLoopCollection:
    def test_linearity(self, loop):
        other = CurrentLoop(center=(50e-9, 0.0, 0.0), radius=10e-9,
                            current=-0.8e-3)
        both = LoopCollection([loop, other])
        pts = np.array([[0.0, 0.0, 0.0], [25e-9, 25e-9, 2e-9]])
        np.testing.assert_allclose(
            both.field(pts), loop.field(pts) + other.field(pts),
            rtol=1e-12)

    def test_concatenation(self, loop):
        a = LoopCollection([loop])
        b = LoopCollection([shifted(loop, 90e-9)])
        combined = a + b
        assert len(combined) == 2

    def test_scaled_collection(self, loop):
        col = LoopCollection([loop, shifted(loop, 40e-9)])
        half = col.scaled(0.5)
        pts = np.array([[10e-9, 0.0, 0.0]])
        np.testing.assert_allclose(half.field(pts),
                                   0.5 * col.field(pts), rtol=1e-12)

    def test_field_z_component(self, loop):
        col = LoopCollection([loop])
        pts = np.array([[0.0, 0.0, 0.0], [40e-9, 0.0, 0.0]])
        np.testing.assert_allclose(col.field_z(pts),
                                   col.field(pts)[:, 2], rtol=1e-15)

    def test_empty_collection_zero_field(self):
        col = LoopCollection([])
        np.testing.assert_allclose(
            col.field(np.array([[1e-9, 0.0, 0.0]])), 0.0)

    def test_rejects_non_loop(self):
        with pytest.raises(ParameterError):
            LoopCollection([42])

    def test_total_moment(self, loop):
        col = LoopCollection([loop, loop.scaled(-1.0)])
        assert sum(lp.moment for lp in col.loops) == pytest.approx(
            0.0, abs=1e-30)

    def test_opposite_currents_cancel(self, loop):
        cancel = LoopCollection([loop, loop.scaled(-1.0)])
        pts = np.array([[12e-9, 7e-9, 3e-9]])
        np.testing.assert_allclose(cancel.field(pts), 0.0, atol=1e-20)
