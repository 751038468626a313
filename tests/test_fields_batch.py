"""Parity tests for the vectorized loop-field backend.

The batched ``LoopCollection.field`` must match the per-loop reference
path and the discrete Biot-Savart solver to tight tolerance, for generic
loop bags and for the stack-derived sources the coupling model uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fields import (
    CurrentLoop,
    LoopCollection,
    layer_to_loops,
    loop_field_analytic,
    loop_field_analytic_many,
)
from repro.fields.biot_savart import loop_field_biot_savart
from repro.stack import build_reference_stack


@pytest.fixture(scope="module")
def random_collection():
    rng = np.random.default_rng(7)
    loops = [
        CurrentLoop(tuple(rng.uniform(-50e-9, 50e-9, 3)),
                    rng.uniform(5e-9, 30e-9),
                    rng.uniform(-2e-3, 2e-3))
        for _ in range(23)
    ]
    return LoopCollection(loops)


@pytest.fixture(scope="module")
def eval_points():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-80e-9, 80e-9, size=(96, 3))
    # Include exactly-on-axis points of several member loops.
    pts[0] = (0.0, 0.0, 40e-9)
    pts[1] = (0.0, 0.0, -25e-9)
    return pts


class TestBatchedKernel:
    def test_matches_per_loop_kernel(self, random_collection,
                                     eval_points):
        col = random_collection
        batched = loop_field_analytic_many(
            col.currents, col.radii, col.centers, eval_points)
        reference = np.zeros_like(eval_points)
        for lp in col:
            reference += loop_field_analytic(
                lp.current, lp.radius,
                eval_points - np.asarray(lp.center))
        np.testing.assert_allclose(batched, reference, rtol=1e-12,
                                   atol=1e-9)

    def test_per_source_shape(self, random_collection, eval_points):
        col = random_collection
        per_source = loop_field_analytic_many(
            col.currents, col.radii, col.centers, eval_points,
            sum_sources=False)
        assert per_source.shape == (len(col), len(eval_points), 3)
        np.testing.assert_allclose(
            per_source.sum(axis=0), col.field(eval_points), rtol=1e-12,
            atol=1e-9)

    def test_empty_sources(self, eval_points):
        out = loop_field_analytic_many(
            np.zeros(0), np.zeros(0), np.zeros((0, 3)), eval_points)
        assert out.shape == eval_points.shape
        assert np.all(out == 0.0)

    def test_shape_validation(self, eval_points):
        with pytest.raises(ParameterError):
            loop_field_analytic_many([1e-3], [1e-9, 2e-9],
                                     [[0, 0, 0]], eval_points)
        with pytest.raises(ParameterError):
            loop_field_analytic_many([1e-3], [1e-9], [[0, 0]],
                                     eval_points)
        with pytest.raises(ParameterError):
            loop_field_analytic_many([1e-3], [-1e-9], [[0, 0, 0]],
                                     eval_points)


class TestCollectionParity:
    def test_field_matches_reference_path(self, random_collection,
                                          eval_points):
        np.testing.assert_allclose(
            random_collection.field(eval_points),
            random_collection.field_per_loop(eval_points),
            rtol=1e-12, atol=1e-9)

    def test_field_matches_biot_savart(self):
        # Stack-derived sources at a neighbor offset, evaluated at the
        # victim FL: exactly the coupling-kernel geometry.
        stack = build_reference_stack(55e-9)
        loops = []
        for layer in stack.fixed_layers():
            loops.extend(layer_to_loops(layer, stack.radius,
                                        center_xy=(90e-9, 0.0)))
        col = LoopCollection(loops)
        pts = np.array([[0.0, 0.0, 0.0], [10e-9, -5e-9, 2e-9]])
        reference = sum(
            loop_field_biot_savart(lp.current, lp.radius, pts,
                                   n_segments=2000, center=lp.center)
            for lp in loops)
        np.testing.assert_allclose(col.field(pts), reference,
                                   rtol=5e-5, atol=1e-2)

    def test_single_point_shape(self, random_collection):
        out = random_collection.field(np.array([1e-9, 2e-9, 3e-9]))
        assert out.shape == (3,)

    def test_packed_views_consistent(self, random_collection):
        col = random_collection
        assert col.centers.shape == (len(col), 3)
        for i, lp in enumerate(col):
            assert col.radii[i] == lp.radius
            assert col.currents[i] == lp.current
            np.testing.assert_array_equal(col.centers[i], lp.center)


class TestFieldGrid:
    def test_grid_shape_preserved(self, random_collection):
        pts = np.zeros((4, 5, 2, 3))
        pts[..., 0] = np.linspace(-40e-9, 40e-9, 4)[:, None, None]
        pts[..., 2] = 10e-9
        out = random_collection.field_grid(pts)
        assert out.shape == pts.shape
        flat = random_collection.field(pts.reshape(-1, 3))
        np.testing.assert_allclose(out.reshape(-1, 3), flat, rtol=1e-12)

    def test_grid_single_point(self, random_collection):
        out = random_collection.field_grid(np.array([0.0, 0.0, 5e-9]))
        assert out.shape == (3,)

    def test_grid_rejects_bad_last_axis(self, random_collection):
        with pytest.raises(ParameterError):
            random_collection.field_grid(np.zeros((4, 2)))
