"""Tests for the intra-cell coupling model (Fig. 2b / 3d anchors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IntraCellModel
from repro.errors import ParameterError
from repro.fields import LoopCollection, layer_to_loops
from repro.units import am_to_oe, nm_to_m


@pytest.fixture(scope="module")
def model():
    return IntraCellModel()


class TestCenterField:
    def test_eval_anchor(self, model):
        assert am_to_oe(model.hz_at_center(nm_to_m(35.0))) == \
            pytest.approx(-325.0, abs=25.0)

    def test_negative_for_all_sizes(self, model):
        for ecd_nm in (20.0, 35.0, 55.0, 90.0, 175.0):
            assert model.hz_at_center(nm_to_m(ecd_nm)) < 0

    def test_magnitude_grows_as_size_shrinks(self, model):
        values = model.hz_vs_ecd(
            np.array([nm_to_m(e) for e in (35.0, 55.0, 90.0, 175.0)]))
        magnitudes = np.abs(am_to_oe(values))
        assert np.all(np.diff(magnitudes) < 0)

    def test_steeper_below_100nm(self, model):
        # Slope (per nm) between 35-55 exceeds slope between 120-175.
        h35, h55, h120, h175 = (am_to_oe(model.hz_at_center(nm_to_m(e)))
                                for e in (35.0, 55.0, 120.0, 175.0))
        slope_small = abs(h35 - h55) / 20.0
        slope_large = abs(h120 - h175) / 55.0
        assert slope_small > 2 * slope_large

    def test_vs_ecd_validation(self, model):
        with pytest.raises(ParameterError):
            model.hz_vs_ecd(np.array([]))


class TestRadialProfile:
    def test_center_magnitude_largest(self, model):
        positions, hz = model.radial_profile(nm_to_m(55.0), n_points=41)
        hz_oe = am_to_oe(hz)
        center = hz_oe[20]
        assert center < 0
        assert abs(hz_oe[0]) < abs(center)
        assert abs(hz_oe[-1]) < abs(center)

    def test_profile_symmetric(self, model):
        positions, hz = model.radial_profile(nm_to_m(55.0), n_points=21)
        np.testing.assert_allclose(hz, hz[::-1], rtol=1e-9)

    def test_positions_span_margin(self, model):
        positions, _ = model.radial_profile(nm_to_m(55.0), n_points=11,
                                            margin=0.9)
        assert positions[0] == pytest.approx(-0.9 * 27.5e-9)


def layer_contributions(model, ecd):
    """Center fields [A/m] of the RL and of the HL alone."""
    stack = model.stack_builder(ecd)
    return tuple(
        float(LoopCollection(layer_to_loops(layer, stack.radius))
              .field((0.0, 0.0, 0.0))[2])
        for layer in (stack.reference_layer, stack.hard_layer))


class TestLayerContributions:
    def test_rl_positive_hl_negative(self, model):
        hz_rl, hz_hl = layer_contributions(model, nm_to_m(55.0))
        assert hz_rl > 0  # RL points +z, field at FL follows it.
        assert hz_hl < 0  # HL points -z.

    def test_sum_equals_total(self, model):
        hz_rl, hz_hl = layer_contributions(model, nm_to_m(55.0))
        assert hz_rl + hz_hl == pytest.approx(
            model.hz_at_center(nm_to_m(55.0)), rel=1e-9)

    def test_hl_dominates(self, model):
        hz_rl, hz_hl = layer_contributions(model, nm_to_m(55.0))
        assert abs(hz_hl) > abs(hz_rl)


class TestFieldMap:
    def test_shape(self, model):
        pts = np.zeros((7, 3))
        pts[:, 0] = np.linspace(0, 50e-9, 7)
        out = model.field_map(nm_to_m(55.0), pts)
        assert out.shape == (7, 3)

    def test_y_component_zero_on_x_axis(self, model):
        pts = np.array([[20e-9, 0.0, 0.0]])
        out = model.field_map(nm_to_m(55.0), pts)
        assert abs(out[0, 1]) < 1e-9
