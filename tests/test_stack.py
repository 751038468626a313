"""Tests for the MTJ stack builder and accessors."""

from __future__ import annotations

import pytest

from repro.errors import GeometryError, ParameterError
from repro.geometry import LayerRole
from repro.stack import (
    DEFAULT_THICKNESSES,
    MTJStack,
    build_reference_stack,
)


class TestReferenceStack:
    def test_layer_roles_present(self, stack35):
        roles = {layer.role for layer in stack35.layers}
        assert {LayerRole.FREE, LayerRole.BARRIER, LayerRole.REFERENCE,
                LayerRole.SPACER, LayerRole.HARD} <= roles

    def test_fl_midplane_at_origin(self, stack35):
        fl = stack35.free_layer
        assert fl.z_bottom + fl.z_top == pytest.approx(0.0, abs=1e-15)

    def test_vertical_order(self, stack35):
        # Bottom-pinned: HL below SAF spacer below RL below TB below FL.
        assert (stack35.hard_layer.z_top
                <= stack35.reference_layer.z_bottom)
        assert (stack35.reference_layer.z_top
                <= stack35.barrier.z_bottom + 1e-15)
        assert stack35.barrier.z_top == pytest.approx(
            stack35.free_layer.z_bottom)

    def test_saf_antiparallel(self, stack35):
        assert stack35.reference_layer.direction == +1
        assert stack35.hard_layer.direction == -1

    def test_thicknesses_match_defaults(self, stack35):
        assert stack35.free_layer.thickness == pytest.approx(
            DEFAULT_THICKNESSES["free"])
        assert stack35.hard_layer.thickness == pytest.approx(
            DEFAULT_THICKNESSES["hard"])

    def test_ecd_and_area(self, stack35):
        assert stack35.ecd == pytest.approx(35e-9)
        assert stack35.radius == pytest.approx(17.5e-9)
        assert stack35.area == pytest.approx(9.6211e-16, rel=1e-3)

    def test_with_ecd(self, stack35):
        bigger = stack35.with_ecd(55e-9)
        assert bigger.ecd == pytest.approx(55e-9)
        # Vertical geometry unchanged.
        assert bigger.free_layer.thickness == pytest.approx(
            stack35.free_layer.thickness)

    def test_with_layer_ms(self, stack35):
        modified = stack35.with_layer_ms(LayerRole.HARD, 1.0e5)
        assert modified.hard_layer.material.ms == pytest.approx(1.0e5)
        assert stack35.hard_layer.material.ms != pytest.approx(1.0e5)

    def test_with_layer_ms_unknown_role(self, stack35):
        with pytest.raises(GeometryError):
            stack35.with_layer_ms(LayerRole.CAP, 1e5)

    def test_magnetic_layers(self, stack35):
        mags = stack35.magnetic_layers()
        assert [la.role for la in mags] == [
            LayerRole.HARD, LayerRole.REFERENCE, LayerRole.FREE]


class TestBuilderOptions:
    def test_override_thickness(self):
        stack = build_reference_stack(
            35e-9, thicknesses={"barrier": 1.5e-9})
        assert stack.barrier.thickness == pytest.approx(1.5e-9)

    def test_unknown_thickness_key_rejected(self):
        with pytest.raises(ParameterError):
            build_reference_stack(35e-9, thicknesses={"oxide": 1e-9})

    def test_ms_overrides(self):
        stack = build_reference_stack(35e-9, rl_ms=2e5, hl_ms=3e5,
                                      fl_ms=9e5)
        assert stack.reference_layer.material.ms == pytest.approx(2e5)
        assert stack.hard_layer.material.ms == pytest.approx(3e5)
        assert stack.free_layer.material.ms == pytest.approx(9e5)

    def test_duplicate_role_rejected(self, stack35):
        layers = stack35.layers + (stack35.free_layer,)
        with pytest.raises(GeometryError):
            MTJStack(layers=layers, pillar=stack35.pillar)
