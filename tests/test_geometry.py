"""Tests for layer/pillar geometry."""

from __future__ import annotations

import math

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    Layer,
    LayerRole,
    PillarGeometry,
    check_no_overlap,
)
from repro.materials import COFEB_FREE, MGO


def make_layer(z_bottom=-1e-9, z_top=1e-9, role=LayerRole.FREE,
               material=COFEB_FREE, direction=+1):
    return Layer(role=role, material=material, z_bottom=z_bottom,
                 z_top=z_top, direction=direction)


class TestLayer:
    def test_thickness_and_center(self):
        layer = make_layer(-2e-9, 0.0)
        assert layer.thickness == pytest.approx(2e-9)

    def test_inverted_extent_rejected(self):
        with pytest.raises(GeometryError):
            make_layer(1e-9, -1e-9)

    def test_bad_direction_rejected(self):
        with pytest.raises(GeometryError):
            make_layer(direction=2)

    def test_nonmagnetic_with_direction_rejected(self):
        with pytest.raises(GeometryError):
            make_layer(role=LayerRole.BARRIER, material=MGO, direction=1)

    def test_magnetic_role_needs_direction(self):
        with pytest.raises(GeometryError):
            make_layer(direction=0)

    def test_moment_per_area_signed(self):
        up = make_layer(direction=+1)
        down = make_layer(direction=-1)
        assert up.moment_per_area == pytest.approx(
            COFEB_FREE.ms * up.thickness)
        assert down.moment_per_area == pytest.approx(
            -up.moment_per_area)

    def test_barrier_has_zero_moment(self):
        barrier = make_layer(role=LayerRole.BARRIER, material=MGO,
                             direction=0)
        assert barrier.moment_per_area == 0.0
        assert not barrier.is_magnetic_role


class TestPillar:
    def test_radius_and_area(self):
        pillar = PillarGeometry(ecd=50e-9)
        assert pillar.radius == pytest.approx(25e-9)
        assert pillar.area == pytest.approx(math.pi * 25e-9 ** 2)

    def test_rejects_non_positive(self):
        with pytest.raises(Exception):
            PillarGeometry(ecd=0.0)


class TestOverlap:
    def test_accepts_disjoint(self):
        a = make_layer(-3e-9, -2e-9)
        b = make_layer(-2e-9, 0.0)
        ordered = check_no_overlap([b, a])
        assert ordered[0] is a

    def test_rejects_overlap(self):
        a = make_layer(-3e-9, -1e-9)
        b = make_layer(-2e-9, 0.0)
        with pytest.raises(GeometryError, match="overlap"):
            check_no_overlap([a, b])

    def test_touching_layers_ok(self):
        a = make_layer(-2e-9, -1e-9)
        b = make_layer(-1e-9, 0.0)
        check_no_overlap([a, b])
