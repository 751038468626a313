"""Tests for the inter-cell model facade and the Psi coupling factor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    InterCellModel,
    coupling_factor,
    psi_threshold_pitch,
    psi_vs_pitch,
)
from repro.errors import ParameterError
from repro.stack import build_reference_stack
from repro.units import nm_to_m, oe_to_am

HC = oe_to_am(2200.0)


class TestInterCellModel:
    def test_class_table_complete(self):
        model = InterCellModel(nm_to_m(55.0))
        table = model.class_table_oe(nm_to_m(90.0))
        assert len(table) == 25
        assert table[(0, 0)] == pytest.approx(-16.0, abs=8.0)
        assert table[(4, 4)] == pytest.approx(64.0, abs=8.0)

    def test_table_monotone_in_counts(self):
        model = InterCellModel(nm_to_m(55.0))
        table = model.class_table_oe(nm_to_m(90.0))
        for ng in range(5):
            column = [table[(nd, ng)] for nd in range(5)]
            assert all(a < b for a, b in zip(column, column[1:]))
        for nd in range(5):
            row = [table[(nd, ng)] for ng in range(5)]
            assert all(a < b for a, b in zip(row, row[1:]))

    def test_steps(self):
        model = InterCellModel(nm_to_m(55.0))
        direct, diag = model.steps_oe(nm_to_m(90.0))
        assert direct == pytest.approx(15.0, abs=3.0)
        assert diag == pytest.approx(5.0, abs=2.0)

    def test_np8_sweep_size(self):
        model = InterCellModel(nm_to_m(55.0))
        sweep = model.np8_sweep_oe(nm_to_m(90.0))
        assert sweep.shape == (256,)

    def test_variation_vs_pitch_decreasing(self):
        model = InterCellModel(nm_to_m(35.0))
        pitches = np.array([nm_to_m(p) for p in (52.5, 70.0, 105.0,
                                                 200.0)])
        variations = [model.coupling(p).max_variation() for p in pitches]
        assert np.all(np.diff(variations) < 0)


class TestPsi:
    def test_paper_pitch_ratios(self):
        """Paper Fig. 5: Psi ~ 1% / 2% / 7% at 3x / 2x / 1.5x eCD."""
        stack = build_reference_stack(nm_to_m(35.0))
        psi_3x = coupling_factor(stack, nm_to_m(105.0), HC)
        psi_2x = coupling_factor(stack, nm_to_m(70.0), HC)
        psi_15x = coupling_factor(stack, nm_to_m(52.5), HC)
        assert psi_3x * 100 == pytest.approx(1.0, abs=0.7)
        assert psi_2x * 100 == pytest.approx(2.0, abs=1.5)
        assert psi_15x * 100 == pytest.approx(7.0, abs=2.0)

    def test_psi_vs_pitch_monotone(self):
        pitches = np.linspace(nm_to_m(52.5), nm_to_m(200.0), 20)
        psi = psi_vs_pitch(nm_to_m(35.0), pitches, HC)
        assert np.all(np.diff(psi) < 0)

    def test_negligible_at_200nm(self):
        for ecd_nm in (20.0, 35.0, 55.0):
            psi = psi_vs_pitch(nm_to_m(ecd_nm),
                               np.array([nm_to_m(200.0)]), HC)[0]
            assert psi < 0.005

    def test_threshold_pitch_for_35nm(self):
        pitch = psi_threshold_pitch(nm_to_m(35.0), HC, psi_target=0.02)
        assert pitch * 1e9 == pytest.approx(80.0, abs=10.0)

    def test_threshold_is_a_root(self):
        ecd = nm_to_m(35.0)
        pitch = psi_threshold_pitch(ecd, HC, psi_target=0.02)
        stack = build_reference_stack(ecd)
        assert coupling_factor(stack, pitch, HC) == pytest.approx(
            0.02, rel=1e-3)

    def test_lower_target_needs_larger_pitch(self):
        ecd = nm_to_m(35.0)
        loose = psi_threshold_pitch(ecd, HC, psi_target=0.05)
        tight = psi_threshold_pitch(ecd, HC, psi_target=0.01)
        assert tight > loose

    def test_already_safe_at_lower_bound(self):
        # A huge target is satisfied everywhere: returns the lower bound.
        ecd = nm_to_m(35.0)
        pitch = psi_threshold_pitch(ecd, HC, psi_target=0.5)
        assert pitch == pytest.approx(1.5 * ecd)

    def test_unreachable_target_raises(self):
        with pytest.raises(ParameterError):
            psi_threshold_pitch(nm_to_m(35.0), HC, psi_target=1e-7)

    def test_bigger_device_higher_psi_at_fixed_pitch(self):
        # Larger FL moment -> stronger neighbor fields at equal pitch.
        pitch = np.array([nm_to_m(110.0)])
        psi_small = psi_vs_pitch(nm_to_m(20.0), pitch, HC)[0]
        psi_large = psi_vs_pitch(nm_to_m(55.0), pitch, HC)[0]
        assert psi_large > psi_small
