"""Tests for the coupling-aware fault analysis."""

from __future__ import annotations

import pytest

from repro.apps import CouplingFaultAnalyzer
from repro.errors import ParameterError


@pytest.fixture
def analyzer(eval_device):
    return CouplingFaultAnalyzer(eval_device, pitch=52.5e-9)


class TestAssessment:
    def test_generous_specs_fault_free(self, analyzer):
        assessment = analyzer.assess(pulse_budget=50e-9,
                                     write_voltage=1.0, min_delta=20.0)
        assert not assessment.write_fault_possible
        assert not assessment.retention_fault_possible
        assert assessment.write_margin_ns > 0
        assert assessment.retention_margin > 0

    def test_tight_pulse_budget_flags_write_fault(self, analyzer):
        assessment = analyzer.assess(pulse_budget=2e-9,
                                     write_voltage=0.85, min_delta=20.0)
        assert assessment.write_fault_possible

    def test_tight_retention_spec_flags_retention_fault(self, analyzer):
        assessment = analyzer.assess(pulse_budget=50e-9,
                                     write_voltage=1.0, min_delta=60.0)
        assert assessment.retention_fault_possible

    def test_denser_pitch_smaller_margins(self, eval_device):
        dense = CouplingFaultAnalyzer(eval_device, 52.5e-9).assess(
            15e-9, 0.9, 35.0)
        sparse = CouplingFaultAnalyzer(eval_device, 105e-9).assess(
            15e-9, 0.9, 35.0)
        assert dense.write_margin_ns < sparse.write_margin_ns
        assert dense.retention_margin < sparse.retention_margin

    def test_validation(self, analyzer, eval_device):
        with pytest.raises(ParameterError):
            analyzer.assess(-1.0, 0.9, 35.0)
        with pytest.raises(ParameterError):
            CouplingFaultAnalyzer("device", 52.5e-9)


class TestStressPatterns:
    def test_background_is_solid_zero(self, analyzer):
        name, pattern = analyzer.sensitizing_background("write_margin")
        assert name == "solid-0"
        assert pattern.to_int() == 0

    def test_unknown_fault_type(self, analyzer):
        with pytest.raises(ParameterError, match="write_margin"):
            analyzer.sensitizing_background("bitflip")

    def test_stress_data_pattern(self, analyzer):
        """Each fault type's background fills a whole array: every
        interior cell then sees the sensitizing neighborhood at once."""
        from repro.arrays.pattern import solid
        for fault_type in ("write_margin", "retention"):
            name, pattern = analyzer.sensitizing_background(fault_type)
            array = solid(8, 8, 0 if name == "solid-0" else 1)
            for row in range(1, 7):
                for col in range(1, 7):
                    assert array.neighborhood_of(row, col) == pattern

    def test_stress_background_is_worst_case(self, analyzer,
                                             eval_device):
        """The solid-0 background must indeed maximize tw(AP->P)."""
        from repro.arrays import VictimAnalysis
        from repro.arrays.pattern import NeighborhoodPattern
        victim = VictimAnalysis(eval_device, 52.5e-9)
        tw_solid0 = victim.switching_time(
            0.9, NeighborhoodPattern.from_int(0))
        for np8 in (15, 85, 170, 255):
            tw = victim.switching_time(
                0.9, NeighborhoodPattern.from_int(np8))
            assert tw_solid0 >= tw


class TestMarchTest:
    def test_structure(self, analyzer):
        elements = analyzer.march_test(0.9)
        assert elements[0] == "{ up (w0) }"
        assert any("pause" in e for e in elements)
        assert any("r0" in e for e in elements)
        assert any("r1" in e for e in elements)

    def test_pause_bounded(self, analyzer):
        pause = analyzer._retention_pause()
        assert 1.0 <= pause <= 1.0e4

    def test_sweep_pitches(self, eval_device):
        assessments = [
            CouplingFaultAnalyzer(eval_device, pitch).assess(
                15e-9, 0.9, 35.0)
            for pitch in (52.5e-9, 70e-9, 105e-9)]
        margins = [a.retention_margin for a in assessments]
        assert margins[0] < margins[1] < margins[2]
        write = [a.write_margin_ns for a in assessments]
        assert write[0] < write[1] < write[2]
