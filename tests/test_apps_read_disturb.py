"""Tests for the read-disturb analysis."""

from __future__ import annotations

import math

import pytest

from repro.apps import ReadDisturbAnalysis
from repro.arrays import VictimAnalysis
from repro.arrays.pattern import ALL_AP, ALL_P
from repro.device import MTJState
from repro.errors import ParameterError


@pytest.fixture
def analysis(eval_device):
    return ReadDisturbAnalysis(eval_device)


@pytest.fixture
def hz_intra(eval_device):
    return eval_device.intra_stray_field()


class TestEffectiveBarrier:
    def test_read_lowers_barrier(self, analysis, hz_intra,
                                 eval_device):
        static = eval_device.delta(MTJState.P, hz_intra)
        tilted = analysis.effective_delta(MTJState.P, 0.1, hz_intra)
        assert tilted < static

    def test_tiny_read_voltage_keeps_barrier(self, analysis, hz_intra,
                                             eval_device):
        static = eval_device.delta(MTJState.P, hz_intra)
        tilted = analysis.effective_delta(MTJState.P, 1e-3, hz_intra)
        assert tilted == pytest.approx(static, rel=0.05)

    def test_overdriven_read_collapses_barrier(self, analysis,
                                               hz_intra):
        assert analysis.effective_delta(MTJState.P, 0.9,
                                        hz_intra) == 0.0

    def test_rejects_non_device(self):
        with pytest.raises(ParameterError):
            ReadDisturbAnalysis("device")


class TestDisturbProbability:
    def test_monotone_in_voltage(self, analysis, hz_intra):
        probs = [analysis.disturb_probability(MTJState.P, v, 10e-9,
                                              hz_intra)
                 for v in (0.02, 0.1, 0.2, 0.4)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_paper_read_voltage_is_safe(self, analysis, hz_intra):
        # The paper reads at 20 mV: disturb must be negligible.
        p = analysis.disturb_probability(MTJState.P, 0.02, 10e-9,
                                         hz_intra)
        assert p < 1e-12

    def test_longer_read_more_disturb(self, analysis, hz_intra):
        short = analysis.disturb_probability(MTJState.P, 0.3, 10e-9,
                                             hz_intra)
        long = analysis.disturb_probability(MTJState.P, 0.3, 100e-9,
                                            hz_intra)
        assert long > short

    def test_reads_to_failure_inverse(self, analysis, hz_intra):
        p = analysis.disturb_probability(MTJState.P, 0.3, 10e-9,
                                         hz_intra)
        n = analysis.reads_to_failure(MTJState.P, 0.3, 10e-9, hz_intra,
                                      budget=1e-6)
        if p > 0:
            assert n == pytest.approx(1e-6 / p, rel=1e-9)
        else:
            assert math.isinf(n)


class TestReadVoltageSizing:
    def test_sized_voltage_meets_target(self, analysis, hz_intra):
        target = 1e-15
        v_max = analysis.max_read_voltage(MTJState.P, target,
                                          hz_stray=hz_intra)
        p = analysis.disturb_probability(MTJState.P, v_max, 10e-9,
                                         hz_intra)
        assert p <= target * 1.05

    def test_looser_target_higher_voltage(self, analysis, hz_intra):
        tight = analysis.max_read_voltage(MTJState.P, 1e-14,
                                          hz_stray=hz_intra)
        loose = analysis.max_read_voltage(MTJState.P, 1e-9,
                                          hz_stray=hz_intra)
        assert loose >= tight


def pattern_sensitivity(analysis, pitch, t_read=10e-9):
    """Disturb probability of a P victim at 0.35 V under NP8=0 and 255."""
    victim = VictimAnalysis(analysis.device, pitch)
    return tuple(
        analysis.disturb_probability(MTJState.P, 0.35, t_read,
                                     victim.hz_total(pattern))
        for pattern in (ALL_P, ALL_AP))


class TestPatternSensitivity:
    def test_np0_worse_for_p_state(self, analysis, eval_device):
        p_np0, p_np255 = pattern_sensitivity(
            analysis, 1.5 * eval_device.params.ecd)
        # NP8=0 lowers Delta_P -> easier disturb out of P.
        assert p_np0 > p_np255

    def test_sensitivity_shrinks_with_pitch(self, analysis,
                                            eval_device):
        ecd = eval_device.params.ecd
        dense = pattern_sensitivity(analysis, 1.5 * ecd)
        sparse = pattern_sensitivity(analysis, 3.0 * ecd)
        spread_dense = dense[0] - dense[1]
        spread_sparse = sparse[0] - sparse[1]
        assert spread_dense > spread_sparse > 0
