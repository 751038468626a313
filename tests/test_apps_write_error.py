"""Tests for the write-error-rate model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.apps import WriteErrorModel
from repro.device import MTJState
from repro.errors import ParameterError


@pytest.fixture
def wer_model(eval_device):
    return WriteErrorModel(eval_device)


@pytest.fixture
def hz_intra(eval_device):
    return eval_device.intra_stray_field()


class TestWerCurve:
    def test_monotone_decreasing_in_pulse(self, wer_model, hz_intra):
        pulses = np.array([2e-9, 5e-9, 10e-9, 20e-9, 40e-9])
        wer = wer_model.wer(pulses, vp=0.9, hz_stray=hz_intra)
        assert np.all(np.diff(wer) < 0)

    def test_bounds(self, wer_model, hz_intra):
        pulses = np.linspace(1e-10, 100e-9, 30)
        wer = wer_model.wer(pulses, vp=1.0, hz_stray=hz_intra)
        assert np.all((wer >= 0.0) & (wer <= 1.0))

    def test_short_pulse_always_fails(self, wer_model, hz_intra):
        assert wer_model.wer(1e-12, vp=0.9,
                             hz_stray=hz_intra) == pytest.approx(1.0)

    def test_below_threshold_certain_failure(self, wer_model, hz_intra):
        assert wer_model.wer(100e-9, vp=0.1,
                             hz_stray=hz_intra) == pytest.approx(1.0)

    def test_higher_voltage_lower_wer(self, wer_model, hz_intra):
        lo = wer_model.wer(10e-9, vp=0.85, hz_stray=hz_intra)
        hi = wer_model.wer(10e-9, vp=1.1, hz_stray=hz_intra)
        assert hi < lo

    def test_mean_time_near_half_error_point(self, wer_model, hz_intra):
        """At t = mean tw the WER is order-1/2 (the distribution median
        and mean are close on the log scale)."""
        tw = wer_model.mean_switching_time(0.9, hz_intra)
        wer_at_mean = wer_model.wer(tw, vp=0.9, hz_stray=hz_intra)
        assert 0.2 < wer_at_mean < 0.8

    def test_negative_pulse_rejected(self, wer_model):
        with pytest.raises(ParameterError):
            wer_model.wer(-1e-9, vp=0.9)

    def test_rejects_non_device(self):
        with pytest.raises(ParameterError):
            WriteErrorModel("device")


class TestPulseSizing:
    def test_inverse_roundtrip(self, wer_model, hz_intra):
        target = 1e-6
        pulse = wer_model.pulse_for_wer(target, vp=0.95,
                                        hz_stray=hz_intra)
        assert wer_model.wer(pulse, vp=0.95,
                             hz_stray=hz_intra) == pytest.approx(
            target, rel=1e-6)

    def test_tighter_target_longer_pulse(self, wer_model, hz_intra):
        loose = wer_model.pulse_for_wer(1e-3, vp=0.95,
                                        hz_stray=hz_intra)
        tight = wer_model.pulse_for_wer(1e-9, vp=0.95,
                                        hz_stray=hz_intra)
        assert tight > loose

    def test_below_threshold_rejected(self, wer_model, hz_intra):
        with pytest.raises(ParameterError):
            wer_model.pulse_for_wer(1e-6, vp=0.1, hz_stray=hz_intra)

    def test_pulse_scale_is_nanoseconds(self, wer_model, hz_intra):
        pulse = wer_model.pulse_for_wer(1e-6, vp=0.95,
                                        hz_stray=hz_intra)
        assert 1e-9 < pulse < 200e-9


def _angles_wer(model, t_pulse, vp, hz_stray, n_samples, rng):
    """Per-sample reference for :meth:`WriteErrorModel.sample_wer`.

    Draws ``theta_0^2`` from the equilibrium distribution
    ``P(theta_0^2) = Delta * exp(-Delta theta_0^2)``, converts each to
    its switching time, and counts the fraction missing ``t_pulse``.
    """
    rate = model._angle_rate(vp, hz_stray, MTJState.AP)
    delta = model.device.params.delta0
    theta_sq = np.random.default_rng(rng).exponential(1.0 / delta,
                                                      size=n_samples)
    # theta_0^2 beyond (pi/2)^2 means an already-switched draw
    # (t_sw <= 0); the log handles it with a negative time.
    t_sw = np.log((math.pi / 2.0) ** 2 / theta_sq) / (2.0 * rate)
    return float(np.mean(t_sw > t_pulse))


class TestSampledWer:
    def test_binomial_matches_closed_form(self, wer_model, hz_intra):
        """The class-grouped count draw sits within MC error of the
        closed form (it draws Binomial(n, wer))."""
        closed = wer_model.wer(10e-9, vp=0.9, hz_stray=hz_intra)
        sampled = wer_model.sample_wer(10e-9, 0.9, hz_intra,
                                       n_samples=100_000, rng=1)
        se = math.sqrt(closed * (1.0 - closed) / 100_000)
        assert abs(sampled - closed) < 6.0 * se + 1e-12

    def test_angles_reference_matches_closed_form(self, wer_model,
                                                  hz_intra):
        """The per-sample angle path remains the distributional
        cross-check: initial-angle draws reproduce the closed form."""
        closed = wer_model.wer(10e-9, vp=0.9, hz_stray=hz_intra)
        sampled = _angles_wer(wer_model, 10e-9, 0.9, hz_intra,
                              n_samples=100_000, rng=1)
        se = math.sqrt(closed * (1.0 - closed) / 100_000)
        assert abs(sampled - closed) < 6.0 * se + 1e-12

    def test_methods_statistically_equivalent_at_rare_target(
            self, wer_model, hz_intra):
        """At a production-like rare-event corner the binomial draw is
        usable (the angle path would need ~1e8 draws to see a count)."""
        pulse = wer_model.pulse_for_wer(1e-4, vp=0.95,
                                        hz_stray=hz_intra)
        n = 2_000_000
        sampled = wer_model.sample_wer(pulse, 0.95, hz_intra,
                                       n_samples=n, rng=7)
        assert abs(sampled - 1e-4) < 6.0 * math.sqrt(1e-4 / n)

    def test_below_threshold_is_certain_failure(self, wer_model,
                                                hz_intra):
        assert wer_model.sample_wer(10e-9, 0.1, hz_intra,
                                    n_samples=100, rng=0) == 1.0

    def test_seeded_draws_are_deterministic(self, wer_model, hz_intra):
        draws = [wer_model.sample_wer(10e-9, 0.9, hz_intra,
                                      n_samples=10_000, rng=3)
                 for _ in range(2)]
        assert draws[0] == draws[1]


class TestWorstCase:
    def test_worst_case_longer_than_best(self, wer_model, eval_device):
        pitch = 1.5 * eval_device.params.ecd
        penalty = wer_model.pattern_pulse_penalty(1e-6, 0.95, pitch)
        assert penalty > 0

    def test_penalty_shrinks_with_pitch(self, wer_model, eval_device):
        ecd = eval_device.params.ecd
        dense = wer_model.pattern_pulse_penalty(1e-6, 0.95, 1.5 * ecd)
        sparse = wer_model.pattern_pulse_penalty(1e-6, 0.95, 3.0 * ecd)
        assert dense > sparse > 0

    def test_worst_case_pulse_covers_np0(self, wer_model, eval_device):
        pitch = 1.5 * eval_device.params.ecd
        pulse = wer_model.worst_case_pulse(1e-6, 0.95, pitch)
        from repro.arrays import VictimAnalysis
        from repro.arrays.pattern import ALL_P
        victim = VictimAnalysis(eval_device, pitch)
        wer = wer_model.wer(pulse, vp=0.95,
                            hz_stray=victim.hz_total(ALL_P))
        assert wer == pytest.approx(1e-6, rel=1e-6)
