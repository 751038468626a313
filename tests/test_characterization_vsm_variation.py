"""Tests for VSM emulation and process-variation sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization import (
    ProcessVariation,
    measure_blanket_moments,
    sample_device_parameters,
)
from repro.device import PAPER_EVAL_DEVICE
from repro.errors import ParameterError


class TestVSM:
    def test_one_result_per_magnetic_layer(self, stack35):
        results = measure_blanket_moments(stack35, rng=1)
        assert len(results) == 3
        roles = [r.layer_role for r in results]
        assert roles == ["hard", "reference", "free"]

    def test_values_near_nominal(self, stack35):
        results = measure_blanket_moments(stack35, rng=2, noise=0.02)
        for r in results:
            assert abs(r.moment_per_area - r.nominal) < \
                0.1 * abs(r.nominal)
            assert np.sign(r.moment_per_area) == np.sign(r.nominal)

    def test_zero_noise_exact(self, stack35):
        results = measure_blanket_moments(stack35, rng=3, noise=0.0)
        for r in results:
            assert r.moment_per_area == pytest.approx(r.nominal)

    def test_signs_follow_saf(self, stack35):
        results = {r.layer_role: r for r in
                   measure_blanket_moments(stack35, rng=4)}
        assert results["reference"].nominal > 0
        assert results["hard"].nominal < 0

    def test_rejects_non_stack(self):
        with pytest.raises(ParameterError):
            measure_blanket_moments("stack")


class TestProcessVariation:
    def test_sample_count_and_type(self):
        samples = sample_device_parameters(PAPER_EVAL_DEVICE, 20, rng=5)
        assert len(samples) == 20
        assert all(s.ecd > 0 for s in samples)

    def test_spread_matches_sigma(self):
        variation = ProcessVariation(sigma_ecd=0.05, sigma_hk=0.0,
                                     sigma_delta0=0.0)
        samples = sample_device_parameters(
            PAPER_EVAL_DEVICE, 600, variation=variation, rng=6,
            scale_delta0_with_area=False)
        ecds = np.array([s.ecd for s in samples])
        rel_std = np.std(ecds) / PAPER_EVAL_DEVICE.ecd
        assert rel_std == pytest.approx(0.05, rel=0.15)

    def test_delta0_scales_with_area(self):
        variation = ProcessVariation(sigma_ecd=0.10, sigma_hk=0.0,
                                     sigma_delta0=0.0)
        samples = sample_device_parameters(
            PAPER_EVAL_DEVICE, 300, variation=variation, rng=7)
        ratio = np.array([
            s.delta0 / PAPER_EVAL_DEVICE.delta0 for s in samples])
        area_ratio = np.array([
            (s.ecd / PAPER_EVAL_DEVICE.ecd) ** 2 for s in samples])
        np.testing.assert_allclose(ratio, area_ratio, rtol=1e-9)

    def test_deterministic_with_seed(self):
        a = sample_device_parameters(PAPER_EVAL_DEVICE, 5, rng=11)
        b = sample_device_parameters(PAPER_EVAL_DEVICE, 5, rng=11)
        assert [s.ecd for s in a] == [s.ecd for s in b]

    def test_sigma_validation(self):
        with pytest.raises(ParameterError):
            ProcessVariation(sigma_ecd=1.5)

    def test_rejects_non_parameters(self):
        with pytest.raises(ParameterError):
            sample_device_parameters("base", 5)
