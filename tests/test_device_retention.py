"""Tests for the Neel-Arrhenius retention statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.device import (
    fit_rate,
    retention_failure_probability,
    retention_time,
)
from repro.device.retention import (
    SECONDS_PER_YEAR,
    array_retention_failure_probability,
    flip_rate,
)


class TestRatesAndTimes:
    def test_rate_formula(self):
        assert flip_rate(40.0, 1e9) == pytest.approx(
            1e9 * math.exp(-40.0))

    def test_retention_inverse_of_rate(self):
        assert retention_time(40.0) == pytest.approx(
            1.0 / flip_rate(40.0))

    def test_each_delta_unit_is_factor_e(self):
        assert retention_time(41.0) / retention_time(40.0) == (
            pytest.approx(math.e))

    def test_required_delta_roundtrip(self):
        """Delta = ln(t * f0) sizes a cell for a mean retention of t."""
        from repro.constants import ATTEMPT_FREQUENCY
        delta = math.log(10 * SECONDS_PER_YEAR * ATTEMPT_FREQUENCY)
        assert retention_time(delta) == pytest.approx(
            10 * SECONDS_PER_YEAR, rel=1e-9)

    def test_storage_class_rule(self):
        # Delta ~ 60 gives >10 years at f0 = 1 GHz, Delta ~ 40 does not.
        assert retention_time(60.0) > 10 * SECONDS_PER_YEAR
        assert retention_time(40.0) < 10 * SECONDS_PER_YEAR


class TestFailureProbability:
    def test_short_interval_linear(self):
        delta, dt = 45.0, 1.0
        rate = flip_rate(delta)
        assert retention_failure_probability(delta, dt) == pytest.approx(
            rate * dt, rel=1e-6)

    def test_long_interval_saturates(self):
        assert retention_failure_probability(5.0, 1e6) == pytest.approx(
            1.0)

    def test_monotone_in_delta(self):
        deltas = np.array([30.0, 40.0, 50.0, 60.0])
        probs = retention_failure_probability(deltas, 1e5)
        assert np.all(np.diff(probs) < 0)

    def test_vectorized_matches_scalar(self):
        deltas = np.array([35.0, 45.0])
        vec = retention_failure_probability(deltas, 10.0)
        assert vec[0] == pytest.approx(
            retention_failure_probability(35.0, 10.0))

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            retention_failure_probability(-1.0, 10.0)


class TestArrayLevel:
    def test_array_worse_than_bit(self):
        p_bit = retention_failure_probability(45.0, 1e4)
        p_arr = array_retention_failure_probability(45.0, 1e4, 1024)
        assert p_arr > p_bit

    def test_small_probability_scales_with_bits(self):
        p1 = array_retention_failure_probability(50.0, 1.0, 1)
        p1k = array_retention_failure_probability(50.0, 1.0, 1000)
        assert p1k == pytest.approx(1000 * p1, rel=1e-3)

    def test_fit_rate_units(self):
        # FIT = failures per 1e9 device-hours.
        delta = 40.0
        fits = fit_rate(delta)
        per_hour = flip_rate(delta) * 3600.0
        assert fits == pytest.approx(per_hour * 1e9)
