"""Tests for the exact pattern-field statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import InterCellCoupling, pattern_field_distribution
from repro.arrays.statistics import (
    expected_retention_failure_rate,
    worst_case_overestimate,
)
from repro.device import MTJState
from repro.errors import ParameterError
from repro.stack import build_reference_stack


@pytest.fixture(scope="module")
def coupling():
    return InterCellCoupling(build_reference_stack(55e-9), 90e-9)


class TestFieldDistribution:
    def test_probabilities_sum_to_one(self, coupling):
        dist = pattern_field_distribution(coupling)
        assert sum(dist.probabilities) == pytest.approx(1.0)

    def test_support_matches_extremes(self, coupling):
        dist = pattern_field_distribution(coupling, p_one=0.5)
        lo, hi = coupling.extremes()
        assert dist.support[0] == pytest.approx(lo, abs=1.0)
        assert dist.support[1] == pytest.approx(hi, abs=1.0)

    def test_matches_enumeration_at_half(self, coupling):
        """For p=0.5 the exact PMF must equal uniform enumeration of the
        256 patterns."""
        dist = pattern_field_distribution(coupling, p_one=0.5)
        values = coupling.hz_inter_all()
        assert dist.mean == pytest.approx(float(np.mean(values)),
                                          rel=1e-9)
        assert dist.std == pytest.approx(float(np.std(values)),
                                         rel=1e-9)

    def test_degenerate_at_p_zero(self, coupling):
        dist = pattern_field_distribution(coupling, p_one=0.0)
        assert len(dist.values) == 1
        assert dist.values[0] == pytest.approx(
            coupling.hz_inter_fast(0), abs=1.0)
        assert dist.std == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_at_p_one(self, coupling):
        dist = pattern_field_distribution(coupling, p_one=1.0)
        assert dist.values[0] == pytest.approx(
            coupling.hz_inter_fast(255), abs=1.0)

    def test_mean_monotone_in_p(self, coupling):
        # More AP neighbors -> higher Hz (the FL kernels are negative
        # for P neighbors).
        means = [pattern_field_distribution(coupling, p).mean
                 for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_expectation_of_constant(self, coupling):
        dist = pattern_field_distribution(coupling)
        assert dist.expectation(lambda _: 3.0) == pytest.approx(3.0)

    def test_rejects_bad_inputs(self, coupling):
        with pytest.raises(ParameterError):
            pattern_field_distribution("coupling")
        with pytest.raises(ParameterError):
            pattern_field_distribution(coupling, p_one=1.5)


class TestDataAwareRetention:
    def test_average_below_worst_case(self, eval_device):
        pitch = 1.5 * eval_device.params.ecd
        interval = 1e6
        avg = expected_retention_failure_rate(eval_device, pitch,
                                              interval)
        ratio = worst_case_overestimate(eval_device, pitch, interval)
        assert avg > 0
        assert ratio > 1.0

    def test_overestimate_grows_with_coupling(self, eval_device):
        ecd = eval_device.params.ecd
        dense = worst_case_overestimate(eval_device, 1.5 * ecd, 1e6)
        sparse = worst_case_overestimate(eval_device, 3.0 * ecd, 1e6)
        assert dense > sparse >= 1.0

    def test_all_zero_data_equals_worst_case(self, eval_device):
        pitch = 1.5 * eval_device.params.ecd
        ratio = worst_case_overestimate(eval_device, pitch, 1e6,
                                        p_one=0.0)
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_ap_state_much_safer(self, eval_device):
        pitch = 2.0 * eval_device.params.ecd
        p_fail = expected_retention_failure_rate(
            eval_device, pitch, 1e6, state=MTJState.P)
        ap_fail = expected_retention_failure_rate(
            eval_device, pitch, 1e6, state=MTJState.AP)
        assert ap_fail < p_fail
