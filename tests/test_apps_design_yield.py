"""Tests for the design-space explorer and the yield analysis."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.apps import (
    ArrayYieldAnalysis,
    DESIGN_HEADERS,
    DesignSpaceExplorer,
    RetentionBudgetPlanner,
    classify_retention,
)
from repro.characterization import ProcessVariation
from repro.device import MTJDevice, PAPER_EVAL_DEVICE
from repro.device.retention import SECONDS_PER_YEAR
from repro.errors import ParameterError
from repro.units import celsius_to_kelvin


class TestDesignSpace:
    @pytest.fixture(scope="class")
    def explorer(self):
        return DesignSpaceExplorer(PAPER_EVAL_DEVICE)

    def test_point_fields(self, explorer):
        point = explorer.evaluate(35e-9, 70e-9)
        assert point.pitch_ratio == pytest.approx(2.0)
        assert point.density_gbit_mm2 > 0
        assert 0 < point.psi < 0.2
        assert point.ic_spread > 0
        assert point.worst_delta > 0
        assert len(point.row()) == len(DESIGN_HEADERS)

    def test_denser_point_worse_coupling(self, explorer):
        dense = explorer.evaluate(35e-9, 52.5e-9)
        sparse = explorer.evaluate(35e-9, 105e-9)
        assert dense.density_gbit_mm2 > sparse.density_gbit_mm2
        assert dense.psi > sparse.psi
        assert dense.ic_spread > sparse.ic_spread
        assert dense.worst_delta < sparse.worst_delta

    def test_sweep_grid(self, explorer):
        points = explorer.sweep([30e-9, 40e-9], [1.5, 2.0, 3.0])
        assert len(points) == 6
        assert points[0].ecd == pytest.approx(30e-9)
        assert points[-1].pitch_ratio == pytest.approx(3.0)

    def test_overlapping_cells_rejected(self, explorer):
        with pytest.raises(ParameterError):
            explorer.evaluate(35e-9, 30e-9)


class TestYieldAnalysis:
    def test_result_counts(self):
        analysis = ArrayYieldAnalysis(PAPER_EVAL_DEVICE, 70e-9)
        result = analysis.run(n_samples=60, rng=9, min_delta=30.0,
                              max_tw=50e-9)
        assert result.n_samples == 60
        assert 0.0 <= result.yield_fraction <= 1.0
        assert result.worst_delta_std > 0

    def test_stricter_spec_lower_yield(self):
        analysis = ArrayYieldAnalysis(PAPER_EVAL_DEVICE, 70e-9)
        loose = analysis.run(n_samples=60, rng=9, min_delta=25.0,
                             max_tw=50e-9)
        strict = analysis.run(n_samples=60, rng=9, min_delta=40.0,
                              max_tw=50e-9)
        assert strict.yield_fraction <= loose.yield_fraction

    def test_variation_widens_distribution(self):
        tight = ArrayYieldAnalysis(
            PAPER_EVAL_DEVICE, 70e-9,
            variation=ProcessVariation(0.01, 0.01, 0.01))
        wide = ArrayYieldAnalysis(
            PAPER_EVAL_DEVICE, 70e-9,
            variation=ProcessVariation(0.08, 0.08, 0.08))
        r_tight = tight.run(n_samples=60, rng=5)
        r_wide = wide.run(n_samples=60, rng=5)
        assert r_wide.worst_delta_std > r_tight.worst_delta_std

    def test_yield_vs_pitch_runs(self):
        """One seed at two pitches isolates the coupling effect: the
        denser array has the weaker worst-case Delta."""
        dense, sparse = (
            ArrayYieldAnalysis(PAPER_EVAL_DEVICE, pitch).run(
                n_samples=30, rng=2)
            for pitch in (52.5e-9, 105e-9))
        assert dense.worst_delta_mean < sparse.worst_delta_mean

    def test_rejects_bad_base(self):
        with pytest.raises(ParameterError):
            ArrayYieldAnalysis("params", 70e-9)


class TestRetentionBudget:
    @pytest.fixture(scope="class")
    def planner(self):
        device = MTJDevice(PAPER_EVAL_DEVICE)
        return RetentionBudgetPlanner(device, pitch=70e-9,
                                      n_bits=1024 * 1024)

    def test_budget_fields(self, planner):
        budget = planner.budget(celsius_to_kelvin(25.0), 1e-3)
        assert budget.worst_delta > 0
        assert budget.mean_retention > 0
        assert budget.scrub_interval > 0
        assert budget.application_class in (
            "storage", "embedded", "cache", "unusable")

    def test_hotter_needs_more_scrubbing(self, planner):
        cold = planner.scrub_interval(celsius_to_kelvin(25.0), 1e-3)
        hot = planner.scrub_interval(celsius_to_kelvin(125.0), 1e-3)
        assert hot < cold

    def test_tiny_array_may_need_no_scrub(self):
        device = MTJDevice(PAPER_EVAL_DEVICE)
        planner = RetentionBudgetPlanner(device, pitch=70e-9, n_bits=1)
        interval = planner.scrub_interval(
            celsius_to_kelvin(-20.0), 0.5,
            mission_time=1.0)
        assert interval == float("inf")

    def test_classification_thresholds(self):
        assert classify_retention(20 * SECONDS_PER_YEAR) == "storage"
        assert classify_retention(SECONDS_PER_YEAR / 2.0) == "embedded"
        assert classify_retention(10.0) == "cache"
        assert classify_retention(1e-6) == "unusable"

    def test_sampled_failures_match_closed_form(self):
        """At the planned scrub interval a period loses a bit with about
        the budgeted probability, 1 - (1 - p_flip)^n_bits, and binomial
        per-period draws reproduce that closed form."""
        device = MTJDevice(PAPER_EVAL_DEVICE)
        planner = RetentionBudgetPlanner(device, pitch=70e-9,
                                         n_bits=4096)
        hot = celsius_to_kelvin(125.0)
        interval = planner.scrub_interval(hot, 0.05)
        p_flip = planner.flip_probability(hot, interval)
        closed = -math.expm1(planner.n_bits * math.log1p(-p_flip))
        assert closed == pytest.approx(0.05, rel=0.03)
        n_periods = 20_000
        flips = np.random.default_rng(2).binomial(
            planner.n_bits, p_flip, size=n_periods)
        se = math.sqrt(closed * (1.0 - closed) / n_periods)
        assert abs(np.mean(flips > 0) - closed) < 6.0 * se

    def test_flip_probability_rejects_negative_interval(self):
        device = MTJDevice(PAPER_EVAL_DEVICE)
        planner = RetentionBudgetPlanner(device, pitch=70e-9, n_bits=8)
        with pytest.raises(ParameterError):
            planner.flip_probability(300.0, -1.0)
