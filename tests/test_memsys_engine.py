"""Tests for the Monte-Carlo reliability engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.memsys import ScrubPolicy, build_engine, no_scrub
from repro.memsys.engine import _occurrence_rank


@pytest.fixture(scope="module")
def device():
    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    return MTJDevice(PAPER_EVAL_DEVICE)


class TestOccurrenceRank:
    def test_basic(self):
        rank = _occurrence_rank(np.array([7, 3, 7, 7, 3]))
        assert list(rank) == [0, 0, 1, 2, 1]

    def test_all_unique(self):
        assert _occurrence_rank(np.arange(10)).max() == 0

    def test_empty(self):
        assert _occurrence_rank(np.zeros(0, dtype=np.int64)).size == 0


class TestRun:
    def test_counters_consistent(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        result = engine.run(5000, rng=1)
        assert result.n_transactions == 5000
        assert result.n_reads + result.n_writes == 5000
        assert result.bits_read == result.n_reads * 72
        word_counts = (result.words_ok + result.words_corrected
                       + result.words_detected + result.words_silent)
        assert word_counts == result.n_reads
        assert result.uncorrectable_bit_errors <= result.raw_bit_errors
        assert 0.0 < result.raw_ber < 1.0
        assert result.uber <= result.raw_ber
        assert result.simulated_time == pytest.approx(
            5000 * engine.cycle_time)

    def test_deterministic_with_seed(self, device):
        runs = [build_engine(device, pitch=70e-9, rows=16,
                             cols=16).run(3000, rng=7)
                for _ in range(2)]
        assert runs[0].raw_bit_errors == runs[1].raw_bit_errors
        assert runs[0].write_errors == runs[1].write_errors
        assert runs[0].uber == runs[1].uber

    def test_same_engine_reruns_identically(self, device):
        """run() resets workload state: same engine + seed, same run."""
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              workload="sequential")
        first = engine.run(2000, rng=1)
        second = engine.run(2000, rng=1)
        assert first.raw_bit_errors == second.raw_bit_errors
        assert first.uber == second.uber

    def test_secded_beats_no_ecc(self, device):
        uber = {}
        for ecc in ("none", "secded"):
            engine = build_engine(device, pitch=70e-9, rows=16,
                                  cols=16, ecc=ecc)
            uber[ecc] = engine.run(20_000, rng=11).uber
        assert 0.0 < uber["secded"] < uber["none"]

    def test_stress_workload_runs(self, device):
        engine = build_engine(device, pitch=52.5e-9, rows=16, cols=16,
                              workload="solid0")
        result = engine.run(3000, rng=2)
        assert result.n_transactions == 3000
        assert result.raw_bit_errors > 0

    def test_writeback_reduces_error_accumulation(self, device):
        raw = {}
        for writeback in (False, True):
            engine = build_engine(device, pitch=70e-9, rows=16,
                                  cols=16, workload="read-heavy",
                                  writeback=writeback)
            raw[writeback] = engine.run(20_000, rng=3).raw_ber
        assert raw[True] < raw[False]

    def test_validation(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        with pytest.raises(Exception):
            engine.run(0)
        with pytest.raises(ParameterError):
            build_engine(device, pitch=70e-9, workload=object())


class TestRetentionAndScrub:
    def test_retention_flips_at_hot_slow_corner(self, device):
        """Long cycles at high temperature make retention visible."""
        engine = build_engine(device, pitch=52.5e-9, rows=16, cols=16,
                              workload="read-heavy", temperature=420.0,
                              cycle_time=10.0)
        result = engine.run(2000, rng=5)
        assert result.retention_flips > 0

    def test_scrub_reduces_uber_at_retention_corner(self, device):
        """Read-only traffic at a hot retention corner: without repair,
        flips pile up into uncorrectable pairs; a per-window scrub
        keeps the accumulation inside the SEC-DED budget.
        """
        from repro.memsys.traffic import Workload
        uber = {}
        for label, scrub in (("none", None),
                             ("scrubbed", ScrubPolicy(0.06))):
            engine = build_engine(device, pitch=52.5e-9, rows=16,
                                  cols=16,
                                  workload=Workload(read_fraction=1.0),
                                  temperature=420.0, cycle_time=1.3e-4,
                                  nominal_wer=1e-4, writeback=False,
                                  scrub=scrub)
            result = engine.run(12_000, rng=9, batch_size=500)
            uber[label] = result.uber
            if label == "scrubbed":
                assert result.n_scrubs > 0
                assert result.scrub_corrected_words > 0
        assert uber["scrubbed"] < uber["none"]

    def test_no_scrub_policy(self):
        policy = no_scrub()
        assert not policy.enabled
        assert not policy.due(1e9)
        with pytest.raises(ParameterError):
            policy.mark_done(1.0)

    def test_scrub_schedule(self):
        policy = ScrubPolicy(10.0)
        assert not policy.due(9.0)
        assert policy.due(10.0)
        policy.mark_done(10.0)
        assert not policy.due(19.0)
        assert policy.due(20.0)
        # Stepping over several periods catches up instead of looping.
        policy.mark_done(55.0)
        assert not policy.due(59.0)
        assert policy.due(60.0)


class TestExpectationMode:
    def test_matches_monte_carlo(self, device):
        """Expectation mode agrees with a long MC run on UBER."""
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        expected = engine.expected_rates(rng=1)
        mc = build_engine(device, pitch=70e-9, rows=16,
                          cols=16).run(100_000, rng=1)
        assert expected["uber"] == pytest.approx(mc.uber, rel=0.35)

    def test_no_ecc_uber_equals_raw(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              ecc="none")
        rates = engine.expected_rates(rng=0)
        assert rates["uber"] == pytest.approx(rates["raw_ber"])

    def test_result_renders_as_experiment(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        result = engine.run(2000, rng=1)
        exp = result.to_experiment_result()
        assert exp.experiment_id == "memsys"
        assert exp.extras["uber"] == result.uber
        from repro.experiments.runner import render
        text = render(exp, plot=False)
        assert "raw BER" in text


class TestPhaseProfile:
    def _counters(self, result):
        return (result.raw_bit_errors, result.write_errors,
                result.disturb_flips, result.retention_flips,
                result.uncorrectable_bit_errors, result.words_ok)

    def test_profile_breakdown_attached(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        result = engine.run(2000, rng=4, profile=True)
        profile = result.extras["profile"]
        assert set(profile) - {"other", "total"} <= {
            "classify", "draw", "place", "ecc", "scrub"}
        assert profile["total"] > 0
        for seconds in profile.values():
            assert seconds >= 0.0
        # Phases partition the run: their sum plus "other" is total.
        phases = sum(v for k, v in profile.items() if k != "total")
        assert phases == pytest.approx(profile["total"], rel=1e-6)

    def test_profile_does_not_change_draw_stream(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              scrub=ScrubPolicy(5e-4))
        plain = engine.run(3000, rng=9)
        profiled = engine.run(3000, rng=9, profile=True)
        assert self._counters(plain) == self._counters(profiled)
        assert "profile" not in plain.extras
        assert "profile" in profiled.extras

    def test_scrub_phase_recorded(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              scrub=ScrubPolicy(1e-5))
        result = engine.run(3000, rng=2, profile=True)
        assert result.n_scrubs > 0
        assert result.extras["profile"]["scrub"] > 0.0

    def test_nested_phases_book_exclusive_time(self):
        import time as time_mod

        from repro.memsys.engine import PhaseProfiler

        profiler = PhaseProfiler()
        with profiler.phase("scrub"):
            time_mod.sleep(0.01)
            with profiler.phase("draw"):
                time_mod.sleep(0.01)
            time_mod.sleep(0.01)
        assert profiler.seconds["draw"] >= 0.01
        assert profiler.seconds["scrub"] >= 0.02
        # The inner phase's time is not double-counted in the outer.
        assert profiler.seconds["scrub"] < 0.035
