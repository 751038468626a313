"""Tests for the Monte-Carlo reliability engine."""

from __future__ import annotations

import numpy as np
import pytest

from types import SimpleNamespace

from repro.errors import ParameterError
from repro.memsys import ScrubPolicy, build_engine, no_scrub
from repro.memsys import engine as engine_module
from repro.memsys.bitplane import pack_bits, unpack_bits
from repro.memsys.engine import _occurrence_rank, _PackedState
from repro.memsys.sampling import N_CLASSES


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


#: Read write-back table of SEC-DED: a read that counts exactly one
#: wrong bit writes its word back.
_SECDED_WRITES_BACK = np.arange(73) == 1
_NEVER_WRITES_BACK = np.zeros(73, dtype=bool)


class TestBatchChains:
    """The batch pass on hand-built batches of one word's accesses.

    A 3 x 72 array holds one codeword per row (word ``r`` is row
    ``r``), all zeros but the cells set per test. Class tables are
    forced to 0/1, so every draw is certain: with ``p_max = 1`` every
    (access, bit) pair is a candidate, and exactly the candidates of a
    class whose probability is 1 flip. With a lone 1 at row 1, column
    10, the only cell of word 0 in class (bit 0, one direct AP
    neighbor, no diagonal one) is its bit 10.
    """

    def _state(self, device, ones=()):
        engine = build_engine(device, pitch=70e-9, rows=3, cols=72)
        state = _PackedState.stacked(engine, 1)
        bits = np.zeros(3 * 72, dtype=np.int8)
        bits[list(ones)] = 1
        state.fresh(0, bits)
        state.build()
        return state

    @staticmethod
    def _force(state, wer=(), disturb=()):
        """0/1 class tables: 1 for each listed (bit, nd, ng) class."""
        for name, classes in (("wer", wer), ("disturb", disturb)):
            table = np.zeros(N_CLASSES)
            for bit, nd, ng in classes:
                table[bit * 25 + nd * 5 + ng] = 1.0
            setattr(state, f"{name}_p", table)
            setattr(state, f"{name}_pmax", float(table.max()))

    @staticmethod
    def _apply(state, accesses, corrects=_NEVER_WRITES_BACK):
        """Apply ``accesses`` ("w"/"r" per access, all to word 0; the
        writes store all-zero codewords) as one batch."""
        is_write = np.array([a == "w" for a in accesses])
        cw = (pack_bits(np.zeros((int(is_write.sum()), 72), np.int8))
              if is_write.any() else None)
        state.classify()
        read_at, n_err, write_errors, disturb_flips = state.access(
            np.zeros(is_write.size, dtype=np.intp), is_write,
            [0, is_write.size], cw,
            [SimpleNamespace(rng=np.random.default_rng(0))], corrects,
            None)
        return (_per_read(is_write, read_at, n_err),
                sum(write_errors or [0]), sum(disturb_flips or [0]))

    def test_a_read_counts_the_write_errors_before_it(self, device):
        state = self._state(device, ones=[72 + 10])
        self._force(state, wer=[(0, 1, 0)])
        assert self._apply(state, "rwr") == ([0, 1], 1, 0)
        assert state.err_count[0] == 1
        assert unpack_bits(state.actual.lanes[:1], 72)[0, 10] == 1

    def test_a_write_back_restores_the_word_before_its_disturb(
            self, device):
        state = self._state(device)
        state.toggle(np.array([10]))
        # Disturb flips every stored 1: had it run before the
        # write-back, the read would have disturbed bit 10.
        self._force(state, disturb=[(1, nd, ng) for nd in range(5)
                                    for ng in range(5)])
        assert self._apply(state, "rr", _SECDED_WRITES_BACK) == (
            [1, 0], 0, 0)
        assert state.err_count[0] == 0 and state.wrong_bits == 0

    def test_a_disturb_flip_is_counted_by_the_next_read_only(self, device):
        state = self._state(device, ones=[72 + 10])
        self._force(state, disturb=[(0, 1, 0)])
        # Read 0 flips bit 10 to 1; a stored 1 is not disturbed again.
        assert self._apply(state, "rrr") == ([0, 1, 1], 0, 1)
        assert state.err_count[0] == 1

    def test_two_disturb_flips_of_one_bit_flip_it_twice(self, device):
        state = self._state(device, ones=[72 + 10])
        self._force(state, disturb=[(0, 1, 0), (1, 1, 0)])
        assert self._apply(state, "rr") == ([0, 1], 0, 2)
        assert state.err_count[0] == 0 and state.wrong_bits == 0
        assert self._apply(state, "rrr") == ([0, 1, 0], 0, 3)
        assert state.err_count[0] == 1


def _per_read(is_write, read_at, n_err):
    """The wrong bits each read counted, reads in order, from the
    accesses and counts of those that counted any."""
    counts = np.zeros(int(np.count_nonzero(~is_write)), dtype=int)
    counts[np.searchsorted(np.flatnonzero(~is_write), read_at)] = n_err
    return list(counts)


def _replayed(monkeypatch):
    """Check every batch pass of the runs that follow against an
    in-order replay of the same candidates: each access in turn, each
    candidate accepted on the stored bits as they are at that point.
    Returns a list that counts the batches checked."""
    checked = []
    draws = []
    thinned = engine_module.thinned_candidates

    def recorded(n, p_max, rng):
        out = thinned(n, p_max, rng)
        draws.append(out)
        return out

    access = _PackedState.access

    def replayed(state, word, is_write, bounds, cw, lanes, corrects,
                 profiler):
        code = state.actual.code_bits
        intended = unpack_bits(state.intended.lanes, code).copy()
        actual = unpack_bits(state.actual.lanes, code).copy()
        draws.clear()
        read_at, n_err, write_errors, disturb_flips = access(
            state, word, is_write, bounds, cw, lanes, corrects, profiler)
        # One draw per mechanism: write errors (if the batch writes),
        # write-back errors (if a read may write back), disturb.
        mechanisms = (["w"] * bool(is_write.any())
                      + ["b"] * bool(corrects.any()) + ["d"])
        assert len(draws) == len(mechanisms)
        # Per mechanism and access: each candidate's bit and whether it
        # is accepted on a stored (or written) 0 and on a 1.
        at_of = {"w": np.flatnonzero(is_write), "b": np.flatnonzero(~is_write),
                 "d": np.flatnonzero(~is_write)}
        table = {"w": state.wer_p, "b": state.wer_p, "d": state.disturb_p}
        candidates = {m: {} for m in "wbd"}
        for m, (flat, threshold) in zip(mechanisms, draws):
            position, bit = np.divmod(flat, code)
            cells = state._class_cells(word[at_of[m][position]], bit)
            by_bit = [threshold < table[m][state.planes.classes(
                cells, np.full(flat.size, stored, dtype=np.uint16))]
                for stored in (0, 1)]
            for k, b, *accepted in zip(position, bit, *by_bit):
                candidates[m].setdefault(k, []).append((b, accepted))
        cw = unpack_bits(cw, code) if cw is not None else None

        counts, errors, disturbed = [], 0, 0
        writes_before = np.cumsum(is_write) - is_write
        for at, w in enumerate(word):
            j = int(writes_before[at])
            if is_write[at]:
                intended[w] = actual[w] = cw[j]
                for bit, accepted in candidates["w"].get(j, ()):
                    if accepted[cw[j][bit]]:
                        actual[w, bit] ^= 1
                        errors += 1
                continue
            k = at - j
            n = int(np.count_nonzero(actual[w] != intended[w]))
            counts.append(n)
            if corrects[n]:
                actual[w] = intended[w]
                for bit, accepted in candidates["b"].get(k, ()):
                    if accepted[intended[w][bit]]:
                        actual[w, bit] ^= 1
                        errors += 1
            for bit, accepted in candidates["d"].get(k, ()):
                if accepted[actual[w][bit]]:
                    actual[w, bit] ^= 1
                    disturbed += 1
        assert np.array_equal(unpack_bits(state.intended.lanes, code),
                              intended)
        assert np.array_equal(unpack_bits(state.actual.lanes, code), actual)
        assert np.array_equal(state.err_count,
                              (actual != intended).sum(axis=1))
        assert _per_read(is_write, read_at, n_err) == counts
        assert sum(write_errors if write_errors is not None else [0]) \
            == errors
        assert sum(disturb_flips if disturb_flips is not None else [0]) \
            == disturbed
        checked.append(len(counts))
        return read_at, n_err, write_errors, disturb_flips

    monkeypatch.setattr(engine_module, "thinned_candidates", recorded)
    monkeypatch.setattr(_PackedState, "access", replayed)
    return checked


@pytest.mark.parametrize("kwargs", [
    dict(pitch=70e-9, rows=64, cols=64, workload="checkerboard"),
    dict(pitch=52.5e-9, rows=16, cols=16, workload="read-heavy",
         nominal_wer=2e-2, read_voltage=0.3),
    dict(pitch=60e-9, rows=32, cols=32, workload="random", banks=2,
         subarrays=2, nominal_wer=1e-2, read_voltage=0.3,
         scrub=ScrubPolicy(2e-5)),
    dict(pitch=52.5e-9, rows=16, cols=16, workload="read-heavy",
         ecc="none", nominal_wer=3e-2, read_voltage=0.35),
], ids=["sampled-shape", "disturb-heavy", "banked-scrub", "no-ecc"])
def test_batch_pass_equals_an_in_order_replay(device, monkeypatch, kwargs):
    """The batched chain resolution is exact, not a law-level match:
    every batch's planes, error counters, read counts and flip counts
    equal those of replaying its accesses one by one on the same
    candidates."""
    checked = _replayed(monkeypatch)
    result = build_engine(device, **kwargs).run(1500, rng=5,
                                                batch_size=500)
    assert checked and sum(checked) == result.n_reads
    assert result.write_errors > 0 and result.raw_bit_errors > 0


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

    def test_summary_rows_report_the_counters(self, device):
        result = build_engine(device, pitch=70e-9, rows=16,
                              cols=16).run(2000, rng=3)
        headers, rows = result.summary_rows()
        assert headers == ["metric", "value"]
        table = dict(rows)
        assert len(table) == len(rows) == 13
        assert table["transactions"] == 2000
        assert table["reads / writes"] == \
            f"{result.n_reads} / {result.n_writes}"
        assert float(table["post-ECC UBER"]) == pytest.approx(
            result.uber, rel=1e-3)
        assert table["words silently corrupt"] == result.words_silent

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
