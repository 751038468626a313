"""Tests for the rare-event sampling fast path.

Three layers: the packed bit-plane state, the class-grouped /
thinned samplers and incremental class maps, and the end-to-end
statistical equivalence of ``sampler="binomial"`` against the
``bernoulli`` reference engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.memsys import build_engine
from repro.memsys.bitplane import (
    BitPlane,
    _popcount_rows_table,
    pack_bits,
    popcount_rows,
    unpack_bits,
)
from repro.memsys.controller import neighborhood_class_map
from repro.memsys.engine import _PackedState
from repro.memsys.sampling import (
    IncrementalClassMaps,
    N_CLASSES,
    class_histogram,
    class_index,
    sample_class_flips,
    sample_thinned_flips,
    validate_sampler,
)


@pytest.fixture(scope="module")
def device():
    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    return MTJDevice(PAPER_EVAL_DEVICE)


class TestBitPlane:
    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(0)
        bits = (rng.random((37, 72)) < 0.5).astype(np.int8)
        assert np.array_equal(unpack_bits(pack_bits(bits), 72), bits)

    @pytest.mark.parametrize("k", range(1, 201))
    def test_pack_unpack_round_trip_every_width(self, k):
        """Every width packs into zero-padded lanes and back, including
        empty batches and widths ending mid-byte or mid-lane."""
        rng = np.random.default_rng(k)
        for n in (0, 1, 5):
            bits = (rng.random((n, k)) < 0.5).astype(np.int8)
            lanes = pack_bits(bits)
            assert lanes.dtype == np.dtype("<u8")
            assert lanes.shape == (n, (k + 63) // 64)
            assert np.array_equal(unpack_bits(lanes, k), bits)
            # Padding bits past k stay zero: the popcount is the
            # word's set-bit count.
            assert np.array_equal(popcount_rows(lanes), bits.sum(axis=1))

    def test_from_to_bits_round_trip_with_tail(self):
        rng = np.random.default_rng(1)
        flat = (rng.random(24 * 36) < 0.5).astype(np.int8)
        plane = BitPlane.from_bits(flat, n_words=12, code_bits=71)
        assert plane.tail.size == 24 * 36 - 12 * 71
        assert np.array_equal(plane.to_bits(), flat)

    def test_word_set_and_get(self):
        plane = BitPlane(n_words=5, code_bits=72, n_cells=5 * 72)
        rng = np.random.default_rng(2)
        bits = (rng.random((2, 72)) < 0.5).astype(np.int8)
        plane.set_words(np.array([1, 4]), bits)
        assert np.array_equal(plane.word_bits(np.array([1, 4])), bits)
        assert plane.word_bits(np.array([0])).sum() == 0

    def test_toggle_and_get_cells_mapped_and_tail(self):
        flat = np.zeros(100, dtype=np.int8)
        plane = BitPlane.from_bits(flat, n_words=1, code_bits=72)
        idx = np.array([0, 63, 64, 71, 72, 99])  # lanes 0/1 + tail
        plane.toggle_cells(idx)
        assert np.array_equal(plane.get_cells(idx), np.ones(6, np.int8))
        ref = flat.copy()
        ref[idx] ^= 1
        assert np.array_equal(plane.to_bits(), ref)
        plane.toggle_cells(idx)  # toggling back restores zeros
        assert plane.to_bits().sum() == 0

    def test_toggle_repeated_index_semantics(self):
        plane = BitPlane.from_bits(np.zeros(72, np.int8), 1, 72)
        plane.toggle_cells(np.array([3, 3, 5]))  # 3 toggles twice
        assert plane.get_cells(np.array([3]))[0] == 0
        assert plane.get_cells(np.array([5]))[0] == 1

    def test_diff_counts_matches_dense(self):
        rng = np.random.default_rng(3)
        a = (rng.random(7 * 72) < 0.5).astype(np.int8)
        b = (rng.random(7 * 72) < 0.5).astype(np.int8)
        pa = BitPlane.from_bits(a, 7, 72)
        pb = BitPlane.from_bits(b, 7, 72)
        dense = (a != b).reshape(7, 72).sum(axis=1)
        assert np.array_equal(pa.diff_counts(pb), dense)
        sub = np.array([2, 5])
        assert np.array_equal(pa.diff_counts(pb, sub), dense[sub])

    def test_popcount_table_matches_hardware_path(self):
        rng = np.random.default_rng(4)
        lanes = rng.integers(0, 2**63, size=(50, 3)).astype(np.uint64)
        assert np.array_equal(popcount_rows(lanes),
                              _popcount_rows_table(lanes))

    def test_popcount_table_wide_and_degenerate_rows(self):
        """Both accumulation strategies (column loop for narrow rows,
        one gather past 32 byte columns) and the empty edge agree."""
        rng = np.random.default_rng(5)
        for n_lanes in (1, 4, 5, 16):
            lanes = rng.integers(0, 2**63,
                                 size=(20, n_lanes)).astype(np.uint64)
            expect = [bin(int(v)).count("1") for row in lanes
                      for v in [sum(int(x) << (64 * i)
                                    for i, x in enumerate(row))]]
            assert np.array_equal(_popcount_rows_table(lanes), expect)
        empty = np.zeros((0, 2), dtype=np.uint64)
        assert _popcount_rows_table(empty).shape == (0,)

    def test_too_many_words_raises(self):
        with pytest.raises(ParameterError):
            BitPlane(n_words=3, code_bits=72, n_cells=100)


class TestSamplers:
    def test_validate_sampler(self):
        assert validate_sampler("binomial") == "binomial"
        with pytest.raises(ParameterError):
            validate_sampler("gaussian")

    def test_class_index_matches_table_layout(self):
        rng = np.random.default_rng(0)
        table = rng.random((2, 5, 5))
        bits = rng.integers(0, 2, size=300)
        nd = rng.integers(0, 5, size=300)
        ng = rng.integers(0, 5, size=300)
        ci = class_index(bits, nd, ng)
        assert ci.min() >= 0 and ci.max() < N_CLASSES
        assert np.array_equal(table.reshape(-1)[ci],
                              table[bits, nd, ng])

    def test_class_flips_p_zero_and_one(self):
        rng = np.random.default_rng(1)
        ci = np.asarray(class_index(
            rng.integers(0, 2, 500), rng.integers(0, 5, 500),
            rng.integers(0, 5, 500)))
        assert sample_class_flips(ci, np.zeros(N_CLASSES), rng).size == 0
        flips = sample_class_flips(ci, np.ones(N_CLASSES), rng)
        assert np.array_equal(np.sort(flips), np.arange(500))

    def test_class_flips_respect_class_membership(self):
        """Flips land only in cells of classes with p > 0."""
        rng = np.random.default_rng(2)
        ci = np.asarray(class_index(
            rng.integers(0, 2, 2000), rng.integers(0, 5, 2000),
            rng.integers(0, 5, 2000)))
        target = int(ci[0])
        p = np.zeros(N_CLASSES)
        p[target] = 0.5
        flips = sample_class_flips(ci, p, rng)
        assert flips.size > 0
        assert np.all(ci[flips] == target)

    def test_class_flips_deterministic_under_seed(self):
        ci = np.asarray(class_index(
            np.ones(300, int), np.full(300, 2), np.full(300, 3)))
        p = np.full(N_CLASSES, 0.1)
        a = sample_class_flips(ci, p, np.random.default_rng(7))
        b = sample_class_flips(ci, p, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_class_flips_statistics(self):
        """Flip counts follow Binomial(n, p) within a 6-sigma band."""
        n, p_flip = 20_000, 0.3
        ci = np.zeros(n, dtype=np.int8)
        p = np.zeros(N_CLASSES)
        p[0] = p_flip
        rng = np.random.default_rng(3)
        counts = [sample_class_flips(ci, p, rng).size
                  for _ in range(30)]
        mean = np.mean(counts)
        se = np.sqrt(n * p_flip * (1 - p_flip) / len(counts))
        assert abs(mean - n * p_flip) < 6 * se

    def test_thinned_matches_class_grouped_statistics(self):
        """Thinned and class-grouped draws agree in law."""
        rng = np.random.default_rng(4)
        n = 10_000
        ci = np.asarray(class_index(
            rng.integers(0, 2, n), rng.integers(0, 5, n),
            rng.integers(0, 5, n)))
        p = np.linspace(0.0, 0.2, N_CLASSES)
        expected = p[ci].sum()
        grouped = np.mean([
            sample_class_flips(ci, p, rng).size for _ in range(25)])
        thinned = np.mean([
            sample_thinned_flips(n, p, lambda cand: ci[cand],
                                 rng).size
            for _ in range(25)])
        se = np.sqrt(expected / 25)
        assert abs(grouped - expected) < 6 * se
        assert abs(thinned - expected) < 6 * se

    def test_thinned_classifies_only_candidates(self):
        """The class_of callback sees candidate indices, not the
        whole population — the point of the thinned variant."""
        seen = []

        def class_of(cand):
            seen.append(cand.size)
            return np.zeros(cand.size, dtype=np.int8)

        p = np.zeros(N_CLASSES)
        p[0] = 1e-3
        rng = np.random.default_rng(5)
        n = 100_000
        flips = sample_thinned_flips(n, p, class_of, rng)
        assert flips.size > 0
        assert sum(seen) < n // 10  # classified a tiny fraction

    def test_thinned_p_zero(self):
        rng = np.random.default_rng(6)
        out = sample_thinned_flips(
            1000, np.zeros(N_CLASSES),
            lambda cand: np.zeros(cand.size, np.int8), rng)
        assert out.size == 0


def _reference_class_maps(bits2d):
    """The 8-slice neighbor sum, int16 class index and ``np.bincount``
    histogram the int8 / separable-sum / byte-pair code replaced —
    kept as the oracle."""
    rows, cols = bits2d.shape
    padded = np.zeros((rows + 2, cols + 2), dtype=np.int8)
    padded[1:-1, 1:-1] = bits2d
    nd = (padded[:-2, 1:-1] + padded[2:, 1:-1]
          + padded[1:-1, :-2] + padded[1:-1, 2:]).astype(np.int8)
    ng = (padded[:-2, :-2] + padded[:-2, 2:]
          + padded[2:, :-2] + padded[2:, 2:]).astype(np.int8)
    ci = (bits2d.astype(np.int16) * 25 + nd.astype(np.int16) * 5
          + ng.astype(np.int16)).astype(np.int8).reshape(-1)
    return nd, ng, ci, np.bincount(ci, minlength=N_CLASSES)


#: 1x1, single rows and columns, odd cell counts (a trailing unpaired
#: byte in the histogram) and even ones.
CLASS_MAP_SHAPES = ((1, 1), (1, 2), (1, 9), (1, 64), (2, 1), (9, 1),
                    (64, 1), (7, 9), (9, 7), (3, 3), (5, 11), (8, 8),
                    (24, 36), (33, 31))


class TestClassMapsAgainstReference:
    @pytest.mark.parametrize("shape", CLASS_MAP_SHAPES)
    @pytest.mark.parametrize("density", (0.0, 0.3, 0.5, 1.0))
    def test_maps_index_and_hist(self, shape, density):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        bits2d = (rng.random(shape) < density).astype(np.int8)
        nd_ref, ng_ref, ci_ref, hist_ref = _reference_class_maps(bits2d)
        nd, ng = neighborhood_class_map(bits2d)
        assert nd.dtype == ng.dtype == np.int8
        assert np.array_equal(nd, nd_ref) and np.array_equal(ng, ng_ref)
        ci = class_index(bits2d.reshape(-1), nd.reshape(-1),
                         ng.reshape(-1))
        assert ci.dtype == np.int8
        assert np.array_equal(ci, ci_ref)
        hist = class_histogram(ci)
        assert hist.dtype == hist_ref.dtype
        assert np.array_equal(hist, hist_ref)
        # The maps' rebuild (packed plane with an unmapped tail).
        n_cells = shape[0] * shape[1]
        plane = BitPlane.from_bits(bits2d.reshape(-1), n_cells // 5, 5)
        maps = IncrementalClassMaps(shape[0], shape[1], plane)
        assert np.array_equal(maps.nd, nd_ref.reshape(-1))
        assert np.array_equal(maps.ng, ng_ref.reshape(-1))
        assert np.array_equal(maps.class_idx, ci_ref)
        assert np.array_equal(maps.hist, hist_ref)

    @pytest.mark.parametrize("n", (0, 1, 2, 3, 4, 1001))
    def test_histogram_every_class_and_odd_tail(self, n):
        ci = (np.arange(n) * 7 % N_CLASSES).astype(np.int8)
        assert np.array_equal(class_histogram(ci),
                              np.bincount(ci, minlength=N_CLASSES))
        # Unaligned and non-contiguous inputs are copied, not misread.
        ci = np.arange(2 * n + 1, dtype=np.int8) % N_CLASSES
        assert np.array_equal(class_histogram(ci[1::2]),
                              np.bincount(ci[1::2], minlength=N_CLASSES))


def _assert_maps_match_recompute(maps, plane, rows, cols):
    bits = plane.to_bits()
    nd2, ng2 = neighborhood_class_map(bits.reshape(rows, cols))
    assert np.array_equal(maps.nd, nd2.reshape(-1))
    assert np.array_equal(maps.ng, ng2.reshape(-1))
    ci = class_index(bits, maps.nd, maps.ng)
    assert np.array_equal(maps.class_idx, ci)
    assert np.array_equal(maps.hist,
                          np.bincount(ci, minlength=N_CLASSES))


class TestIncrementalClassMaps:
    ROWS, COLS, CODE = 24, 36, 72

    def _fresh(self, rng, rows=ROWS, cols=COLS, **kwargs):
        n_cells = rows * cols
        bits = (rng.random(n_cells) < 0.5).astype(np.int8)
        plane = BitPlane.from_bits(bits, n_cells // self.CODE,
                                   self.CODE)
        return plane, IncrementalClassMaps(rows, cols, plane, **kwargs)

    def test_incremental_matches_recompute(self):
        """Sparse toggles through both the scalar (<= 8 changes) and
        vectorized update paths stay exactly equal to a full
        recompute."""
        rng = np.random.default_rng(0)
        # Force the incremental path: on an array this small the
        # default threshold rebuilds on any change.
        plane, maps = self._fresh(rng, full_rebuild_fraction=1.0)
        for k in (1, 2, 5, 8, 9, 13, 3, 11):
            idx = rng.choice(plane.n_cells, size=k, replace=False)
            plane.toggle_cells(idx)
            maps.refresh(plane)
            _assert_maps_match_recompute(maps, plane, self.ROWS,
                                         self.COLS)
        assert maps.rebuilds == 1  # only the constructor's build
        assert maps.incremental_refreshes == 8

    def test_dense_change_falls_back_to_rebuild(self):
        rng = np.random.default_rng(1)
        plane, maps = self._fresh(rng)
        idx = rng.choice(plane.n_cells, size=plane.n_cells // 3,
                         replace=False)
        plane.toggle_cells(idx)
        maps.refresh(plane)
        assert maps.rebuilds == 2
        assert maps.incremental_refreshes == 0
        _assert_maps_match_recompute(maps, plane, self.ROWS, self.COLS)

        # Churn just below / just above the default threshold and a
        # dense change: the default maps take the incremental path only
        # below it, and their nd / ng / class_idx / hist equal both the
        # always-incremental and always-rebuild maps and the reference
        # recompute.
        rows, cols = 96, 96  # the threshold lands at ~9 cells
        rng = np.random.default_rng(5)
        plane, maps = self._fresh(rng, rows, cols)
        always_incremental = IncrementalClassMaps(
            rows, cols, plane, full_rebuild_fraction=1.0)
        always_rebuild = IncrementalClassMaps(
            rows, cols, plane, full_rebuild_fraction=0.0)
        at = int(IncrementalClassMaps.full_rebuild_fraction
                 * plane.n_cells)
        assert at >= 1
        for k, rebuilt in ((at, False), (at + 1, True),
                           (plane.n_cells // 5, True), (1, False)):
            before = maps.rebuilds
            idx = rng.choice(plane.n_cells, size=k, replace=False)
            plane.toggle_cells(idx)
            for m in (maps, always_incremental, always_rebuild):
                m.refresh(plane)
            assert (maps.rebuilds == before + 1) == rebuilt, k
            _, _, ci_ref, hist_ref = _reference_class_maps(
                plane.to_bits().reshape(rows, cols))
            for m in (maps, always_incremental, always_rebuild):
                assert np.array_equal(m.nd, always_rebuild.nd)
                assert np.array_equal(m.ng, always_rebuild.ng)
                assert np.array_equal(m.class_idx, ci_ref)
                assert np.array_equal(m.hist, hist_ref)
            _assert_maps_match_recompute(maps, plane, rows, cols)
        assert always_incremental.rebuilds == 1
        assert always_rebuild.incremental_refreshes == 0

    def test_refresh_without_changes_is_noop(self):
        rng = np.random.default_rng(2)
        plane, maps = self._fresh(rng)
        hist_before = maps.hist.copy()
        maps.refresh(plane)
        assert maps.rebuilds == 1
        assert maps.incremental_refreshes == 0
        assert np.array_equal(maps.hist, hist_before)

    def test_cell_classes_uses_frozen_neighbors(self):
        rng = np.random.default_rng(3)
        plane, maps = self._fresh(rng)
        cells = rng.choice(plane.n_mapped, size=40, replace=False)
        bits = rng.integers(0, 2, size=40)
        expected = class_index(bits, maps.nd[cells], maps.ng[cells])
        assert np.array_equal(maps.cell_classes(bits, cells), expected)

    def test_shape_mismatch_raises(self):
        plane = BitPlane.from_bits(np.zeros(100, np.int8), 1, 72)
        with pytest.raises(ParameterError):
            IncrementalClassMaps(7, 7, plane)


class _StubTables:
    """Minimal controller stand-in: just the per-class table views."""

    def wer_class_probability(self):
        return np.full(N_CLASSES, 1e-3)

    def disturb_class_probability(self):
        return np.full(N_CLASSES, 1e-4)


class TestPackedState:
    def _state(self, rng, n_words=6, code=72, n_cells=None):
        n_cells = n_cells or n_words * code + 17
        bits = (rng.random(n_cells) < 0.5).astype(np.int8)
        intended = BitPlane.from_bits(bits, n_words, code)
        maps = None  # not needed for counter bookkeeping
        return _PackedState(intended, intended.copy(), maps,
                            _StubTables())

    def _check_invariant(self, state):
        truth = state.actual.diff_counts(state.intended)
        assert np.array_equal(state.err_count, truth)
        assert state.wrong_bits == int(truth.sum())

    def test_err_count_tracks_ground_truth(self):
        rng = np.random.default_rng(0)
        state = self._state(rng)
        n_mapped = state.actual.n_mapped
        # toggles (mapped + tail), writes with injected errors,
        # restores — the counter must match XOR+popcount throughout.
        state.toggle(np.array([0, 65, 71, 72, n_mapped + 3]))
        self._check_invariant(state)
        cw = (rng.random((2, 72)) < 0.5).astype(np.int8)
        flip_cells = np.array([1 * 72 + 7])  # one error in word 1
        state.write_words(np.array([1, 4]), cw, flip_cells)
        self._check_invariant(state)
        assert state.err_count[1] == 1 and state.err_count[4] == 0
        state.restore_words(np.array([1]),
                            np.empty(0, dtype=np.intp))
        self._check_invariant(state)
        assert state.err_count[1] == 0
        # toggling a wrong cell back rights it
        state.toggle(np.array([0]))
        state.toggle(np.array([0]))
        self._check_invariant(state)

    def test_random_walk_invariant(self):
        rng = np.random.default_rng(1)
        state = self._state(rng, n_words=4)
        for _ in range(40):
            op = rng.integers(0, 3)
            if op == 0:
                k = int(rng.integers(1, 6))
                idx = rng.choice(state.actual.n_cells, size=k,
                                 replace=False)
                state.toggle(idx)
            elif op == 1:
                w = rng.choice(4, size=2, replace=False)
                cw = (rng.random((2, 72)) < 0.5).astype(np.int8)
                cell = int(w[0]) * 72 + int(rng.integers(0, 72))
                state.write_words(w, cw, np.array([cell]))
            else:
                w = rng.choice(4, size=1)
                state.restore_words(w, np.empty(0, dtype=np.intp))
            self._check_invariant(state)


class TestEngineEquivalence:
    def test_expected_rates_bit_identical(self, device):
        rates = [
            build_engine(device, pitch=70e-9, rows=16, cols=16,
                         sampler=sampler).expected_rates(rng=0)
            for sampler in ("bernoulli", "binomial")]
        assert rates[0] == rates[1]

    def test_binomial_deterministic_under_seed(self, device):
        runs = [build_engine(device, pitch=70e-9, rows=16, cols=16,
                             sampler="binomial").run(3000, rng=7)
                for _ in range(2)]
        assert runs[0].raw_bit_errors == runs[1].raw_bit_errors
        assert runs[0].write_errors == runs[1].write_errors
        assert runs[0].uber == runs[1].uber

    def test_binomial_counters_consistent(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              sampler="binomial")
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
        assert result.config["sampler"] == "binomial"

    def test_counters_statistically_equivalent(self, device):
        """Seeded bernoulli vs binomial totals agree within a
        binomial-CI tolerance (aggregated over seeds so per-seed noise
        averages out)."""
        totals = {}
        for sampler in ("bernoulli", "binomial"):
            acc = dict(write_errors=0, disturb_flips=0,
                       retention_flips=0, words_corrected=0)
            for seed in range(4):
                engine = build_engine(
                    device, pitch=52.5e-9, rows=32, cols=32,
                    workload="read-heavy", temperature=400.0,
                    cycle_time=1e-5, sampler=sampler)
                result = engine.run(15_000, rng=seed)
                for key in acc:
                    acc[key] += getattr(result, key)
            totals[sampler] = acc
        for key in totals["bernoulli"]:
            a = totals["bernoulli"][key]
            b = totals["binomial"][key]
            tol = 6.0 * np.sqrt(a + b + 1.0) + 10.0
            assert abs(a - b) <= tol, (key, a, b)

    def test_binomial_scrub_and_retention_corner(self, device):
        """The packed path books scrubs and retention flips too."""
        from repro.memsys import ScrubPolicy
        engine = build_engine(
            device, pitch=52.5e-9, rows=16, cols=16,
            workload="read-heavy", temperature=420.0, cycle_time=1e-4,
            nominal_wer=1e-4, scrub=ScrubPolicy(0.05),
            sampler="binomial")
        result = engine.run(12_000, rng=9, batch_size=500)
        assert result.retention_flips > 0
        assert result.n_scrubs > 0

    def test_binomial_secded_beats_no_ecc(self, device):
        uber = {}
        for ecc in ("none", "secded"):
            engine = build_engine(device, pitch=70e-9, rows=16,
                                  cols=16, ecc=ecc, sampler="binomial")
            uber[ecc] = engine.run(20_000, rng=11).uber
        assert 0.0 < uber["secded"] < uber["none"]

    def test_bad_sampler_raises(self, device):
        with pytest.raises(ParameterError):
            build_engine(device, pitch=70e-9, rows=16, cols=16,
                         sampler="gaussian")

    def test_zero_interval_retention_probability(self, device):
        """interval == 0 is a valid zero-dwell window (satellite)."""
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        ctl = engine.controller
        bits = np.zeros(4, dtype=np.int8)
        nd = ng = np.zeros(4, dtype=np.int8)
        p = ctl.retention_flip_probability(bits, nd, ng, 0.0)
        assert np.all(p == 0.0)
        assert np.all(ctl.retention_class_probability(0.0) == 0.0)
