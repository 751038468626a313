"""Tests for the engine's thinned binomial sampler.

Three layers: the packed bit-plane state, the thinned samplers and the
3 x 3 window class lookup, and the end-to-end
statistical equivalence of the engine against the per-cell Bernoulli
reference (``memsys_reference.per_cell_reference``).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from memsys_reference import per_cell_reference

from repro.errors import ParameterError
from repro.memsys import build_engine, resolve_backend
from repro.memsys.bitplane import (
    BitPlane,
    pack_bits,
    popcount_rows,
    unpack_bits,
)
from repro.memsys.controller import neighborhood_class_map
from repro.memsys.engine import _PackedState
from repro.memsys.sampling import (
    N_CLASSES,
    ClassPlanes,
    class_index,
    sample_class_flips,
    sample_thinned_flips,
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
        plane.lanes[[1, 4]] = pack_bits(bits)
        assert np.array_equal(unpack_bits(plane.lanes[[1, 4]], 72), bits)
        assert np.array_equal(plane.to_bits(72, 2 * 72), bits[0])
        assert plane.to_bits(0, 72).sum() == 0

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

    def test_toggle_returns_mapped_masks_for_diff_bits(self):
        plane = BitPlane.from_bits(np.zeros(100, np.int8), 1, 72)
        other = plane.copy()
        idx = np.array([0, 63, 64, 71, 99])  # lanes 0/1 + tail
        word, lane, mask = plane.toggle_cells(idx)
        assert word.tolist() == [0, 0, 0, 0]
        assert lane.tolist() == [0, 0, 1, 1]
        assert mask.tolist() == [1, 1 << 63, 1, 1 << 7]
        assert plane.diff_bits(other, word, lane, mask).all()
        other.toggle_cells(idx[:2])
        assert plane.diff_bits(other, word, lane, mask).tolist() == [
            False, False, True, True]

    @pytest.mark.parametrize("code_bits", (72, 64, 39))
    def test_row_bits_reads_any_rows_of_the_plane_layout(self, code_bits):
        rng = np.random.default_rng(code_bits)
        bits = rng.integers(0, 2, size=(5, code_bits)).astype(np.int8)
        plane = BitPlane(2, code_bits, 2 * code_bits)
        word = rng.integers(0, 5, size=40)
        bit = rng.integers(0, code_bits, size=40)
        assert np.array_equal(plane.row_bits(pack_bits(bits), word, bit),
                              bits[word, bit])

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

    def test_popcount_rows_wide_and_degenerate_rows(self):
        """Narrow and wide rows match a Python bit count, and an empty
        plane gives an empty count."""
        rng = np.random.default_rng(5)
        for n_lanes in (1, 4, 5, 16):
            lanes = rng.integers(0, 2**63,
                                 size=(20, n_lanes)).astype(np.uint64)
            expect = [bin(int(v)).count("1") for row in lanes
                      for v in [sum(int(x) << (64 * i)
                                    for i, x in enumerate(row))]]
            assert np.array_equal(popcount_rows(lanes), expect)
        empty = np.zeros((0, 2), dtype=np.uint64)
        assert popcount_rows(empty).shape == (0,)

    def test_too_many_words_raises(self):
        with pytest.raises(ParameterError):
            BitPlane(n_words=3, code_bits=72, n_cells=100)


def _class_planes(bits, code_bits=72):
    """Packed plane and refreshed :class:`ClassPlanes` of a stack of
    ``(shards, rows, cols)`` (or one ``(rows, cols)``) 0/1 arrays;
    cells past the last whole codeword are tail."""
    bits = np.asarray(bits, dtype=np.int8)
    if bits.ndim == 2:
        bits = bits[None]
    n_shards, rows, cols = bits.shape
    words = rows * cols // code_bits
    plane = BitPlane(n_shards * words, code_bits, bits.size)
    for shard, view in zip(bits, plane.split(n_shards)):
        one = BitPlane.from_bits(shard.reshape(-1), words, code_bits)
        view.lanes[:] = one.lanes
        view.tail[:] = one.tail
    planes = ClassPlanes(rows, cols, n_shards)
    planes.refresh(plane)
    return plane, planes


def _random_classes(rng, shape=(40, 50)):
    """Planes of a random array and every cell's class."""
    bits = (rng.random(shape) < 0.5).astype(np.int8)
    _, planes = _class_planes(bits)
    return planes, planes.classes(np.arange(bits.size))


class TestSamplers:
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
        planes, _ = _random_classes(rng)
        assert sample_class_flips(planes, 0, np.zeros(N_CLASSES),
                                  rng).size == 0
        flips = sample_class_flips(planes, 0, np.ones(N_CLASSES), rng)
        assert np.array_equal(np.sort(flips), np.arange(planes.cells))

    def test_class_flips_respect_class_membership(self):
        """Flips land only in cells of classes with p > 0."""
        rng = np.random.default_rng(2)
        planes, ci = _random_classes(rng)
        target = int(ci[0])
        p = np.zeros(N_CLASSES)
        p[target] = 0.5
        flips = sample_class_flips(planes, 0, p, rng)
        assert flips.size > 0
        assert np.all(ci[flips] == target)

    def test_class_flips_address_their_shard(self):
        """Shard ``s`` draws over its own cells' classes and returns
        shard-local indices."""
        rng = np.random.default_rng(8)
        bits = np.zeros((3, 9, 10), dtype=np.int8)
        bits[1] = 1                       # only shard 1 holds bit-1 cells
        _, planes = _class_planes(bits, code_bits=9)
        p = np.zeros(N_CLASSES)
        p[25:] = 1.0                      # every bit-1 class flips
        assert sample_class_flips(planes, 0, p, rng).size == 0
        assert np.array_equal(np.sort(sample_class_flips(planes, 1, p,
                                                         rng)),
                              np.arange(90))
        assert sample_class_flips(planes, 2, p, rng).size == 0

    def test_class_flips_deterministic_under_seed(self):
        planes, _ = _random_classes(np.random.default_rng(0))
        p = np.full(N_CLASSES, 0.1)
        a = sample_class_flips(planes, 0, p, np.random.default_rng(7))
        b = sample_class_flips(planes, 0, p, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_class_flips_statistics(self):
        """Flip counts follow Binomial(n, p) within a 6-sigma band."""
        p_flip = 0.3
        _, planes = _class_planes(np.zeros((100, 200), np.int8))
        n = planes.cells
        p = np.zeros(N_CLASSES)
        p[:25] = p_flip
        rng = np.random.default_rng(3)
        counts = [sample_class_flips(planes, 0, p, rng).size
                  for _ in range(30)]
        mean = np.mean(counts)
        se = np.sqrt(n * p_flip * (1 - p_flip) / len(counts))
        assert abs(mean - n * p_flip) < 6 * se

    @pytest.mark.parametrize("table", ("with-zeros", "p-max-one"))
    def test_class_flips_per_class_binomial(self, table):
        """Over many seeds, each class's flip count is Binomial(n_c,
        p_c): its mean within 6 standard errors and its variance within
        a chi-square band (exact thinning, not just the right mean)."""
        planes, ci = _random_classes(np.random.default_rng(4),
                                     shape=(60, 70))
        n_c = np.bincount(ci, minlength=N_CLASSES)
        p = np.linspace(0.0, 0.6, N_CLASSES)
        p[::3] = 0.0
        if table == "p-max-one":
            p[n_c.argmax()] = 1.0
        seeds = 400
        counts = np.zeros((seeds, N_CLASSES), dtype=np.int64)
        for seed in range(seeds):
            flips = sample_class_flips(planes, 0, p,
                                       np.random.default_rng(seed))
            counts[seed] = np.bincount(ci[flips], minlength=N_CLASSES)
        assert not counts[:, p == 0.0].any()
        live = (p > 0.0) & (p < 1.0) & (n_c > 0)
        mean, var = n_c * p, n_c * p * (1 - p)
        se = np.sqrt(var[live] / seeds)
        assert np.all(np.abs(counts[:, live].mean(axis=0)
                             - mean[live]) < 6 * se)
        # Sample variance / true variance ~ chi2(seeds - 1) / (seeds - 1):
        # sd ~ sqrt(2 / seeds) = 0.07.
        ratio = counts[:, live].var(axis=0, ddof=1) / var[live]
        assert np.all(np.abs(ratio - 1.0) < 0.45), ratio
        certain = (p == 1.0) & (n_c > 0)
        assert np.all(counts[:, certain] == n_c[certain])

    def test_thinned_matches_class_statistics(self):
        """Thinned draws over an accessed subset and the whole-array
        draw agree in law."""
        rng = np.random.default_rng(4)
        planes, ci = _random_classes(rng, shape=(100, 100))
        n = ci.size
        p = np.linspace(0.0, 0.2, N_CLASSES)
        expected = p[ci].sum()
        whole = np.mean([
            sample_class_flips(planes, 0, p, rng).size
            for _ in range(25)])
        thinned = np.mean([
            sample_thinned_flips(n, p, lambda cand: ci[cand],
                                 rng).size
            for _ in range(25)])
        se = np.sqrt(expected / 25)
        assert abs(whole - expected) < 6 * se
        assert abs(thinned - expected) < 6 * se

    def test_thinned_one_population_matches_a_list_of_one(self):
        """The single-population fast path makes the list path's draws."""
        p = np.linspace(0.0, 0.3, N_CLASSES)
        ci = np.arange(5000) % N_CLASSES
        for seed in range(5):
            one = sample_thinned_flips(5000, p, lambda c: ci[c],
                                       np.random.default_rng(seed))
            listed = sample_thinned_flips(
                [5000], p, lambda c: ci[c],
                [np.random.default_rng(seed)])
            assert one.size and np.array_equal(one, listed)

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
    """The 8-slice neighbor sum and int16 class index the int8 /
    separable-sum and bit-sliced code replaced — kept as the oracle."""
    rows, cols = bits2d.shape
    padded = np.zeros((rows + 2, cols + 2), dtype=np.int8)
    padded[1:-1, 1:-1] = bits2d
    nd = (padded[:-2, 1:-1] + padded[2:, 1:-1]
          + padded[1:-1, :-2] + padded[1:-1, 2:]).astype(np.int8)
    ng = (padded[:-2, :-2] + padded[:-2, 2:]
          + padded[2:, :-2] + padded[2:, 2:]).astype(np.int8)
    ci = (bits2d.astype(np.int16) * 25 + nd.astype(np.int16) * 5
          + ng.astype(np.int16)).astype(np.int8).reshape(-1)
    return nd, ng, ci


#: 1x1, single rows and columns, rows of one lane exactly and of a lane
#: and a bit, odd shapes and even ones.
CLASS_MAP_SHAPES = ((1, 1), (1, 2), (1, 9), (1, 64), (2, 1), (9, 1),
                    (64, 1), (7, 9), (9, 7), (3, 3), (5, 11), (8, 8),
                    (24, 36), (33, 31), (4, 65), (3, 128))


class TestClassPlanesAgainstReference:
    @pytest.mark.parametrize("shape", CLASS_MAP_SHAPES)
    @pytest.mark.parametrize("density", (0.0, 0.3, 0.5, 1.0))
    def test_planes_match_neighborhood_class_map(self, shape, density):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        bits2d = (rng.random(shape) < density).astype(np.int8)
        nd_ref, ng_ref, ci_ref = _reference_class_maps(bits2d)
        nd, ng = neighborhood_class_map(bits2d)
        assert nd.dtype == ng.dtype == np.int8
        assert np.array_equal(nd, nd_ref) and np.array_equal(ng, ng_ref)
        ci = class_index(bits2d.reshape(-1), nd.reshape(-1),
                         ng.reshape(-1))
        assert ci.dtype == np.int8
        assert np.array_equal(ci, ci_ref)
        # The planes of a packed plane with an unmapped tail: every
        # cell, and every cell under a caller's bits.
        _, planes = _class_planes(bits2d, code_bits=5)
        cells = np.arange(bits2d.size)
        assert planes.classes(cells).dtype == np.int8
        assert np.array_equal(planes.classes(cells), ci_ref)
        flipped = 1 - bits2d.reshape(-1)
        assert np.array_equal(planes.classes(cells, flipped),
                              ci_ref % 25 + 25 * flipped)


class TestClassPlanes:
    ROWS, COLS, CODE = 24, 36, 72

    def _fresh(self, rng):
        bits = (rng.random((self.ROWS, self.COLS)) < 0.5).astype(np.int8)
        return _class_planes(bits, self.CODE)

    def test_refresh_follows_the_plane(self):
        """After toggles, a refresh lands on the recomputed classes,
        and every refresh counts as a rebuild."""
        rng = np.random.default_rng(0)
        plane, planes = self._fresh(rng)
        for k in (1, 2, 5, 8, 9, 13, 3, 11, plane.n_cells // 3):
            idx = rng.choice(plane.n_cells, size=k, replace=False)
            plane.toggle_cells(idx)
            planes.refresh(plane)
            _, _, ci = _reference_class_maps(
                plane.to_bits().reshape(self.ROWS, self.COLS))
            assert np.array_equal(
                planes.classes(np.arange(plane.n_cells)), ci)
        assert planes.rebuilds == 10
        assert planes.incremental_refreshes == 0

    def test_classes_use_frozen_neighbors(self):
        """Between refreshes the planes keep the batch-start classes."""
        rng = np.random.default_rng(3)
        plane, planes = self._fresh(rng)
        cells = np.arange(plane.n_cells)
        before = planes.classes(cells)
        plane.toggle_cells(rng.choice(plane.n_cells, size=50,
                                      replace=False))
        assert np.array_equal(planes.classes(cells), before)
        picks = rng.choice(plane.n_mapped, size=40, replace=False)
        bits = rng.integers(0, 2, size=40)
        assert np.array_equal(planes.classes(picks, bits),
                              before[picks] % 25 + 25 * bits)

    def test_classes_ignore_window_toggles_until_refresh(self):
        """Toggling candidates and every cell of their 3 x 3 windows
        (edges and corners included) leaves their classes at the
        batch-start ones until the next refresh, which then lands on
        the toggled plane's classes."""
        rng = np.random.default_rng(6)
        plane, planes = self._fresh(rng)
        rows, cols = self.ROWS, self.COLS
        picks = np.array([0, cols - 1, 5 * cols, 7 * cols - 1,
                          10 * cols + 17, (rows - 1) * cols,
                          rows * cols - 1])
        before = planes.classes(picks)
        bits = rng.integers(0, 2, size=picks.size)
        before_with_bits = planes.classes(picks, bits)
        window = np.unique([
            (r + dr) * cols + c + dc
            for r, c in zip(*np.divmod(picks, cols))
            for dr in (-1, 0, 1) for dc in (-1, 0, 1)
            if 0 <= r + dr < rows and 0 <= c + dc < cols])
        plane.toggle_cells(window)
        assert np.array_equal(planes.classes(picks), before)
        assert np.array_equal(planes.classes(picks, bits),
                              before_with_bits)
        planes.refresh(plane)
        _, _, ci = _reference_class_maps(plane.to_bits().reshape(rows,
                                                                 cols))
        assert np.array_equal(planes.classes(picks), ci[picks])
        assert not np.array_equal(ci[picks], before)

    def test_classes_keep_the_shape_of_cells(self):
        plane, planes = self._fresh(np.random.default_rng(4))
        cells = np.arange(12).reshape(3, 4)
        assert planes.classes(cells).shape == (3, 4)
        assert planes.classes(np.empty(0, np.intp)).shape == (0,)

    def test_shape_mismatch_raises(self):
        plane = BitPlane.from_bits(np.zeros(100, np.int8), 1, 72)
        with pytest.raises(ParameterError):
            ClassPlanes(7, 7).refresh(plane)


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
        planes = None  # not needed for counter bookkeeping
        return _PackedState(intended, intended.copy(), planes,
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
        # One error in word 1: bit 7 of the first written word.
        state.write_words(np.array([1, 4]), pack_bits(cw), np.array([7]))
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
                bit = int(rng.integers(0, 72))  # in the first word
                state.write_words(w, pack_bits(cw), np.array([bit]))
            else:
                w = rng.choice(4, size=1)
                state.restore_words(w, np.empty(0, dtype=np.intp))
            self._check_invariant(state)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_toggle_and_inject_match_xor_ground_truth(self, seed):
        """Random toggles (mapped and tail), write-error injections and
        whole-word writes and restores — on a clean array, whose error
        counters the stores skip, and on one with wrong bits — on an
        odd code width: the stored bits follow an independent XOR
        model, and the maintained counters follow XOR+popcount."""
        rng = np.random.default_rng(seed)
        n_words, code_bits, n_cells = 6, 9, 58  # 54 mapped + 4 tail
        bits = rng.integers(0, 2, size=n_cells).astype(np.int8)
        intended = BitPlane.from_bits(bits, n_words, code_bits)
        state = _PackedState(intended, intended.copy(), None,
                             _StubTables())
        truth, expected = bits.copy(), bits.copy()
        mapped_idx = np.arange(state.actual.n_mapped)

        def store(write, errors=True):
            """write_words (or restore_words) of a few random words,
            with errors at a few of their cells (given by position in
            the words' cells)."""
            words = rng.choice(n_words, size=int(rng.integers(1, 4)),
                               replace=False)
            cells = (words[:, None] * code_bits
                     + np.arange(code_bits)).reshape(-1)
            flips = rng.choice(cells.size, size=int(rng.integers(0, 3))
                               if errors else 0, replace=False)
            if write:
                cw = rng.integers(0, 2, size=(words.size, code_bits))
                state.write_words(words, pack_bits(cw), flips)
                truth[cells] = cw.reshape(-1)
            else:
                state.restore_words(words, flips)
            expected[cells] = truth[cells]
            expected[cells[flips]] ^= 1
            assert np.array_equal(state.intended.to_bits(), truth)
            assert np.array_equal(state.actual.to_bits(), expected)
            self._check_invariant(state)

        store(write=True, errors=False)
        assert state.wrong_bits == 0
        store(write=False)
        for step in range(4):
            # One clean mapped cell among the toggles leaves a wrong bit.
            clean = mapped_idx[expected[mapped_idx] == truth[mapped_idx]]
            first = rng.choice(clean)
            rest = rng.choice(np.setdiff1d(np.arange(n_cells), first),
                              size=int(rng.integers(0, 9)), replace=False)
            idx = np.concatenate([[first], rest])
            state.toggle(idx)
            expected[idx] ^= 1
            # _inject's contract: the cells were just written clean,
            # so every injection creates a new wrong bit.
            clean = mapped_idx[expected[mapped_idx] == truth[mapped_idx]]
            n_inj = min(int(rng.integers(0, 4)), clean.size)
            inj = rng.choice(clean, size=n_inj, replace=False)
            state._inject(np.arange(n_words), inj)
            expected[inj] ^= 1
            assert state.wrong_bits > 0
            store(write=step % 2 == 0)
            store(write=bool(rng.integers(0, 2)))
        assert np.array_equal(state.actual.to_bits(), expected)
        self._check_invariant(state)


class TestEngineEquivalence:
    def test_binomial_deterministic_under_seed(self, device):
        runs = [build_engine(device, pitch=70e-9, rows=16,
                             cols=16).run(3000, rng=7)
                for _ in range(2)]
        assert runs[0].raw_bit_errors == runs[1].raw_bit_errors
        assert runs[0].write_errors == runs[1].write_errors
        assert runs[0].uber == runs[1].uber

    def test_binomial_counters_consistent(self, device):
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
        assert "sampler" not in result.config

    def test_counters_statistically_equivalent(self, device):
        """Seeded per-cell reference vs binomial totals agree within a
        binomial-CI tolerance (aggregated over seeds so per-seed noise
        averages out)."""

        def totals():
            acc = dict(write_errors=0, disturb_flips=0,
                       retention_flips=0, words_corrected=0)
            for seed in range(4):
                engine = build_engine(
                    device, pitch=52.5e-9, rows=32, cols=32,
                    workload="read-heavy", temperature=400.0,
                    cycle_time=1e-5)
                result = engine.run(15_000, rng=seed)
                for key in acc:
                    acc[key] += getattr(result, key)
            return acc

        with per_cell_reference() as built:
            reference = totals()
        assert built.value == 4
        binomial = totals()
        for key in reference:
            a = reference[key]
            b = binomial[key]
            tol = 6.0 * np.sqrt(a + b + 1.0) + 10.0
            assert abs(a - b) <= tol, (key, a, b)

    def test_binomial_scrub_and_retention_corner(self, device):
        """The packed path books scrubs and retention flips too."""
        from repro.memsys import ScrubPolicy
        engine = build_engine(
            device, pitch=52.5e-9, rows=16, cols=16,
            workload="read-heavy", temperature=420.0, cycle_time=1e-4,
            nominal_wer=1e-4, scrub=ScrubPolicy(0.05))
        result = engine.run(12_000, rng=9, batch_size=500)
        assert result.retention_flips > 0
        assert result.n_scrubs > 0

    def test_binomial_secded_beats_no_ecc(self, device):
        uber = {}
        for ecc in ("none", "secded"):
            engine = build_engine(device, pitch=70e-9, rows=16,
                                  cols=16, ecc=ecc)
            uber[ecc] = engine.run(20_000, rng=11).uber
        assert 0.0 < uber["secded"] < uber["none"]

    def test_bad_sampler_raises(self, device):
        with pytest.raises(ParameterError):
            build_engine(device, pitch=70e-9, rows=16, cols=16,
                         sampler="gaussian")

    def test_bernoulli_sampler_is_retired(self, device):
        with pytest.raises(ParameterError, match="retired"):
            build_engine(device, pitch=70e-9, rows=16, cols=16,
                         sampler="bernoulli")

    def test_numba_backend_is_retired(self, device):
        with pytest.raises(ParameterError, match="numba.*retired"):
            build_engine(device, pitch=70e-9, rows=16, cols=16,
                         backend="numba")
        with pytest.raises(ParameterError, match="numba.*retired"):
            resolve_backend("numba")

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_numpy_backend_is_the_one_path(self, device, backend):
        assert resolve_backend(backend).name == "numpy"
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              backend=backend)
        result = engine.run(500, rng=1)
        assert result.config["backend"] == "numpy"

    def test_zero_interval_retention_probability(self, device):
        """interval == 0 is a valid zero-dwell window (satellite)."""
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        ctl = engine.controller
        assert np.all(ctl.retention_class_probability(0.0) == 0.0)


#: Corners of the seed-replicate comparison against the per-cell
#: reference (70 nm pitch, default nominal WER and batch size).
REFERENCE_CORNERS = {
    "flat-64": dict(rows=64, cols=64),
    "write-heavy-128": dict(rows=128, cols=128, workload="write-heavy"),
    "banked-scrub": dict(rows=128, cols=128, banks=2, subarrays=2,
                         scrub=2e-5),
    "no-ecc": dict(rows=64, cols=64, ecc="none"),
}

#: Family-wise false-alarm level of one comparison: each counter's
#: test runs at this level over the number of tests (Bonferroni).
FAMILY_ALPHA = 0.01


def _replicates(device, n_seeds, n_transactions, reference):
    """Per corner, every counter of ``n_seeds`` seeded runs."""
    from repro.memsys import ScrubPolicy
    from repro.memsys.engine import _COUNTERS

    runs = {}
    for name, kwargs in REFERENCE_CORNERS.items():
        kwargs = dict(kwargs)
        if "scrub" in kwargs:
            kwargs["scrub"] = ScrubPolicy(kwargs["scrub"])
        engine = build_engine(device, pitch=70e-9, **kwargs)
        with per_cell_reference() if reference else nullcontext():
            results = [engine.run(n_transactions, rng=1000 + seed)
                       for seed in range(n_seeds)]
        runs[name] = {counter: np.array([getattr(r, counter)
                                         for r in results], dtype=float)
                      for counter in _COUNTERS}
    return runs


def _compare_to_reference(device, n_seeds, n_transactions):
    """Welch's two-sample test per corner and counter, engine seeds
    against reference seeds, at family-wise level :data:`FAMILY_ALPHA`.

    A persisted wrong bit is counted again by every read of its word,
    so one run's counters are overdispersed and a per-run binomial
    interval does not fit; independent seed replicates do."""
    from scipy.stats import ttest_ind

    engine = _replicates(device, n_seeds, n_transactions, False)
    reference = _replicates(device, n_seeds, n_transactions, True)
    tests = []
    for corner in REFERENCE_CORNERS:
        for counter, a in engine[corner].items():
            b = reference[corner][counter]
            if np.ptp(a) == 0 and np.ptp(b) == 0:
                # Fixed by the run's shape (or never seen): equal.
                assert a[0] == b[0], (corner, counter)
                continue
            tests.append((corner, counter,
                          ttest_ind(a, b, equal_var=False).pvalue))
    failed = [test for test in tests
              if test[2] < FAMILY_ALPHA / len(tests)]
    assert len(tests) > 4 * 8 and not failed, failed


def test_counters_match_the_reference_over_seeds(device):
    """Seeded tier-1 subset of the comparison: 16 seeds per side."""
    _compare_to_reference(device, n_seeds=16, n_transactions=5000)


@pytest.mark.slow
def test_counters_match_the_reference_over_40_seeds(device):
    """The full comparison: 40 seeds per side, 20,000 transactions."""
    _compare_to_reference(device, n_seeds=40, n_transactions=20_000)
