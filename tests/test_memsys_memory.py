"""Memory of the binomial engine: a per-cell ceiling, and the block-wise
and arithmetic rewrites that keep it low, checked against the
whole-array formulas they replaced.

The binomial engine keeps one int8 class per cell plus the packed
planes; the class map rebuilds in row blocks straight from the packed
plane, the random background is drawn in row blocks, and word cells,
hot-word sets and the checkerboard are computed arithmetically instead
of from per-cell index tables.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.arrays.layout import ArrayLayout
from repro.arrays.pattern import checkerboard
from repro.memsys import bitplane, build_engine
from repro.memsys.backends.numba_backend import NumbaEngineBackend
from repro.memsys.bitplane import BitPlane, unpack_bits
from repro.memsys.controller import WordMap, neighborhood_class_map
from repro.memsys.ecc import HammingSECDED
from repro.memsys.sampling import (
    IncrementalClassMaps,
    N_CLASSES,
    class_index,
    rebuild_class_index,
)
from repro.memsys.traffic import HotSpotWorkload, Workload

# -- the ceiling ------------------------------------------------------------

#: Side of the array the ceiling is measured on, and its bound: the
#: engine's traced allocations peak at no more than this many bytes per
#: cell while it builds and runs (one int8 class per cell plus the
#: packed planes, the per-batch traffic and one row block's
#: temporaries).
SIDE = 1024
MAX_BYTES_PER_CELL = 8.0


def _engine(device, workload, side):
    return build_engine(device, pitch=70e-9, rows=side, cols=side,
                        ecc="secded", workload=workload,
                        nominal_wer=1e-6, backend="numpy")


@pytest.mark.parametrize("workload", ("write-heavy", "read-heavy"))
def test_binomial_engine_peak_bytes_per_cell(eval_device, workload):
    # Imports and coupling kernels first, so the trace sees the engine.
    _engine(eval_device, workload, 16).run(2000, rng=1)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        result = _engine(eval_device, workload, SIDE).run(20_000, rng=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_transactions == 20_000
    assert peak / SIDE**2 <= MAX_BYTES_PER_CELL, peak / SIDE**2


#: Run-phase bound of a write-heavy engine: once built, a run's write
#: path (drawn data, packed codewords, placement) keeps the traced peak
#: at no more than this many bytes per cell.
MAX_WRITE_RUN_BYTES_PER_CELL = 3.5


def test_write_path_run_peak_bytes_per_cell(eval_device):
    _engine(eval_device, "write-heavy", 16).run(2000, rng=1)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        engine = _engine(eval_device, "write-heavy", SIDE)
        tracemalloc.reset_peak()
        result = engine.run(20_000, rng=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_writes > 15_000
    assert peak / SIDE**2 <= MAX_WRITE_RUN_BYTES_PER_CELL, peak / SIDE**2


# -- block rebuild ----------------------------------------------------------


def _reference(bits2d):
    """Whole-array class map and histogram of a (rows, cols) array."""
    nd, ng = neighborhood_class_map(bits2d)
    ci = class_index(bits2d.reshape(-1), nd.reshape(-1), ng.reshape(-1))
    return ci, np.bincount(ci, minlength=N_CLASSES)


def _plane(rng, rows, cols, code_bits=72, fill="random"):
    """A packed plane of rows x cols random (or all-zero, all-one)
    cells; mapped words fill what they can and the rest is tail (all
    tail below one word)."""
    n_cells = rows * cols
    if fill == "random":
        bits = (rng.random(n_cells) < 0.5).astype(np.int8)
    else:
        bits = np.full(n_cells, fill == "ones", dtype=np.int8)
    return BitPlane.from_bits(bits, n_cells // code_bits,
                              code_bits), bits


#: 1 x N, N x 1, a tail-cell shape, and shapes spanning several row
#: blocks (with small blocks, and with the real block size); a square
#: array, a row exactly one 72-bit word wide, a wide short array, and
#: an 11 x 13 array whose tail (71 cells at 72 code bits) is longer
#: than a lane.
BLOCK_SHAPES = ((1, 200), (200, 1), (37, 41), (64, 64), (13, 97),
                (256, 256), (100, 72), (3, 1000), (11, 13))


@pytest.fixture(params=(7, 64, 300), ids=lambda n: f"block{n}")
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(bitplane, "BLOCK_CELLS", request.param)
    return request.param


@pytest.mark.parametrize("backend", (None, NumbaEngineBackend()),
                         ids=("numpy", "numba-kernels"))
@pytest.mark.parametrize("shape, code_bits, fill", [
    pytest.param(shape, code_bits, fill, id=f"shape{i}" + (
        "" if (code_bits, fill) == (72, "random")
        else f"-{code_bits}-{fill}"))
    for i, shape in enumerate(BLOCK_SHAPES)
    for code_bits in (72, 64, 39)
    for fill in ("random", "zeros", "ones")])
def test_block_rebuild_matches_whole_array(shape, code_bits, fill,
                                           backend, small_blocks):
    rows, cols = shape
    rng = np.random.default_rng(rows * 1000 + cols)
    plane, bits = _plane(rng, rows, cols, code_bits, fill)
    ci_ref, hist_ref = _reference(bits.reshape(rows, cols))
    maps = IncrementalClassMaps(rows, cols, plane, backend=backend)
    assert np.array_equal(maps.class_idx, ci_ref)
    assert np.array_equal(maps.hist, hist_ref)


@pytest.mark.parametrize("fill", ("random", "zeros", "ones"))
@pytest.mark.parametrize("code_bits", (72, 64, 39))
def test_megacell_rebuild_matches_whole_array(code_bits, fill):
    # 1024 x 1024 at the real block size: 16 blocks of 64 rows.
    rows = cols = 1024
    plane, bits = _plane(np.random.default_rng(code_bits), rows, cols,
                         code_bits, fill)
    out = np.empty(rows * cols, dtype=np.int8)
    hist = rebuild_class_index(plane, rows, cols, out)
    ci_ref, hist_ref = _reference(bits.reshape(rows, cols))
    assert np.array_equal(out, ci_ref)
    assert np.array_equal(hist, hist_ref)


def test_block_rebuild_at_real_block_size():
    rows, cols = 3300, 41  # three row blocks, a 26-cell tail
    assert len(bitplane.row_blocks(rows, cols)) == 3
    rng = np.random.default_rng(11)
    plane, bits = _plane(rng, rows, cols)
    assert plane.tail.size == rows * cols % 72 > 0
    out = np.empty(rows * cols, dtype=np.int8)
    hist = rebuild_class_index(plane, rows, cols, out)
    ci_ref, hist_ref = _reference(bits.reshape(rows, cols))
    assert np.array_equal(out, ci_ref)
    assert np.array_equal(hist, hist_ref)


def test_to_bits_ranges_cross_words_and_tail():
    rng = np.random.default_rng(5)
    plane, bits = _plane(rng, 37, 41, code_bits=10)
    assert plane.n_mapped == 1510 and plane.n_cells == 1517
    edges = (0, 1, 9, 10, 11, 1509, 1510, 1511, 1516, 1517)
    for start in edges:
        for stop in edges:
            if start <= stop:
                got = plane.to_bits(start, stop)
                assert np.array_equal(got, bits[start:stop]), (start, stop)
    assert np.array_equal(plane.to_bits(), bits)


@pytest.mark.parametrize("backend", (None, NumbaEngineBackend()),
                         ids=("numpy", "numba-kernels"))
@pytest.mark.parametrize("shape", ((1, 90), (90, 1), (37, 41)))
def test_incremental_matches_forced_rebuild(shape, backend, small_blocks):
    rows, cols = shape
    rng = np.random.default_rng(rows + cols)
    plane, _ = _plane(rng, rows, cols)
    incremental = IncrementalClassMaps(rows, cols, plane,
                                       full_rebuild_fraction=1.0,
                                       backend=backend)
    rebuilt = IncrementalClassMaps(rows, cols, plane,
                                   full_rebuild_fraction=0.0,
                                   backend=backend)
    for k in (1, 3, 8, 9, 25, 1, 60):
        plane.toggle_cells(rng.choice(plane.n_cells, size=k,
                                      replace=False))
        incremental.refresh(plane)
        rebuilt.refresh(plane)
        assert np.array_equal(incremental.class_idx, rebuilt.class_idx)
        assert np.array_equal(incremental.hist, rebuilt.hist)
        # nd / ng are the derived digits of the class.
        ci_ref, _ = _reference(plane.to_bits().reshape(rows, cols))
        assert np.array_equal(incremental.class_idx, ci_ref)
        nd, ng = neighborhood_class_map(plane.to_bits().reshape(rows,
                                                                cols))
        assert np.array_equal(incremental.nd, nd.reshape(-1))
        assert np.array_equal(incremental.ng, ng.reshape(-1))
    assert incremental.rebuilds == 1
    assert incremental.incremental_refreshes == 7
    assert rebuilt.incremental_refreshes == 0


# -- set-up: the old whole-array formulas -----------------------------------


@pytest.mark.parametrize("shape", ((1, 1), (7, 13), (300, 300),
                                   (1000, 70)))
def test_initial_bits_match_one_whole_array_draw(shape, monkeypatch):
    rows, cols = shape
    for block in (bitplane.BLOCK_CELLS, 5):
        monkeypatch.setattr(bitplane, "BLOCK_CELLS", block)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        bits = Workload().initial_bits(rows, cols, rng)
        assert bits.dtype == np.int8 and bits.shape == shape
        assert np.array_equal(bits, (ref.random((rows, cols)) < 0.5)
                              .astype(np.int8))
        # The generator is left where the whole-array draw leaves it.
        assert rng.random() == ref.random()


@pytest.mark.parametrize("k", (1, 11, 57, 63, 64, 65, 120, 128))
def test_write_data_is_one_raw_lane_draw(k):
    n, n_lanes = 300, -(-k // 64)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    lanes = Workload().write_data(np.arange(n), k, rng)
    assert lanes.dtype == np.uint64 and lanes.shape == (n, n_lanes)
    bits = unpack_bits(lanes, 64 * n_lanes)
    # Padding bits past the data width are zero.
    assert not bits[:, k:].any()
    # The data bits are those of one whole-array integers() draw, and
    # the generator is left where that draw leaves it.
    raw = ref.integers(0, 2**64, (n, n_lanes), np.uint64)
    assert np.array_equal(bits[:, :k], unpack_bits(raw, k))
    assert np.array_equal(rng.bit_generator.random_raw(8),
                          ref.bit_generator.random_raw(8))
    # The lanes encode packed and decode back to the same bits.
    code = HammingSECDED(k)
    data, outcomes = code.decode(unpack_bits(code.encode_lanes(lanes),
                                             code.n_code))
    assert np.array_equal(data, bits[:, :k])
    assert not outcomes.any()


#: Square, wide and tall arrays with unmapped tail cells; a word wider
#: than a row; ``rows // 8 == 0`` / ``cols // 8 == 0``; and single
#: rows and columns, where the band holds the tail too.
HOT_SHAPES = ((64, 64), (37, 41), (5, 100), (100, 5), (9, 9), (3, 50),
              (50, 3), (24, 36), (1, 100), (100, 1))


def _old_hot_words(word_map, axis):
    layout = word_map.layout
    flat = np.arange(word_map.n_mapped_cells)
    if axis == "row":
        band = max(1, layout.rows // 8)
        hot_cells = flat[flat // layout.cols < band]
    else:
        band = max(1, layout.cols // 8)
        hot_cells = flat[flat % layout.cols < band]
    words = np.unique(hot_cells // word_map.code_bits)
    return words if words.size else np.array([0])


@pytest.mark.parametrize("axis", ("row", "col"))
@pytest.mark.parametrize("code_bits", (8, 72))
@pytest.mark.parametrize("shape", HOT_SHAPES)
def test_hot_words_match_cell_mask_formula(shape, code_bits, axis):
    rows, cols = shape
    if rows * cols < code_bits:
        pytest.skip("array smaller than one codeword")
    words = WordMap(ArrayLayout(pitch=70e-9, rows=rows, cols=cols),
                    code_bits)
    hot = HotSpotWorkload(axis=axis).bind(words).hot_words(words.n_words)
    old = _old_hot_words(words, axis)
    assert hot.dtype == old.dtype
    assert np.array_equal(hot, old)


def test_word_cells_are_arithmetic():
    words = WordMap(ArrayLayout(pitch=70e-9, rows=37, cols=41), 72)
    table = np.arange(words.n_mapped_cells).reshape(words.n_words, 72)
    assert np.array_equal(words.cells, table)
    picks = np.array([20, 0, 7])
    assert np.array_equal(words.cells_of(picks), table[picks])
    positions = np.array([3, 64, 70])
    assert np.array_equal(words.cells_of(picks, positions),
                          table[picks][:, positions])


@pytest.mark.parametrize("shape", ((1, 1), (1, 9), (9, 1), (7, 13),
                                   (300, 257)))
@pytest.mark.parametrize("phase", (0, 1))
def test_checkerboard_matches_meshgrid_formula(shape, phase):
    rows, cols = shape
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    expected = ((rr + cc + phase) % 2).astype(np.int8)
    bits = checkerboard(rows, cols, phase=phase).bits
    assert bits.dtype == np.int8
    assert np.array_equal(bits, expected)
