"""Memory of the binomial engine: a per-cell ceiling, and the block-wise
and arithmetic rewrites that keep it low, checked against the
whole-array formulas they replaced.

The binomial engine keeps the packed planes plus seven bit-sliced class
planes (7/8 byte per cell); the class planes rebuild from the packed
plane with word-wide shifts, a whole-array draw classifies its
candidates in blocks, the random background is drawn in row blocks,
and word cells, hot-word sets and the checkerboard are computed
arithmetically instead of from per-cell index tables.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from test_memsys_sampling import _StubTables

from repro.arrays.layout import ArrayLayout
from repro.arrays.pattern import checkerboard
from repro.memsys import bitplane, build_engine
from repro.memsys.bitplane import BitPlane, unpack_bits
from repro.memsys.controller import WordMap, neighborhood_class_map
from repro.memsys.ecc import HammingSECDED
from repro.memsys.engine import _PackedState
from repro.memsys.sampling import ClassPlanes, class_index
from repro.memsys.traffic import HotSpotWorkload, Workload

# -- the ceiling ------------------------------------------------------------

#: Side of the array the ceiling is measured on, and its bound: the
#: engine's traced allocations peak at no more than this many bytes per
#: cell while it builds and runs (the packed and class planes, the
#: per-batch traffic and one block's temporaries).
SIDE = 1024
MAX_BYTES_PER_CELL = 8.0


def _engine(device, workload, side):
    return build_engine(device, pitch=70e-9, rows=side, cols=side,
                        ecc="secded", workload=workload,
                        nominal_wer=1e-6)


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
#: path (drawn data, packed codewords, placement) and the class-plane
#: rebuild keep the traced peak at no more than this many bytes per
#: cell (2.76 measured, numpy 2.4; 3.10 with the int8 class map).
MAX_WRITE_RUN_BYTES_PER_CELL = 2.8


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


#: A hot, slow retention corner (the pinned 420 K, ``cycle_time=10``
#: golden): nearly every cell of the array is a whole-array candidate
#: on every batch, and the traced peak of a run stays under this many
#: bytes per cell (42.75 measured, numpy 2.4; the toggles of ~all cells
#: set it, as they did for the class-grouped draw). A ``(candidates,
#: 7)`` class-plane gather would add 56 B/cell; classifying in blocks of
#: ``BLOCK_CELLS`` (shrunk here so the array spans 16 of them) avoids it.
HOT_SIDE = 256
MAX_HOT_RUN_BYTES_PER_CELL = 48.0


def test_hot_retention_run_peak_bytes_per_cell(eval_device, monkeypatch):
    def engine(side):
        return build_engine(eval_device, pitch=52.5e-9, rows=side,
                            cols=side, workload="read-heavy",
                            temperature=420.0, cycle_time=10.0)

    engine(16).run(500, rng=5, batch_size=250)
    monkeypatch.setattr(bitplane, "BLOCK_CELLS", HOT_SIDE**2 // 16)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        hot = engine(HOT_SIDE)
        tracemalloc.reset_peak()
        result = hot.run(1000, rng=5, batch_size=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Most of the array flips on every batch.
    assert result.retention_flips > HOT_SIDE**2 // 2
    assert peak / HOT_SIDE**2 <= MAX_HOT_RUN_BYTES_PER_CELL, \
        peak / HOT_SIDE**2


# -- class planes -----------------------------------------------------------


def _reference(bits):
    """Whole-array classes of a (rows, cols) array, or of a stack of
    independent ones."""
    nd, ng = neighborhood_class_map(bits)
    return class_index(bits.reshape(-1), nd.reshape(-1), ng.reshape(-1))


def _plane(rng, rows, cols, code_bits=72, fill="random", n_shards=1):
    """A packed plane of ``n_shards`` stacked rows x cols random (or
    all-zero, all-one) arrays; mapped words fill what they can and the
    rest is tail (all tail below one word)."""
    shape = (n_shards, rows, cols)
    if fill == "random":
        bits = (rng.random(shape) < 0.5).astype(np.int8)
    else:
        bits = np.full(shape, fill == "ones", dtype=np.int8)
    words = rows * cols // code_bits
    plane = BitPlane(n_shards * words, code_bits, bits.size)
    for shard, view in zip(bits, plane.split(n_shards)):
        one = BitPlane.from_bits(shard.reshape(-1), words, code_bits)
        view.lanes[:] = one.lanes
        view.tail[:] = one.tail
    return plane, bits


def _planes_classes(plane, rows, cols, n_shards=1):
    planes = ClassPlanes(rows, cols, n_shards)
    planes.refresh(plane)
    return planes.classes(np.arange(n_shards * rows * cols))


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


@pytest.mark.parametrize("n_shards", (1, 3), ids=("flat", "stacked3"))
@pytest.mark.parametrize("shape, code_bits, fill", [
    pytest.param(shape, code_bits, fill, id=f"shape{i}" + (
        "" if (code_bits, fill) == (72, "random")
        else f"-{code_bits}-{fill}"))
    for i, shape in enumerate(BLOCK_SHAPES)
    for code_bits in (72, 64, 39)
    for fill in ("random", "zeros", "ones")])
def test_class_planes_match_whole_array(shape, code_bits, fill,
                                        n_shards, small_blocks):
    """Every cell's class from the planes equals the whole-array
    ``neighborhood_class_map`` class, whether the planes fill by byte
    gather (72, 64 code bits) or by row-block unpack (39), and however
    the candidates are blocked."""
    rows, cols = shape
    rng = np.random.default_rng(rows * 1000 + cols)
    plane, bits = _plane(rng, rows, cols, code_bits, fill, n_shards)
    assert np.array_equal(_planes_classes(plane, rows, cols, n_shards),
                          _reference(bits))


@pytest.mark.parametrize("fill", ("random", "zeros", "ones"))
@pytest.mark.parametrize("code_bits", (72, 64, 39))
def test_megacell_planes_match_whole_array(code_bits, fill):
    # 1024 x 1024 at the real block size: 16 blocks.
    rows = cols = 1024
    plane, bits = _plane(np.random.default_rng(code_bits), rows, cols,
                         code_bits, fill)
    assert np.array_equal(_planes_classes(plane, rows, cols),
                          _reference(bits))


def test_planes_at_real_block_size():
    rows, cols = 3300, 41  # three row blocks, a 26-cell tail
    assert len(bitplane.row_blocks(rows, cols)) == 3
    rng = np.random.default_rng(11)
    plane, bits = _plane(rng, rows, cols)
    assert plane.tail.size == rows * cols % 72 > 0
    assert np.array_equal(_planes_classes(plane, rows, cols),
                          _reference(bits))


@pytest.mark.parametrize("via_state", (False, True),
                         ids=("toggle-cells", "packed-state"))
@pytest.mark.parametrize("shape", ((1, 90), (90, 1), (37, 41), (48, 64)))
def test_refreshed_planes_follow_toggles(shape, via_state, small_blocks):
    """One ClassPlanes, refreshed after each batch of toggles (by
    ``BitPlane.toggle_cells`` or the engine's ``_PackedState.toggle``,
    whose error counters must follow), keeps landing on the whole-array
    classes: no state of an earlier refresh leaks into a later one, by
    row-block unpack or byte gather (48 x 64)."""
    rows, cols = shape
    rng = np.random.default_rng(rows + cols)
    plane, _ = _plane(rng, rows, cols)
    state = _PackedState(plane.copy(), plane, None, _StubTables())
    planes = ClassPlanes(rows, cols)
    cells = np.arange(plane.n_cells)
    for k in (1, 3, 8, 9, 25, 1, 60):
        idx = rng.choice(plane.n_cells, size=k, replace=False)
        if via_state:
            state.toggle(idx)
            assert np.array_equal(state.err_count,
                                  plane.diff_counts(state.intended))
        else:
            plane.toggle_cells(idx)
        planes.refresh(plane)
        assert np.array_equal(
            planes.classes(cells),
            _reference(plane.to_bits().reshape(rows, cols)))
    assert planes.rebuilds == 7
    assert planes.incremental_refreshes == 0


def test_to_bits_ranges_cross_words_and_tail():
    rng = np.random.default_rng(5)
    plane, bits = _plane(rng, 37, 41, code_bits=10)
    bits = bits.reshape(-1)
    assert plane.n_mapped == 1510 and plane.n_cells == 1517
    edges = (0, 1, 9, 10, 11, 1509, 1510, 1511, 1516, 1517)
    for start in edges:
        for stop in edges:
            if start <= stop:
                got = plane.to_bits(start, stop)
                assert np.array_equal(got, bits[start:stop]), (start, stop)
    assert np.array_equal(plane.to_bits(), bits)


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
