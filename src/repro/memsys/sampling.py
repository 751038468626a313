"""Rare-event flip sampling: exact thinning over bit-sliced class planes.

Every per-cell error probability in the memsys stack is a pure function
of the cell's coupling class — (stored/target bit, direct AP-neighbor
count, diagonal AP-neighbor count) — so a whole array, or any accessed
subset of it, takes at most ``2 x 5 x 5 = 50`` distinct probabilities
(the controller's probability tables). Drawing one uniform per cell per
mechanism would, at rare-event operating points (WER <= 1e-6), spend
billions of uniforms per observed flip. The engine's sampler instead
draws every term — the whole array's retention and sneak terms
(:func:`sample_class_flips`) as well as the cells one round writes or
reads — by exact thinning (:func:`sample_thinned_flips`):

1. draws the candidate count ``K ~ Binomial(n, p_max)``, ``p_max`` the
   table's largest class probability,
2. places the ``K`` candidates uniformly without replacement,
3. classifies only the candidates (:meth:`ClassPlanes.classes`),
4. keeps each with probability ``p_class / p_max``.

Cost: O(candidates) per draw. The classes come from
:class:`ClassPlanes`, rebuilt once per engine batch from the packed
plane with word-wide shifts and bit-sliced adders — O(cells / 64) word
operations, with no per-cell class map and no class histogram.

The draws are exact, not an approximation of the per-cell field:
i.i.d. ``Bernoulli(p_max)`` indicators over ``n`` cells have exactly
the law Binomial-total + uniform placement (exchangeability), and
independent acceptance with ``p_c / p_max`` thins each candidate to
``Bernoulli(p_c)``. The test suite keeps a per-cell reference state and
checks the engine's counters against it statistically
(``tests/memsys_reference.py``).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ParameterError
from . import bitplane
from .bitplane import row_blocks

#: Number of coupling classes: bit x n_direct x n_diagonal.
N_CLASSES = 2 * 5 * 5


def class_index(bits, nd, ng, out=None):
    """Flat 0..49 coupling-class index: ``bit * 25 + nd * 5 + ng``.

    Matches the memory order of the controller's ``(2, 5, 5)``
    probability tables, so ``table.reshape(-1)[class_index(...)]``
    equals ``table[bits, nd, ng]``. Computed in int8 throughout (the
    largest class, 49, fits), into ``out`` when given.
    """
    idx = np.multiply(np.asarray(bits, dtype=np.int8), np.int8(25),
                      out=out)
    idx += np.asarray(nd, dtype=np.int8) * np.int8(5)
    idx += np.asarray(ng, dtype=np.int8)
    return idx


def sample_thinned_flips(n, p_class, class_of, rng, p_max=None):
    """Flat indices of flipped cells among ``n`` cells.

    Exact thinning: draw the candidate count from ``Binomial(n,
    p_max)`` where ``p_max = max(p_class)``, place candidates by index
    choice, then classify only the candidates (``class_of(idx) ->
    0..49``) and accept each with ``p_class[class] / p_max``.

    Equivalence: i.i.d. ``Bernoulli(p_max)`` indicators over ``n``
    cells have exactly the law Binomial-total + uniform placement
    (exchangeability), and independent acceptance with ``p_c / p_max``
    thins each candidate to ``Bernoulli(p_c)`` — the target field.

    ``n`` may also be a sequence of population sizes with ``rng`` a
    matching sequence of generators: consecutive populations (indices
    run on across them), each drawing its candidates from its own
    generator exactly as it would alone, and one ``class_of`` call
    classifying every candidate.

    Callers on a hot loop may pass ``p_max`` (with ``p_class`` already
    clipped to [0, 1]) to skip the per-call table scan.
    """
    if p_max is None:
        p_class = np.clip(np.asarray(p_class, dtype=float), 0.0, 1.0)
        p_max = float(p_class.max())
    if p_max <= 0.0:
        return np.empty(0, dtype=np.intp)
    if not isinstance(n, (list, tuple)):
        # One population: the same draws as the loop below, without
        # its lists (the common case of every unsharded round).
        n = int(n)
        k = int(rng.binomial(n, p_max)) if n > 0 else 0
        if not k:
            return np.empty(0, dtype=np.intp)
        candidates = rng.choice(n, size=k, replace=False)
        uniforms = rng.random(k)
        uniforms *= p_max
        return candidates[uniforms < p_class[class_of(candidates)]]
    candidates, uniforms = [], []
    base = 0
    for size, gen in zip(n, rng):
        size = int(size)
        if size > 0:
            k = int(gen.binomial(size, p_max))
            if k:
                candidates.append(gen.choice(size, size=k, replace=False)
                                  + base)
                uniforms.append(gen.random(k))
        base += size
    if not candidates:
        return np.empty(0, dtype=np.intp)
    candidates = np.concatenate(candidates)
    accept = (np.concatenate(uniforms) * p_max
              < p_class[class_of(candidates)])
    return candidates[accept]


def sample_class_flips(planes, shard, p_class, rng, p_max=None):
    """Shard-local row-major cells flipped by one whole-array term.

    Every cell of ``shard`` flips independently with ``p_class`` of its
    batch-start class (``planes``, a :class:`ClassPlanes`): a thinned
    draw over all ``rows * cols`` cells, each candidate classified from
    the planes in blocks of :data:`~repro.memsys.bitplane.BLOCK_CELLS`.
    ``p_max`` as for :func:`sample_thinned_flips`.
    """
    base = shard * planes.cells
    return sample_thinned_flips(
        planes.cells, p_class,
        lambda cells: planes.classes(cells + base if base else cells),
        rng, p_max=p_max)


def _count4(a, b, c, d, bit0, bit1, bit2, t1, t2):
    """Bit-sliced count of four 1-bit inputs into three output planes
    (bit0 + 2 * bit1 + 4 * bit2 = a + b + c + d, lane by lane).

    Two half adders give ``a ^ b``, ``c ^ d`` and their carries; the
    weight-2 carries ``a & b``, ``c & d`` and ``(a ^ b) & (c ^ d)`` are
    never all set, and the third excludes the other two, so bit 1 is
    ``((a & b) ^ (c & d)) | ((a ^ b) & (c ^ d))`` and bit 2 (a count of
    4) is ``a & b & c & d``. ``t1``/``t2`` are scratch planes.
    """
    np.bitwise_xor(a, b, out=t1)
    np.bitwise_xor(c, d, out=t2)
    np.bitwise_xor(t1, t2, out=bit0)
    np.bitwise_and(t1, t2, out=t1)
    np.bitwise_and(a, b, out=t2)
    np.bitwise_and(c, d, out=bit2)
    np.bitwise_xor(t2, bit2, out=bit1)
    np.bitwise_or(bit1, t1, out=bit1)
    np.bitwise_and(bit2, t2, out=bit2)


#: Class weight of each plane column: the cell's bit (25), its direct
#: AP-neighbor count's bits (5, 10, 20), its diagonal count's (1, 2, 4).
_CLASS_WEIGHTS = np.array([25, 5, 10, 20, 1, 2, 4], dtype=np.uint64)


class ClassPlanes:
    """Batch-start coupling classes of every cell, as bit-sliced planes.

    Holds, for ``n_shards`` independent ``rows x cols`` arrays (shards:
    coupling never crosses their edges), seven bit planes of row-major
    uint64 lanes — ``ceil(cols / 64)`` lanes per row: the cells' bits,
    then the three bits of each cell's direct AP-neighbor count and the
    three of its diagonal count. The planes are interleaved as one
    ``(shards * rows * lanes, 7)`` array, so a cell's whole class is one
    row gather (:meth:`classes`); 7/8 byte per cell in all.

    :meth:`refresh` rebuilds the planes from a packed
    :class:`~repro.memsys.bitplane.BitPlane` (the stacked shards' cells:
    every shard's words, then every shard's tail). The cells' bits move
    to row-major lanes by one byte gather when codewords and rows are
    whole bytes (one unpack and pack per row block otherwise); the
    neighbor bits are the lanes shifted one column (carrying across
    lanes) and one row, with zeros shifted in at every array edge (the
    dummy-cell boundary convention of
    :func:`~repro.memsys.controller.neighborhood_class_map`), and each
    count of four neighbors is a 4-input bit-sliced adder. Every step
    is a whole-plane word operation, O(cells / 64), so the engine
    rebuilds on every batch: :attr:`rebuilds` counts them, and
    :attr:`incremental_refreshes` stays 0.
    """

    def __init__(self, rows, cols, n_shards=1):
        self.rows, self.cols = int(rows), int(cols)
        self.n_shards = int(n_shards)
        self.cells = self.rows * self.cols
        self.n_lanes = -(-self.cols // 64)
        self.planes = np.zeros(
            (self.n_shards * self.rows * self.n_lanes, 7),
            dtype=bitplane.LANE_DTYPE)
        self.rebuilds = 0
        self.incremental_refreshes = 0

    def refresh(self, plane):
        """Rebuild the planes from ``plane`` (all shards' cells)."""
        if plane.n_cells != self.n_shards * self.cells:
            raise ParameterError(
                f"plane has {plane.n_cells} cells, expected "
                f"{self.n_shards} x {self.rows} x {self.cols}")
        shape = (self.n_shards, self.rows + 2, self.n_lanes)
        # Row-major cell lanes with a zero row above and below each
        # shard, then the same lanes shifted one column: bit c of
        # ``left`` holds cell c - 1, of ``right`` cell c + 1 (zero past
        # either edge; a row's padding bits are zero).
        bits = np.zeros(shape, dtype=bitplane.LANE_DTYPE)
        self._fill_rows(plane, bits)
        left = np.left_shift(bits, 1)
        left[..., 1:] |= bits[..., :-1] >> 63
        right = np.right_shift(bits, 1)
        right[..., :-1] |= bits[..., 1:] << 63
        out = self.planes.reshape(self.n_shards, self.rows, self.n_lanes,
                                  7)
        out[..., 0] = bits[:, 1:-1]
        t1 = np.empty(out.shape[:3], dtype=bitplane.LANE_DTYPE)
        t2 = np.empty_like(t1)
        _count4(bits[:, :-2], bits[:, 2:], left[:, 1:-1], right[:, 1:-1],
                out[..., 1], out[..., 2], out[..., 3], t1, t2)
        _count4(left[:, :-2], left[:, 2:], right[:, :-2], right[:, 2:],
                out[..., 4], out[..., 5], out[..., 6], t1, t2)
        self.rebuilds += 1

    def _fill_rows(self, plane, bits):
        """Every shard's cells, row-major, into rows ``1..rows`` of
        ``bits`` (``(shards, rows + 2, lanes)`` uint64)."""
        n, rows, cols = self.n_shards, self.rows, self.cols
        code_bits = plane.code_bits
        rows8 = bits.view(np.uint8)[:, 1:-1]
        if code_bits % 8 or cols % 8:
            for s, shard in enumerate(plane.split(n)):
                for lo, hi in row_blocks(rows, cols):
                    rows8[s, lo:hi, :-(-cols // 8)] = np.packbits(
                        shard.to_bits(lo * cols, hi * cols).view(np.uint8)
                        .reshape(hi - lo, cols), axis=1, bitorder="little")
            return
        # Whole bytes: each word's cells are its first code_bits / 8
        # lane bytes, the tail packs to whole bytes, and a shard's cell
        # stream is its words' bytes then its tail's.
        stream = np.empty((n, self.cells // 8), dtype=np.uint8)
        words = plane.n_words // n
        nb = code_bits // 8
        as_strided(stream, (n, words, nb), (stream.strides[0], nb, 1))[
            ...] = plane.lanes.view(np.uint8).reshape(n, words, -1)[..., :nb]
        if plane.tail.size:
            stream[:, words * nb:] = np.packbits(
                plane.tail.view(np.uint8).reshape(n, -1), axis=1,
                bitorder="little")
        rows8[..., :cols // 8] = stream.reshape(n, rows, cols // 8)

    def classes(self, cells, bits=None):
        """int8 classes of stacked row-major ``cells``.

        Shard ``s``'s cell ``(r, c)`` is ``s * rows * cols + r * cols +
        c``. ``bits`` (any 0/1 array matching ``cells``), when given,
        replaces the cells' batch-start bits — a write draw's target
        bits, a disturb draw's stored bits — while the neighbor counts
        stay the batch's. Candidates are gathered in blocks of
        :data:`~repro.memsys.bitplane.BLOCK_CELLS`, so no temporary
        grows with a whole-array candidate set.
        """
        cells = np.asarray(cells, dtype=np.intp)
        flat = cells.reshape(-1)
        if bits is not None:
            bits = np.asarray(bits).reshape(-1)
        step = bitplane.BLOCK_CELLS
        if flat.size <= step:
            return self._gather(flat, bits).reshape(cells.shape)
        out = np.empty(flat.size, dtype=np.int8)
        for lo in range(0, flat.size, step):
            out[lo:lo + step] = self._gather(
                flat[lo:lo + step], None if bits is None
                else bits[lo:lo + step])
        return out.reshape(cells.shape)

    def _gather(self, cells, bits):
        """Classes of one block of 1-D ``cells``: one row gather of
        the interleaved planes, each row shifted to the cell's bit."""
        if self.cols % 64:
            row, col = np.divmod(cells, self.cols)
            row *= self.n_lanes
            row += col >> 6
            col &= 63
        else:
            # Rows of whole lanes: a cell's lane is its index / 64.
            row, col = cells >> 6, cells & 63
        lanes = self.planes[row]
        lanes >>= col.view(np.uint64)[:, None]
        lanes &= np.uint64(1)
        if bits is not None:
            lanes[:, 0] = bits
        return (lanes @ _CLASS_WEIGHTS).astype(np.int8)


#: The name the class planes replaced, kept for callers that still
#: wrap it (``perfbench/layers.py`` wraps ``refresh``).
IncrementalClassMaps = ClassPlanes
