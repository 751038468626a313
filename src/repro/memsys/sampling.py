"""Rare-event flip sampling: exact thinning over 3 x 3 window lookups.

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
:class:`ClassPlanes`: once per engine batch it snapshots the cells' bits
from the packed plane (one byte gather, O(cells / 8) bytes), and each
candidate's class is a lookup of its 3 x 3 window in that snapshot —
no per-cell class map, no class histogram, and no work for cells no
draw touches.

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


def _window_classes():
    """Class of every 3 x 3 window code, by its own center bit and by a
    given one: bit ``3 * i + j + 1`` of a code is the cell ``i - 1``
    rows and ``j - 1`` columns off the center (bit 5), and bit 0 is the
    given center bit that the second table reads in place of bit 5."""
    window = (np.arange(1024)[:, None] >> np.arange(10)) & 1
    nd = window[:, [2, 4, 6, 8]].sum(axis=1)
    ng = window[:, [1, 3, 7, 9]].sum(axis=1)
    return (class_index(window[:, 5], nd, ng),
            class_index(window[:, 0], nd, ng))


_WINDOW_CLASS, _GIVEN_CENTER_CLASS = _window_classes()

#: Weights folding a window's three 3-bit rows (top first) into its
#: code above bit 0.
_ROW_WEIGHTS = np.array([2, 16, 128], dtype=np.uint16)


class ClassPlanes:
    """Batch-start coupling classes of every cell, looked up per cell
    from a snapshot of the cells' bits.

    Holds, for ``n_shards`` independent ``rows x cols`` arrays (shards:
    coupling never crosses their edges), one zero-padded ``(shards,
    rows + 2, ceil(cols / 8) + 2)`` uint8 snapshot: each shard's rows
    as little-endian bytes (bit ``c % 8`` of byte ``c // 8 + 1`` is
    column ``c``), with a zero row above and below every shard and a
    zero byte before and after every row — the dummy-cell boundary
    convention of
    :func:`~repro.memsys.controller.neighborhood_class_map` — about
    1/8 byte per cell.

    :meth:`refresh` rewrites the snapshot from a packed
    :class:`~repro.memsys.bitplane.BitPlane` (the stacked shards' cells:
    every shard's words, then every shard's tail) by one byte gather
    when codewords and rows are whole bytes (one unpack and pack per
    row block otherwise): no per-cell work, so the engine refreshes on
    every batch. :attr:`rebuilds` counts the refreshes, and
    :attr:`incremental_refreshes` stays 0. :meth:`classes` reads each
    candidate's 3 x 3 window — three 3-bit row windows, each inside a
    16-bit pair of snapshot bytes — into a 9-bit code, shifted up one
    bit so that a given center bit fits below it, and maps it to its
    class through one of two 1024-entry tables (by the window's own
    center bit, or by the given one). (The name is that of the
    bit-sliced class planes this lookup replaced.)
    """

    def __init__(self, rows, cols, n_shards=1):
        self.rows, self.cols = int(rows), int(cols)
        self.n_shards = int(n_shards)
        self.cells = self.rows * self.cols
        row_bytes = -(-self.cols // 8) + 2
        self.snapshot = np.zeros((self.n_shards, self.rows + 2, row_bytes),
                                 dtype=np.uint8)
        # Every pair of consecutive snapshot bytes as one (unaligned)
        # little-endian uint16: a row window's three bits never span
        # more than two bytes.
        self._pairs = np.ndarray((self.snapshot.size - 1,), dtype="<u2",
                                 buffer=self.snapshot, strides=(1,))
        # The byte of a window's top-left in every stacked row's window
        # rows (above, at and below it), and each column's offset byte
        # and bit in a padded row (its left neighbor's column is c - 1,
        # bit c + 7 there).
        shard, row = np.divmod(np.arange(self.n_shards * self.rows),
                               self.rows)
        top = (shard * (self.rows + 2) + row) * row_bytes
        self._row_at = top + np.arange(3)[:, None] * row_bytes
        col = np.arange(self.cols) + 7
        self._col_at = col >> 3
        self._col_shift = (col & 7).astype(np.uint16)
        self.rebuilds = 0
        self.incremental_refreshes = 0

    def refresh(self, plane):
        """Rewrite the snapshot from ``plane`` (all shards' cells)."""
        if plane.n_cells != self.n_shards * self.cells:
            raise ParameterError(
                f"plane has {plane.n_cells} cells, expected "
                f"{self.n_shards} x {self.rows} x {self.cols}")
        self._fill_rows(plane, self.snapshot[:, 1:-1, 1:-1])
        self.rebuilds += 1

    def _fill_rows(self, plane, rows8):
        """Every shard's cells, row-major, as little-endian bytes into
        ``rows8`` (``(shards, rows, ceil(cols / 8))`` uint8)."""
        n, rows, cols = self.n_shards, self.rows, self.cols
        code_bits = plane.code_bits
        if code_bits % 8 or cols % 8:
            for s, shard in enumerate(plane.split(n)):
                for lo, hi in row_blocks(rows, cols):
                    rows8[s, lo:hi] = np.packbits(
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
        rows8[...] = stream.reshape(n, rows, cols // 8)

    def classes(self, cells, bits=None):
        """int8 classes of stacked row-major ``cells``.

        Shard ``s``'s cell ``(r, c)`` is ``s * rows * cols + r * cols +
        c``. ``bits`` (any 0/1 array matching ``cells``), when
        given, replaces the cells' batch-start bits — a write draw's
        target bits, a disturb draw's stored bits — while the neighbor
        counts stay the batch's. Candidates are looked up in blocks of
        :data:`~repro.memsys.bitplane.BLOCK_CELLS`, so no temporary
        grows with a whole-array candidate set.
        """
        cells = np.asarray(cells, dtype=np.intp)
        if bits is not None:
            bits = np.asarray(bits, dtype=np.uint16)
        # An unaligned gather costs several aligned ones, so a large
        # candidate set gathers from an aligned copy of the pairs.
        pairs = self._pairs
        if 64 * cells.size > pairs.size:
            pairs = np.ascontiguousarray(pairs)
        step = bitplane.BLOCK_CELLS
        if cells.ndim == 1 and cells.size <= step:
            return self._lookup(pairs, cells, bits)
        flat = cells.ravel()
        if bits is not None:
            bits = bits.ravel()
        out = np.empty(flat.size, dtype=np.int8)
        for lo in range(0, flat.size, step):
            out[lo:lo + step] = self._lookup(
                pairs, flat[lo:lo + step], None if bits is None
                else bits[lo:lo + step])
        return out.reshape(cells.shape)

    def _lookup(self, pairs, cells, bits):
        """Classes of one block of 1-D ``cells``: one gather of every
        cell's three row windows from ``pairs``, each shifted to the
        window's bit, then coded (:func:`_window_classes`)."""
        row, col = np.divmod(cells, self.cols)
        at = self._row_at.take(row, axis=1)
        at += self._col_at[col]
        windows = pairs[at]
        windows >>= self._col_shift[col]
        windows &= 7
        code = np.dot(_ROW_WEIGHTS, windows)
        if bits is None:
            return _WINDOW_CLASS.take(code)
        code |= bits
        return _GIVEN_CENTER_CLASS.take(code)


#: The name the class planes replaced, kept for callers that still
#: wrap it (``perfbench/layers.py`` wraps ``refresh``).
IncrementalClassMaps = ClassPlanes
