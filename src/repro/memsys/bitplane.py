"""Bit-packed array state: codeword bits in uint64 lanes.

The reference engine keeps the ``intended``/``actual`` planes as one
int8 byte per cell — 1 MiB per plane for a 1024 x 1024 array. The
rare-event fast path packs 64 cells per uint64 lane instead (128 KiB
per plane), and counts errors with XOR + popcount, so per-read word
checks and whole-plane scrub passes become word-wide bit ops instead of
per-cell byte gathers.

Layout: word ``w``'s ``code_bits`` cells pack little-endian into
``lanes[w, :]`` — codeword bit ``b`` lives in lane ``b // 64`` at bit
``b % 64``. Cells past the last whole codeword (the unmapped tail of
the flattened array) live in a small int8 ``tail`` array, so
whole-array mechanisms (retention, neighborhood class maps) still see
every cell.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError

#: Lane dtype: explicit little-endian so the packbits/view pair agrees
#: on bit order regardless of platform.
LANE_DTYPE = np.dtype("<u8")

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Set-bit count of every byte value (fallback for numpy < 2.0).
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)],
                           dtype=np.uint8)


def pack_bits(bits):
    """Pack ``(n, k)`` 0/1 bits into ``(n, ceil(k / 64))`` uint64 lanes."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ParameterError(
            f"bits must be 2-D, got shape {bits.shape}")
    n, k = bits.shape
    lanes = np.zeros((n, (k + 63) // 64), dtype=LANE_DTYPE)
    # packbits zero-fills the last partial byte; the zeroed lanes
    # supply the rest of the padding.
    lanes.view(np.uint8)[:, :(k + 7) // 8] = np.packbits(
        bits, axis=1, bitorder="little")
    return lanes


def unpack_bits(lanes, code_bits):
    """Unpack ``(n, n_lanes)`` uint64 lanes into ``(n, code_bits)`` int8."""
    lanes = np.ascontiguousarray(lanes)
    u8 = lanes.view(np.uint8)
    bits = np.unpackbits(u8, axis=1, bitorder="little")
    return bits[:, :int(code_bits)].astype(np.int8)


def popcount_rows(lanes):
    """Total set bits per row of a 2-D uint64 array."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(lanes).sum(axis=1, dtype=np.int64)
    return _popcount_rows_table(lanes)


def _popcount_rows_table(lanes):
    """Byte-table popcount (the numpy < 2.0 fallback, kept testable).

    For the narrow rows the engine actually diffs (a 72-bit codeword
    is 2 lanes = 16 byte columns) the gathered ``(n, 8 * n_lanes)``
    table temp plus its reduction is the dominant cost; accumulating
    one looked-up column at a time keeps the peak temp at a single
    ``(n,)`` column and is ~20% faster (see
    ``benchmarks/test_bench_engine.py``). Past a few dozen columns the
    per-column strided gathers lose to the one big contiguous gather,
    so wide rows keep the original reduction.
    """
    u8 = np.ascontiguousarray(lanes).view(np.uint8)
    if u8.ndim == 2 and 0 < u8.shape[1] <= 32:
        out = np.zeros(u8.shape[0], dtype=np.int64)
        for j in range(u8.shape[1]):
            out += _POPCOUNT_TABLE[u8[:, j]]
        return out
    return _POPCOUNT_TABLE[u8].sum(axis=1, dtype=np.int64)


class BitPlane:
    """One bit-packed plane of a word-mapped array.

    Parameters
    ----------
    n_words, code_bits:
        The word organization (matches
        :class:`~repro.memsys.controller.WordMap`).
    n_cells:
        Total flat cells of the array; the ``n_cells - n_words *
        code_bits`` unmapped trailing cells are stored unpacked in
        :attr:`tail`.
    """

    def __init__(self, n_words, code_bits, n_cells):
        self.n_words = int(n_words)
        self.code_bits = int(code_bits)
        self.n_cells = int(n_cells)
        self.n_mapped = self.n_words * self.code_bits
        if self.n_mapped > self.n_cells:
            raise ParameterError(
                f"{n_words} x {code_bits}-bit words exceed "
                f"{n_cells} cells")
        self.n_lanes = (self.code_bits + 63) // 64
        self.lanes = np.zeros((self.n_words, self.n_lanes),
                              dtype=LANE_DTYPE)
        self.tail = np.zeros(self.n_cells - self.n_mapped,
                             dtype=np.int8)

    @classmethod
    def from_bits(cls, flat_bits, n_words, code_bits):
        """Pack a flat (n_cells,) 0/1 array into a plane."""
        flat = np.asarray(flat_bits, dtype=np.int8).reshape(-1)
        plane = cls(n_words, code_bits, flat.shape[0])
        plane.lanes = pack_bits(
            flat[:plane.n_mapped].reshape(n_words, code_bits))
        plane.tail[:] = flat[plane.n_mapped:]
        return plane

    def copy(self):
        """Independent copy of the packed state."""
        other = BitPlane(self.n_words, self.code_bits, self.n_cells)
        other.lanes[:] = self.lanes
        other.tail[:] = self.tail
        return other

    def to_bits(self):
        """Unpack the whole plane to a flat (n_cells,) int8 array."""
        mapped = unpack_bits(self.lanes, self.code_bits).reshape(-1)
        if self.tail.size == 0:
            return mapped
        return np.concatenate([mapped, self.tail])

    # -- word-granular access ----------------------------------------------

    def word_bits(self, words):
        """(len(words), code_bits) int8 bits of the given words."""
        return unpack_bits(self.lanes[np.asarray(words)],
                           self.code_bits)

    def set_words(self, words, bits):
        """Replace the codewords at ``words`` with ``bits``."""
        self.lanes[np.asarray(words)] = pack_bits(bits)

    def diff_counts(self, other, words=None):
        """Per-word mismatch counts vs ``other`` via XOR + popcount.

        ``words`` selects a subset; default is every word (the scrub
        pass). The tail is not word-mapped and is never counted.
        """
        if words is None:
            return popcount_rows(self.lanes ^ other.lanes)
        words = np.asarray(words)
        return popcount_rows(self.lanes[words] ^ other.lanes[words])

    # -- cell-granular access ----------------------------------------------

    def _mapped_coords(self, idx):
        w, b = np.divmod(idx, self.code_bits)
        lane, shift = np.divmod(b, 64)
        return w, lane, shift.astype(np.uint64)

    def get_cells(self, flat_idx):
        """int8 bits at the given flat cell indices (mapped or tail)."""
        idx = np.asarray(flat_idx)
        out = np.empty(idx.shape, dtype=np.int8)
        mapped = idx < self.n_mapped
        if np.any(mapped):
            w, lane, shift = self._mapped_coords(idx[mapped])
            out[mapped] = ((self.lanes[w, lane] >> shift)
                           & np.uint64(1)).astype(np.int8)
        if not np.all(mapped):
            out[~mapped] = self.tail[idx[~mapped] - self.n_mapped]
        return out

    def toggle_cells(self, flat_idx):
        """XOR-flip the bits at the given flat cell indices.

        Duplicate indices toggle repeatedly (unbuffered), matching the
        semantics of independent flip events landing on one cell.
        """
        idx = np.asarray(flat_idx).reshape(-1)
        if idx.size == 0:
            return
        mapped = idx < self.n_mapped
        if np.any(mapped):
            w, lane, shift = self._mapped_coords(idx[mapped])
            np.bitwise_xor.at(self.lanes, (w, lane),
                              np.uint64(1) << shift)
        if not np.all(mapped):
            np.bitwise_xor.at(self.tail, idx[~mapped] - self.n_mapped,
                              np.int8(1))
