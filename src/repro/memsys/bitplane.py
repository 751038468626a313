"""Bit-packed array state: codeword bits in uint64 lanes.

One int8 byte per cell would cost 1 MiB per ``intended``/``actual``
plane of a 1024 x 1024 array; the engine packs 64 cells per uint64
lane instead (128 KiB per plane), and counts errors with XOR +
popcount, so per-read word checks and whole-plane scrub passes become
word-wide bit ops instead of per-cell byte gathers.

Layout: word ``w``'s ``code_bits`` cells pack little-endian into
``lanes[w, :]`` — codeword bit ``b`` lives in lane ``b // 64`` at bit
``b % 64``. Cells past the last whole codeword (the unmapped tail of
the flattened array) live in a small int8 ``tail`` array, so
whole-array mechanisms (retention, the neighborhood class lookup) still
see every cell.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import ParameterError

#: Lane dtype: explicit little-endian so the packbits/view pair agrees
#: on bit order regardless of platform.
LANE_DTYPE = np.dtype("<u8")

#: Cells per block of the block-wise whole-array passes (classifying a
#: whole-array draw's candidates, unpacking rows for the class snapshot,
#: random initial content): a block's temporaries stay a few MiB at
#: most however large the array.
BLOCK_CELLS = 1 << 16


def row_blocks(rows, cols):
    """``(lo, hi)`` row ranges covering ``rows`` rows of ``cols`` cells,
    each at most :data:`BLOCK_CELLS` cells (but at least one row)."""
    step = max(1, BLOCK_CELLS // int(cols))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def pack_bits(bits):
    """Pack ``(n, k)`` 0/1 bits into ``(n, ceil(k / 64))`` uint64 lanes."""
    bits = np.asarray(bits)
    # An int8 or bool plane packs through a uint8 view, not a copy.
    bits = (bits.view(np.uint8) if bits.dtype in (np.int8, np.bool_)
            else bits.astype(np.uint8, copy=False))
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
    """Unpack ``(n, n_lanes)`` uint64 lanes into ``(n, code_bits)`` int8.

    One ``unpackbits`` of exactly ``code_bits`` bits per row, viewed as
    int8: no lane-wide temporary and no cast copy.
    """
    lanes = np.ascontiguousarray(lanes)
    u8 = lanes.view(np.uint8)
    return np.unpackbits(u8, axis=1, count=int(code_bits),
                         bitorder="little").view(np.int8)


def row_items(lanes):
    """C-contiguous ``(n, n_lanes)`` packed codeword rows as ``(n,)``
    void items sharing their memory, so a store moves one item per
    codeword, not one per lane."""
    return lanes.view(np.dtype((np.void, lanes.strides[0])))[:, 0]


def popcount_rows(lanes):
    """Total set bits per row of a 2-D uint64 array."""
    return np.bitwise_count(lanes).sum(axis=1, dtype=np.int64)


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

    def split(self, n):
        """``n`` equal shard planes sharing this plane's memory.

        Shard ``s`` owns words ``[s * W, (s + 1) * W)`` and tail cells
        ``[s * T, (s + 1) * T)`` of this plane (``W``/``T`` its share
        of each), so writes through either side show in the other.
        """
        words, tail = self.n_words // n, self.tail.size // n
        shards = []
        for s in range(n):
            # A view, not a fresh plane: nothing is allocated.
            shard = object.__new__(BitPlane)
            shard.__dict__.update(self.__dict__)
            shard.n_words, shard.n_cells = words, self.n_cells // n
            shard.n_mapped = words * self.code_bits
            shard.lanes = self.lanes[s * words:(s + 1) * words]
            shard.tail = self.tail[s * tail:(s + 1) * tail]
            shards.append(shard)
        return shards

    def to_bits(self, start=0, stop=None):
        """Unpack flat cells ``[start, stop)`` (default: the whole
        plane) to an int8 array, unpacking only the words they span."""
        stop = self.n_cells if stop is None else int(stop)
        end = min(stop, self.n_mapped)
        parts = []
        if start < end:
            first = start // self.code_bits
            words = unpack_bits(
                self.lanes[first:-(-end // self.code_bits)],
                self.code_bits).reshape(-1)
            parts.append(words[start - first * self.code_bits:
                               end - first * self.code_bits])
        if stop > self.n_mapped:
            parts.append(self.tail[max(start - self.n_mapped, 0):
                                   stop - self.n_mapped].copy())
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, np.int8)

    # -- word-granular access ----------------------------------------------

    def word_bytes(self):
        """``(n_words, 8 * n_lanes)`` uint8 view of the lanes: word
        ``w``'s codeword bit ``b`` is bit ``b % 8`` of byte ``b // 8``
        of row ``w``."""
        return self.lanes.view(np.uint8)

    def word_items(self):
        """The codeword rows as void items (:func:`row_items`), a view
        that stays valid while the plane keeps its lane array."""
        return row_items(self.lanes)

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

    def lane_masks(self, cells):
        """``(word, lane, mask)`` of word-major ``cells``: mapped plane
        cells, or positions in any block of this plane's words."""
        lane, mask = _bit_tables(self.code_bits)[:2]
        word, bit = np.divmod(cells, self.code_bits)
        return word, lane.take(bit), mask.take(bit)

    def row_bits(self, rows, word, bit):
        """uint16 codeword bit ``bit[i]`` of row ``word[i]`` of ``rows``,
        C-contiguous packed codeword rows laid out as this plane's
        :attr:`lanes`, read as bytes."""
        byte_of, shift = _bit_tables(self.code_bits)[2:]
        at = word * (8 * self.n_lanes)
        at += byte_of.take(bit)
        byte = rows.view(np.uint8).reshape(-1).take(at)
        return _BYTE_BITS.take(shift.take(bit) + byte)

    def toggle_cells(self, flat_idx):
        """XOR-flip the bits at the given flat cell indices, and return
        the mapped ones' ``(word, lane, mask)`` (:meth:`lane_masks`).

        Duplicate indices toggle repeatedly (unbuffered), matching the
        semantics of independent flip events landing on one cell.
        """
        cells = np.asarray(flat_idx).reshape(-1)
        tail = cells >= self.n_mapped
        if tail.any():
            np.bitwise_xor.at(self.tail, cells[tail] - self.n_mapped,
                              np.int8(1))
            cells = cells[~tail]
        word, lane, mask = self.lane_masks(cells)
        self.xor_masks(word, lane, mask)
        return word, lane, mask

    def xor_masks(self, word, lane, mask):
        """XOR-flip the bits ``(word, lane, mask)`` (:meth:`lane_masks`),
        repeats included."""
        np.bitwise_xor.at(self.lanes, (word, lane), mask)

    def diff_bits(self, other, word, lane, mask):
        """bool: whether this plane and ``other`` differ at the bits
        ``(word, lane, mask)`` (:meth:`lane_masks`)."""
        diff = self.lanes[word, lane]
        diff ^= other.lanes[word, lane]
        diff &= mask
        return diff.astype(bool)


#: The single-bit mask of each of a lane's 64 bits.
_LANE_MASK = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))

#: Bit ``s`` of byte value ``v`` at ``256 * s + v``.
_BYTE_BITS = ((np.arange(256) >> np.arange(8)[:, None]) & 1).astype(
    np.uint16).reshape(-1)


@functools.lru_cache(maxsize=None)
def _bit_tables(code_bits):
    """Per codeword bit: its lane and single-bit lane mask (placing a
    flip), and its byte in a packed row and its offset in
    :data:`_BYTE_BITS` (reading it). Built once per code width, never
    stored on a plane (planes are pickled into checkpoints). Read-only:
    every caller shares them."""
    bit = np.arange(code_bits)
    tables = (bit >> 6, _LANE_MASK.take(bit & 63), bit >> 3,
              (bit & 7) * 256)
    for table in tables:
        table.flags.writeable = False
    return tables
