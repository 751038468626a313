"""Hamming SEC-DED error-correcting code (and a no-ECC baseline).

The system-level question of the paper — does coupling-induced error
inflation survive to the user — depends on what the controller's ECC can
hide. This module implements the standard extended Hamming code
(single-error-correcting, double-error-detecting) over a configurable
data width, fully vectorized over batches of words: ``encode``/``decode``
operate on ``(..., k)`` / ``(..., n)`` bit arrays, and ``encode_lanes``
on the bit-packed uint64 lanes of :mod:`repro.memsys.bitplane` — the
engine's write path, which never unpacks a codeword.

Construction: codeword positions 1..m (``m = k + r``) carry the data and
the ``r`` Hamming parity bits (at the power-of-two positions); position
``m + 1`` holds the overall parity that upgrades SEC to SEC-DED. The
syndrome of a received word is the XOR of the position indices of its
erroneous bits, so a single error is located exactly and a double error
(syndrome != 0, even overall parity) is flagged uncorrectable.

Encoding: the code is linear over GF(2), so a codeword is the XOR of
the codewords of its data bytes. Per data width, one table per data
byte holds the packed codeword of each of its 256 values (built once
and cached); encoding ``n`` words is one gather of ``n * ceil(k / 8)``
table rows plus ``log2(ceil(k / 8))`` XOR folds.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from ..errors import ParameterError
from ..validation import require_int_in_range
from .bitplane import LANE_DTYPE, pack_bits, unpack_bits


class DecodeOutcome(enum.IntEnum):
    """Per-word result of a decode (or of a statistical classification)."""

    OK = 0          #: clean word
    CORRECTED = 1   #: single error corrected
    DETECTED = 2    #: uncorrectable error detected (word flagged)
    SILENT = 3      #: uncorrectable error NOT detected (data corrupted)


def _outcome_table(*outcomes):
    """Read-only int8 outcome of 0, 1, 2 and >= 3 wrong bits."""
    table = np.array(outcomes, dtype=np.int8)
    table.flags.writeable = False
    return table


class NoECC:
    """The no-ECC baseline: codeword == data word, errors pass through."""

    #: Outcome by wrong-bit count (0, 1, 2, >= 3).
    OUTCOMES = _outcome_table(DecodeOutcome.OK, DecodeOutcome.SILENT,
                              DecodeOutcome.SILENT, DecodeOutcome.SILENT)

    def __init__(self, data_bits=64):
        self.n_data = require_int_in_range(data_bits, "data_bits", 1,
                                           4096)

    @property
    def n_parity(self):
        """Number of check bits (zero)."""
        return 0

    @property
    def n_code(self):
        """Codeword width in bits."""
        return self.n_data

    @property
    def data_positions(self):
        """Indices of the data bits inside a codeword."""
        return np.arange(self.n_data)

    def encode(self, data):
        """Identity map; validates shape."""
        data = _as_bits(data, self.n_data, "data")
        return data.copy()

    def encode_lanes(self, data_lanes):
        """Identity map on packed lanes (a copy)."""
        return np.array(data_lanes, dtype=LANE_DTYPE)

    def decode(self, codewords):
        """Identity decode: every erroneous word is a silent failure.

        Returns ``(data, outcomes)``; without redundancy the decoder
        cannot see errors, so every word reports ``OK`` — use
        :meth:`classify_errors` for the ground-truth bookkeeping.
        """
        codewords = _as_bits(codewords, self.n_code, "codewords")
        outcomes = np.zeros(codewords.shape[:-1], dtype=np.int8)
        return codewords.copy(), outcomes

    def classify_errors(self, n_errors):
        """Ground-truth outcome for words with ``n_errors`` wrong bits:
        0 -> OK, anything else -> SILENT; one take from :attr:`OUTCOMES`
        of the count clipped to 3."""
        return self.OUTCOMES.take(np.minimum(n_errors, 3))


class HammingSECDED:
    """Extended Hamming SEC-DED code over ``data_bits`` data bits.

    Parameters
    ----------
    data_bits:
        Data word width ``k``; the default 64 yields the classic (72, 64)
        memory code — 64 data + 7 Hamming + 1 overall parity.
    """

    #: Outcome by wrong-bit count (0, 1, 2, >= 3).
    OUTCOMES = _outcome_table(DecodeOutcome.OK, DecodeOutcome.CORRECTED,
                              DecodeOutcome.DETECTED, DecodeOutcome.SILENT)

    def __init__(self, data_bits=64):
        k = require_int_in_range(data_bits, "data_bits", 1, 4096)
        r = 1
        while (1 << r) < k + r + 1:
            r += 1
        self.n_data = k
        self.n_parity = r + 1        # r Hamming bits + overall parity
        m = k + r
        self._m = m
        positions = np.arange(1, m + 1)
        parity_mask = (positions & (positions - 1)) == 0  # powers of two
        self._parity_pos = positions[parity_mask]
        self._data_pos = positions[~parity_mask]
        # pos_code[p - 1, i] = bit i of position index p.
        self._pos_code = ((positions[:, None] >> np.arange(r)) & 1
                          ).astype(np.int64)

    @property
    def n_code(self):
        """Codeword width in bits (``k + r + 1``)."""
        return self._m + 1

    @property
    def data_positions(self):
        """Indices of the data bits inside a codeword."""
        return self._data_pos - 1

    def encode(self, data):
        """Encode ``(..., k)`` data bits into ``(..., n)`` int8 codewords
        (packed, :meth:`encode_lanes`, and unpacked)."""
        data = _as_bits(data, self.n_data, "data")
        lanes = self.encode_lanes(pack_bits(data.reshape(-1, self.n_data)))
        return unpack_bits(lanes, self.n_code).reshape(
            data.shape[:-1] + (self.n_code,))

    def encode_lanes(self, data_lanes):
        """Encode ``(n, ceil(k / 64))`` packed data lanes into
        ``(n, ceil(n_code / 64))`` packed codeword lanes.

        The code is linear over GF(2), so a codeword is the XOR of one
        byte-table row per data byte (:func:`_byte_tables`). One gather
        fetches every row, each as a single void item, byte-major; one
        XOR reduction over the byte axis then folds them.
        """
        table, offsets = _byte_tables(self.n_data)
        n_bytes = offsets.shape[0]
        data = np.ascontiguousarray(data_lanes, dtype=LANE_DTYPE)
        index = np.add(data.view(np.uint8)[:, :n_bytes].T, offsets,
                       order="C")
        rows = table[index].view(LANE_DTYPE).reshape(
            n_bytes, data.shape[0], table.itemsize // LANE_DTYPE.itemsize)
        return np.bitwise_xor.reduce(rows, axis=0)

    def syndrome(self, codewords):
        """(syndrome integer, overall parity) of received codewords."""
        cw = _as_bits(codewords, self.n_code, "codewords")
        bits = cw[..., :self._m].astype(np.int64) @ self._pos_code & 1
        weights = np.int64(1) << np.arange(self._pos_code.shape[1])
        return bits @ weights, cw.sum(axis=-1) % 2

    def decode(self, codewords):
        """Decode ``(..., n)`` codewords; returns ``(data, outcomes)``.

        ``outcomes`` is an int8 array of :class:`DecodeOutcome` values.
        Words with >= 3 errors are beyond the code's guarantee — an odd
        number aliases onto a single-error syndrome and is silently
        miscorrected (reported ``CORRECTED``), the true outcome an
        engine must book as ``SILENT`` via :meth:`classify_errors`.
        """
        cw = _as_bits(codewords, self.n_code, "codewords").copy()
        syn, overall = self.syndrome(cw)
        outcomes = np.full(cw.shape[:-1], DecodeOutcome.OK,
                           dtype=np.int8)
        # Odd overall parity: a single (odd) number of flips.
        single = (overall == 1)
        outcomes[single] = DecodeOutcome.CORRECTED
        in_word = single & (syn >= 1) & (syn <= self._m)
        if np.any(in_word):
            flat = cw.reshape(-1, self.n_code)
            idx = np.nonzero(in_word.reshape(-1))[0]
            pos = syn.reshape(-1)[idx] - 1
            flat[idx, pos] ^= 1
        # syn == 0 with odd parity: the overall-parity bit itself.
        fix_overall = single & (syn == 0)
        if np.any(fix_overall):
            flat = cw.reshape(-1, self.n_code)
            idx = np.nonzero(fix_overall.reshape(-1))[0]
            flat[idx, self._m] ^= 1
        # syn out of range with odd parity cannot happen for <= 1 flips;
        # even parity with nonzero syndrome is the double-error signature.
        outcomes[single & (syn > self._m)] = DecodeOutcome.DETECTED
        outcomes[(overall == 0) & (syn != 0)] = DecodeOutcome.DETECTED
        return cw[..., self._data_pos - 1], outcomes

    def classify_errors(self, n_errors):
        """Statistical outcome for words with ``n_errors`` wrong bits.

        The vectorized engine hot path books outcomes from error counts
        instead of running the full decoder: 0 -> OK, 1 -> CORRECTED,
        2 -> DETECTED, >= 3 -> SILENT (beyond the guarantee; the word may
        be miscorrected or mis-flagged, either way the data is wrong).
        One take from :attr:`OUTCOMES` of the count clipped to 3.
        """
        return self.OUTCOMES.take(np.minimum(n_errors, 3))


@functools.lru_cache(maxsize=8)
def _byte_tables(data_bits):
    """Encode tables of the ``data_bits``-wide SEC-DED code, built once
    per width.

    Returns ``(table, offsets)``: entry ``offsets[b] + v`` of the flat
    ``table`` is the packed codeword of the data word whose byte ``b``
    holds ``v`` (every other byte zero), one void item of
    ``8 * ceil(n_code / 64)`` bytes; ``offsets`` is the
    ``(ceil(k / 8), 1)`` column of ``256 * b``. 32 KiB for the
    (72, 64) code.
    """
    code = HammingSECDED(data_bits)
    k, m = code.n_data, code._m
    # Generator row i is the codeword of data bit i alone: the data bit
    # at its position, the Hamming parities that zero its syndrome (its
    # position's index bits) and the row's overall parity. Rows past k
    # pad the last byte with zeros.
    data_code = code._pos_code[code._data_pos - 1]
    gen = np.zeros((-(-k // 8) * 8, m + 1), dtype=np.int8)
    gen[np.arange(k), code._data_pos - 1] = 1
    gen[:k, code._parity_pos - 1] = data_code
    gen[:k, m] = (1 + data_code.sum(axis=1)) % 2
    rows = pack_bits(gen)
    n_lanes = rows.shape[1]
    rows = rows.reshape(-1, 8, 1, n_lanes)
    # Value v of byte b XORs the rows of v's set bits: each bit j
    # doubles the filled prefix [0, 2**j).
    tables = np.zeros((rows.shape[0], 256, n_lanes), dtype=LANE_DTYPE)
    for j in range(8):
        np.bitwise_xor(tables[:, :1 << j], rows[:, j],
                       out=tables[:, 1 << j:2 << j])
    table = tables.view(np.dtype((np.void, 8 * n_lanes))).reshape(-1)
    offsets = 256 * np.arange(rows.shape[0], dtype=np.intp)[:, None]
    table.flags.writeable = offsets.flags.writeable = False
    return table, offsets


#: Registry used by the CLI and the sweeps.
ECC_SCHEMES = {"none": NoECC, "secded": HammingSECDED}


def make_ecc(name, data_bits=64):
    """Instantiate an ECC scheme by registry name (``none``/``secded``)."""
    try:
        scheme = ECC_SCHEMES[name]
    except KeyError:
        raise ParameterError(
            f"unknown ECC scheme {name!r}; choose from "
            f"{sorted(ECC_SCHEMES)}") from None
    return scheme(data_bits=data_bits)


def _as_bits(array, width, name):
    arr = np.asarray(array)
    if arr.ndim < 1 or arr.shape[-1] != width:
        raise ParameterError(
            f"{name} must have last dimension {width}, got shape "
            f"{arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ParameterError(f"{name} must contain only 0/1 bits")
    return arr.astype(np.int8)
