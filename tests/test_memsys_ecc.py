"""Property tests for the Hamming SEC-DED code.

The code's contract over randomized words: a clean round-trip is exact,
every single-bit corruption is located and corrected, and every
double-bit corruption is detected as uncorrectable.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.memsys.bitplane import LANE_DTYPE, pack_bits, unpack_bits
from repro.memsys.ecc import (
    DecodeOutcome,
    HammingSECDED,
    NoECC,
    make_ecc,
)

WIDTHS = (8, 16, 64)


def random_words(rng, n, k):
    return (rng.random((n, k)) < 0.5).astype(np.int8)


class TestConstruction:
    def test_72_64_geometry(self):
        ecc = HammingSECDED(64)
        assert ecc.n_data == 64
        assert ecc.n_parity == 8
        assert ecc.n_code == 72

    @pytest.mark.parametrize("k", WIDTHS)
    def test_parity_count_is_minimal(self, k):
        ecc = HammingSECDED(k)
        r = ecc.n_parity - 1
        assert 2 ** r >= k + r + 1
        assert 2 ** (r - 1) < k + (r - 1) + 1

    def test_registry(self):
        assert isinstance(make_ecc("secded"), HammingSECDED)
        assert isinstance(make_ecc("none"), NoECC)
        with pytest.raises(ParameterError):
            make_ecc("bch")

    def test_rejects_bad_shapes(self):
        ecc = HammingSECDED(8)
        with pytest.raises(ParameterError):
            ecc.encode(np.zeros((3, 9), dtype=np.int8))
        with pytest.raises(ParameterError):
            ecc.decode(np.zeros((3, 5), dtype=np.int8))
        with pytest.raises(ParameterError):
            ecc.encode(np.full((3, 8), 2, dtype=np.int8))


class TestRoundTrip:
    @pytest.mark.parametrize("k", WIDTHS)
    def test_clean_roundtrip(self, rng, k):
        ecc = HammingSECDED(k)
        data = random_words(rng, 50, k)
        decoded, outcomes = ecc.decode(ecc.encode(data))
        assert np.array_equal(decoded, data)
        assert np.all(outcomes == DecodeOutcome.OK)

    @pytest.mark.parametrize("k", WIDTHS)
    def test_single_bit_corrected_every_position(self, rng, k):
        """k = 1: every corruption position over randomized words."""
        ecc = HammingSECDED(k)
        data = random_words(rng, ecc.n_code, k)
        cw = ecc.encode(data)
        # Word i gets its bit i flipped: all positions in one batch.
        cw[np.arange(ecc.n_code), np.arange(ecc.n_code)] ^= 1
        decoded, outcomes = ecc.decode(cw)
        assert np.all(outcomes == DecodeOutcome.CORRECTED)
        assert np.array_equal(decoded, data)

    @pytest.mark.parametrize("k", WIDTHS)
    def test_double_bit_detected(self, rng, k):
        """k = 2: random position pairs over randomized words."""
        ecc = HammingSECDED(k)
        n_trials = 300
        data = random_words(rng, n_trials, k)
        cw = ecc.encode(data)
        for i in range(n_trials):
            a, b = rng.choice(ecc.n_code, size=2, replace=False)
            cw[i, a] ^= 1
            cw[i, b] ^= 1
        _, outcomes = ecc.decode(cw)
        assert np.all(outcomes == DecodeOutcome.DETECTED)

    def test_mixed_corruption_batch(self, rng):
        """0/1/2-bit corruptions in one decode call."""
        ecc = HammingSECDED(64)
        data = random_words(rng, 3, 64)
        cw = ecc.encode(data)
        cw[1, 17] ^= 1
        cw[2, 3] ^= 1
        cw[2, 44] ^= 1
        decoded, outcomes = ecc.decode(cw)
        assert list(outcomes) == [DecodeOutcome.OK,
                                  DecodeOutcome.CORRECTED,
                                  DecodeOutcome.DETECTED]
        assert np.array_equal(decoded[:2], data[:2])


def _secded_rule(n):
    return (DecodeOutcome.OK, DecodeOutcome.CORRECTED,
            DecodeOutcome.DETECTED)[n] if n < 3 else DecodeOutcome.SILENT


def _none_rule(n):
    return DecodeOutcome.OK if n == 0 else DecodeOutcome.SILENT


def _check_classify(ecc, rule):
    """``classify_errors`` against the per-count ``rule`` for every
    count a word can hold (as the engine's int16 counters), in 1-D and
    2-D, and on an empty input."""
    counts = np.arange(ecc.n_code + 1, dtype=np.int16)
    expected = np.array([rule(int(n)) for n in counts], dtype=np.int8)
    out = ecc.classify_errors(counts)
    assert out.dtype == np.int8 and np.array_equal(out, expected)
    grid = np.resize(counts[::-1], (5, 11))
    out = ecc.classify_errors(grid)
    assert out.shape == grid.shape and out.dtype == np.int8
    assert np.array_equal(out, expected[grid])
    empty = ecc.classify_errors(np.zeros(0, dtype=np.int16))
    assert empty.shape == (0,) and empty.dtype == np.int8


class TestClassification:
    def test_classify_errors_secded(self):
        ecc = HammingSECDED(64)
        out = ecc.classify_errors(np.array([0, 1, 2, 3, 7]))
        assert list(out) == [DecodeOutcome.OK, DecodeOutcome.CORRECTED,
                             DecodeOutcome.DETECTED,
                             DecodeOutcome.SILENT, DecodeOutcome.SILENT]
        _check_classify(ecc, _secded_rule)

    def test_classify_errors_none(self):
        ecc = NoECC(64)
        out = ecc.classify_errors(np.array([0, 1, 5]))
        assert list(out) == [DecodeOutcome.OK, DecodeOutcome.SILENT,
                             DecodeOutcome.SILENT]
        _check_classify(ecc, _none_rule)

    def test_noecc_passthrough(self, rng):
        ecc = NoECC(16)
        data = random_words(rng, 10, 16)
        cw = ecc.encode(data)
        assert np.array_equal(cw, data)
        decoded, outcomes = ecc.decode(cw)
        assert np.array_equal(decoded, data)
        assert np.all(outcomes == DecodeOutcome.OK)

    def test_data_positions_cover_data(self, rng):
        """Codeword data positions carry the data bits verbatim."""
        for k in WIDTHS:
            ecc = HammingSECDED(k)
            data = random_words(rng, 5, k)
            cw = ecc.encode(data)
            assert np.array_equal(cw[:, ecc.data_positions], data)


#: Data widths of the encode checks: both ends of the
#: accepted range, the classic 64, and widths just past a power of two
#: (one more parity bit) or just below one.
ENCODE_WIDTHS = (1, 2, 4, 11, 26, 57, 64, 120, 247, 4096)


@functools.lru_cache(maxsize=None)
def _code(k):
    return HammingSECDED(k)


def _syndrome_encode(ecc, data):
    """The syndrome-construction encode, kept as the oracle: place the
    data, then set each parity bit to the syndrome bit it must zero."""
    data = np.asarray(data, dtype=np.int8)
    cw = np.zeros(data.shape[:-1] + (ecc.n_code,), dtype=np.int8)
    cw[..., ecc._data_pos - 1] = data
    syndrome = cw[..., :ecc._m].astype(np.int64) @ ecc._pos_code
    cw[..., ecc._parity_pos - 1] = (syndrome & 1).astype(np.int8)
    cw[..., ecc._m] = cw[..., :ecc._m].sum(axis=-1) % 2
    return cw


class TestGeneratorEncode:
    @given(k=st.sampled_from(ENCODE_WIDTHS),
           batch=st.sampled_from([(0,), (1,), (7,), (3, 4), (2, 1)]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_syndrome_construction(self, k, batch, seed):
        ecc = _code(k)
        rng = np.random.default_rng(seed)
        data = (rng.random(batch + (k,)) < rng.random()).astype(np.int8)
        cw = ecc.encode(data)
        assert cw.dtype == np.int8
        assert cw.shape == batch + (ecc.n_code,)
        assert np.array_equal(cw, _syndrome_encode(ecc, data))
        syn, overall = ecc.syndrome(cw)
        assert np.all(syn == 0) and np.all(overall == 0)

    @pytest.mark.parametrize("k", ENCODE_WIDTHS)
    def test_all_ones_and_unit_words(self, k):
        """The densest word (largest product) and every unit word."""
        ecc = _code(k)
        words = np.concatenate([np.ones((1, k), np.int8),
                                np.eye(k, dtype=np.int8)[:300]])
        assert np.array_equal(ecc.encode(words),
                              _syndrome_encode(ecc, words))

    def test_single_word_and_bool_input(self):
        ecc = _code(64)
        word = np.random.default_rng(0).random(64) < 0.5
        assert np.array_equal(ecc.encode(word),
                              _syndrome_encode(ecc, word))


#: Data widths of the packed-lane checks: words ending mid-byte, on a
#: byte, just short of, on and just past a lane, and wide codes whose
#: codewords span several lanes.
LANE_WIDTHS = (1, 4, 8, 11, 26, 57, 63, 64, 65, 120, 128, 247, 1000)


def _generator_encode(ecc, data):
    """The float32 generator-matrix encode the byte tables replaced,
    kept as their reference: the data times the systematic generator,
    mod 2 (exact, every entry is an integer <= k < 2**24)."""
    k, m = ecc.n_data, ecc._m
    data_code = ecc._pos_code[ecc._data_pos - 1]
    gen = np.zeros((k, m + 1), dtype=np.float32)
    gen[np.arange(k), ecc._data_pos - 1] = 1
    gen[:, ecc._parity_pos - 1] = data_code
    gen[:, m] = (1 + data_code.sum(axis=1)) % 2
    bits = (np.asarray(data, dtype=np.float32) @ gen).astype(np.int32)
    return (bits & 1).astype(np.int8)


def _lane_words(k):
    """Random words, the all-ones and all-zero words and unit words."""
    rng = np.random.default_rng(k)
    return np.concatenate([random_words(rng, 200, k),
                           np.ones((1, k), np.int8),
                           np.zeros((1, k), np.int8),
                           np.eye(k, dtype=np.int8)[:300]])


class TestLaneEncode:
    @pytest.mark.parametrize("k", LANE_WIDTHS)
    def test_matches_generator_product(self, k):
        ecc = _code(k)
        data = _lane_words(k)
        lanes = ecc.encode_lanes(pack_bits(data))
        assert lanes.dtype == LANE_DTYPE
        assert lanes.shape == (data.shape[0], -(-ecc.n_code // 64))
        assert np.array_equal(lanes,
                              pack_bits(_generator_encode(ecc, data)))
        assert ecc.encode_lanes(pack_bits(data[:0])).shape == (
            0, lanes.shape[1])

    @pytest.mark.parametrize("k", LANE_WIDTHS)
    def test_no_ecc_copies_lanes(self, k):
        ecc = NoECC(k)
        data = _lane_words(k)
        lanes = pack_bits(data)
        out = ecc.encode_lanes(lanes)
        assert out.dtype == LANE_DTYPE
        assert np.array_equal(out, lanes)
        assert not np.shares_memory(out, lanes)
        assert np.array_equal(unpack_bits(out, ecc.n_code),
                              ecc.encode(data))

    @pytest.mark.parametrize("k", LANE_WIDTHS)
    def test_encode_decode_round_trip(self, k):
        ecc = _code(k)
        data = _lane_words(k)
        cw = ecc.encode(data)
        assert cw.dtype == np.int8
        assert np.array_equal(cw, _generator_encode(ecc, data))
        decoded, outcomes = ecc.decode(cw)
        assert np.array_equal(decoded, data)
        assert np.all(outcomes == DecodeOutcome.OK)
