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


class TestClassification:
    def test_classify_errors_secded(self):
        ecc = HammingSECDED(64)
        out = ecc.classify_errors(np.array([0, 1, 2, 3, 7]))
        assert list(out) == [DecodeOutcome.OK, DecodeOutcome.CORRECTED,
                             DecodeOutcome.DETECTED,
                             DecodeOutcome.SILENT, DecodeOutcome.SILENT]

    def test_classify_errors_none(self):
        ecc = NoECC(64)
        out = ecc.classify_errors(np.array([0, 1, 5]))
        assert list(out) == [DecodeOutcome.OK, DecodeOutcome.SILENT,
                             DecodeOutcome.SILENT]

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


#: Data widths of the generator-matrix checks: both ends of the
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
