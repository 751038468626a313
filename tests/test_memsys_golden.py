"""Pinned counters of two small seeded binomial-sampler runs.

A change meant to make the engine faster must leave every seeded
counter byte-identical. These two runs cover the write path (ECC
encode, packed writes, class-map rebuilds and incremental refreshes)
and the banked read path with scrubbing; their full
:class:`~repro.memsys.engine.MemsysResult` counters are pinned here so
such a change proves identity in the tier-1 suite.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.memsys import ScrubPolicy, build_engine

FLAT_WRITE_HEAVY = {
    "n_transactions": 20000, "n_reads": 1953, "n_writes": 18047,
    "n_scrubs": 0, "bits_read": 140616, "bits_written": 1316592,
    "write_errors": 2685, "disturb_flips": 5, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 278,
    "uncorrectable_bit_errors": 39, "words_ok": 1695,
    "words_corrected": 239, "words_detected": 18, "words_silent": 1,
    "scrub_corrected_words": 0, "scrub_uncorrectable_words": 0,
    "simulated_time": 0.001,
}

BANKED_READ_HEAVY_SCRUB = {
    "n_transactions": 20000, "n_reads": 17961, "n_writes": 2039,
    "n_scrubs": 20, "bits_read": 1293192, "bits_written": 167760,
    "write_errors": 368, "disturb_flips": 16, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 532,
    "uncorrectable_bit_errors": 252, "words_ok": 17559,
    "words_corrected": 280, "words_detected": 114, "words_silent": 8,
    "scrub_corrected_words": 11, "scrub_uncorrectable_words": 3,
    "simulated_time": 0.00025,
}


@pytest.fixture(scope="module")
def device():
    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    return MTJDevice(PAPER_EVAL_DEVICE)


def _counters(result):
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.name not in ("config", "extras")}


def test_flat_write_heavy_counters_pinned(device):
    engine = build_engine(device, pitch=70e-9, rows=128, cols=128,
                          workload="write-heavy", sampler="binomial",
                          backend="numpy")
    assert _counters(engine.run(20_000, rng=1)) == FLAT_WRITE_HEAVY


def test_banked_read_heavy_scrub_counters_pinned(device):
    engine = build_engine(device, pitch=70e-9, rows=128, cols=128,
                          workload="read-heavy", sampler="binomial",
                          backend="numpy", banks=2, subarrays=2,
                          scrub=ScrubPolicy(2e-5))
    result = engine.run(20_000, rng=2, batch_size=1000)
    assert _counters(result) == BANKED_READ_HEAVY_SCRUB
    assert result.extras["topology"]["per_shard_transactions"] == [
        5000, 5000, 5000, 5000]
