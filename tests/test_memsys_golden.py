"""Pinned counters and rates of small seeded engine runs.

A change meant to make the engine faster or smaller must leave every
seeded counter byte-identical. The pinned runs cover the write path
(ECC encode, writes, class-plane rebuilds), the
banked read path with scrubbing, a flat run with scrubbing, a no-ECC
run without write-back, the cross-point
sneak-path term at a hot read bias, and retention at a hot, slow
corner. Their full :class:`~repro.memsys.engine.MemsysResult` counters
are pinned here, and so are the ``expected_rates`` of a pitch x
pattern x ECC x topology grid (as ``float.hex``), so such a change
proves identity in the tier-1 suite.

Versioned breaks: random write data is drawn as raw uint64 lanes (one
generator output per 64 data bits) instead of one float64 uniform per
data bit; and the whole-array retention and sneak terms are drawn by
thinning (one binomial candidate count per term) instead of one
binomial per coupling class. Each moved the generator stream, and the
six counter pins were re-pinned with it. The ``expected_rates`` grid
classifies the initial background, which stays on the float64 stream,
and did not move.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.memsys import ScrubPolicy, build_engine

FLAT_WRITE_HEAVY = {
    "n_transactions": 20000, "n_reads": 1951, "n_writes": 18049,
    "n_scrubs": 0, "bits_read": 140472, "bits_written": 1314936,
    "write_errors": 2577, "disturb_flips": 3, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 240,
    "uncorrectable_bit_errors": 26, "words_ok": 1724,
    "words_corrected": 214, "words_detected": 13, "words_silent": 0,
    "scrub_corrected_words": 0, "scrub_uncorrectable_words": 0,
    "simulated_time": 0.001,
}

BANKED_READ_HEAVY_SCRUB = {
    "n_transactions": 20000, "n_reads": 18022, "n_writes": 1978,
    "n_scrubs": 20, "bits_read": 1297584, "bits_written": 160488,
    "write_errors": 306, "disturb_flips": 26, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 557,
    "uncorrectable_bit_errors": 319, "words_ok": 17626,
    "words_corrected": 238, "words_detected": 155, "words_silent": 3,
    "scrub_corrected_words": 13, "scrub_uncorrectable_words": 8,
    "simulated_time": 0.00025,
}

FLAT_SCRUB = {
    "n_transactions": 20000, "n_reads": 10042, "n_writes": 9958,
    "n_scrubs": 20, "bits_read": 723024, "bits_written": 765432,
    "write_errors": 1521, "disturb_flips": 18, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 823,
    "uncorrectable_bit_errors": 204, "words_ok": 9322,
    "words_corrected": 619, "words_detected": 99, "words_silent": 2,
    "scrub_corrected_words": 54, "scrub_uncorrectable_words": 12,
    "simulated_time": 0.0010000000000000002,
}

NOECC_NO_WRITEBACK = {
    "n_transactions": 20000, "n_reads": 9978, "n_writes": 10022,
    "n_scrubs": 0, "bits_read": 638592, "bits_written": 641408,
    "write_errors": 1318, "disturb_flips": 13, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 1281,
    "uncorrectable_bit_errors": 1281, "words_ok": 8764,
    "words_corrected": 0, "words_detected": 0, "words_silent": 1214,
    "scrub_corrected_words": 0, "scrub_uncorrectable_words": 0,
    "simulated_time": 0.0010000000000000002,
}

CROSS_POINT_SNEAK = {
    "n_transactions": 20000, "n_reads": 9909, "n_writes": 10091,
    "n_scrubs": 20, "bits_read": 713448, "bits_written": 773712,
    "write_errors": 1549, "disturb_flips": 180881, "retention_flips": 0,
    "sneak_flips": 23, "raw_bit_errors": 177238,
    "uncorrectable_bit_errors": 176614, "words_ok": 4346,
    "words_corrected": 624, "words_detected": 45, "words_silent": 4894,
    "scrub_corrected_words": 31, "scrub_uncorrectable_words": 119,
    "simulated_time": 0.00025,
}

RETENTION_HOT = {
    "n_transactions": 4000, "n_reads": 3605, "n_writes": 395,
    "n_scrubs": 0, "bits_read": 259560, "bits_written": 31608,
    "write_errors": 59, "disturb_flips": 2, "retention_flips": 4797,
    "sneak_flips": 0, "raw_bit_errors": 44292,
    "uncorrectable_bit_errors": 44248, "words_ok": 2465,
    "words_corrected": 44, "words_detected": 77, "words_silent": 1019,
    "scrub_corrected_words": 0, "scrub_uncorrectable_words": 0,
    "simulated_time": 40000.0,
}

#: ``expected_rates`` as ``float.hex`` of (raw_ber, word_fail_rate,
#: uber), keyed by (pitch_nm, workload, ecc, topology).
EXPECTED_RATES = {
    (52.5, "random", "secded", "flat"):
        ("0x1.094d5d997ef5dp-9", "0x1.385e6fd64786ap-7",
         "0x1.1c61a390d252dp-12"),
    (52.5, "random", "secded", "cross-point"):
        ("0x1.0a32b2b81277ap-9", "0x1.3a76e03de2b4fp-7",
         "0x1.1e511ad7a17afp-12"),
    (52.5, "random", "none", "flat"):
        ("0x1.093ebb9518a01p-9", "0x1.f20ac99e8d542p-4",
         "0x1.093ebb9518a01p-9"),
    (52.5, "random", "none", "cross-point"):
        ("0x1.0bb510a6414f8p-9", "0x1.f658381519974p-4",
         "0x1.0bb510a6414f8p-9"),
    (52.5, "checkerboard", "secded", "flat"):
        ("0x1.dd408b8a17a14p-10", "0x1.fe318380c2529p-8",
         "0x1.cf5a71d3dacc3p-13"),
    (52.5, "checkerboard", "secded", "cross-point"):
        ("0x1.dec62c56acaefp-10", "0x1.00a8136353ba5p-7",
         "0x1.d23801d47b164p-13"),
    (52.5, "checkerboard", "none", "flat"):
        ("0x1.dd8f3e7b1369ap-10", "0x1.c32872f990368p-4",
         "0x1.dd8f3e7b1369ap-10"),
    (52.5, "checkerboard", "none", "cross-point"):
        ("0x1.dfe5015c75d70p-10", "0x1.c53d549da9feap-4",
         "0x1.dfe5015c75d70p-10"),
    (70.0, "random", "secded", "flat"):
        ("0x1.08d04933f8e9fp-9", "0x1.37452135e9590p-7",
         "0x1.1b5e4311cdcd9p-12"),
    (70.0, "random", "secded", "cross-point"):
        ("0x1.092b47709c10ep-9", "0x1.3814df33df604p-7",
         "0x1.1c1def1b7d065p-12"),
    (70.0, "random", "none", "flat"):
        ("0x1.08c7c5bebe9dfp-9", "0x1.f13a0da0502edp-4",
         "0x1.08c7c5bebe9dfp-9"),
    (70.0, "random", "none", "cross-point"):
        ("0x1.09c3181acc69dp-9", "0x1.f2f3410d5bc42p-4",
         "0x1.09c3181acc69dp-9"),
    (70.0, "checkerboard", "secded", "flat"):
        ("0x1.fc3c54e2627cfp-10", "0x1.1fb761bc735fap-7",
         "0x1.05aba342b0251p-12"),
    (70.0, "checkerboard", "secded", "cross-point"):
        ("0x1.fce1f9bbd7161p-10", "0x1.206a8eabbdff8p-7",
         "0x1.065091ff06d94p-12"),
    (70.0, "checkerboard", "none", "flat"):
        ("0x1.fc5db4e975a78p-10", "0x1.de852617bfcf2p-4",
         "0x1.fc5db4e975a78p-10"),
    (70.0, "checkerboard", "none", "cross-point"):
        ("0x1.fd5bb79594984p-10", "0x1.df65ec69190bcp-4",
         "0x1.fd5bb79594984p-10"),
    (105.0, "random", "secded", "flat"):
        ("0x1.08eb68c641618p-9", "0x1.3781dcd191008p-7",
         "0x1.1b963fcc9ab4ap-12"),
    (105.0, "random", "secded", "cross-point"):
        ("0x1.0909904696a08p-9", "0x1.37c5f7160ce9cp-7",
         "0x1.1bd50dd5ad0a9p-12"),
    (105.0, "random", "none", "flat"):
        ("0x1.08e4fa1554df8p-9", "0x1.f16d9d211f150p-4",
         "0x1.08e4fa1554df8p-9"),
    (105.0, "random", "none", "cross-point"):
        ("0x1.0939b10eb1d95p-9", "0x1.f2029daf19803p-4",
         "0x1.0939b10eb1d95p-9"),
    (105.0, "checkerboard", "secded", "flat"):
        ("0x1.05df779d6af54p-9", "0x1.30b5dfb1c9330p-7",
         "0x1.15527a0df3b11p-12"),
    (105.0, "checkerboard", "secded", "cross-point"):
        ("0x1.05f7d19fbb692p-9", "0x1.30ebec001a478p-7",
         "0x1.158448542e2bap-12"),
    (105.0, "checkerboard", "none", "flat"):
        ("0x1.05e45e97bbc6dp-9", "0x1.ec2365914a6cap-4",
         "0x1.05e45e97bbc6dp-9"),
    (105.0, "checkerboard", "none", "cross-point"):
        ("0x1.0609b5e7fcafap-9", "0x1.ec653d4f4c9f4p-4",
         "0x1.0609b5e7fcafap-9"),
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
                          workload="write-heavy")
    assert _counters(engine.run(20_000, rng=1)) == FLAT_WRITE_HEAVY


def test_banked_read_heavy_scrub_counters_pinned(device):
    engine = build_engine(device, pitch=70e-9, rows=128, cols=128,
                          workload="read-heavy", banks=2, subarrays=2,
                          scrub=ScrubPolicy(2e-5))
    result = engine.run(20_000, rng=2, batch_size=1000)
    assert _counters(result) == BANKED_READ_HEAVY_SCRUB
    assert result.extras["topology"]["per_shard_transactions"] == [
        5000, 5000, 5000, 5000]


def test_flat_scrub_counters_pinned(device):
    engine = build_engine(device, pitch=70e-9, rows=64, cols=64,
                          workload="random", scrub=ScrubPolicy(2e-5))
    result = engine.run(20_000, rng=1, batch_size=1000)
    assert _counters(result) == FLAT_SCRUB


def test_no_ecc_no_writeback_counters_pinned(device):
    engine = build_engine(device, pitch=70e-9, rows=64, cols=64,
                          workload="random", ecc="none",
                          writeback=False)
    result = engine.run(20_000, rng=1, batch_size=1000)
    assert _counters(result) == NOECC_NO_WRITEBACK


def test_cross_point_sneak_counters_pinned(device):
    engine = build_engine(device, pitch=70e-9, rows=64, cols=64,
                          workload="random", topology="cross-point",
                          banks=2, subarrays=2, read_voltage=0.3,
                          scrub=ScrubPolicy(2e-5))
    result = engine.run(20_000, rng=4, batch_size=1000)
    assert _counters(result) == CROSS_POINT_SNEAK
    assert result.sneak_flips > 0 and result.scrub_corrected_words > 0


def test_retention_hot_counters_pinned(device):
    engine = build_engine(device, pitch=52.5e-9, rows=32, cols=32,
                          workload="read-heavy", temperature=420.0,
                          cycle_time=10.0)
    result = engine.run(4000, rng=5, batch_size=500)
    assert _counters(result) == RETENTION_HOT
    assert result.retention_flips > 0


@pytest.mark.parametrize("key", sorted(EXPECTED_RATES))
def test_expected_rates_pinned(device, key):
    pitch_nm, workload, ecc, topology = key
    kwargs = {}
    if topology != "flat":
        kwargs = dict(topology=topology, banks=2, subarrays=2)
    engine = build_engine(device, pitch=pitch_nm * 1e-9, rows=32,
                          cols=32, workload=workload, ecc=ecc,
                          **kwargs)
    rates = engine.expected_rates(rng=7)
    assert tuple(float(rates[name]).hex() for name in
                 ("raw_ber", "word_fail_rate", "uber")) \
        == EXPECTED_RATES[key]
