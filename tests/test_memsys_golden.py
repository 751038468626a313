"""Pinned counters and rates of small seeded engine runs.

A change meant to make the engine faster or smaller must leave every
seeded counter byte-identical. The pinned runs cover the write path
(ECC encode, writes, class-plane rebuilds), the
banked read path with scrubbing, a flat run with scrubbing, a no-ECC
run without write-back, the cross-point
sneak-path term at a hot read bias, retention at a hot, slow corner,
and the query service's sampled shape (64 x 64, every stress pattern
and ECC, flat and banked). Their full :class:`~repro.memsys.engine.MemsysResult` counters
are pinned here, and so are the ``expected_rates`` of a pitch x
pattern x ECC x topology grid (as ``float.hex``), so such a change
proves identity in the tier-1 suite.

Versioned breaks: random write data is drawn as raw uint64 lanes (one
generator output per 64 data bits) instead of one float64 uniform per
data bit; the whole-array retention and sneak terms are drawn by
thinning (one binomial candidate count per term) instead of one
binomial per coupling class; and a batch's accesses draw one
candidate set per mechanism (write, write-back, disturb) per batch and
settle each word's chain of accesses in a few passes, instead of one
draw per mechanism per occurrence-rank round. Each moved the generator
stream, and the counter pins were re-pinned with it (the last break
moved all fifteen). The ``expected_rates`` grid classifies the initial
background, which stays on the float64 stream, and did not move.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.memsys import ScrubPolicy, build_engine

FLAT_WRITE_HEAVY = {
    "n_transactions": 20000, "n_reads": 1954, "n_writes": 18046,
    "n_scrubs": 0, "bits_read": 140688, "bits_written": 1314504,
    "write_errors": 2593, "disturb_flips": 1, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 251, "uncorrectable_bit_errors": 40,
    "words_ok": 1723, "words_corrected": 211, "words_detected": 20,
    "words_silent": 0, "scrub_corrected_words": 0,
    "scrub_uncorrectable_words": 0, "simulated_time": 0.001,
}

BANKED_READ_HEAVY_SCRUB = {
    "n_transactions": 20000, "n_reads": 18015, "n_writes": 1985,
    "n_scrubs": 20, "bits_read": 1297080, "bits_written": 163944,
    "write_errors": 345, "disturb_flips": 20, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 551,
    "uncorrectable_bit_errors": 271, "words_ok": 17602,
    "words_corrected": 280, "words_detected": 128, "words_silent": 5,
    "scrub_corrected_words": 12, "scrub_uncorrectable_words": 7,
    "simulated_time": 0.00025,
}

FLAT_SCRUB = {
    "n_transactions": 20000, "n_reads": 10059, "n_writes": 9941,
    "n_scrubs": 20, "bits_read": 724248, "bits_written": 765720,
    "write_errors": 1530, "disturb_flips": 13, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 821,
    "uncorrectable_bit_errors": 209, "words_ok": 9345,
    "words_corrected": 612, "words_detected": 97, "words_silent": 5,
    "scrub_corrected_words": 82, "scrub_uncorrectable_words": 12,
    "simulated_time": 0.0010000000000000002,
}

NOECC_NO_WRITEBACK = {
    "n_transactions": 20000, "n_reads": 10027, "n_writes": 9973,
    "n_scrubs": 0, "bits_read": 641728, "bits_written": 638272,
    "write_errors": 1267, "disturb_flips": 15, "retention_flips": 0,
    "sneak_flips": 0, "raw_bit_errors": 1263,
    "uncorrectable_bit_errors": 1263, "words_ok": 8851,
    "words_corrected": 0, "words_detected": 0, "words_silent": 1176,
    "scrub_corrected_words": 0, "scrub_uncorrectable_words": 0,
    "simulated_time": 0.0010000000000000002,
}

CROSS_POINT_SNEAK = {
    "n_transactions": 20000, "n_reads": 10052, "n_writes": 9948,
    "n_scrubs": 20, "bits_read": 723744, "bits_written": 765144,
    "write_errors": 1510, "disturb_flips": 182312, "retention_flips": 0,
    "sneak_flips": 24, "raw_bit_errors": 179805,
    "uncorrectable_bit_errors": 179157, "words_ok": 4368,
    "words_corrected": 648, "words_detected": 49, "words_silent": 4987,
    "scrub_corrected_words": 31, "scrub_uncorrectable_words": 108,
    "simulated_time": 0.00025,
}

RETENTION_HOT = {
    "n_transactions": 4000, "n_reads": 3591, "n_writes": 409, "n_scrubs": 0,
    "bits_read": 258552, "bits_written": 33192, "write_errors": 66,
    "disturb_flips": 6, "retention_flips": 4810, "sneak_flips": 0,
    "raw_bit_errors": 48380, "uncorrectable_bit_errors": 48328,
    "words_ok": 2348, "words_corrected": 52, "words_detected": 37,
    "words_silent": 1154, "scrub_corrected_words": 0,
    "scrub_uncorrectable_words": 0, "simulated_time": 40000.0,
}

#: The query service's sampled shape: 64 x 64 at the default batch size
#: and nominal WER, 20,000 transactions, for every stress pattern and
#: ECC (seed 3, pitch 70 nm). Values of :data:`SAMPLED_FIELDS`; every
#: other counter is 0 but ``n_transactions`` and ``simulated_time``.
SAMPLED_FIELDS = (
    "n_reads", "n_writes", "bits_read", "bits_written", "write_errors",
    "disturb_flips", "raw_bit_errors", "uncorrectable_bit_errors",
    "words_ok", "words_corrected", "words_detected", "words_silent")

SAMPLED_64 = {
    ("checkerboard", "secded"): (9989, 10011, 719208, 765360, 1496, 15, 831,
                                 212, 9267, 619, 98, 5),
    ("checkerboard", "none"): (10005, 9995, 640320, 639680, 1201, 6, 1149,
                               1149, 8927, 0, 0, 1078),
    ("solid0", "secded"): (9989, 10011, 719208, 771408, 1716, 29, 975, 272,
                           9156, 703, 119, 11),
    ("solid0", "none"): (10005, 9995, 640320, 639680, 1388, 28, 1352, 1352,
                         8743, 0, 0, 1262),
    ("solid1", "secded"): (9989, 10011, 719208, 768528, 1619, 0, 905, 242,
                           9211, 663, 104, 11),
    ("solid1", "none"): (10005, 9995, 640320, 639680, 1310, 0, 1241, 1241,
                         8848, 0, 0, 1157),
    ("random", "secded"): (10118, 9882, 728496, 761400, 1492, 18, 951, 258,
                           9297, 693, 126, 2),
    ("random", "none"): (10053, 9947, 643392, 636608, 1281, 5, 1262, 1262,
                         8881, 0, 0, 1172),
}

#: The same shape banked 2 x 2 (four 64 x 64 shards, each with its own
#: stress codewords), checkerboard and SEC-DED.
SAMPLED_BANKED_CHECKERBOARD = (10038, 9962, 722736, 763632, 1456, 5,
                               786, 142, 9324, 644, 68, 2)

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


def _sampled_counters(values, simulated_time):
    counters = {name: 0 for name in FLAT_WRITE_HEAVY}
    counters.update(zip(SAMPLED_FIELDS, values), n_transactions=20000,
                    simulated_time=simulated_time)
    return counters


@pytest.mark.parametrize("key", sorted(SAMPLED_64))
def test_sampled_query_shape_counters_pinned(device, key):
    pattern, ecc = key
    engine = build_engine(device, pitch=70e-9, rows=64, cols=64,
                          workload=pattern, ecc=ecc)
    assert _counters(engine.run(20_000, rng=3)) == _sampled_counters(
        SAMPLED_64[key], 0.001)


def test_sampled_banked_checkerboard_counters_pinned(device):
    engine = build_engine(device, pitch=70e-9, rows=128, cols=128,
                          workload="checkerboard", banks=2, subarrays=2)
    result = engine.run(20_000, rng=3)
    assert _counters(result) == _sampled_counters(
        SAMPLED_BANKED_CHECKERBOARD, 0.00025)
    assert result.extras["topology"]["per_shard_transactions"] == [
        5000, 5000, 5000, 5000]


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
