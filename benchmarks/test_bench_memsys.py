"""Benches for the system-level reliability engine.

The headline bench runs >= 1e5 transactions on a 64x64 array inside the
timer — the engine's rounds are pure numpy array steps, so the cost per
transaction is dominated by gather/scatter over the word map, not by
Python dispatch.
"""

import pytest

from repro.device import MTJDevice, PAPER_EVAL_DEVICE
from repro.memsys import HammingSECDED, build_engine, uber_sweep


@pytest.fixture(scope="module")
def device():
    return MTJDevice(PAPER_EVAL_DEVICE)


def test_engine_100k_transactions_64x64(benchmark, device):
    engine = build_engine(device, pitch=70e-9, rows=64, cols=64,
                          ecc="secded", workload="random")

    result = benchmark.pedantic(
        lambda: engine.run(100_000, rng=1), rounds=3, iterations=1)
    assert result.n_transactions == 100_000
    assert result.raw_bit_errors > 0
    assert 0.0 < result.uber < result.raw_ber
    print(f"\nraw BER {result.raw_ber:.3e} -> UBER "
          f"{result.uber:.3e} "
          f"({result.words_corrected} words corrected)")


def test_secded_encode_decode_throughput(benchmark):
    import numpy as np
    ecc = HammingSECDED(64)
    rng = np.random.default_rng(0)
    data = (rng.random((20_000, 64)) < 0.5).astype(np.int8)

    def round_trip():
        cw = ecc.encode(data)
        decoded, outcomes = ecc.decode(cw)
        return decoded, outcomes

    decoded, outcomes = benchmark.pedantic(round_trip, rounds=3,
                                           iterations=1)
    assert (outcomes == 0).all()
    assert (decoded == data).all()


def test_expectation_sweep(benchmark, device):
    result = benchmark.pedantic(
        lambda: uber_sweep(device, pitch_ratios=(3.0, 2.0, 1.5)),
        rounds=3, iterations=1)
    assert result.all_passed, [
        c.metric for c in result.comparisons if not c.passed]
