"""Seeded determinism of the query mix and of the engine's traffic."""

import json

import numpy as np
import pytest

from common import derive_seed, digest
from querymix import (BURST, HITS_PER_CYCLE, MISSES_PER_CYCLE,
                      build_mix)


def key(request):
    return json.dumps(request, sort_keys=True)


def test_mix_is_a_pure_function_of_the_seed():
    assert build_mix(3, 4) == build_mix(3, 4)
    assert build_mix(3, 4) != build_mix(4, 4)


def test_longer_mix_extends_a_shorter_one():
    assert build_mix(5, 6)[:3] == build_mix(5, 3)


def test_every_cycle_has_the_documented_composition():
    for ops in build_mix(11, 5):
        kinds = [op["kind"] for op in ops]
        assert kinds.count("hit") == HITS_PER_CYCLE
        assert kinds.count("miss") == MISSES_PER_CYCLE
        for kind in ("sampled", "sweep", "burst", "cli"):
            assert kinds.count(kind) == 1
        burst = next(op for op in ops if op["kind"] == "burst")
        assert burst["copies"] == BURST


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_cold_queries_never_repeat_and_hits_repeat_earlier_misses(seed):
    seen = set()
    asked = []
    for ops in build_mix(seed, 8):
        for op in ops:
            k = key(op["request"])
            if op["kind"] in ("hit", "cli"):
                assert op["ref"] < len(asked)
                assert k == key(asked[op["ref"]])
                continue
            assert k not in seen, "a cold query repeated"
            seen.add(k)
            if op["kind"] == "miss":
                assert op["ref"] == len(asked)
                asked.append(op["request"])


def test_sweeps_ask_shrinking_pitches():
    for ops in build_mix(2, 6):
        sweep = next(op for op in ops if op["kind"] == "sweep")
        ratios = sweep["request"]["pitch_ratios"]
        assert ratios == sorted(ratios, reverse=True)
        assert len(set(ratios)) == len(ratios)


def traffic(seed, n_batches=3):
    from repro.memsys import make_workload
    rng = np.random.default_rng(derive_seed(seed, "mc-flat-write"))
    workload = make_workload("write-heavy")
    out = []
    for _ in range(n_batches):
        batch = workload.batch(4096, 14_563, rng)
        out.append((batch.word.tolist(), batch.is_write.tolist()))
    return out


def test_engine_traffic_is_a_pure_function_of_the_seed():
    assert traffic(1) == traffic(1)
    assert traffic(1) != traffic(2)


def test_engine_counters_repeat_exactly_for_one_seed():
    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    from repro.memsys import build_engine
    from mc import counters

    engine = build_engine(MTJDevice(PAPER_EVAL_DEVICE), pitch=70e-9,
                          rows=32, cols=32, workload="write-heavy",
                          nominal_wer=1e-3, sampler="binomial",
                          backend="numpy")
    seed = derive_seed(1, "mc-flat-write")
    runs = [digest(counters(engine.run(20_000, rng=seed)))
            for _ in range(2)]
    assert runs[0] == runs[1]
    other = digest(counters(engine.run(20_000, rng=seed + 1)))
    assert other != runs[0]
