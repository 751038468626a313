"""Rare-event engine benches: the binomial sampler vs the per-cell
reference.

The headline bench is the acceptance criterion of the binomial
sampler: a 1024 x 1024 array trimmed to ``nominal_wer = 1e-6`` (a
realistic shipping part, not the accelerated-stress corner) running
1e6 transactions — a regime where the per-cell Bernoulli reference
(``tests/memsys_reference.py``) burns one uniform draw per cell per
mechanism while the engine draws thinned flip counts over bit-packed
state. The engine must be >= 10x faster than the same driver over the
reference state, with the Monte-Carlo counters of the two pinned-seed
runs statistically equivalent.

Configuration notes: the workload is the checkerboard stress pattern at
a 90% read fraction — the retention/read-disturb-dominated corner the
fast path targets. ``batch_size=2048`` refreshes the coupling classes
every 2k transactions; both states run identical settings, so the
comparison is like for like at equal fidelity.

A second axis is the array topology: on machines with >= 4 cores the
chip-1024 array reorganized as 2 banks x 2 subarrays must run its four
sub-runs on a process pool >= 2x faster than the flat single-stream
engine at the same operating point, both on the per-cell reference.

Every run's throughput lands in ``BENCH_memsys.json`` (repo root, or
``$REPRO_BENCH_OUT``) as a trajectory over array size, sampler
and topology; CI uploads the file as an artifact so
regressions leave a trace.
"""

import json
import os
import time

import numpy as np
import pytest
from memsys_reference import per_cell_reference

from repro.device import MTJDevice, PAPER_EVAL_DEVICE
from repro.memsys import build_engine
from repro.memsys.traffic import StressPatternWorkload

#: Floor asserted on the 1024 x 1024 binomial-vs-per-cell ratio.
SPEEDUP_FLOOR = 10.0

#: Floor asserted on the 4-shard banked chip over the flat engine when
#: the shards fan out over a process pool (requires >= 4 cores).
TOPOLOGY_SPEEDUP_FLOOR = 2.0

TRANSACTIONS = 1_000_000
BATCH_SIZE = 2048
SEED = 1


def _bench_out_path():
    override = os.environ.get("REPRO_BENCH_OUT")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_memsys.json")


#: Trajectory label of the per-cell reference runs.
REFERENCE = "per-cell reference"


def _engine(device, side):
    return build_engine(
        device, pitch=70e-9, rows=side, cols=side, ecc="secded",
        workload=StressPatternWorkload("checkerboard",
                                       read_fraction=0.9),
        nominal_wer=1e-6)


def _timed_run(engine, n=TRANSACTIONS, repeats=1):
    """(best seconds, last result) of ``repeats`` identical runs."""
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = engine.run(n, rng=SEED, batch_size=BATCH_SIZE)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


@pytest.fixture(scope="module")
def device():
    return MTJDevice(PAPER_EVAL_DEVICE)


def test_binomial_fast_path_speedup_1024(device):
    """>= 10x on 1024 x 1024 at nominal_wer = 1e-6, counters agree."""
    engine = _engine(device, 1024)
    runs = {"binomial": _timed_run(engine, repeats=2)}
    with per_cell_reference() as built:
        runs[REFERENCE] = _timed_run(engine, repeats=2)

    t_binomial, r_binomial = runs["binomial"]
    t_reference, r_reference = runs[REFERENCE]
    speedup = t_reference / t_binomial
    # Record the measured trajectory first: a failed assert below must
    # still leave BENCH_memsys.json for the CI artifact.
    _record_bench(speedup, t_reference, t_binomial, runs)
    print(f"\n1024x1024, {TRANSACTIONS} txn, nominal_wer=1e-6: "
          f"per-cell reference {t_reference:.2f}s "
          f"({TRANSACTIONS / t_reference:.0f} txn/s), "
          f"binomial {t_binomial:.2f}s "
          f"({TRANSACTIONS / t_binomial:.0f} txn/s) "
          f"-> {speedup:.1f}x")

    assert built.value == 2  # both timed runs took the reference state
    # Statistical equivalence of the pinned-seed Monte-Carlo counters:
    # every independent-event counter must sit within a generous
    # binomial/Poisson confidence band of its sibling.
    for counter in ("write_errors", "disturb_flips", "retention_flips",
                    "raw_bit_errors"):
        a = getattr(r_reference, counter)
        b = getattr(r_binomial, counter)
        tol = 6.0 * np.sqrt(a + b + 1.0) + 25.0
        assert abs(a - b) <= tol, (counter, a, b)
    assert r_binomial.n_transactions == TRANSACTIONS
    for r in (r_binomial, r_reference):
        assert r.n_reads + r.n_writes == TRANSACTIONS

    assert speedup >= SPEEDUP_FLOOR, (
        f"binomial sampler only {speedup:.1f}x over the per-cell "
        f"reference (floor {SPEEDUP_FLOOR}x)")


def _record_bench(speedup, t_reference, t_binomial, runs_1024):
    """Append this run's throughput trajectory to BENCH_memsys.json."""
    trajectory = [
        {"sampler": sampler, "rows": 1024, "cols": 1024,
         "transactions": TRANSACTIONS, "batch_size": BATCH_SIZE,
         "nominal_wer": 1e-6, "seconds": round(seconds, 4),
         "txn_per_s": round(TRANSACTIONS / seconds, 1)}
        for sampler, (seconds, _) in runs_1024.items()]
    payload = {
        "bench": "memsys_engine",
        "speedup_1024": {
            "reference_s": round(t_reference, 4),
            "binomial_s": round(t_binomial, 4),
            "speedup": round(speedup, 2),
            "floor": SPEEDUP_FLOOR,
        },
        "trajectory": trajectory,
    }
    path = _bench_out_path()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def _merge_bench(update, extra_points=()):
    """Fold ``update`` keys and trajectory points into the bench file.

    The headline speedup bench rewrites the file from scratch; every
    later test merges so a partial run never wipes the numbers that
    were already measured.
    """
    path = _bench_out_path()
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        payload = {"bench": "memsys_engine", "trajectory": []}
    payload.update(update)
    payload.setdefault("trajectory", []).extend(extra_points)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def test_banked_process_speedup_chip_1024(device):
    """4-shard banked chip >= 2x over flat on a process pool.

    The chip-1024 preset's array reorganized as 2 banks x 2 subarrays
    runs its four 512 x 512 sub-runs concurrently on the process
    executor; against the flat single-stream engine at the identical
    operating point that must buy >= 2x wall-clock once four cores are
    available. Skipped on smaller machines — with fewer cores the pool
    serializes and only measures pickling overhead.

    Both runs take the per-cell reference, whose per-batch work is
    proportional to cells, so the sharded sub-arrays genuinely have 1/4
    of the per-stream work — the regime banking targets (the binomial
    sampler is already near size-independent, so sharding cannot help
    it much). The process workers fork inside the reference block and
    inherit it; the shared state counter proves they ran it.
    """
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 cores for a meaningful process fan-out")

    n = 200_000
    flat = _engine(device, 1024)
    banked = build_engine(
        device, pitch=70e-9, rows=1024, cols=1024, ecc="secded",
        workload=StressPatternWorkload("checkerboard",
                                       read_fraction=0.9),
        nominal_wer=1e-6, topology="banked", banks=2, subarrays=2)
    with per_cell_reference() as built:
        t_flat, r_flat = _timed_run(flat, n=n)
        t0 = time.perf_counter()
        r_banked = banked.run(n, rng=SEED, batch_size=BATCH_SIZE,
                              executor="process", jobs=4)
        t_banked = time.perf_counter() - t0

    speedup = t_flat / t_banked
    # Record before asserting so a floor miss still leaves the artifact.
    _merge_bench(
        {"topology_speedup_1024": {
            "flat_s": round(t_flat, 4),
            "banked_s": round(t_banked, 4),
            "speedup": round(speedup, 2),
            "floor": TOPOLOGY_SPEEDUP_FLOOR,
        }},
        [{"sampler": REFERENCE, "topology": "banked", "banks": 2,
          "subarrays": 2, "executor": "process", "rows": 1024,
          "cols": 1024, "transactions": n, "batch_size": BATCH_SIZE,
          "nominal_wer": 1e-6, "seconds": round(t_banked, 4),
          "txn_per_s": round(n / t_banked, 1)}])
    print(f"\n1024x1024 per-cell reference, {n} txn: "
          f"flat {t_flat:.2f}s, "
          f"banked 2x2/process {t_banked:.2f}s -> {speedup:.1f}x")

    # One reference state for the flat run, one per shard's worker run.
    assert built.value == 1 + 4, built.value
    assert r_banked.extras["topology"]["executor"] == "process"
    assert r_banked.n_transactions == n
    assert r_banked.config["topology"] == "banked"
    for counter in ("write_errors", "disturb_flips",
                    "retention_flips", "raw_bit_errors"):
        a = getattr(r_flat, counter)
        b = getattr(r_banked, counter)
        tol = 6.0 * np.sqrt(a + b + 1.0) + 25.0
        assert abs(a - b) <= tol, (counter, a, b)

    assert speedup >= TOPOLOGY_SPEEDUP_FLOOR, (
        f"banked process fan-out only {speedup:.1f}x over flat "
        f"(floor {TOPOLOGY_SPEEDUP_FLOOR}x)")


def test_binomial_throughput_scales_with_array_size(device):
    """Fast-path throughput stays near-flat as the array grows.

    The binomial path's whole-array work is O(50 classes + flips), so
    quadrupling the cell count must not quadruple the runtime — assert
    the 1024 x 1024 run keeps >= 1/4 of the 256 x 256 throughput (the
    reference path degrades ~linearly in cells per batch). Throughputs
    are appended to BENCH_memsys.json next to the speedup record.
    """
    n = 250_000
    rates = {}
    for side in (256, 512, 1024):
        engine = _engine(device, side)
        seconds, result = _timed_run(engine, n=n)
        assert result.n_transactions == n
        rates[side] = n / seconds
        print(f"\nbinomial {side}x{side}: {rates[side]:.0f} txn/s")
    assert rates[1024] >= rates[256] / 4.0, rates

    _merge_bench({}, [
        {"sampler": "binomial", "rows": side, "cols": side,
         "transactions": n, "batch_size": BATCH_SIZE,
         "nominal_wer": 1e-6, "seconds": round(n / rate, 4),
         "txn_per_s": round(rate, 1)}
        for side, rate in rates.items()])
