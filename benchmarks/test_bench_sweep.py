"""Benches for the sweep executors: distributed scaling vs serial.

The headline bench is the acceptance criterion of the distributed
executor: the default memsys sweep (`uber_sweep` — default patterns,
ECCs, array size, seed) with its pitch axis densified to the resolution
the paper's density conclusions need (60 ratios across the 1.5x-3x eCD
span, 360 points) must run >= 2x faster on a 4-worker spool-directory
broker than serially, with byte-identical result tables. The measured
scaling point is appended to ``BENCH_memsys.json`` (the CI artifact)
whether or not the floor holds, so regressions leave a trace.

The speedup floor is only asserted when the host exposes a core per
worker (CI's runners do): a wall-clock parallel speedup cannot exist
on a single core and 4 time-sliced workers on 2 cores cap below 2x,
but the determinism assertion (distributed == serial) runs everywhere.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.device import MTJDevice, PAPER_EVAL_DEVICE
from repro.memsys import uber_sweep

#: Floor asserted on the 4-worker distributed-vs-serial ratio.
SPEEDUP_FLOOR = 2.0

WORKERS = 4

#: The default sweep's 1.5x-3x eCD pitch span at dense resolution.
DENSE_RATIOS = tuple(np.linspace(3.0, 1.5, 60))


def _bench_out_path():
    override = os.environ.get("REPRO_BENCH_OUT")
    if override:
        return override
    repo_root = os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))
    return os.path.join(repo_root, "BENCH_memsys.json")


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_sweep(device, **kwargs):
    t0 = time.perf_counter()
    result = uber_sweep(device, pitch_ratios=DENSE_RATIOS, seed=0,
                        **kwargs)
    return time.perf_counter() - t0, result


def _record_scaling(t_serial, t_distributed, speedup, n_points):
    """Merge the sweep scaling point into BENCH_memsys.json."""
    path = _bench_out_path()
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        payload = {"bench": "memsys_engine", "trajectory": []}
    cpus = _usable_cpus()
    payload["sweep_scaling"] = {
        "executor": "distributed",
        "workers": WORKERS,
        "n_points": n_points,
        "serial_s": round(t_serial, 4),
        "distributed_s": round(t_distributed, 4),
        "speedup": round(speedup, 2),
        "floor": SPEEDUP_FLOOR,
        "cpus": cpus,
        # A speedup measured while the workers time-slice one core
        # says nothing about scaling — flag it so readers (and future
        # re-records on multi-core runners) don't compare apples to
        # time-sliced oranges.
        "single_core": cpus < 2,
    }
    if cpus < 2:
        payload["sweep_scaling"]["note"] = (
            f"measured on {cpus} CPU(s): {WORKERS} workers "
            "time-sliced a single core, so the speedup is not a "
            "scaling datum; re-record on a >=2-core runner")
    payload.setdefault("trajectory", []).append(
        {"bench": "sweep", "executor": "distributed",
         "workers": WORKERS, "n_points": n_points,
         "seconds": round(t_distributed, 4),
         "points_per_s": round(n_points / t_distributed, 1)})
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


@pytest.fixture(scope="module")
def device():
    return MTJDevice(PAPER_EVAL_DEVICE)


def test_distributed_sweep_speedup_vs_serial(device):
    """>= 2x with 4 workers on the dense default grid, tables equal."""
    t_serial, serial = _timed_sweep(device)
    t_distributed, distributed = _timed_sweep(
        device, executor="distributed", jobs=WORKERS)
    n_points = serial.extras["sweep"]["n_points"]
    speedup = t_serial / t_distributed
    # Record first: a failed floor must still leave the artifact.
    _record_scaling(t_serial, t_distributed, speedup, n_points)
    print(f"\n{n_points}-point dense pitch sweep: serial "
          f"{t_serial:.2f}s, distributed({WORKERS}) "
          f"{t_distributed:.2f}s -> {speedup:.2f}x")

    # Determinism is asserted unconditionally — the distributed run
    # must be byte-identical to serial at bench scale too.
    assert distributed.rows == serial.rows
    assert distributed.extras["uber"] == serial.extras["uber"]
    assert serial.all_passed, [
        c.metric for c in serial.comparisons if not c.passed]

    cpus = _usable_cpus()
    if cpus < WORKERS:
        # 4 workers on fewer than 4 cores time-slice; the 2x floor is
        # only a fair bar when every worker has a core (CI's runners
        # do). The measurement above is recorded either way.
        pytest.skip(f"only {cpus} CPU(s) visible for {WORKERS} "
                    f"workers: the {SPEEDUP_FLOOR}x floor needs a "
                    f"core per worker (measured {speedup:.2f}x, "
                    f"recorded)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"distributed executor only {speedup:.2f}x over serial "
        f"(floor {SPEEDUP_FLOOR}x with {WORKERS} workers on "
        f"{cpus} CPUs)")


def test_work_stealing_schedule_has_small_tail(device):
    """The guided schedule front-loads big chunks and thins the tail —
    the property that lets fast workers absorb a slow worker's share."""
    from repro.sweep import schedule_chunks
    n_points = len(DENSE_RATIOS) * 6
    bounds = schedule_chunks(n_points, WORKERS)
    sizes = [stop - start for start, stop in bounds]
    assert sum(sizes) == n_points
    assert sizes == sorted(sizes, reverse=True)
    # The tail chunk is tiny relative to the head: a straggler can
    # lose at most one small chunk's worth of work to rebalancing.
    assert sizes[-1] * 8 <= sizes[0]
