"""Monte-Carlo workload process: ``mc-chip`` and ``mc-flat-write``.

Run by ``run.py`` in a fresh interpreter per launch::

    python3 perfbench/mc.py --workload mc-chip --seed 1 --seconds 20 \
        --tmp DIR [--setup-only] [--trace SPANS.jsonl]

It imports the program, builds the workload's engine and prints one
readiness line; the parent times launch -> that line as set-up. With
``--setup-only`` it exits there. Otherwise it repeats the workload's
engine run on one seed until ``--seconds`` have passed (at least
:data:`MIN_REPS` times), and prints one JSON line with per-run host
times, the digest of every simulated counter of each run, and its peak
resident set. With ``--trace`` the span wrappers are installed before
the engine is built, and runs alternate between traced and untraced
(the wrappers switched off), so the tracing overhead is measured on the
same process and engine.

Every run reuses the same seed on purpose: the runs must produce
identical counters, which is the benchmark's determinism check, and
every run does identical work, which keeps the timings comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from contextlib import nullcontext

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (derive_seed, digest, pin_own_environment,  # noqa: E402
                    self_peak_rss_mb)

#: Fewest timed runs, whatever ``--seconds`` says: the digest check
#: needs repeats and the median needs a few samples.
MIN_REPS = 3

#: The ``chip-1024`` preset of ``repro memsys`` (rows, cols, banks x
#: subarrays, transactions, trim, sampler, traffic) at the CLI's default
#: pitch / ECC / voltages, plus scrubbing and periodic checkpoints. The
#: serial shard executor runs the 16 shards one after another.
MC_CHIP = dict(
    engine=dict(pitch=70e-9, rows=1024, cols=1024, ecc="secded",
                workload="read-heavy", nominal_wer=1e-6,
                sampler="binomial", backend="numpy",
                topology="banked", banks=4, subarrays=4),
    transactions=1_000_000,
    scrub_interval=1e-3,
    checkpoint_every=32_768,
    read_fraction=(0.85, 0.95),
)

#: Flat 1024 x 1024, write-heavy: ~3% of the cells change per batch, so
#: the incremental class maps rebuild on every batch.
MC_FLAT_WRITE = dict(
    engine=dict(pitch=70e-9, rows=1024, cols=1024, ecc="secded",
                workload="write-heavy", nominal_wer=1e-6,
                sampler="binomial", backend="numpy"),
    transactions=262_144,
    scrub_interval=None,
    checkpoint_every=None,
    read_fraction=(0.05, 0.15),
)

WORKLOADS = {"mc-chip": MC_CHIP, "mc-flat-write": MC_FLAT_WRITE}


def counters(result):
    """Every simulated counter of a run (the digest input)."""
    from dataclasses import fields
    out = {f.name: getattr(result, f.name) for f in fields(result)
           if f.name not in ("config", "extras")}
    out["simulated_time"] = repr(float(out["simulated_time"]))
    topo = result.extras.get("topology")
    if topo is not None:
        out["per_shard_transactions"] = list(
            topo["per_shard_transactions"])
    return out


def check_run(spec, result, saves):
    """``(name, passed)`` of every sanity check of one run."""
    n = spec["transactions"]
    lo, hi = spec["read_fraction"]
    topo = result.extras.get("topology")
    return [
        ("transactions simulated == requested",
         result.n_transactions == n),
        ("reads + writes == transactions",
         result.n_reads + result.n_writes == n),
        ("read share within the traffic mix",
         lo <= result.n_reads / n <= hi),
        ("uncorrectable bits <= raw bit errors",
         result.uncorrectable_bit_errors <= result.raw_bit_errors),
        ("engine ran on the numpy backend",
         result.config.get("backend") == "numpy"),
        ("scrub passes ran when scrubbing is on",
         spec["scrub_interval"] is None or result.n_scrubs > 0),
        ("checkpoints were saved when checkpointing is on",
         spec["checkpoint_every"] is None or saves > 0),
        ("shards ran on the serial executor",
         not spec["engine"].get("topology")
         or (topo is not None and topo["executor"] == "serial")),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    pin_own_environment()

    tracer = patches = None
    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    from repro.memsys import ScrubPolicy
    import repro.memsys as memsys
    from repro.resilience import CheckpointManager
    if args.trace:
        from layers import Patches, install_engine_layers
        from spans import Tracer
        tracer, patches = Tracer(), Patches()
        install_engine_layers(tracer, patches)

    scrub = (ScrubPolicy(spec["scrub_interval"])
             if spec["scrub_interval"] is not None else None)
    engine = memsys.build_engine(MTJDevice(PAPER_EVAL_DEVICE),
                                 scrub=scrub, **spec["engine"])
    # Like `repro memsys`, describe the controller before running: on a
    # banked array this builds the shared per-shard template engine.
    engine.controller.describe()
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    seed = derive_seed(args.seed, args.workload)
    run_kwargs = {}
    if spec["engine"].get("topology"):
        run_kwargs["executor"] = "serial"
    times, traced, digests, checks = [], [], [], []
    first = None
    saves = 0
    min_reps = 2 * MIN_REPS if tracer is not None else MIN_REPS
    deadline = time.perf_counter() + args.seconds
    while len(times) < min_reps or time.perf_counter() < deadline:
        # A traced run alternates untraced and traced runs in the order
        # U T T U U T ..., so drift in machine speed hits both alike.
        i = len(times)
        on = tracer is not None and (i % 2 == 1) == (i // 2 % 2 == 0)
        rep_dir = None
        kwargs = dict(run_kwargs)
        if spec["checkpoint_every"] is not None:
            rep_dir = os.path.join(args.tmp, f"ckpt-{i}")
            manager = CheckpointManager(rep_dir)
            kwargs.update(checkpoint=manager,
                          checkpoint_every=spec["checkpoint_every"])
        if tracer is not None:
            (patches.on if on else patches.off)()
        with (tracer.span("op") if on else nullcontext()):
            t0 = time.perf_counter()
            result = engine.run(spec["transactions"], rng=seed, **kwargs)
            dt = time.perf_counter() - t0
        times.append(dt)
        traced.append(on)
        if rep_dir is not None:
            saves = manager.saves
            shutil.rmtree(rep_dir, ignore_errors=True)
        snapshot = counters(result)
        digests.append(digest(snapshot))
        if first is None:
            first = snapshot
            checks = check_run(spec, result, saves)
    if patches is not None:
        patches.off()

    from repro.arrays.kernel_store import get_kernel_store
    from repro.memsys import resolve_backend
    out = {
        "times": times,
        "traced": traced,
        "transactions": spec["transactions"],
        "digests": digests,
        "counters": first,
        "failed_checks": [name for name, ok in checks if not ok],
        "checks": len(checks),
        "rss_mb": self_peak_rss_mb(),
        "backend": resolve_backend(spec["engine"]["backend"]).name,
        "store": get_kernel_store().stats(),
    }
    if tracer is not None:
        tracer.write_jsonl(args.trace)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
