"""Command-line interface: the library's analyses without writing code.

Subcommands::

    python -m repro.cli reproduce [--out DIR]      all paper figures
    python -m repro.cli psi --ecd-nm 35 [...]      coupling-factor sweep
    python -m repro.cli design --ecds-nm 25,35,45  design-space table
    python -m repro.cli wer --vp 0.95 [...]        write-error pulse sizing
    python -m repro.cli memsys --pitch-nm 70 [...] system-level UBER
    python -m repro.cli worker --spool DIR         distributed-sweep worker
    python -m repro.cli fleet --spool DIR          worker-fleet supervisor
    python -m repro.cli serve --socket PATH        reliability-query service
    python -m repro.cli query uber --socket PATH   ask a running service
    python -m repro.cli cache info|clear|warm      on-disk kernel cache
    python -m repro.cli model-card --out DIR       compact-model export

Stochastic subcommands (``wer``, ``memsys``) accept ``--seed N``; every
random draw of the run flows from that one ``numpy.random.Generator``,
so identical invocations print identical numbers.

``memsys`` additionally accepts ``--preset stress|macro-512|chip-1024``
— large-geometry operating points that bundle array size, traffic
volume, and write-error trim (the class-grouped binomial sampler draws
flip counts per coupling class, so ``nominal_wer <= 1e-6`` runs cost
O(flips), not one uniform per cell). ``--checkpoint DIR`` makes the
Monte-Carlo run crash-tolerant (atomic, checksummed snapshots at batch
boundaries; ``--checkpoint-every N`` sets the cadence in transactions)
and ``--resume`` continues a killed run mid-stream, byte-identical to the
uninterrupted seeded run.

``fleet`` supervises a pool of ``repro worker`` processes against a
spool directory: it spawns workers when queue-depth x chunk-cost
exceeds ``--latency-target``, restarts crashes with exponential
backoff, and retires the fleet after ``--idle-grace`` seconds of empty
spool (see :mod:`repro.resilience.supervisor`).

Sweep-shaped subcommands (``reproduce``, ``design``, ``memsys``) accept
``--jobs N`` to fan the underlying :mod:`repro.sweep` grid out over N
workers; results are identical to the serial run. ``--executor`` picks
the executor explicitly (``serial`` runs in process; ``process`` forks
workers that run contiguous chunks of points; ``distributed`` ships
the same chunks over a spool-directory job queue that ``repro worker``
processes — started on any host sharing the
``REPRO_SWEEP_SPOOL`` directory — serve, warm-started from a shared
``REPRO_KERNEL_CACHE``). Without ``--executor`` one rule picks
(:func:`repro.sweep.executor_for_jobs`): ``REPRO_SWEEP_EXECUTOR``
first; then, with ``REPRO_SWEEP_SPOOL`` set, ``distributed`` for grids
of at least 64 work units; then ``--jobs N`` alone keeps grids of at
most 32 work units serial and forks a process pool for larger ones. A
work unit is one point, or ``max(1, rows * cols // 65536)`` for one
array point of a ``memsys`` pitch sweep. A banked ``memsys`` run on
``serial`` advances every shard stacked in one run.

``cache`` manages the persistent kernel cache that the
``REPRO_KERNEL_CACHE`` environment variable enables: ``info`` inspects
it, ``clear`` deletes it, ``warm`` precomputes the coupling kernels of
a geometry x pitch grid so later sweeps start warm.
"""

from __future__ import annotations

import argparse
import sys

from .errors import RunIdentityError
from .units import nm_to_m, oe_to_am


def _generator(args):
    """The run's shared RNG; ``--seed`` makes the output reproducible."""
    import numpy as np
    return np.random.default_rng(args.seed)


def _cmd_reproduce(args):
    from .experiments.runner import main as runner_main
    argv = [args.out] if args.out else []
    if args.jobs:
        argv += ["--jobs", str(args.jobs)]
    if args.executor:
        argv += ["--executor", args.executor]
    return runner_main(argv)


def _cmd_psi(args):
    import numpy as np

    from .core.psi import psi_threshold_pitch, psi_vs_pitch
    from .reporting import ascii_plot
    ecd = nm_to_m(args.ecd_nm)
    hc = oe_to_am(args.hc_oe)
    pitches = np.linspace(args.ratio_min * ecd, nm_to_m(args.pitch_max_nm),
                          args.points)
    psi = psi_vs_pitch(ecd, pitches, hc)
    print(ascii_plot({"Psi": (pitches * 1e9, psi * 100.0)},
                     title=f"Psi vs pitch (eCD={args.ecd_nm:g} nm)",
                     x_label="pitch (nm)", y_label="Psi (%)"))
    threshold = psi_threshold_pitch(ecd, hc, psi_target=args.target)
    print(f"\nPsi = {args.target * 100:g}% at pitch = "
          f"{threshold * 1e9:.1f} nm")
    return 0


def _cmd_design(args):
    from .apps import DESIGN_HEADERS, DesignSpaceExplorer
    from .device import PAPER_EVAL_DEVICE
    from .reporting import format_table
    ecds = [nm_to_m(float(v)) for v in args.ecds_nm.split(",")]
    ratios = [float(v) for v in args.ratios.split(",")]
    explorer = DesignSpaceExplorer(PAPER_EVAL_DEVICE,
                                   probe_voltage=args.vp)
    points = explorer.sweep(ecds, ratios, jobs=args.jobs,
                            executor=args.executor)
    print(format_table(DESIGN_HEADERS, [p.row() for p in points],
                       float_format=".3g"))
    return 0


def _cmd_wer(args):
    from .apps import WriteErrorModel
    from .arrays.pattern import ALL_AP, ALL_P
    from .arrays.victim import VictimAnalysis
    from .device import MTJDevice, PAPER_EVAL_DEVICE
    from .reporting import format_table
    device = MTJDevice(PAPER_EVAL_DEVICE)
    model = WriteErrorModel(device)
    rng = _generator(args)
    rows = []
    for ratio in (3.0, 2.0, 1.5):
        victim = VictimAnalysis(device, ratio * device.params.ecd)
        hz_worst = victim.hz_total(ALL_P)
        pulse = model.pulse_for_wer(args.target, args.vp, hz_worst)
        penalty = pulse - model.pulse_for_wer(args.target, args.vp,
                                              victim.hz_total(ALL_AP))
        # The class-grouped binomial draw: each stress corner is one
        # class of n_samples exchangeable write attempts, so the whole
        # column costs one count draw per row instead of the retired
        # per-sample angle loop.
        sampled = model.sample_wer(pulse, args.vp, hz_worst,
                                   n_samples=args.samples, rng=rng)
        rows.append((f"{ratio:g}x", pulse * 1e9, penalty * 1e9, sampled))
    print(format_table(
        ["pitch", f"pulse for WER={args.target:g} (ns)",
         "pattern penalty (ns)", "sampled WER"], rows,
        float_format=".3g"))
    return 0


#: Large-geometry presets for ``repro memsys``. Each bundles the array
#: size, traffic volume, and write-error trim of a realistic operating
#: point; the dense presets skip the expectation-mode pitch sweep,
#: which scales with the cell count. Explicit flags override preset
#: values.
MEMSYS_PRESETS = {
    "stress": dict(rows=64, cols=64, transactions=100_000,
                   nominal_wer=2e-3, pattern="checkerboard"),
    "macro-512": dict(rows=512, cols=512, transactions=500_000,
                      nominal_wer=1e-6, pattern="read-heavy",
                      no_sweep=True),
    "chip-1024": dict(rows=1024, cols=1024, transactions=1_000_000,
                      nominal_wer=1e-6, pattern="read-heavy",
                      no_sweep=True, topology="banked", banks=4,
                      subarrays=4),
}

#: Baseline values of every preset-controlled ``memsys`` flag. The
#: parser leaves these flags at ``None`` so an explicit flag — even one
#: spelling out the baseline value — is distinguishable from an absent
#: one; :func:`_apply_memsys_preset` resolves the precedence.
_MEMSYS_DEFAULTS = dict(rows=64, cols=64, transactions=50_000,
                        nominal_wer=2e-3, pattern="random",
                        no_sweep=False, topology=None, banks=1,
                        subarrays=1)


def _apply_memsys_preset(args):
    """Resolve preset-controlled flags: explicit > preset > baseline."""
    preset = MEMSYS_PRESETS[args.preset] if args.preset else {}
    for key, baseline in _MEMSYS_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, preset.get(key, baseline))


def _cmd_memsys(args):
    from .device import MTJDevice, PAPER_EVAL_DEVICE
    from .memsys import ScrubPolicy, build_engine, uber_sweep
    from .memsys.sweeps import SWEEP_HEADERS
    from .memsys.topology import TopologyEngine
    from .reporting import format_table
    _apply_memsys_preset(args)
    device = MTJDevice(PAPER_EVAL_DEVICE)
    rng = _generator(args)
    scrub = (ScrubPolicy(args.scrub_interval)
             if args.scrub_interval else None)
    # build_engine infers the organization when --topology is absent:
    # flat for 1x1, banked when --banks/--subarrays shard the array.
    topology_kwargs = dict(topology=args.topology, banks=args.banks,
                           subarrays=args.subarrays)
    engine = build_engine(
        device, pitch=nm_to_m(args.pitch_nm), rows=args.rows,
        cols=args.cols, ecc=args.ecc, workload=args.pattern,
        scrub=scrub, vp=args.vp, nominal_wer=args.nominal_wer,
        read_voltage=args.read_voltage, backend=args.backend,
        **topology_kwargs)
    config = engine.controller.describe()
    print(f"memsys: {args.rows}x{args.cols} array at "
          f"{args.pitch_nm:g} nm pitch, {args.pattern} traffic, "
          f"{args.ecc} ECC ({engine.backend.name} backend), write "
          f"pulses trimmed to {config['t_pulse0_ns']:.1f}/"
          f"{config['t_pulse1_ns']:.1f} ns "
          f"(nominal WER {args.nominal_wer:g})")
    if isinstance(engine, TopologyEngine):
        topo = engine.topology
        print(f"topology: {topo.kind}, {topo.banks} banks x "
              f"{topo.subarrays} subarrays "
              f"({topo.sub_rows}x{topo.sub_cols} cells per shard, "
              f"{topo.n_shards} independent shards)")
    print()
    manager = None
    run_kwargs = {}
    if args.resume and not args.checkpoint:
        print("--resume needs --checkpoint DIR")
        return 2
    if args.checkpoint:
        from .resilience import CheckpointManager
        manager = CheckpointManager(args.checkpoint)
        run_kwargs = dict(checkpoint=manager,
                          checkpoint_every=args.checkpoint_every,
                          resume=args.resume)
    try:
        if isinstance(engine, TopologyEngine):
            result = engine.run(args.transactions, rng=rng,
                                profile=args.profile,
                                executor=args.executor, jobs=args.jobs,
                                **run_kwargs)
        else:
            result = engine.run(args.transactions, rng=rng,
                                profile=args.profile, **run_kwargs)
    except RunIdentityError as exc:
        print(f"resume refused: {exc}")
        print("pass a fresh --checkpoint directory (or drop --resume) "
              "to start over")
        return 2
    if manager is not None:
        ck = manager.stats()
        line = (f"checkpoints: {ck['directory']} "
                f"({ck['saves']} save(s)")
        for label in ("save_failures", "corrupt_fallbacks"):
            if ck[label]:
                line += f", {ck[label]} {label.replace('_', ' ')}"
        print(line + ")")
        print()
    headers, rows = result.summary_rows()
    print(format_table(headers, rows))
    print()
    if args.profile:
        profile = result.extras["profile"]
        total = profile.get("total") or 0.0
        print("phase wall-time breakdown "
              f"({engine.backend.name} backend):")
        prof_rows = [
            (phase, f"{seconds:.3f}",
             f"{100.0 * seconds / total:.1f}%" if total else "-")
            for phase, seconds in profile.items() if phase != "total"]
        prof_rows.append(("total", f"{total:.3f}", "100.0%"))
        print(format_table(["phase", "seconds", "share"], prof_rows))
        print()

    sweep = None
    if args.no_sweep:
        print("pitch sweep skipped (--no-sweep)")
    else:
        seed = 0 if args.seed is None else args.seed
        sweep = uber_sweep(device, rows=args.rows, cols=args.cols,
                           seed=seed, jobs=args.jobs,
                           executor=args.executor, vp=args.vp,
                           nominal_wer=args.nominal_wer,
                           read_voltage=args.read_voltage,
                           backend=args.backend,
                           **topology_kwargs)
        print("pitch sweep (expectation mode; UBER of the worst-case "
              "data pattern rises as pitch shrinks):")
        print(format_table(SWEEP_HEADERS, sweep.rows,
                           float_format=".3e"))
        print()
        comp_headers, comp_rows = sweep.comparison_table()
        print(format_table(comp_headers, comp_rows, float_format=".3g"))

    if args.out:
        from .experiments.runner import export
        from .reporting import write_json
        import dataclasses
        if sweep is not None:
            export(sweep, args.out)
        run_payload = dataclasses.asdict(result)
        run_payload.update(raw_ber=result.raw_ber, uber=result.uber,
                           word_fail_rate=result.word_fail_rate)
        import os
        path = write_json(os.path.join(args.out, "memsys_run.json"),
                          run_payload)
        suffix = "" if sweep is None else " and memsys_sweep.*"
        print(f"\nwrote {path}{suffix} to {args.out}")
    return 0


def _cmd_worker(args):
    from .sweep.distributed import run_worker
    return run_worker(spool=args.spool, worker_id=args.id,
                      poll=args.poll, max_idle=args.max_idle,
                      timeout=args.timeout)


def _cmd_fleet(args):
    from .resilience.supervisor import run_fleet
    return run_fleet(spool=args.spool,
                     latency_target=args.latency_target,
                     chunk_cost=args.chunk_cost,
                     min_workers=args.min_workers,
                     max_workers=args.max_workers,
                     idle_grace=args.idle_grace, poll=args.poll,
                     duration=args.duration,
                     until_idle=args.until_idle)


def _cmd_cache(args):
    import os

    from .arrays.kernel_disk import KERNEL_CACHE_ENV, DiskKernelCache
    from .arrays.kernel_store import get_kernel_store

    directory = args.dir or os.environ.get(KERNEL_CACHE_ENV)
    if not directory:
        print(f"no kernel cache configured: pass --dir or set "
              f"{KERNEL_CACHE_ENV}")
        return 1
    disk = DiskKernelCache(directory)

    if args.action == "info":
        info = disk.describe()
        print(f"kernel cache at {info['directory']}")
        print(f"  schema      v{info['schema']}")
        print(f"  entries     {info['entries']}")
        print(f"  size        {info['size_bytes']} bytes")
        print(f"  valid       {info['valid']}")
        if not info["valid"]:
            print(f"  error       {info['error']}")
        return 0

    if args.action == "clear":
        removed = disk.clear()
        print(f"removed {removed} cache file(s) from {disk.directory}")
        return 0

    # warm: precompute the 3x3 + extended-window kernels of the grid.
    from .arrays.coupling import InterCellCoupling
    from .arrays.extended import ExtendedNeighborhood
    from .stack import build_reference_stack

    store = get_kernel_store()
    previous = store.disk
    previous_from_env = store.disk_from_env
    entries_before = disk.describe()["entries"]   # 0 if absent/corrupt
    store.attach_disk(disk)
    try:
        # Drop in-memory entries so every grid kernel is either
        # recomputed (and queued for the disk) or served by the disk
        # itself — a store that happens to be warm in memory must not
        # leave the file cold.
        store.clear()
        ecds = [nm_to_m(float(v)) for v in args.ecds_nm.split(",")]
        ratios = [float(v) for v in args.ratios.split(",")]
        for ecd in ecds:
            stack = build_reference_stack(ecd)
            for ratio in ratios:
                pitch = ratio * ecd
                InterCellCoupling(stack, pitch).kernels()
                ExtendedNeighborhood(stack, pitch,
                                     order=args.order).kernels()
        store.flush_disk()
        # Write failures (mid-warm autoflushes included) are swallowed
        # into this counter, and a pre-populated cache can look healthy
        # even when the warm persisted nothing — capture it while still
        # attached. (Read-side fallbacks, e.g. warming over a corrupt
        # file this warm then replaces, are not failures.)
        write_failed = store.stats().get("disk_write_failures", 0) > 0
    finally:
        if previous is None:
            store.detach_disk()
        else:
            store.attach_disk(previous, _from_env=previous_from_env)
    post = DiskKernelCache(directory).describe()
    # Report new kernels as the on-disk delta — mid-warm autoflushes
    # mean the final flush's count alone would under-report.
    print(f"warmed {len(ecds)} eCD(s) x {len(ratios)} pitch ratio(s) "
          f"(order {args.order}): "
          f"{max(post['entries'] - entries_before, 0)} new kernel(s) "
          f"written, {post['entries']} on disk")
    if write_failed or not post["valid"] or post["entries"] == 0:
        print(f"cache warm failed: "
              f"{post.get('error', 'no kernels persisted')}")
        return 1
    return 0


def _cmd_serve(args):
    from .service.server import serve_main
    if args.socket is None and args.port is None:
        print("pass --socket PATH or --port N to pick a listen "
              "address")
        return 2
    return serve_main(path=args.socket, host=args.host,
                      port=args.port, capacity=args.cache_size,
                      memo_ttl=args.memo_ttl, stale_ttl=args.stale_ttl)


def _print_report(report, as_json):
    import json

    if as_json:
        print(json.dumps(report.to_record(), indent=2, sort_keys=True))
        return
    counts = report.counts()
    for check in report.checks:
        mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}
        line = f"  {mark[check.status]}  {check.name}"
        if check.detail:
            line += f": {check.detail}"
        print(line)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict}  {report.subject}  ({counts['pass']} ok, "
          f"{counts['fail']} failed, {counts['skipped']} skipped)")


def _cmd_audit(args):
    import os

    from .integrity import (AuditReport, audit_cache_dir,
                            audit_checkpoint_dir, audit_spool_run,
                            cross_backend_canary)
    from .sweep.distributed import SWEEP_SPOOL_ENV, SpoolRun

    reports = []
    run_dirs = list(args.run or ())
    spool = args.spool or (os.environ.get(SWEEP_SPOOL_ENV)
                           if not (run_dirs or args.checkpoint
                                   or args.cache or args.canary)
                           else None)
    if spool:
        if not (os.path.isdir(spool) and os.access(spool, os.R_OK)):
            print(f"spool {spool!r} is not a readable directory")
            return 2
        run_dirs.extend(run.path for run in SpoolRun.runs(spool))
    for run_dir in run_dirs:
        reports.append(audit_spool_run(run_dir, sample=args.sample,
                                       seed=args.seed))
    if args.checkpoint:
        reports.append(audit_checkpoint_dir(args.checkpoint))
    if args.cache:
        reports.append(audit_cache_dir(args.cache))
    if args.canary:
        canary = AuditReport("cross-backend canary")
        check = cross_backend_canary(seed=args.seed)
        canary.checks.append(check)
        reports.append(canary)
    if not reports:
        print("nothing to audit: pass --spool/--run/--checkpoint/"
              "--cache/--canary (preserved spool runs need "
              "REPRO_SWEEP_KEEP_RUNS=1)")
        return 2
    for report in reports:
        _print_report(report, args.json)
    return 0 if all(report.passed for report in reports) else 1


def _cmd_spool(args):
    import json
    import os

    from .integrity import fsck_spool, list_quarantine
    from .sweep.distributed import SWEEP_SPOOL_ENV

    spool = args.spool or os.environ.get(SWEEP_SPOOL_ENV)
    if not spool:
        print(f"no spool given: pass --spool DIR or set "
              f"{SWEEP_SPOOL_ENV}")
        return 2

    if args.action == "ls-quarantine":
        records = list_quarantine(spool)
        if args.json:
            print(json.dumps(records, indent=2, sort_keys=True))
            return 0
        if not records:
            print(f"no quarantine records under {spool}")
            return 0
        for record in records:
            if record.get("legacy"):
                print(f"  {record['name']}  {record['bytes']} bytes  "
                      f"(legacy pickle record, not deserialized)")
            elif record.get("unreadable"):
                print(f"  {record['name']}  {record['bytes']} bytes  "
                      f"(unreadable)")
            else:
                print(f"  {record['name']}  chunk {record['chunk']}  "
                      f"{record['attempts']} attempt(s)  "
                      f"{record['error_type']}: {record['error']}")
        print(f"{len(records)} quarantine record(s) under {spool}")
        return 0

    findings = fsck_spool(spool, repair=args.repair)
    if args.json:
        print(json.dumps([f.to_record() for f in findings],
                         indent=2, sort_keys=True))
    else:
        for finding in findings:
            mark = "repaired" if finding.repaired else "found   "
            print(f"  {mark}  {finding.kind}  {finding.path}"
                  + (f": {finding.detail}" if finding.detail else ""))
        repaired = sum(1 for f in findings if f.repaired)
        print(f"fsck {spool}: {len(findings)} finding(s), "
              f"{repaired} repaired")
    return 0 if all(f.repaired for f in findings) else 1


def _cmd_query(args):
    import json

    from .errors import ServiceError
    from .service.client import ServiceClient

    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        print(f"--params is not valid JSON: {exc}")
        return 2
    if not isinstance(params, dict):
        print("--params must be a JSON object")
        return 2

    def on_progress(event):
        print(f"progress {event.get('done')}/{event.get('total')}",
              file=sys.stderr, flush=True)

    try:
        with ServiceClient(path=args.socket, host=args.host,
                           port=args.port,
                           timeout=args.timeout) as client:
            event = client.request({"op": args.op, **params},
                                   on_progress=on_progress)
    except ServiceError as exc:
        print(f"query failed: {exc}")
        return 1
    print(json.dumps(event, indent=2, sort_keys=True))
    return 0 if event.get("ok") else 1


def _cmd_model_card(args):
    from .device import MTJDevice, PAPER_EVAL_DEVICE
    from .device.compact import export_model_card
    device = MTJDevice(PAPER_EVAL_DEVICE)
    paths = export_model_card(device, args.out, name=args.name)
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser():
    """The argparse parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STT-MRAM magnetic coupling analyses (DATE 2020 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    from .sweep import add_sweep_arguments

    p = sub.add_parser("reproduce", help="regenerate all paper figures")
    p.add_argument("--out", default=None,
                   help="directory for CSV/JSON exports")
    add_sweep_arguments(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("psi", help="coupling factor vs pitch")
    p.add_argument("--ecd-nm", type=float, default=35.0)
    p.add_argument("--hc-oe", type=float, default=2200.0)
    p.add_argument("--ratio-min", type=float, default=1.5)
    p.add_argument("--pitch-max-nm", type=float, default=200.0)
    p.add_argument("--points", type=int, default=40)
    p.add_argument("--target", type=float, default=0.02)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("design", help="design-space sweep table")
    p.add_argument("--ecds-nm", default="25,35,45")
    p.add_argument("--ratios", default="1.5,2.0,3.0")
    p.add_argument("--vp", type=float, default=0.85)
    add_sweep_arguments(p)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("wer", help="write-error pulse sizing")
    p.add_argument("--vp", type=float, default=0.95)
    p.add_argument("--target", type=float, default=1e-6)
    p.add_argument("--samples", type=int, default=200_000,
                   help="Monte-Carlo draws for the sampled-WER column")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the run's random generator")
    p.set_defaults(func=_cmd_wer)

    p = sub.add_parser(
        "memsys", help="system-level UBER under read/write traffic")
    from .memsys.ecc import ECC_SCHEMES
    from .memsys.traffic import WORKLOADS
    p.add_argument("--pitch-nm", type=float, default=70.0)
    p.add_argument("--pattern", default=None,
                   choices=sorted(WORKLOADS),
                   help="traffic workload "
                        f"(default {_MEMSYS_DEFAULTS['pattern']})")
    p.add_argument("--ecc", default="secded",
                   choices=sorted(ECC_SCHEMES))
    p.add_argument("--rows", type=int, default=None,
                   help=f"default {_MEMSYS_DEFAULTS['rows']}")
    p.add_argument("--cols", type=int, default=None,
                   help=f"default {_MEMSYS_DEFAULTS['cols']}")
    p.add_argument("--topology", default=None,
                   choices=("flat", "banked", "cross-point"),
                   help="array organization: one 'flat' mat "
                        "(default unless --banks/--subarrays shard "
                        "the array, then 'banked'), 'banked' banks x "
                        "subarrays "
                        "(each subarray an independent shard, all "
                        "stacked in one run), or selector-less "
                        "'cross-point' "
                        "with the sneak-path half-select disturb "
                        "term")
    p.add_argument("--banks", type=int, default=None,
                   help="banks tiling the rows (banked/cross-point; "
                        f"default {_MEMSYS_DEFAULTS['banks']})")
    p.add_argument("--subarrays", type=int, default=None,
                   help="subarrays tiling the columns per bank "
                        f"(default {_MEMSYS_DEFAULTS['subarrays']})")
    p.add_argument("--transactions", type=int, default=None,
                   help=f"default {_MEMSYS_DEFAULTS['transactions']}")
    p.add_argument("--vp", type=float, default=0.95)
    p.add_argument("--nominal-wer", type=float, default=None,
                   help="per-polarity write-error trim target "
                        f"(default {_MEMSYS_DEFAULTS['nominal_wer']:g}"
                        ", an accelerated-stress corner; production "
                        "parts trim to <= 1e-6, which the binomial "
                        "sampler reaches at O(flips) cost)")
    p.add_argument("--read-voltage", type=float, default=0.15,
                   help="read bias [V] (default 0.15; raising it "
                        "stresses read disturb and, on cross-point "
                        "arrays, half-select sneak flips)")
    from .memsys.backends import BACKENDS, ENGINE_BACKEND_ENV
    p.add_argument("--backend", default=None,
                   choices=sorted(BACKENDS),
                   help="compute backend of the Monte-Carlo run: "
                        "'numpy' reference or JIT-compiled 'numba' "
                        "(falls back to numpy with a warning when "
                        "numba is missing; default consults "
                        f"{ENGINE_BACKEND_ENV}, then numpy)")
    p.add_argument("--profile", action="store_true",
                   help="print a per-phase wall-time breakdown "
                        "(classify/draw/place/ecc/scrub) after the "
                        "Monte-Carlo run")
    p.add_argument("--preset", default=None,
                   choices=sorted(MEMSYS_PRESETS),
                   help="large-geometry operating points "
                        "(rows/cols/transactions/nominal-wer/pattern "
                        "bundles; explicit flags override)")
    p.add_argument("--no-sweep", action="store_true", default=None,
                   help="skip the expectation-mode pitch sweep after "
                        "the Monte-Carlo run")
    p.add_argument("--scrub-interval", type=float, default=None,
                   help="scrub period in seconds of simulated time")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the run's random generator")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="snapshot run state to this directory at "
                        "batch boundaries (atomic + checksummed), "
                        "making the run crash-tolerant")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N",
                   help="minimum transactions between snapshots "
                        "(default: every batch boundary)")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint DIR; the completed "
                        "run is byte-identical to the uninterrupted "
                        "seeded run (corrupt or swapped checkpoints "
                        "fall back to a clean restart with a warning; "
                        "another run's checkpoint is refused)")
    add_sweep_arguments(p)
    p.add_argument("--out", default=None,
                   help="directory for CSV/JSON exports")
    p.set_defaults(func=_cmd_memsys)

    from .sweep.distributed import add_worker_arguments
    p = sub.add_parser(
        "worker",
        help="serve distributed sweep chunks from a spool directory")
    add_worker_arguments(p)
    p.set_defaults(func=_cmd_worker)

    from .resilience.supervisor import add_fleet_arguments
    p = sub.add_parser(
        "fleet",
        help="supervise a worker fleet against a spool directory "
             "(spawn on demand, restart crashes, retire on idle)")
    add_fleet_arguments(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "cache", help="inspect/clear/warm the on-disk kernel cache")
    p.add_argument("action", choices=("info", "clear", "warm"))
    p.add_argument("--dir", default=None,
                   help="cache directory (default: $REPRO_KERNEL_CACHE)")
    p.add_argument("--ecds-nm", default="35",
                   help="comma-separated eCDs [nm] for `warm`")
    p.add_argument("--ratios", default="1.5,1.75,2.0,2.5,3.0",
                   help="comma-separated pitch/eCD ratios for `warm`")
    p.add_argument("--order", type=int, default=2,
                   help="extended-neighborhood half-width for `warm`")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the long-lived reliability-query service")
    p.add_argument("--socket", default=None,
                   help="unix-socket path to listen on")
    p.add_argument("--host", default=None,
                   help="TCP listen host (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP listen port (0 picks a free one)")
    p.add_argument("--cache-size", type=int, default=256,
                   help="in-memory memo-cache entries (disk tier "
                        "follows $REPRO_KERNEL_CACHE)")
    p.add_argument("--memo-ttl", type=float, default=None,
                   metavar="SECONDS",
                   help="age past which a memoized answer reads as a "
                        "miss (default: never expires)")
    p.add_argument("--stale-ttl", type=float, default=3600.0,
                   metavar="SECONDS",
                   help="degraded mode: with the breaker open, serve "
                        "digest-verified memo entries up to this old, "
                        "tagged 'stale: true' (0 disables; default "
                        "3600)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "audit",
        help="replay-verify run artifacts against their integrity "
             "manifests")
    p.add_argument("--spool", default=None, metavar="DIR",
                   help="audit every preserved run-* directory under "
                        "this spool (default: $REPRO_SWEEP_SPOOL when "
                        "no other target is given)")
    p.add_argument("--run", action="append", default=None,
                   metavar="DIR",
                   help="audit one preserved spool run directory "
                        "(repeatable)")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="audit a checkpoint directory (framed "
                        "checksums + manifest sidecars)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="audit a service results-cache directory "
                        "(memo envelopes)")
    p.add_argument("--canary", action="store_true",
                   help="run the numpy-vs-numba cross-backend canary "
                        "(skipped when numba is unavailable)")
    p.add_argument("--sample", type=int, default=4,
                   help="chunks per run to replay byte-for-byte "
                        "(default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the replay sample (and canary)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable audit records")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "spool",
        help="crash-consistency fsck and quarantine listing for a "
             "sweep spool")
    p.add_argument("action", choices=("fsck", "ls-quarantine"))
    p.add_argument("--spool", default=None, metavar="DIR",
                   help="spool directory (default: $REPRO_SWEEP_SPOOL)")
    p.add_argument("--repair", action="store_true",
                   help="apply fsck repairs (deletions of provably "
                        "redundant state only)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable findings")
    p.set_defaults(func=_cmd_spool)

    from .service.protocol import QUERY_TYPES
    p = sub.add_parser(
        "query", help="ask a running reliability service one question")
    p.add_argument("op", choices=sorted(QUERY_TYPES),
                   help="query type")
    p.add_argument("--socket", default=None,
                   help="unix-socket path of the service")
    p.add_argument("--host", default=None,
                   help="TCP host of the service")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port of the service")
    p.add_argument("--params", default=None,
                   help="JSON object of query parameters, e.g. "
                        "'{\"pitch_nm\": 60, \"ecc\": \"none\"}'")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="socket read timeout in seconds")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("model-card", help="export a compact model")
    p.add_argument("--out", default="model_card")
    p.add_argument("--name", default="mtj_cell")
    p.set_defaults(func=_cmd_model_card)

    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
