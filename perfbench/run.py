"""The benchmark command: one workload, every metric, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc-chip --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``
(host time, untraced); ``--trace 1`` prints its per-layer metrics from a
traced run, plus the tracing overhead against an untraced run of the
same work. Both print a human-readable report first — every metric by
name with its unit and sample count, the environment that produced it,
and the correctness checks — and end with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The program under test is imported from ``src/`` of the checkout only;
the command exits non-zero, without a result line, when that is
missing, and non-zero after its result line when a check failed. See
``perfbench/README.md`` for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (OUT, ROOT, SRC, Child, child_env,  # noqa: E402
                    environment_stamp, last_json_line, median,
                    peak_rss_mb, percentile, pin_own_environment)

WORKLOADS = ("mc-chip", "mc-flat-write", "query-mix")

#: Fresh-process launches per run whose set-up times give ``setup_s``:
#: half before the timed work, the rest after it, so the median samples
#: the machine over the whole run.
SETUP_LAUNCHES = 5

#: Fresh-process imports per run behind each ``import.*`` metric.
IMPORT_PROBES = 3

#: Cycles of the query mix played on each server in a traced run.
TRACE_CYCLES = 6

PY = sys.executable
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class Run:
    """Metrics, sample counts and check outcomes of one benchmark run."""

    def __init__(self):
        self.metrics = {}       # name -> value
        self.samples = {}       # name -> sample count
        self.checks = []        # (name, passed, detail)
        self.attempted = 0
        self.failed_ops = 0
        self.env = None
        self.digest = None      # simulated-counter digest (mc-*)
        self.self_time = []

    def put(self, name, value, n=None):
        self.metrics[name] = value
        if n is not None:
            self.samples[name] = n

    def check(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))

    @property
    def failed(self):
        return self.failed_ops + sum(1 for c in self.checks if not c[1])


# -- shared probes -------------------------------------------------------


def import_probes(run, env):
    """``import.repro_s`` / ``import.client_s``: fresh-process imports."""
    for metric, module in (("import.repro_s", "repro"),
                           ("import.client_s", "repro.service.client")):
        code = ("import time; t = time.perf_counter(); "
                f"import {module}; print(time.perf_counter() - t)")
        samples = []
        for _ in range(IMPORT_PROBES):
            child = Child([PY, "-c", code], env)
            samples.append(float(child.ready_line))
            child.finish(timeout=60)
        run.put(metric, median(samples), len(samples))


# -- Monte-Carlo workloads ------------------------------------------------


def mc_worker(args, workdir, seconds, setup_only=False, trace=None):
    argv = [PY, os.path.join(HERE, "mc.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--tmp", workdir]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--trace", trace]
    child = Child(argv, child_env())
    out = child.finish(timeout=seconds + 150)
    if child.proc.returncode != 0:
        raise RuntimeError(f"mc worker exited {child.proc.returncode}")
    return child.ready_s, (None if setup_only else last_json_line(out))


def check_mc(run, out, label=""):
    digests = out["digests"]
    run.attempted += len(out["times"]) + out["checks"] + 1
    run.check(f"{label}every run of the seed has identical counters",
              len(set(digests)) == 1,
              f"{len(digests)} runs, digest {digests[0]}")
    for name in out["failed_checks"]:
        run.check(label + name, False)
    if not out["failed_checks"]:
        run.check(f"{label}run sanity checks ({out['checks']})", True)


def run_mc(args, run, workdir):
    if args.trace:
        return trace_mc(args, run, workdir)
    def probe():
        return mc_worker(args, workdir, args.seconds, setup_only=True)[0]
    setups = [probe() for _ in range(SETUP_LAUNCHES // 2)]
    ready_s, out = mc_worker(args, workdir, args.seconds)
    setups.append(ready_s)
    setups += [probe() for _ in range(SETUP_LAUNCHES - len(setups))]
    times = out["times"]
    rates = [out["transactions"] / t for t in times]
    run.put("setup_s", median(setups), len(setups))
    run.put("mc_txn_per_s", median(rates), len(rates))
    run.put("peak_rss_mb", out["rss_mb"], 1)
    run.put("op_p50_ms", median(times) * 1e3, len(times))
    run.env = environment_stamp(out["backend"])
    run.digest = out["digests"][0]
    check_mc(run, out)


def trace_mc(args, run, workdir):
    from layers import (engine_layer_metrics, self_time_table,
                        setup_layer_metrics, unattributed_frac)
    from spans import read_jsonl

    import_probes(run, child_env())
    spans_path = os.path.join(workdir, "spans.jsonl")
    _, out = mc_worker(args, workdir, args.seconds, trace=spans_path)
    spans = read_jsonl(spans_path)
    traced = [t for t, on in zip(out["times"], out["traced"]) if on]
    plain = [t for t, on in zip(out["times"], out["traced"]) if not on]
    reps = len(traced)
    for name, value in engine_layer_metrics(spans, reps).items():
        run.put(name, value, reps)
    for name, value in setup_layer_metrics(spans, out["store"]).items():
        run.put(name, value, 1)
    run.put("trace.unattributed_frac", unattributed_frac(spans), reps)
    run.put("trace.overhead_frac", median(traced) / median(plain) - 1.0,
            len(out["times"]))
    run.env = environment_stamp(out["backend"])
    run.self_time = self_time_table(spans)
    run.digest = out["digests"][0]
    check_mc(run, out)


# -- query mix ---------------------------------------------------------------


def start_server(workdir, tag, traced=False):
    """A ``repro serve`` subprocess on a fresh socket and cache dir."""
    base = tempfile.mkdtemp(dir=workdir, prefix=f"{tag}-")
    sock = os.path.relpath(os.path.join(base, "s.sock"), ROOT)
    env = child_env({"REPRO_KERNEL_CACHE": os.path.join(base, "cache")})
    if traced:
        spans = os.path.join(base, "spans.jsonl")
        argv = [PY, os.path.join(HERE, "serve_traced.py"), "--socket",
                sock, "--spans", spans]
    else:
        spans = None
        argv = [PY, "-m", "repro.cli", "serve", "--socket", sock]
    child = Child(argv, env)
    child.sock, child.env, child.spans = sock, env, spans
    child.cache_dir = os.path.join(base, "cache")
    return child


def dir_bytes(path):
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def stop_server(run, server, label=""):
    code = server.stop()
    run.check(f"{label}server drained and exited cleanly on SIGTERM",
              code == 0, f"exit code {code}")


def check_stats(run, stats, client, label=""):
    """Server-side counters must agree with what the client saw."""
    bad = {k: stats[k] for k in ("shed", "deadline_exceeded", "degraded")
           if stats[k]}
    errors = {op: e["errors"] for op, e in stats["endpoints"].items()
              if e["errors"]}
    run.check(f"{label}no query shed, timed out, degraded or errored "
              f"server-side", not bad and not errors, f"{bad} {errors}")
    from querymix import BURST
    bursts = len(client.latencies["burst"])
    run.check(f"{label}coalescer joined exactly the burst duplicates",
              stats["coalesce"]["joined"] == bursts * (BURST - 1),
              f"joined {stats['coalesce']['joined']}")
    run.check(f"{label}sampled queries ran on the numpy backend",
              client.backends == {"numpy"}, str(client.backends))
    run.attempted += 3


def run_query_mix(args, run, workdir):
    pin_own_environment()
    from querymix import MIN_CYCLES, MixClient, build_mix, cross_check
    if args.trace:
        return trace_query_mix(args, run, workdir)

    def probe():
        server = start_server(workdir, "probe")
        server.stop()
        return server.ready_s
    setups = [probe() for _ in range(SETUP_LAUNCHES // 2)]
    server = start_server(workdir, "server")
    setups.append(server.ready_s)
    mix = build_mix(args.seed, MIN_CYCLES * 10)
    client = MixClient(server.sock, server.env)
    try:
        t0 = time.perf_counter()
        cycles = 0
        while cycles < len(mix) and (
                cycles < MIN_CYCLES
                or time.perf_counter() - t0 < args.seconds):
            client.run_cycle(mix[cycles])
            cycles += 1
        stats = client.stats()
        rss = peak_rss_mb(server.proc.pid)
    finally:
        client.close()
        stop_server(run, server)
    setups += [probe() for _ in range(SETUP_LAUNCHES - len(setups))]
    run.attempted += client.attempted
    run.failed_ops += len(client.failures)
    for failure in client.failures[:10]:
        run.check(failure, False)
    check_stats(run, stats, client)
    failures, checked = cross_check(client.cold, args.seed)
    run.attempted += checked
    run.check(f"service answers equal direct library calls "
              f"({checked} checked)", not failures, "; ".join(failures))

    lat = client.latencies
    every = [t for kind in lat for t in lat[kind]]
    run.put("setup_s", median(setups), len(setups))
    run.put("mc_txn_per_s", median(client.sampled_rates),
            len(client.sampled_rates))
    run.put("peak_rss_mb", rss, 1)
    run.put("op_p50_ms", median(every) * 1e3, len(every))
    for name, kind, q, scale in (
            ("query_hit_p50_ms", "hit", 0.50, 1e3),
            ("query_hit_p99_ms", "hit", 0.99, 1e3),
            ("query_miss_p50_ms", "miss", 0.50, 1e3),
            ("query_miss_p95_ms", "miss", 0.95, 1e3),
            ("query_sampled_p50_ms", "sampled", 0.50, 1e3),
            ("coalesce_burst_p50_ms", "burst", 0.50, 1e3),
            ("cli_query_p50_s", "cli", 0.50, 1.0)):
        value = percentile(lat[kind], q)
        run.put(name, None if value is None else value * scale,
                len(lat[kind]))
    run.put("sweep_points_per_s", percentile(client.sweep_rates, 0.5),
            len(client.sweep_rates))
    run.put("cycles", cycles)
    run.env = environment_stamp(",".join(sorted(client.backends)))


def trace_query_mix(args, run, workdir):
    from layers import (engine_layer_metrics, self_time_table,
                        service_layer_metrics, setup_layer_metrics,
                        unattributed_frac)
    from querymix import MixClient, build_mix
    from spans import Tracer, read_jsonl

    import_probes(run, child_env())
    cycles = build_mix(args.seed, TRACE_CYCLES)
    tracer = Tracer()
    plain_server = start_server(workdir, "plain")
    server = start_server(workdir, "traced", traced=True)
    # Both servers stay up; the client plays every cycle on each, in the
    # order P T T P ..., one request at a time, so the idle server costs
    # nothing and drift in machine speed hits both alike.
    plain = MixClient(plain_server.sock, plain_server.env)
    client = MixClient(server.sock, server.env, tracer=tracer)
    elapsed = {id(plain): 0.0, id(client): 0.0}
    try:
        for k, ops in enumerate(cycles):
            for d in ((plain, client) if k % 2 == 0 else (client, plain)):
                t0 = time.perf_counter()
                d.run_cycle(ops, with_cli=False)
                elapsed[id(d)] += time.perf_counter() - t0
        stats = client.stats()
        disk = dir_bytes(server.cache_dir)
    finally:
        plain.close()
        client.close()
        stop_server(run, plain_server, "untraced: ")
        stop_server(run, server, "traced: ")
    for label, d in (("untraced: ", plain), ("traced: ", client)):
        run.attempted += d.attempted
        run.failed_ops += len(d.failures)
        for failure in d.failures[:10]:
            run.check(label + failure, False)
    check_stats(run, stats, client, "traced: ")
    spans = read_jsonl(server.spans)

    n = len(cycles)
    for name, value in engine_layer_metrics(spans, n).items():
        run.put(name, value, n)
    for name, value in setup_layer_metrics(
            spans, stats["kernel_store"], n).items():
        run.put(name, value, n)
    for name, value in service_layer_metrics(spans, n).items():
        run.put(name, value, n)
    cache = stats["cache"]
    run.put("cache.hits", cache["hits"] / n, n)
    run.put("cache.misses", cache["misses"] / n, n)
    run.put("cache.hit_ratio",
            cache["hits"] / max(cache["hits"] + cache["misses"], 1), n)
    run.put("cache.disk_bytes", disk / n, n)
    run.put("coalesce.runs_started",
            stats["coalesce"]["runs_started"] / n, n)
    run.put("coalesce.joined", stats["coalesce"]["joined"] / n, n)
    uber = stats["endpoints"]["uber"]
    run.put("server.handle_ms", uber["latency"]["p50_ms"],
            min(uber["count"], 512))
    handled = {s["trace"]: s["end"] - s["start"] for s in spans
               if s["name"] == "server.request"}
    gaps = [(s["end"] - s["start"] - handled[s["trace"]]) * 1e3
            for s in tracer.records()
            if s["name"] == "client.hit" and s["trace"] in handled]
    run.put("socket.overhead_ms", median(gaps), len(gaps))
    run.put("trace.unattributed_frac", unattributed_frac(spans),
            len(handled))
    run.put("trace.overhead_frac",
            elapsed[id(client)] / elapsed[id(plain)] - 1.0, n)
    run.env = environment_stamp(",".join(sorted(client.backends)))
    run.self_time = self_time_table(spans)


# -- report ------------------------------------------------------------------


def fmt(value):
    if value is None:
        return "n/a (too few samples)"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(args, run, wanted, units):
    print(f"perfbench {args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    env = run.env or {}
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if run.digest:
        print(f"simulated-counter digest: {run.digest}")
    print(f"{'metric':<28} {'value':>22}  {'unit':<8} samples")
    for name in list(wanted) + [k for k in run.metrics
                                if k not in wanted]:
        if name not in run.metrics:
            continue
        unit = units.get(name, REPORT_UNITS.get(name, ""))
        n = run.samples.get(name, "")
        print(f"{name:<28} {fmt(run.metrics[name]):>22}  {unit:<8} {n}")
    if run.self_time:
        print("self time by span (traced run):")
        print(f"  {'span':<20} {'count':>8} {'total_s':>10} "
              f"{'self_s':>10} {'share':>7}")
        for name, count, total, own, share in run.self_time:
            print(f"  {name:<20} {count:>8} {total:>10.4f} {own:>10.4f} "
                  f"{share:>7.3f}")
    passed = sum(1 for c in run.checks if c[1])
    print(f"checks: {passed}/{len(run.checks)} passed; "
          f"{run.failed} failed of {run.attempted} attempted")
    for name, ok, detail in run.checks:
        if not ok:
            print(f"  FAIL {name}" + (f": {detail}" if detail else ""))


#: Units of report-only metrics (the ones not in ``BENCHMARK.json``).
REPORT_UNITS = {
    "query_hit_p50_ms": "ms", "query_hit_p99_ms": "ms",
    "query_miss_p50_ms": "ms", "query_miss_p95_ms": "ms",
    "query_sampled_p50_ms": "ms", "coalesce_burst_p50_ms": "ms",
    "cli_query_p50_s": "s", "sweep_points_per_s": "1/s",
    "failed_frac": "ratio", "cycles": "count",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under test at {SRC}/repro; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    wanted = [m["name"] for m in section]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    run = Run()
    try:
        if args.workload == "query-mix":
            run_query_mix(args, run, workdir)
        else:
            run_mc(args, run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if run.env and run.env.get("backend") != "numpy":
        run.check("engine backend resolved to numpy", False,
                  str(run.env.get("backend")))
    for name in wanted:
        if name not in run.metrics:
            run.put(name, 0.0)
    missing = [n for n, v in run.metrics.items() if v is None]
    if missing:
        run.check("every metric has enough samples", False,
                  ", ".join(missing))
    run.put("failed_frac", run.failed / max(run.attempted, 1),
            run.attempted)
    report(args, run, wanted, units)
    correct = run.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": run.env, "metrics": run.metrics,
        "samples": run.samples,
        "checks": [list(c) for c in run.checks],
        "self_time": run.self_time,
    }
    with open(os.path.join(OUT, f"last-{args.workload}-trace"
                                f"{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name] or 0.0,
                           "unit": units[name]} for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
