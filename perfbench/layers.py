"""Span wrappers around the program's layer boundaries.

The traced run calls :func:`install_engine_layers` (every process that
runs the Monte-Carlo engine, kernels, controller or sweeps) and, in the
query server, :func:`install_service_layers`. Each replaces a function
or method of the imported ``repro`` modules with a wrapper that records
a span and then calls the original; the program's files are unchanged,
and :class:`Patches` can put every original back.

Where a module bound a function by name at import time (``from
.sampling import sample_class_flips``), the wrapper is installed on
that module's name too, because that is the name the caller looks up.

The ``*_layer_metrics`` functions turn the recorded spans into the
per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json

from spans import attr_sum, outermost, self_times, summarize

#: Span names whose self time is work no child layer accounts for: the
#: timed operation itself, the engine's batch loop and per-round glue,
#: and the server's request handling. Their share of the root time is the unattributed
#: share reported per workload.
RESIDUAL = ("op", "engine.run", "engine.round", "server.request")


class Patches:
    """The wrappers installed on the program, switchable on and off.

    Switching off restores every original, so an untraced stretch of
    the same process pays nothing for the wrappers; switching on again
    re-installs the same wrapper objects.
    """

    def __init__(self):
        self._entries = []    # (setter, original, wrapped)
        self._wrapped = {}    # (id(owner), attr) -> wrapped

    def _add(self, setter, original, wrapped):
        self._entries.append((setter, original, wrapped))
        setter(wrapped)

    def patch(self, owner, attr, wrapper_for):
        """Replace ``owner.attr`` with ``wrapper_for(original)``."""
        wrapped = wrapper_for(getattr(owner, attr))
        self._wrapped[(id(owner), attr)] = wrapped
        self._add(lambda value: setattr(owner, attr, value),
                  getattr(owner, attr), wrapped)

    def patch_item(self, mapping, key, wrapper_for):
        """Replace ``mapping[key]`` with ``wrapper_for(original)``."""
        self._add(lambda value: mapping.__setitem__(key, value),
                  mapping[key], wrapper_for(mapping[key]))

    def share(self, owner, attr, source, source_attr):
        """Point ``owner.attr`` at the wrapper already installed on
        ``source.source_attr`` (for a module that bound the function
        by name at import time)."""
        self._add(lambda value: setattr(owner, attr, value),
                  getattr(owner, attr),
                  self._wrapped[(id(source), source_attr)])

    def on(self):
        for setter, _, wrapped in self._entries:
            setter(wrapped)

    def off(self):
        for setter, original, _ in reversed(self._entries):
            setter(original)


def _n_flips(result):
    return {"flips": int(len(result))}


def install_engine_layers(tracer, patches):
    """Wrap the memsys, kernel, checkpoint and sweep layers."""
    import repro.memsys as memsys
    from repro.arrays.kernel_store import KernelStore
    from repro.memsys import engine, sampling, sweeps, topology, traffic
    from repro.memsys.ecc import HammingSECDED, NoECC
    from repro.memsys.scrub import ScrubPolicy
    from repro.resilience.checkpoint import CheckpointManager
    from repro.resilience.shims import FileSystem

    wrap = tracer.wrap
    patch = patches.patch

    patch(engine, "build_engine", lambda f: wrap(f, "engine.build"))
    for module in (memsys, topology, sweeps):
        patches.share(module, "build_engine", engine, "build_engine")
    patch(sweeps, "uber_sweep",
          lambda f: wrap(f, "sweep.run",
                         attrs=lambda r: {"points": len(r.rows)}))
    patches.share(memsys, "uber_sweep", sweeps, "uber_sweep")

    patch(KernelStore, "kernel_batch", lambda f: wrap(f, "kernels.batch"))
    patch(engine.ReliabilityEngine, "run", lambda f: wrap(f, "engine.run"))
    # One occurrence-rank round of the fast path; its self time is the
    # engine's per-round glue between the layers below.
    patch(engine.ReliabilityEngine, "_apply_round_binomial",
          lambda f: wrap(f, "engine.round"))
    # Read-error bookkeeping books ECC outcomes; its self time counts
    # as ECC classify time (a nested classify_errors is not counted
    # twice because metrics use self time).
    patch(engine.ReliabilityEngine, "_book_read_errors",
          lambda f: wrap(f, "ecc.classify"))
    patch(topology.TopologyEngine, "run",
          lambda f: wrap(f, "topology.run"))
    patch(traffic.Workload, "batch", lambda f: wrap(f, "traffic.batch"))
    patch(traffic.Workload, "write_data",
          lambda f: wrap(f, "traffic.write_data"))
    patch(engine, "_occurrence_rank", lambda f: wrap(f, "engine.rank"))

    def refresh_wrapper(original):
        def refresh(maps, plane):
            rebuilds = maps.rebuilds
            incremental = maps.incremental_refreshes
            with tracer.span("classify.refresh") as sp:
                original(maps, plane)
                rebuilt = maps.rebuilds - rebuilds
                sp.attrs = {
                    "rebuilt": rebuilt,
                    "changed": rebuilt + maps.incremental_refreshes
                    - incremental}
        return refresh
    patch(sampling.IncrementalClassMaps, "refresh", refresh_wrapper)

    patch(engine, "sample_class_flips",
          lambda f: wrap(f, "draw.class_flips", attrs=_n_flips))
    patch(engine, "sample_thinned_flips",
          lambda f: wrap(f, "draw.thinned", attrs=_n_flips))
    # The engine's own "place" phase: every mutation of the packed
    # planes plus its exact per-word error bookkeeping.
    for method in ("toggle", "write_words", "restore_words"):
        patch(engine._PackedState, method, lambda f: wrap(f, "place"))
    for ecc in (HammingSECDED, NoECC):
        patch(ecc, "encode", lambda f: wrap(f, "ecc.encode"))
        patch(ecc, "classify_errors", lambda f: wrap(f, "ecc.classify"))
    patch(ScrubPolicy, "mark_done", lambda f: wrap(f, "scrub.pass"))
    patch(CheckpointManager, "save", lambda f: wrap(f, "checkpoint.save"))

    def write_bytes_wrapper(original):
        def write_bytes(fs, path, data):
            with tracer.span("checkpoint.write", bytes=len(data)):
                return original(fs, path, data)
        return write_bytes
    patch(FileSystem, "write_bytes", write_bytes_wrapper)


def install_service_layers(tracer, patches):
    """Wrap the query server's parse, fingerprint, cache, coalesce and
    runner boundaries (after :func:`install_engine_layers`)."""
    from repro.memsys import engine, sweeps
    from repro.service import runners, server
    from repro.service.coalesce import Coalescer
    from repro.service.results_cache import ResultsCache

    wrap = tracer.wrap
    patch = patches.patch
    # The runners bound uber_sweep/build_engine by name at import.
    patches.share(runners, "uber_sweep", sweeps, "uber_sweep")
    patches.share(runners, "build_engine", engine, "build_engine")

    patch(server, "decode_line", lambda f: wrap(f, "service.parse"))
    patch(server, "parse_request", lambda f: wrap(f, "service.parse"))
    patch(server, "query_fingerprint",
          lambda f: wrap(f, "service.fingerprint"))
    patch(ResultsCache, "get", lambda f: wrap(f, "cache.get"))
    patch(ResultsCache, "put", lambda f: wrap(f, "cache.put"))
    patch(Coalescer, "run", lambda f: wrap(f, "coalesce.run"))
    for op in sorted(runners.RUNNERS):
        patches.patch_item(runners.RUNNERS, op,
                           lambda f, op=op: wrap(f, f"runner.{op}"))

    def handle_wrapper(original):
        async def handle(srv, line, writer):
            try:
                trace = json.loads(line).get("id")
            except (ValueError, AttributeError):
                trace = None
            with tracer.span("server.request", trace=trace):
                return await original(srv, line, writer)
        return handle
    patch(server.ReliabilityServer, "_handle_request", handle_wrapper)


def _total(spans, name):
    return sum(s["end"] - s["start"] for s in outermost(spans, name))


def _self(spans, own, name):
    return sum(own[s["id"]] for s in spans if s["name"] == name)


def _count(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def _ratio(num, den):
    return num / den if den else 0.0


def unattributed_frac(spans):
    """Self time of :data:`RESIDUAL` spans over the root spans' time."""
    own = self_times(spans)
    roots = sum(s["end"] - s["start"] for s in spans
                if s["parent"] is None and s["name"] in RESIDUAL)
    residual = sum(own[s["id"]] for s in spans if s["name"] in RESIDUAL)
    return _ratio(residual, roots)


def engine_layer_metrics(spans, per):
    """Per-layer engine metrics, each divided by ``per`` (the number of
    timed operations the spans cover)."""
    own = self_times(spans)
    refreshes = [s for s in spans if s["name"] == "classify.refresh"]
    rebuilds = sum(s["attrs"]["rebuilt"] for s in refreshes)
    changed = sum(s["attrs"]["changed"] for s in refreshes)
    engine_runs = [s for s in spans if s["name"] == "engine.run"]
    engine_s = sum(s["end"] - s["start"] for s in engine_runs)
    topo = outermost(spans, "topology.run")
    topo_ids = {s["id"] for s in topo}
    shards = [s for s in engine_runs if s["parent"] in topo_ids]
    per = max(per, 1)
    return {
        "engine.run_s": _total(spans, "engine.run") / per,
        "engine.unattributed_frac": _ratio(
            _self(spans, own, "engine.run")
            + _self(spans, own, "engine.round"), engine_s),
        "engine.round_s": _self(spans, own, "engine.round") / per,
        "traffic.batch_calls": _count(spans, "traffic.batch") / per,
        "traffic.batch_s": _total(spans, "traffic.batch") / per,
        "traffic.data_s": _total(spans, "traffic.write_data") / per,
        "engine.rank_s": _total(spans, "engine.rank") / per,
        "classify.refresh_calls": len(refreshes) / per,
        "classify.refresh_s": _total(spans, "classify.refresh") / per,
        "classify.full_rebuilds": rebuilds / per,
        "classify.rebuild_ratio": _ratio(rebuilds, changed),
        "draw.class_flips_calls": _count(spans, "draw.class_flips") / per,
        "draw.thinned_calls": _count(spans, "draw.thinned") / per,
        "draw.s": (_total(spans, "draw.class_flips")
                   + _total(spans, "draw.thinned")) / per,
        "draw.flips": (attr_sum(spans, "draw.class_flips", "flips")
                       + attr_sum(spans, "draw.thinned", "flips")) / per,
        "place.calls": _count(spans, "place") / per,
        "place.s": _total(spans, "place") / per,
        "ecc.encode_calls": _count(spans, "ecc.encode") / per,
        "ecc.encode_s": _total(spans, "ecc.encode") / per,
        "ecc.classify_s": _self(spans, own, "ecc.classify") / per,
        "scrub.passes": _count(spans, "scrub.pass") / per,
        "topology.shard_runs": len(shards) / per,
        "topology.shard_s": sum(s["end"] - s["start"]
                                for s in shards) / per,
        "topology.dispatch_merge_s": sum(own[s["id"]]
                                         for s in topo) / per,
        "checkpoint.saves": _count(spans, "checkpoint.save") / per,
        "checkpoint.save_s": _total(spans, "checkpoint.save") / per,
        "checkpoint.bytes": attr_sum(spans, "checkpoint.write",
                                     "bytes") / per,
    }


def setup_layer_metrics(spans, store_stats, per=1):
    """Kernel and engine-build metrics, divided by ``per``."""
    hits = store_stats.get("hits", 0) + store_stats.get("disk_hits", 0)
    return {
        "kernels.batch_calls": _count(spans, "kernels.batch") / per,
        "kernels.batch_s": _total(spans, "kernels.batch") / per,
        "kernels.store_hit_ratio": _ratio(
            hits, hits + store_stats.get("misses", 0)),
        "engine.build_s": _total(spans, "engine.build") / per,
    }


def service_layer_metrics(spans, per):
    """Service-side span metrics of the traced query server, divided
    by ``per``."""
    return {
        "service.parse_s": _total(spans, "service.parse") / per,
        "service.fingerprint_s": _total(spans,
                                        "service.fingerprint") / per,
        "cache.get_s": _total(spans, "cache.get") / per,
        "cache.put_s": _total(spans, "cache.put") / per,
        "runner.uber_s": _total(spans, "runner.uber") / per,
        "runner.sweep_s": _total(spans, "runner.sweep") / per,
        "sweep.run_s": _total(spans, "sweep.run") / per,
        "sweep.points": attr_sum(spans, "sweep.run", "points") / per,
    }


def self_time_table(spans):
    """Rows ``(name, count, total_s, self_s, self share)`` sorted by
    self time, for the report."""
    table = summarize(spans)
    wall = sum(s["end"] - s["start"] for s in spans
               if s["parent"] is None)
    rows = [(name, row["count"], row["total_s"], row["self_s"],
             _ratio(row["self_s"], wall))
            for name, row in table.items()]
    rows.sort(key=lambda r: -r[3])
    return rows
