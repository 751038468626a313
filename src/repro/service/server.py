"""The asyncio reliability-query server behind ``repro serve``.

One task per request line, so a connection can pipeline queries and a
slow sweep never blocks a cheap UBER lookup. Every query flows
through the same path::

    parse -> fingerprint -> memo cache -> coalescer -> runner thread

and every terminal event carries ``cached``/``coalesced`` flags so
clients (and the CI smoke test) can observe which tier answered.

All writes happen on the event loop and each NDJSON frame is a single
``write()`` call, so progress events from one request cannot corrupt
another request's frames on a shared connection.

Shutdown: SIGTERM/SIGINT (or :meth:`ReliabilityServer.request_stop`)
stops accepting connections, lets every in-flight request finish and
flush its terminal event, then closes — a drain, not a kill.

Hardening (all observable in ``/stats``):

* **Deadlines** — a request may carry ``deadline_s`` in its envelope;
  a query still unanswered after that many seconds gets a ``deadline
  exceeded`` error. The shared evaluation keeps running for any other
  subscriber; the abandoning subscriber is reference-counted out
  exactly like a disconnect.
* **Circuit breaker** — one per op. After ``breaker_threshold``
  consecutive runner failures the op answers ``degraded: true``
  errors (cache hits still serve) instead of queueing more work onto
  a failing backend; after ``breaker_reset`` seconds one probe is let
  through.
* **Load shedding** — at most ``max_in_flight`` queries evaluate at
  once; beyond that the server answers an immediate ``shed: true``
  error instead of queueing unboundedly.
* **Degraded-mode serving** — with a breaker open, a digest-verified
  memo entry within ``stale_ttl`` answers tagged ``stale: true`` plus
  its age; only past that TTL does the op fast-fail.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
import traceback
from collections import deque

from ..arrays.kernel_store import get_kernel_store
from ..errors import ParameterError, ReproError, RunAborted
from ..resilience.breaker import CircuitBreaker
from ..validation import require_int_in_range, require_positive
from .coalesce import Coalescer
from .framing import encode_result_line
from .protocol import (MAX_LINE_BYTES, decode_line, encode_line,
                       parse_request, query_fingerprint)
from .results_cache import ResultsCache
from .runners import RUNNERS

#: Ring-buffer depth of the per-endpoint latency samples.
LATENCY_WINDOW = 512


def _percentile(samples, q):
    """q-th percentile (0..1) of a non-empty sorted sample list."""
    index = max(0, min(len(samples) - 1,
                       int(round(q * (len(samples) - 1)))))
    return samples[index]


class EndpointStats:
    """Request count, error count, and recent-latency percentiles."""

    __slots__ = ("count", "errors", "latencies")

    def __init__(self):
        self.count = 0
        self.errors = 0
        self.latencies = deque(maxlen=LATENCY_WINDOW)

    def record(self, seconds, error=False):
        self.count += 1
        if error:
            self.errors += 1
        self.latencies.append(seconds)

    def snapshot(self):
        latency = None
        if self.latencies:
            ordered = sorted(self.latencies)
            latency = {
                "p50_ms": _percentile(ordered, 0.50) * 1e3,
                "p90_ms": _percentile(ordered, 0.90) * 1e3,
                "p99_ms": _percentile(ordered, 0.99) * 1e3,
            }
        return {"count": self.count, "errors": self.errors,
                "latency": latency}


class ReliabilityServer:
    """Long-running NDJSON query server over a unix or TCP socket.

    Parameters
    ----------
    path:
        Unix-socket path; mutually exclusive with ``host``/``port``.
    host, port:
        TCP listen address (``host`` defaults to ``127.0.0.1``).
    cache:
        A :class:`~repro.service.results_cache.ResultsCache`; built
        from ``capacity`` (and the ``REPRO_KERNEL_CACHE`` environment)
        when omitted.
    capacity:
        Memory-tier size of the default cache.
    max_in_flight:
        Queries evaluating at once before new ones are shed.
    breaker_threshold, breaker_reset:
        Consecutive runner failures that open an op's circuit breaker,
        and how long it stays open before a half-open probe.
    memo_ttl:
        Memo-cache TTL in seconds: entries older than this read as
        misses on the normal path (they stay reachable for stale
        serving). ``None`` (default) never expires.
    stale_ttl:
        Degraded-serving window in seconds: with an op's breaker open,
        a digest-verified memo entry younger than this answers with
        ``stale: true`` + its age instead of a fast-fail. ``0``
        disables stale serving.
    """

    def __init__(self, path=None, host=None, port=None, cache=None,
                 capacity=256, max_in_flight=64, breaker_threshold=5,
                 breaker_reset=30.0, breaker_clock=None,
                 memo_ttl=None, stale_ttl=3600.0):
        if path is not None and port is not None:
            raise ParameterError(
                "pass either a unix-socket path or a TCP port, not "
                "both")
        if path is None and port is None:
            raise ParameterError(
                "a unix-socket path or a TCP port is required")
        self.path = path
        self.host = host or "127.0.0.1"
        self.port = port
        self.cache = cache if cache is not None else ResultsCache(
            capacity=capacity)
        self.coalescer = Coalescer()
        require_int_in_range(max_in_flight, "max_in_flight", 1, 1 << 16)
        require_positive(breaker_threshold, "breaker_threshold")
        require_positive(breaker_reset, "breaker_reset")
        if memo_ttl is not None:
            require_positive(memo_ttl, "memo_ttl")
        if stale_ttl:
            require_positive(stale_ttl, "stale_ttl")
        self.max_in_flight = int(max_in_flight)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset = float(breaker_reset)
        self.memo_ttl = None if memo_ttl is None else float(memo_ttl)
        self.stale_ttl = float(stale_ttl or 0.0)
        self._breaker_clock = breaker_clock
        self.breakers = {}
        self.endpoints = {}
        self.in_flight = 0
        self.shed = 0
        self.deadline_exceeded = 0
        self.degraded = 0
        self.stale_served = 0
        self._progress_events = 0
        self._requests = set()
        self._writers = set()
        self._server = None
        self._stopping = None
        self._started_at = None

    # -- lifecycle -----------------------------------------------------

    async def start(self):
        """Bind and start accepting connections; returns ``self``."""
        self._stopping = asyncio.Event()
        self._started_at = time.monotonic()
        if self.path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_client, path=self.path, limit=MAX_LINE_BYTES)
        else:
            self._server = await asyncio.start_server(
                self._on_client, host=self.host, port=self.port,
                limit=MAX_LINE_BYTES)
            if self.port == 0:
                self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self):
        """Human-readable bound address."""
        if self.path is not None:
            return self.path
        return f"{self.host}:{self.port}"

    def request_stop(self):
        """Begin a graceful drain; safe to call from signal handlers
        registered on this loop."""
        if self._stopping is not None:
            self._stopping.set()

    async def serve_forever(self, install_signals=True):
        """Serve until :meth:`request_stop` (or SIGTERM/SIGINT), then
        drain."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_stop)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix loops / nested interpreters
        try:
            await self._stopping.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.drain()

    async def drain(self):
        """Stop accepting, finish every in-flight request, close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._requests:
            await asyncio.gather(*list(self._requests),
                                 return_exceptions=True)
        # In-flight work is flushed; disconnect idle clients so their
        # handler tasks wind down instead of pinning the loop open.
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        if self.path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.path)

    # -- request handling ----------------------------------------------

    async def _on_client(self, reader, writer):
        pending = set()
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # over-long frame or torn connection
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._handle_request(line, writer))
                for group in (pending, self._requests):
                    group.add(task)
                    task.add_done_callback(group.discard)
        finally:
            # Client stopped sending: flush its outstanding responses
            # before closing the transport.
            if pending:
                await asyncio.gather(*list(pending),
                                     return_exceptions=True)
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    def _write(writer, frame):
        """Queue one frame; single write() => frames never interleave."""
        with contextlib.suppress(Exception):
            writer.write(frame)

    def _send(self, writer, event):
        self._write(writer, encode_line(event))

    def _internal_error(self, writer, req_id, exc):
        """Answer a bug outside the ReproError taxonomy: the client gets
        one line naming the exception, the server's stderr its stack."""
        traceback.print_exception(type(exc), exc, exc.__traceback__)
        self._send(writer, {
            "id": req_id, "event": "error", "ok": False,
            "error": f"internal error: {type(exc).__name__}: {exc}"})

    def _endpoint(self, op):
        if op not in self.endpoints:
            self.endpoints[op] = EndpointStats()
        return self.endpoints[op]

    def _breaker(self, op):
        if op not in self.breakers:
            self.breakers[op] = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                reset_timeout=self.breaker_reset,
                clock=self._breaker_clock)
        return self.breakers[op]

    @staticmethod
    def _deadline_of(obj):
        """Validated ``deadline_s`` of one request envelope (or
        ``None``)."""
        deadline = obj.get("deadline_s")
        if deadline is None:
            return None
        if (isinstance(deadline, (int, float))
                and not isinstance(deadline, bool) and deadline > 0):
            with contextlib.suppress(OverflowError):  # int past float
                return float(deadline)
        raise ParameterError(
            f"deadline_s must be a positive number, got {deadline!r}")

    async def _handle_request(self, line, writer):
        start = time.monotonic()
        req_id = None
        op = "invalid"
        error = False
        try:
            try:
                obj = decode_line(line)
                req_id = obj.get("id")
                query = parse_request(obj)
                deadline = self._deadline_of(obj)
                op = query.op
            except ReproError as exc:
                error = True
                self._send(writer, {"id": req_id, "event": "error",
                                    "ok": False, "error": str(exc)})
                return

            if op == "stats":
                self._send(writer, {"id": req_id, "event": "result",
                                    "ok": True, "cached": False,
                                    "result": self.stats_payload()})
                return

            if self.in_flight >= self.max_in_flight:
                error = True
                self.shed += 1
                self._send(writer, {
                    "id": req_id, "event": "error", "ok": False,
                    "shed": True,
                    "error": f"server overloaded: {self.in_flight} "
                             f"queries in flight (limit "
                             f"{self.max_in_flight}); retry later"})
                return

            self.in_flight += 1
            try:
                error = await self._answer(query, req_id, writer,
                                           deadline)
            finally:
                self.in_flight -= 1
        except Exception as exc:
            # Whatever escapes parsing or answering (a bug outside the
            # ReproError taxonomy) still gets its one terminal event:
            # a request is never left unanswered.
            error = True
            self._internal_error(writer, req_id, exc)
        finally:
            self._endpoint(op).record(time.monotonic() - start,
                                      error=error)
            with contextlib.suppress(Exception):
                await writer.drain()

    async def _answer(self, query, req_id, writer, deadline=None):
        """Serve one parsed query; returns True when it errored."""
        key = query_fingerprint(query)
        cached = self.cache.get(key, max_age=self.memo_ttl)
        if cached is not None:
            self._write(writer, encode_result_line(
                {"id": req_id, "event": "result", "ok": True,
                 "cached": True, "coalesced": False, "fingerprint": key},
                cached.encoded))
            return False

        breaker = self._breaker(query.op)
        if not breaker.allow():
            # Open breaker: degrade instead of queueing more work onto
            # a failing backend. Fresh cache hits (above) still serve
            # normally; here a digest-verified *stale* memo entry —
            # expired past the memo TTL but within the stale TTL —
            # answers tagged `stale: true` + its age, so the query
            # surface degrades before it fast-fails.
            if self.stale_ttl > 0:
                stale = self.cache.get_stale(key, self.stale_ttl)
                if stale is not None:
                    payload, age = stale
                    self.stale_served += 1
                    self._send(writer, {
                        "id": req_id, "event": "result", "ok": True,
                        "cached": True, "coalesced": False,
                        "stale": True, "age_s": round(age, 3),
                        "degraded": True, "fingerprint": key,
                        "result": payload})
                    return False
            self.degraded += 1
            self._send(writer, {
                "id": req_id, "event": "error", "ok": False,
                "degraded": True, "fingerprint": key,
                "error": f"op {query.op!r} is circuit-broken after "
                         f"repeated runner failures; retrying within "
                         f"{breaker.reset_timeout:g}s"})
            return True

        def on_progress(done, total):
            self._progress_events += 1
            self._send(writer, {"id": req_id, "event": "progress",
                                "done": done, "total": total})

        runner = RUNNERS[query.op]
        coalesced = self.coalescer.is_running(key)
        try:
            future = self.coalescer.run(
                key, lambda abort, publish: runner(query, abort,
                                                   publish),
                on_progress=on_progress)
            if deadline is not None:
                payload = await asyncio.wait_for(future, deadline)
            else:
                payload = await future
        except asyncio.TimeoutError:
            # This subscriber leaves the shared run (cancellation is
            # reference-counted: co-subscribed clients keep it alive);
            # a missed deadline says nothing about backend health, so
            # the breaker does not count it.
            self.deadline_exceeded += 1
            self._send(writer, {
                "id": req_id, "event": "error", "ok": False,
                "deadline_exceeded": True,
                "error": f"deadline of {deadline:g}s exceeded"})
            return True
        except (RunAborted, ParameterError) as exc:
            # An abandoned run, or a query the physics rejects (a
            # write voltage below the switching threshold): neither says
            # the backend is unhealthy, so the breaker does not count
            # it — one client's bad queries must not break the op for
            # everyone.
            self._send(writer, {"id": req_id, "event": "error",
                                "ok": False, "error": str(exc)})
            return True
        except ReproError as exc:
            breaker.record_failure()
            self._send(writer, {"id": req_id, "event": "error",
                                "ok": False, "error": str(exc)})
            return True
        except Exception as exc:
            # A runner bug (or a backend blowing up outside the
            # ReproError taxonomy) must degrade this one query, not
            # tear down the connection's handler task.
            breaker.record_failure()
            self._internal_error(writer, req_id, exc)
            return True
        breaker.record_success()
        self.cache.put(key, payload)
        self._send(writer, {"id": req_id, "event": "result",
                            "ok": True, "cached": False,
                            "coalesced": coalesced,
                            "fingerprint": key, "result": payload})
        return False

    # -- ops surface ---------------------------------------------------

    def stats_payload(self):
        """The ``/stats`` snapshot: endpoints, cache, coalescer,
        gauges."""
        return {
            "endpoints": {op: stats.snapshot()
                          for op, stats in self.endpoints.items()},
            "cache": self.cache.stats(),
            "coalesce": {
                "runs_started": self.coalescer.started,
                "joined": self.coalescer.joined,
                "aborted": self.coalescer.aborted,
                "in_flight_runs": self.coalescer.in_flight(),
            },
            "in_flight": self.in_flight,
            "max_in_flight": self.max_in_flight,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "degraded": self.degraded,
            "stale_served": self.stale_served,
            "memo_ttl": self.memo_ttl,
            "stale_ttl": self.stale_ttl,
            "breakers": {op: breaker.stats()
                         for op, breaker in self.breakers.items()},
            "kernel_store": get_kernel_store().stats(),
            "progress_events": self._progress_events,
            "uptime_s": (time.monotonic() - self._started_at
                         if self._started_at is not None else 0.0),
        }


async def run_server(path=None, host=None, port=None, capacity=256,
                     ready=None, memo_ttl=None, stale_ttl=3600.0):
    """Start a server, announce readiness, serve until drained."""
    server = ReliabilityServer(path=path, host=host, port=port,
                               capacity=capacity, memo_ttl=memo_ttl,
                               stale_ttl=stale_ttl)
    await server.start()
    print(f"repro service listening on {server.address}", flush=True)
    if ready is not None:
        ready(server)
    await server.serve_forever()
    print("repro service drained, exiting", flush=True)
    return 0


def serve_main(path=None, host=None, port=None, capacity=256,
               memo_ttl=None, stale_ttl=3600.0):
    """Blocking entry point behind ``repro serve``."""
    try:
        return asyncio.run(run_server(path=path, host=host, port=port,
                                      capacity=capacity,
                                      memo_ttl=memo_ttl,
                                      stale_ttl=stale_ttl))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C
        return 0
