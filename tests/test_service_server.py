"""End-to-end server tests: the acceptance criteria of the service.

Each test spins a real :class:`ReliabilityServer` on a unix socket
inside ``asyncio.run`` and talks to it with the blocking
:class:`ServiceClient` from worker threads — the exact production
topology, minus process boundaries (the CLI smoke test at the bottom
adds those).
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ParameterError, ServiceError
from repro.service import ReliabilityServer, ServiceClient
from repro.service.framing import encode_line
from repro.service.results_cache import ResultsCache
from repro.service.runners import RUNNERS
from repro.sweep.distributed import SWEEP_SPOOL_ENV

#: Cheap deterministic operating point reused across tests (16x16 is
#: the smallest array holding a 72-bit SEC-DED codeword comfortably).
SMALL = {"rows": 16, "cols": 16, "pitch_nm": 70.0}


def _serve(test_body, **server_kwargs):
    """Run ``test_body(server)`` in a thread against a live server."""
    server_kwargs.setdefault("capacity", 16)

    async def main():
        server = ReliabilityServer(**server_kwargs)
        await server.start()
        serve_task = asyncio.create_task(
            server.serve_forever(install_signals=False))
        try:
            await asyncio.to_thread(test_body, server)
        finally:
            server.request_stop()
            await asyncio.wait_for(serve_task, timeout=30.0)

    asyncio.run(main())


class TestRoundTrip:
    def test_uber_query_round_trips(self, tmp_path):
        path = str(tmp_path / "svc.sock")

        def body(server):
            with ServiceClient(path=path) as client:
                event = client.query("uber", **SMALL)
            assert event["ok"] and not event["cached"]
            assert 0.0 <= event["result"]["uber"] <= 1.0
            assert event["result"]["mode"] == "expected"
            assert len(event["fingerprint"]) == 32

        _serve(body, path=path)

    def test_repeat_query_is_a_memo_hit_counted_in_stats(self,
                                                         tmp_path):
        path = str(tmp_path / "svc.sock")

        def body(server):
            with ServiceClient(path=path) as client:
                cold = client.query("uber", **SMALL)
                # Different JSON spelling of the same physics: int
                # pitch, explicit default ecc — still one fingerprint.
                warm = client.query("uber", rows=16, cols=16,
                                    pitch_nm=70, ecc="secded")
                stats = client.query("stats")["result"]
            assert not cold["cached"]
            assert warm["cached"]
            assert warm["result"] == cold["result"]
            assert stats["cache"]["hits"] == 1
            assert stats["endpoints"]["uber"]["count"] == 2
            assert stats["endpoints"]["uber"]["errors"] == 0
            assert stats["endpoints"]["uber"]["latency"]["p50_ms"] >= 0
            assert stats["in_flight"] == 0

        _serve(body, path=path)

    def test_tcp_transport(self):
        def body(server):
            with ServiceClient(port=server.port) as client:
                event = client.query("uber", **SMALL)
            assert event["ok"]

        _serve(body, port=0)

    def test_bad_requests_become_error_events(self, tmp_path):
        path = str(tmp_path / "svc.sock")

        def body(server):
            with ServiceClient(path=path) as client:
                with pytest.raises(ServiceError, match="unknown op"):
                    client.query("nonsense")
                # Domain errors from the engine itself also arrive as
                # error events, not torn connections.
                with pytest.raises(ServiceError, match="codeword"):
                    client.query("uber", rows=4, cols=4)
                # And the connection is still usable afterwards.
                assert client.query("stats")["ok"]

        _serve(body, path=path)

    def test_unknown_sweep_executor_is_an_error_event(self, tmp_path):
        """The parse-time executor check reaches the client as an
        error event naming the valid executors; the server keeps
        answering."""
        path = str(tmp_path / "svc.sock")

        def body(server):
            with ServiceClient(path=path) as client:
                for bad in ("chunked", "thread"):
                    with pytest.raises(ServiceError) as err:
                        client.query("sweep", pitch_ratios=[3.0],
                                     patterns=["solid0"],
                                     eccs=["secded"], rows=16, cols=16,
                                     executor=bad)
                    for name in ("serial", "process", "distributed"):
                        assert name in str(err.value)
                event = client.query("sweep", pitch_ratios=[3.0],
                                     patterns=["solid0"],
                                     eccs=["secded"], rows=16, cols=16)
            assert event["ok"]
            assert len(event["result"]["rows"]) == 1

        _serve(body, path=path)

    def test_rejects_ambiguous_addresses(self):
        with pytest.raises(ParameterError):
            ReliabilityServer(path="/tmp/x.sock", port=1234)
        with pytest.raises(ParameterError):
            ReliabilityServer()


class TestCoalescing:
    def test_concurrent_identical_queries_share_one_engine_run(
            self, tmp_path, monkeypatch):
        """Acceptance: N concurrent duplicate queries -> exactly one
        engine run, observed through the server's own run counter."""
        path = str(tmp_path / "svc.sock")
        calls = []
        release = threading.Event()
        real_uber = RUNNERS["uber"]

        def gated_uber(query, abort, publish):
            calls.append(1)
            release.wait(30.0)
            return real_uber(query, abort, publish)

        monkeypatch.setitem(RUNNERS, "uber", gated_uber)

        def body(server):
            n = 4
            events = [None] * n

            def one(i):
                with ServiceClient(path=path) as client:
                    events[i] = client.query("uber", **SMALL)

            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(n)]
            for thread in threads:
                thread.start()
            # Wait until all N subscribers joined the one shared run,
            # then let it go — no timing assumptions.
            deadline = time.monotonic() + 10.0
            while (server.coalescer.started + server.coalescer.joined
                   < n):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            release.set()
            for thread in threads:
                thread.join(timeout=30.0)

            assert all(e is not None and e["ok"] for e in events)
            results = [e["result"] for e in events]
            assert all(r == results[0] for r in results)
            assert server.coalescer.started == 1
            assert server.coalescer.joined == n - 1
            # Joined subscribers are flagged; starter + memo are not.
            assert sum(1 for e in events if e["coalesced"]) == n - 1
            assert len(calls) == 1

        _serve(body, path=path)


class TestProgressStreaming:
    def test_long_sweep_streams_progress_events(self, tmp_path):
        """Acceptance: a sweep query streams >= 2 progress events
        before its terminal result."""
        path = str(tmp_path / "svc.sock")

        def body(server):
            seen = []
            with ServiceClient(path=path) as client:
                event = client.query(
                    "sweep", pitch_ratios=[3.0, 2.0, 1.5],
                    patterns=["random"], eccs=["secded"],
                    rows=16, cols=16,
                    on_progress=seen.append)
            assert event["ok"]
            assert len(event["result"]["rows"]) == 3
            assert len(seen) >= 2
            dones = [e["done"] for e in seen]
            assert dones == sorted(dones)
            assert seen[-1]["done"] == seen[-1]["total"] == 3

        _serve(body, path=path)


class TestDrain:
    def test_stop_drains_in_flight_queries(self, tmp_path,
                                           monkeypatch):
        """Acceptance: a drain requested mid-query still delivers the
        in-flight result before the server exits."""
        path = str(tmp_path / "svc.sock")
        release = threading.Event()
        real_uber = RUNNERS["uber"]

        def gated_uber(query, abort, publish):
            release.wait(30.0)
            return real_uber(query, abort, publish)

        monkeypatch.setitem(RUNNERS, "uber", gated_uber)

        async def main():
            server = ReliabilityServer(path=path, capacity=16)
            await server.start()
            serve_task = asyncio.create_task(
                server.serve_forever(install_signals=False))

            holder = {}

            def slow_query():
                with ServiceClient(path=path) as client:
                    holder["event"] = client.query("uber", **SMALL)

            query_thread = threading.Thread(target=slow_query)
            query_thread.start()
            while server.in_flight == 0:
                await asyncio.sleep(0.005)

            server.request_stop()          # drain begins mid-query
            await asyncio.sleep(0.05)
            assert not serve_task.done()   # still waiting on the query
            release.set()
            await asyncio.wait_for(serve_task, timeout=30.0)
            query_thread.join(timeout=10.0)

            assert holder["event"]["ok"]
            assert not os.path.exists(path)   # socket cleaned up

        asyncio.run(main())


class TestHardening:
    """Deadlines, load shedding, and the per-op circuit breaker."""

    def test_overload_sheds_instead_of_queueing(self, tmp_path,
                                                monkeypatch):
        path = str(tmp_path / "svc.sock")
        release = threading.Event()
        real_uber = RUNNERS["uber"]

        def gated_uber(query, abort, publish):
            release.wait(30.0)
            return real_uber(query, abort, publish)

        monkeypatch.setitem(RUNNERS, "uber", gated_uber)

        def body(server):
            holder = {}

            def slow_query():
                with ServiceClient(path=path) as client:
                    holder["event"] = client.query("uber", **SMALL)

            thread = threading.Thread(target=slow_query)
            thread.start()
            deadline = time.monotonic() + 10.0
            while server.in_flight == 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            try:
                with ServiceClient(path=path) as client:
                    with pytest.raises(ServiceError,
                                       match="overloaded"):
                        client.query("uber", rows=16, cols=16,
                                     pitch_nm=71.0)
                    # stats is served ahead of the shed gate, so the
                    # ops surface stays reachable under load.
                    stats = client.query("stats")["result"]
            finally:
                release.set()
                thread.join(timeout=30.0)
            assert stats["shed"] == 1
            assert stats["max_in_flight"] == 1
            assert holder["event"]["ok"]    # the admitted query lands

        _serve(body, path=path, max_in_flight=1)

    def test_deadline_exceeded_is_reported_not_hung(self, tmp_path,
                                                    monkeypatch):
        path = str(tmp_path / "svc.sock")
        release = threading.Event()
        real_uber = RUNNERS["uber"]

        def gated_uber(query, abort, publish):
            release.wait(30.0)
            return real_uber(query, abort, publish)

        monkeypatch.setitem(RUNNERS, "uber", gated_uber)

        def body(server):
            try:
                with ServiceClient(path=path) as client:
                    with pytest.raises(ServiceError, match="deadline"):
                        client.query("uber", deadline_s=0.2, **SMALL)
                    stats = client.query("stats")["result"]
            finally:
                release.set()
            assert stats["deadline_exceeded"] == 1
            # A missed deadline says nothing about backend health.
            assert stats["breakers"]["uber"]["state"] == "closed"

        _serve(body, path=path)

    def test_deadline_must_be_a_positive_number(self, tmp_path):
        path = str(tmp_path / "svc.sock")

        def body(server):
            with ServiceClient(path=path) as client:
                with pytest.raises(ServiceError,
                                   match="deadline_s must be"):
                    client.query("uber", deadline_s=-1, **SMALL)
                with pytest.raises(ServiceError,
                                   match="deadline_s must be"):
                    client.query("uber", deadline_s="soon", **SMALL)

        _serve(body, path=path)

    def test_breaker_opens_degrades_and_keeps_serving_cache(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "svc.sock")

        def boom(query, abort, publish):
            raise RuntimeError("kaboom")

        def body(server):
            with ServiceClient(path=path) as client:
                good = client.query("uber", **SMALL)
                assert good["ok"]

                monkeypatch.setitem(RUNNERS, "uber", boom)
                for pitch in (71.0, 72.0):
                    with pytest.raises(ServiceError,
                                       match="internal error"):
                        client.query("uber", rows=16, cols=16,
                                     pitch_nm=pitch)
                # Threshold reached: new uber work answers degraded
                # without touching the failing backend.
                with pytest.raises(ServiceError,
                                   match="circuit-broken"):
                    client.query("uber", rows=16, cols=16,
                                 pitch_nm=73.0)
                # Cache hits bypass the breaker entirely.
                again = client.query("uber", **SMALL)
                assert again["cached"]
                assert again["result"] == good["result"]

                stats = client.query("stats")["result"]
            assert stats["degraded"] == 1
            breaker = stats["breakers"]["uber"]
            assert breaker["state"] == "open"
            assert breaker["times_opened"] == 1

        _serve(body, path=path, breaker_threshold=2,
               breaker_reset=60.0)

    def test_parameter_errors_leave_the_breaker_closed(self, tmp_path):
        """Malformed queries past the threshold — rejected at parse
        time (``uber``) or by the runner (``wer`` below the switching
        threshold) — are the client's fault, not the backend's: the
        next valid query answers un-degraded."""
        path = str(tmp_path / "svc.sock")

        def body(server):
            with ServiceClient(path=path) as client:
                for _ in range(3):
                    with pytest.raises(ServiceError,
                                       match="unknown ECC scheme"):
                        client.query("uber", ecc="secdde", **SMALL)
                    with pytest.raises(ServiceError,
                                       match="switching threshold"):
                        client.query("wer", vp=0.1, n_samples=1000)
                uber = client.query("uber", **SMALL)
                wer = client.query("wer", vp=0.95, n_samples=1000)
                stats = client.query("stats")["result"]
            for event in (uber, wer):
                assert event["ok"] and not event.get("degraded")
            assert stats["degraded"] == 0
            assert stats["endpoints"]["wer"]["errors"] == 3
            for op in ("uber", "wer"):
                breaker = stats["breakers"][op]
                assert breaker["state"] == "closed"
                assert breaker["times_opened"] == 0

        _serve(body, path=path, breaker_threshold=2,
               breaker_reset=60.0)

    def test_bad_seeds_leave_the_breaker_closed(self, tmp_path):
        """A seed numpy would refuse fails at parse time, so bad seeds
        past the threshold never reach a runner or open a breaker."""
        path = str(tmp_path / "svc.sock")

        def body(server):
            with ServiceClient(path=path) as client:
                for seed in (-1, 1.5, "x", [1]):
                    for op, params in (("uber", SMALL),
                                       ("wer", {"n_samples": 1000})):
                        with pytest.raises(ServiceError, match="seed"):
                            client.query(op, seed=seed, **params)
                uber = client.query("uber", **SMALL)
                stats = client.query("stats")["result"]
            assert uber["ok"] and not uber.get("degraded")
            assert stats["degraded"] == 0
            assert stats["breakers"]["uber"]["state"] == "closed"
            assert stats["breakers"]["uber"]["times_opened"] == 0
            assert "wer" not in stats["breakers"]

        _serve(body, path=path, breaker_threshold=2,
               breaker_reset=60.0)

    def test_every_malformed_line_gets_one_error_answer(
            self, tmp_path, monkeypatch):
        """N malformed lines get exactly N error answers — ints past
        float range and exceptions outside the ReproError taxonomy
        included — and the connection then answers a valid query."""
        path = str(tmp_path / "svc.sock")
        huge = "1" + "0" * 400
        import repro.service.server as server_module
        parse = server_module.parse_request

        def parse_or_blow_up(obj):
            if obj.get("id") == "bug":
                raise RuntimeError("injected parser bug")
            return parse(obj)

        monkeypatch.setattr(server_module, "parse_request",
                            parse_or_blow_up)
        lines = [
            "not json",
            "[1, 2]",
            '{"op": ["uber"]}',
            '{"op": "uber", "vp": %s}' % huge,
            '{"op": "uber", "ecd_nm": -%s}' % huge,
            '{"op": "wer", "target_wer": %s}' % huge,
            '{"op": "sweep", "pitch_ratios": [2.0, %s]}' % huge,
            '{"op": "stats", "deadline_s": %s}' % huge,
            '{"op": "stats", "id": "bug"}',
        ]

        def body(server):
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as sock:
                sock.settimeout(30.0)
                sock.connect(path)
                stream = sock.makefile("rb")
                sock.sendall("".join(line + "\n"
                                     for line in lines).encode())
                answers = [json.loads(stream.readline())
                           for _ in lines]
                sock.sendall(b'{"op": "stats", "id": "after"}\n')
                after = json.loads(stream.readline())
            assert [a["event"] for a in answers] == ["error"] * len(lines)
            assert not any(a["ok"] for a in answers)
            assert sum("internal error: RuntimeError" in a["error"]
                       for a in answers) == 1
            assert after["id"] == "after" and after["ok"]
            endpoints = after["result"]["endpoints"]
            assert endpoints["invalid"]["errors"] == len(lines)

        _serve(body, path=path)

    def test_internal_errors_write_their_stack_to_stderr(
            self, tmp_path, monkeypatch, capfd):
        """Both internal-error branches (a runner bug, a bug escaping
        parsing) print the traceback on the server's stderr; the
        client's answer line stays one terse error event."""
        path = str(tmp_path / "svc.sock")
        import repro.service.server as server_module
        parse = server_module.parse_request

        def boom(query, abort, publish):
            raise RuntimeError("kaboom")

        def parse_or_blow_up(obj):
            if obj.get("id") == "bug":
                raise RuntimeError("injected parser bug")
            return parse(obj)

        monkeypatch.setitem(RUNNERS, "uber", boom)
        monkeypatch.setattr(server_module, "parse_request",
                            parse_or_blow_up)
        requests = [{"op": "uber", "id": "run", **SMALL},
                    {"op": "stats", "id": "bug"}]
        answers = []

        def body(server):
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as sock:
                sock.settimeout(30.0)
                sock.connect(path)
                stream = sock.makefile("rb")
                for request_ in requests:
                    sock.sendall(json.dumps(request_).encode() + b"\n")
                    answers.append(json.loads(stream.readline()))

        capfd.readouterr()
        _serve(body, path=path)
        err = capfd.readouterr().err
        assert answers == [
            {"id": "run", "event": "error", "ok": False,
             "error": "internal error: RuntimeError: kaboom"},
            {"id": "bug", "event": "error", "ok": False,
             "error": "internal error: RuntimeError: injected parser bug"},
        ]
        assert err.count("Traceback (most recent call last)") == 2
        assert "in boom" in err and "RuntimeError: kaboom" in err
        assert "in parse_or_blow_up" in err
        assert "RuntimeError: injected parser bug" in err

    def test_breaker_open_serves_verified_stale_within_ttl(
            self, tmp_path, monkeypatch):
        """Degraded mode: breaker open + memo expired => the answer
        is the digest-verified stale entry tagged ``stale: true``
        with its age; past the stale TTL the op fast-fails."""
        from repro.service.results_cache import ResultsCache

        path = str(tmp_path / "svc.sock")

        class FakeClock:
            now = 1000.0

            def time(self):
                return self.now

        clock = FakeClock()
        monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
        cache = ResultsCache(capacity=16, clock=clock)

        def boom(query, abort, publish):
            raise RuntimeError("kaboom")

        def body(server):
            with ServiceClient(path=path) as client:
                good = client.query("uber", **SMALL)
                assert good["ok"] and not good.get("stale")

                # Age the memo past the TTL, then trip the breaker
                # with two distinct failing queries.
                clock.now += 100.0
                monkeypatch.setitem(RUNNERS, "uber", boom)
                for pitch in (71.0, 72.0):
                    with pytest.raises(ServiceError,
                                       match="internal error"):
                        client.query("uber", rows=16, cols=16,
                                     pitch_nm=pitch)

                again = client.query("uber", **SMALL)
                assert again["ok"] and again["cached"]
                assert again["stale"] is True
                assert again["degraded"] is True
                assert 99.0 <= again["age_s"] <= 101.0
                assert again["result"] == good["result"]

                # The never-computed queries have nothing stale to
                # serve: still a fast-fail.
                with pytest.raises(ServiceError,
                                   match="circuit-broken"):
                    client.query("uber", rows=16, cols=16,
                                 pitch_nm=73.0)

                # Past the stale TTL the entry is too old to vouch
                # for: fast-fail again.
                clock.now += 1000.0
                with pytest.raises(ServiceError,
                                   match="circuit-broken"):
                    client.query("uber", **SMALL)

                stats = client.query("stats")["result"]
            assert stats["stale_served"] == 1
            assert stats["memo_ttl"] == 30.0
            assert stats["stale_ttl"] == 500.0
            assert stats["cache"]["stale_hits"] == 1

        _serve(body, path=path, cache=cache, breaker_threshold=2,
               breaker_reset=60.0, memo_ttl=30.0, stale_ttl=500.0)

    def test_stats_exposes_the_hardening_surface(self, tmp_path):
        path = str(tmp_path / "svc.sock")

        def body(server):
            with ServiceClient(path=path) as client:
                stats = client.query("stats")["result"]
            assert stats["shed"] == 0
            assert stats["deadline_exceeded"] == 0
            assert stats["degraded"] == 0
            assert stats["breakers"] == {}
            assert stats["cache"]["disk_corrupt"] == 0
            # The kernel store is surfaced too (disk_fallbacks joins
            # these base counters when a disk tier is attached).
            store = stats["kernel_store"]
            assert {"entries", "hits", "misses"} <= set(store)
            assert all(isinstance(v, int) for v in store.values())

        _serve(body, path=path)


def _raw_answers(path, requests):
    """Send each request on one raw socket; the raw bytes of each
    terminal (non-progress) answer line, in order."""
    lines = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(path)
        with sock.makefile("rwb") as stream:
            for request in requests:
                stream.write(encode_line(request))
                stream.flush()
                line = stream.readline()
                while json.loads(line)["event"] == "progress":
                    line = stream.readline()
                lines.append(line)
    return lines


class TestMemoHitFrames:
    def test_every_hit_line_is_encode_line_of_its_event(self, tmp_path):
        """A memo hit splices the cached payload's stored JSON into its
        frame; the line must equal ``encode_line`` of the event it
        decodes to, byte for byte — for disk-promoted and memory-tier
        hits, whatever the request id."""
        directory = str(tmp_path / "results")
        path = str(tmp_path / "svc.sock")
        query = {"op": "uber", **SMALL}
        ids = ["first", 7, None, "é-\u2603", {"nested": [1, "x"]}]

        def cold(server):
            (line,) = _raw_answers(path, [{**query, "id": "cold"}])
            assert not json.loads(line)["cached"]

        _serve(cold, path=path, cache=ResultsCache(directory=directory))

        def warm(server):
            lines = _raw_answers(path, [{**query, "id": req_id}
                                        for req_id in ids])
            events = [json.loads(line) for line in lines]
            assert [e["id"] for e in events] == ids
            assert all(e["cached"] for e in events)
            for line, event in zip(lines, events):
                assert line == encode_line(event)
            assert server.cache.stats()["disk_hits"] == 1

        _serve(warm, path=path, cache=ResultsCache(directory=directory))


class TestOneExecutorRule:
    @pytest.mark.parametrize("side,ratios,patterns,jobs,spool,want", [
        (16, (3.0, 2.0), ("solid0",), None, False, "serial"),
        (64, (3.0, 2.0), ("solid0",), 2, False, "serial"),
        (512, (3.0, 2.0, 1.5), ("random", "solid0", "checkerboard"), 2,
         False, "process"),
        (1024, (3.0, 1.5), ("solid0", "random"), 2, True,
         "distributed"),
    ])
    def test_service_and_library_pick_the_same_executor(
            self, tmp_path, monkeypatch, side, ratios, patterns, jobs,
            spool, want):
        """A service ``sweep`` and a library ``uber_sweep`` with the
        same jobs, grid and environment run on one executor, and the
        answer names it."""
        from repro.device import MTJDevice, PAPER_EVAL_DEVICE
        from repro.memsys import uber_sweep
        if spool:
            os.makedirs(tmp_path / "spool")
            monkeypatch.setenv(SWEEP_SPOOL_ENV, str(tmp_path / "spool"))
        else:
            monkeypatch.delenv(SWEEP_SPOOL_ENV, raising=False)
        grid = dict(pitch_ratios=list(ratios), patterns=list(patterns),
                    eccs=["secded"], rows=side, cols=side)
        library = uber_sweep(MTJDevice(PAPER_EVAL_DEVICE), jobs=jobs,
                             **grid)
        assert library.extras["sweep"]["executor"] == want
        path = str(tmp_path / "svc.sock")

        def body(server):
            with ServiceClient(path=path, timeout=180.0) as client:
                event = client.query("sweep", jobs=jobs, **grid)
            assert event["result"]["executor"] == want
            assert event["result"]["rows"] == [
                list(row) for row in json.loads(json.dumps(
                    [[v.item() if hasattr(v, "item") else v
                      for v in row] for row in library.rows]))]

        _serve(body, path=path)


class TestDistributedSweepDrain:
    def test_drain_mid_distributed_sweep_delivers_result(
            self, tmp_path, monkeypatch):
        """SIGTERM-equivalent drain while a distributed sweep is in
        flight: the spool run finishes, the client gets its result,
        and only then does the server exit."""
        spool = str(tmp_path / "spool")
        os.makedirs(spool)
        monkeypatch.setenv(SWEEP_SPOOL_ENV, spool)
        path = str(tmp_path / "svc.sock")
        release = threading.Event()
        real_sweep = RUNNERS["sweep"]

        def gated_sweep(query, abort, publish):
            release.wait(30.0)
            return real_sweep(query, abort, publish)

        monkeypatch.setitem(RUNNERS, "sweep", gated_sweep)

        async def main():
            server = ReliabilityServer(path=path, capacity=16)
            await server.start()
            serve_task = asyncio.create_task(
                server.serve_forever(install_signals=False))

            holder = {}

            def sweep_query():
                with ServiceClient(path=path,
                                   timeout=180.0) as client:
                    holder["event"] = client.query(
                        "sweep", pitch_ratios=[3.0, 2.0],
                        patterns=["random"], eccs=["secded"],
                        rows=16, cols=16, executor="distributed",
                        jobs=1)

            thread = threading.Thread(target=sweep_query)
            thread.start()
            while server.in_flight == 0:
                await asyncio.sleep(0.005)

            server.request_stop()       # drain begins mid-sweep
            await asyncio.sleep(0.05)
            assert not serve_task.done()
            release.set()
            await asyncio.wait_for(serve_task, timeout=180.0)
            thread.join(timeout=180.0)
            assert not thread.is_alive()

            event = holder["event"]
            assert event["ok"]
            assert event["result"]["executor"] == "distributed"
            assert len(event["result"]["rows"]) == 2
            # The spool outlives the drain for the next campaign.
            assert os.path.isdir(spool)

        asyncio.run(main())


class TestCliSmoke:
    """The full `repro serve` / `repro query` process topology."""

    @pytest.fixture()
    def served(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src")]
                       + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        deadline = time.monotonic() + 60.0
        while not os.path.exists(path):
            assert proc.poll() is None, proc.stdout.read()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        try:
            yield path, proc, env
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

    def _query(self, env, path, op, params=None):
        cmd = [sys.executable, "-m", "repro.cli", "query", op,
               "--socket", path]
        if params:
            cmd += ["--params", json.dumps(params)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              env=env, timeout=120.0)
        assert done.returncode == 0, done.stdout + done.stderr
        return json.loads(done.stdout)

    def test_serve_query_sigterm_lifecycle(self, served):
        path, proc, env = served
        cold = self._query(env, path, "uber", SMALL)
        assert cold["ok"] and not cold["cached"]
        warm = self._query(env, path, "uber", SMALL)
        assert warm["cached"]
        stats = self._query(env, path, "stats")["result"]
        assert stats["cache"]["hits"] == 1
        assert stats["coalesce"]["runs_started"] == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30.0) == 0
        out = proc.stdout.read()
        assert "drained" in out
        assert not os.path.exists(path)
