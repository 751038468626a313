"""Tests for the distributed sweep executor (spool-directory transport).

Covers the broker/worker protocol end to end — determinism against the
serial baseline, external-worker service, the work-stealing schedule —
and the fault-injection acceptance cases: a worker crashing mid-chunk,
a stale heartbeat losing its claim, and duplicate result commits.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time

import pytest

from repro.errors import IntegrityError, ParameterError, ResilienceWarning
from repro.sweep import (
    SHUTDOWN_SENTINEL,
    SWEEP_SPAWN_ENV,
    SWEEP_SPOOL_ENV,
    DistributedBroker,
    SpoolWorker,
    SweepSpec,
    run_sweep,
    schedule_chunks,
)
from repro.sweep.distributed import (
    QUARANTINE_DIR,
    SWEEP_HEARTBEAT_ENV,
    SWEEP_MAX_ATTEMPTS_ENV,
    SpoolRun,
    worker_main,
)
from repro.validation import require_positive


def product_point(a, b):
    """Module-level picklable point function."""
    require_positive(a, "a")
    require_positive(b, "b")
    return a * b


def crash_once_point(a, marker):
    """Crashes the hosting process on the first-ever call (by marker).

    The exclusive create makes exactly one caller die mid-chunk —
    before any result commit — so the broker must detect the stale
    claim and retry the chunk elsewhere.
    """
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return a * 10
    os._exit(1)


def slow_point(a, delay):
    time.sleep(delay)
    return a + 1


def fail_once_point(a, marker):
    """Ships one error payload (by marker), then succeeds on retry."""
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return a * 10
    raise RuntimeError("injected transient failure")


def poison_point(a, poison_at):
    """Fails every attempt at one point — a genuinely poison chunk."""
    if a == poison_at:
        raise RuntimeError("this point is poison")
    return a * 10


class TestScheduleChunks:
    def test_covers_every_point_in_order(self):
        bounds = schedule_chunks(101, 4)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 101
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_guided_sizes_decrease_to_small_tail(self):
        bounds = schedule_chunks(100, 4)
        sizes = [stop - start for start, stop in bounds]
        assert sizes[0] == 100 // 8
        assert sorted(sizes, reverse=True) == sizes
        assert sizes[-1] == 1

    def test_explicit_chunk_size_is_uniform(self):
        bounds = schedule_chunks(10, 4, chunk_size=4)
        assert bounds == [(0, 4), (4, 8), (8, 10)]

    def test_min_chunk_floor(self):
        sizes = [stop - start
                 for start, stop in schedule_chunks(40, 4, min_chunk=5)]
        assert min(sizes) >= 5 or sum(sizes) == 40
        assert sum(sizes) == 40

    def test_empty_sweep(self):
        assert schedule_chunks(0, 4) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            schedule_chunks(-1, 4)
        with pytest.raises(ParameterError):
            schedule_chunks(10, 0)
        with pytest.raises(ParameterError):
            schedule_chunks(10, 4, chunk_size=0)


class TestDistributedExecutor:
    def test_matches_serial(self):
        spec = SweepSpec.product(a=tuple(range(1, 11)), b=(2, 3))
        serial = run_sweep(product_point, spec)
        distributed = run_sweep(product_point, spec,
                                executor="distributed", jobs=2)
        assert distributed.values == serial.values
        assert distributed.executor == "distributed"
        stats = distributed.extras["distributed"]
        assert stats["chunks"] >= 2
        assert stats["workers_spawned"] == 2

    def test_point_error_propagates(self):
        spec = SweepSpec.product(a=(1, -1), b=(2,))
        with pytest.raises(ParameterError):
            run_sweep(product_point, spec, executor="distributed",
                      jobs=2)

    def test_setup_failure_cleans_owned_temp_spool(self, tmp_path,
                                                   monkeypatch):
        """An unpicklable func fails during run setup — before any
        worker spawns — and must not leak the broker's temp spool."""
        import pickle
        import tempfile
        from repro.sweep import distributed
        owned = tmp_path / "owned-spool"

        def fake_mkdtemp(prefix):
            owned.mkdir()
            return str(owned)

        monkeypatch.delenv(SWEEP_SPOOL_ENV, raising=False)
        monkeypatch.setattr(tempfile, "mkdtemp", fake_mkdtemp)
        broker = distributed.DistributedBroker(lambda **kw: 1, jobs=2)
        with pytest.raises((pickle.PicklingError, AttributeError,
                            TypeError)):
            broker.run([{"a": 1}])
        assert not owned.exists()

    def test_spool_env_is_used_and_run_dir_cleaned(self, tmp_path,
                                                   monkeypatch):
        spool = tmp_path / "spool"
        monkeypatch.setenv(SWEEP_SPOOL_ENV, str(spool))
        spec = SweepSpec.product(a=(1, 2, 3), b=(5,))
        result = run_sweep(product_point, spec, executor="distributed",
                           jobs=2)
        assert result.values == [5, 10, 15]
        # The spool survives (external workers may be attached); the
        # completed run directory does not.
        assert spool.is_dir()
        assert not [p for p in spool.iterdir()
                    if p.name.startswith("run-")]

    def test_bogus_spawn_env_raises_parameter_error(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv(SWEEP_SPAWN_ENV, "two")
        with pytest.raises(ParameterError, match=SWEEP_SPAWN_ENV):
            DistributedBroker(product_point, spool=str(tmp_path))

    def test_zero_spawn_broker_steals_everything(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(SWEEP_SPAWN_ENV, "0")
        broker = DistributedBroker(product_point,
                                   spool=str(tmp_path), jobs=2)
        values = broker.run([{"a": a, "b": 2} for a in (1, 2, 3)])
        assert values == [2, 4, 6]
        assert broker.stats["workers_spawned"] == 0
        assert broker.stats["stolen"] == broker.stats["chunks"]

    def test_external_worker_serves_the_run(self, tmp_path):
        """With spawn=0 and stealing off, only an attached worker can
        make progress — the full `repro worker` service path."""
        spool = str(tmp_path)
        worker = SpoolWorker(spool, worker_id="ext-1", poll=0.01,
                             max_idle=30.0)
        thread = threading.Thread(target=worker.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            broker = DistributedBroker(product_point, spool=spool,
                                       jobs=2, spawn=0, steal=False,
                                       timeout=30.0)
            values = broker.run([{"a": a, "b": 3}
                                 for a in (1, 2, 3, 4)])
            assert values == [3, 6, 9, 12]
            assert worker.stats["points"] == 4
        finally:
            with open(os.path.join(spool, SHUTDOWN_SENTINEL), "w"):
                pass
            thread.join(timeout=10.0)
        assert not thread.is_alive()


@pytest.mark.integration
class TestFaultInjection:
    def test_worker_crash_mid_chunk_is_retried(self, tmp_path):
        """A worker dying before its commit loses the chunk to a live
        worker via the stale-heartbeat watchdog."""
        marker = str(tmp_path / "crashed-once")
        broker = DistributedBroker(
            crash_once_point, spool=str(tmp_path / "spool"), jobs=2,
            chunk_size=1, heartbeat_timeout=0.3, poll=0.02, spawn=2,
            steal=False, timeout=60.0)
        values = broker.run([{"a": a, "marker": marker}
                             for a in (1, 2, 3, 4)])
        assert values == [10, 20, 30, 40]
        assert os.path.exists(marker), "crash point never fired"
        assert broker.stats["requeued"] >= 1
        assert broker.stats["attempts_max"] >= 2

    def test_slow_point_outlives_heartbeat_timeout(self, tmp_path):
        """A point slower than the heartbeat timeout must NOT look
        stale: the worker's ticker thread keeps the heartbeat fresh
        through points of any duration."""
        broker = DistributedBroker(
            slow_point, spool=str(tmp_path), jobs=1, chunk_size=2,
            heartbeat_timeout=0.4, poll=0.02, spawn=1, steal=False,
            timeout=60.0)
        values = broker.run([{"a": a, "delay": 0.5} for a in (1, 2)])
        assert values == [2, 3]
        assert broker.stats["requeued"] == 0

    def test_fresh_claim_of_stale_queued_job_is_not_stolen(self,
                                                           tmp_path):
        """The claim stamps its own mtime: a chunk that sat *queued*
        past the timeout must not be judged stale the moment a live
        worker picks it up."""
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": 1, "b": 2}])
        run.open()
        # Backdate the queued job file: rename preserves mtime, so a
        # naive watchdog fallback would see an hours-old claim.
        job = os.path.join(run.queue_dir, os.listdir(run.queue_dir)[0])
        os.utime(job, (1.0, 1.0))
        # The worker also carries a stale heartbeat file from its
        # previous chunk — liveness is the *freshest* signal, so the
        # just-stamped claim must win over the old heartbeat.
        run.heartbeat("hot-join-worker")
        os.utime(os.path.join(run.hb_dir, "hot-join-worker"),
                 (1.0, 1.0))
        _, _, claim_path = run.claim("hot-join-worker")
        assert run.heartbeat_age("hot-join-worker", claim_path) < 60.0

    def test_stale_heartbeat_claim_is_stolen_back(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": 1, "b": 2}])
        run.open()
        claim = run.claim("dead-worker")
        assert claim is not None
        _, _, claim_path = claim
        # Backdate both the claim and the (never-written) heartbeat.
        os.utime(claim_path, (1.0, 1.0))
        assert run.heartbeat_age("dead-worker", claim_path) > 1e6

        broker = DistributedBroker(product_point, heartbeat_timeout=0.1)
        broker.stats = {"requeued": 0, "duplicates": 0,
                        "attempts_max": 1}
        attempts = {0: 1}
        assert broker._requeue_stale(run, {}, attempts, {},
                                     {0: [{"a": 1, "b": 2}]},
                                     str(tmp_path))
        assert attempts[0] == 2
        # The chunk is claimable again and completes normally.
        chunk, points, _ = run.claim("live-worker")
        assert chunk == 0 and points == [{"a": 1, "b": 2}]

    def test_live_heartbeat_is_not_stolen(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": 1, "b": 2}])
        run.open()
        run.claim("busy-worker")
        run.heartbeat("busy-worker")
        broker = DistributedBroker(product_point,
                                   heartbeat_timeout=30.0)
        broker.stats = {"requeued": 0, "duplicates": 0,
                        "attempts_max": 1}
        assert not broker._requeue_stale(run, {}, {0: 1}, {},
                                         {0: [{"a": 1, "b": 2}]},
                                         str(tmp_path))
        assert run.claim("thief") is None

    def test_retry_exhaustion_raises(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": 1, "b": 2}])
        run.open()
        _, _, claim_path = run.claim("dead-worker")
        os.utime(claim_path, (1.0, 1.0))
        broker = DistributedBroker(product_point, heartbeat_timeout=0.1,
                                   max_attempts=3)
        broker.stats = {"requeued": 0, "duplicates": 0,
                        "attempts_max": 1}
        with pytest.raises(RuntimeError, match="claim attempt"):
            broker._requeue_stale(run, {}, {0: 3}, {},
                                  {0: [{"a": 1, "b": 2}]},
                                  str(tmp_path))

    @pytest.mark.parametrize("failure", ["stale", "error", "digest"])
    def test_exhausted_raise_leaves_claim_or_result_for_post_mortem(
            self, tmp_path, failure):
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": 1, "b": 2}])
        run.open()
        _, _, claim_path = run.claim("dead-worker")
        broker = DistributedBroker(product_point, heartbeat_timeout=0.1,
                                   max_attempts=2)
        broker.stats = {"requeued": 0, "duplicates": 0,
                        "error_retries": 0, "integrity_rejects": 0,
                        "attempts_max": 1}
        args = ({}, {0: 2}, {}, {0: [{"a": 1, "b": 2}]}, str(tmp_path))
        if failure == "stale":
            os.utime(claim_path, (1.0, 1.0))
            with pytest.raises(RuntimeError, match="claim attempt"):
                broker._requeue_stale(run, *args)
            assert os.path.exists(claim_path)
            return
        error = ValueError("poison point")
        run.commit(0, {"chunk": 0, "error": error}, "dead-worker")
        result = os.path.join(run.results_dir, "chunk-000000.pkl")
        if failure == "digest":
            with open(result, "r+b") as fh:
                fh.truncate(os.path.getsize(result) - 1)
        expected = ValueError if failure == "error" else IntegrityError
        with pytest.raises(expected):
            broker._collect(run, *args[:4], 1, args[4])
        assert os.path.exists(result)
        assert broker.stats["error_retries"] == 0

    def test_duplicate_result_commit_is_dropped_at_source(self,
                                                          tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        payload = {"chunk": 0, "values": [2]}
        assert run.commit(0, payload, "w1") is True
        assert run.commit(0, payload, "w2") is False
        assert [c for c, _ in run.collect()] == [0]

    def test_late_error_commit_cannot_clobber_good_result(self,
                                                          tmp_path):
        """A presumed-dead worker whose late attempt *failed* must not
        overwrite the committed success of the chunk's re-claimer."""
        run = SpoolRun.create(str(tmp_path), product_point)
        assert run.commit(0, {"chunk": 0, "values": [42]}, "fast")
        bad = {"chunk": 0, "error": RuntimeError("late failure")}
        assert run.commit(0, bad, "slow") is False
        results = dict(run.collect())
        assert results[0]["values"] == [42]
        assert "error" not in results[0]

    def test_worker_counts_duplicate_commit(self, tmp_path):
        """A presumed-dead worker finishing late commits nothing and
        counts the duplicate."""
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": 3, "b": 3}])
        run.open()
        # Another worker already committed this chunk.
        run.commit(0, {"chunk": 0, "values": [9]}, "fast-worker")
        worker = SpoolWorker(str(tmp_path), worker_id="slow-worker",
                             poll=0.01)
        assert worker.process_one(run)
        assert worker.stats["duplicate_commits"] == 1
        results = dict(run.collect())
        assert results[0]["values"] == [9]

    def test_commit_into_torn_down_run_is_a_quiet_duplicate(self,
                                                            tmp_path):
        """A worker finishing after the broker removed the run must
        not crash — the late commit just reads as a duplicate."""
        import shutil
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": 2, "b": 2}])
        run.open()
        chunk, _, _ = run.claim("slow-worker")
        shutil.rmtree(run.path)
        assert run.commit(chunk, {"chunk": chunk, "values": [4]},
                          "slow-worker") is False
        run.heartbeat("slow-worker")  # must not raise either

    def test_late_claim_of_collected_chunk_is_dropped(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": 1, "b": 2}])
        run.open()
        _, _, claim_path = run.claim("slow-worker")
        broker = DistributedBroker(product_point, heartbeat_timeout=0.1)
        broker.stats = {"requeued": 0, "duplicates": 0,
                        "attempts_max": 1}
        # Chunk 0 already collected: the outstanding claim is garbage.
        assert not broker._requeue_stale(
            run, {0: {"chunk": 0, "values": [2]}}, {0: 2}, {},
            {0: [{"a": 1, "b": 2}]}, str(tmp_path))
        assert broker.stats["duplicates"] == 1
        assert not os.path.exists(claim_path)


class TestRetryBudgetAndQuarantine:
    """Error-payload retries, the poison policy, and the env knobs."""

    def test_error_payload_retries_then_succeeds(self, tmp_path):
        marker = str(tmp_path / "marker")
        points = [{"a": a, "marker": marker} for a in range(4)]
        broker = DistributedBroker(fail_once_point,
                                   spool=str(tmp_path / "spool"),
                                   chunk_size=1, spawn=0, steal=True,
                                   poll=0.01, timeout=30.0)
        values = broker.run(points)
        assert values == [a * 10 for a in range(4)]
        assert broker.stats["error_retries"] == 1
        assert broker.stats["steal_errors"] == 1
        assert broker.stats["attempts_max"] == 2
        # The run summary names the chunk that needed extra attempts.
        assert list(broker.stats["attempts"].values()) == [2]
        assert broker.stats["quarantined"] == []

    def test_poison_chunk_raises_by_default(self, tmp_path):
        points = [{"a": a, "poison_at": 1} for a in range(3)]
        broker = DistributedBroker(poison_point,
                                   spool=str(tmp_path / "spool"),
                                   chunk_size=1, spawn=0, steal=True,
                                   poll=0.01, max_attempts=2,
                                   timeout=30.0)
        with pytest.raises(RuntimeError, match="poison"):
            broker.run(points)

    def test_poison_chunk_quarantined_with_partial_results(
            self, tmp_path):
        spool = str(tmp_path / "spool")
        points = [{"a": a, "poison_at": 1} for a in range(3)]
        broker = DistributedBroker(poison_point, spool=spool,
                                   chunk_size=1, spawn=0, steal=True,
                                   poll=0.01, max_attempts=2,
                                   on_poison="quarantine",
                                   timeout=30.0)
        with pytest.warns(ResilienceWarning, match="quarantined"):
            values = broker.run(points)
        assert values == [0, None, 20]
        assert broker.stats["quarantined"] == [1]

        # The poison ledger is JSON, not pickle: inspecting a record a
        # hostile task wrote must never execute attacker-shaped bytes.
        record_path = os.path.join(spool, QUARANTINE_DIR,
                                   "chunk-000001.json")
        with open(record_path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["chunk"] == 1
        assert record["points"] == [{"a": 1, "poison_at": 1}]
        assert record["attempts"] == 2
        assert "poison" in record["error"]
        assert isinstance(record["error_type"], str)
        assert record["workers"] == ["broker"]

    def test_env_knobs_configure_the_budget(self, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv(SWEEP_MAX_ATTEMPTS_ENV, "7")
        monkeypatch.setenv(SWEEP_HEARTBEAT_ENV, "2.5")
        broker = DistributedBroker(product_point,
                                   spool=str(tmp_path))
        assert broker.max_attempts == 7
        assert broker.heartbeat_timeout == 2.5
        # Explicit arguments still win over the environment.
        broker = DistributedBroker(product_point, spool=str(tmp_path),
                                   max_attempts=2,
                                   heartbeat_timeout=1.0)
        assert broker.max_attempts == 2
        assert broker.heartbeat_timeout == 1.0

    def test_malformed_env_knob_is_rejected(self, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv(SWEEP_MAX_ATTEMPTS_ENV, "many")
        with pytest.raises(ParameterError,
                           match=SWEEP_MAX_ATTEMPTS_ENV):
            DistributedBroker(product_point, spool=str(tmp_path))
        monkeypatch.delenv(SWEEP_MAX_ATTEMPTS_ENV)
        monkeypatch.setenv(SWEEP_HEARTBEAT_ENV, "soon")
        with pytest.raises(ParameterError,
                           match=SWEEP_HEARTBEAT_ENV):
            DistributedBroker(product_point, spool=str(tmp_path))

    def test_on_poison_is_validated(self, tmp_path):
        with pytest.raises(ParameterError, match="on_poison"):
            DistributedBroker(product_point, spool=str(tmp_path),
                              on_poison="shrug")


class TestSpoolRunLifecycle:
    """The spool-run file protocol, one step at a time."""

    def test_open_then_done_flags(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        assert not run.is_open() and not run.is_done()
        run.open()
        assert run.is_open() and not run.is_done()
        run.mark_done()
        assert run.is_done() and not run.is_open()

    def test_task_round_trips(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        assert pickle.loads(run.task_bytes()) is product_point
        assert run.load_func()(a=2, b=3) == 6

    def test_archived_points_replay(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        points = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        run.archive_points(7, points)
        assert run.replay_points(7) == points
        assert SpoolRun.chunk_name(7) == "chunk-000007"
        assert run.result_path(7).endswith(
            os.path.join("results", SpoolRun.chunk_name(7, ".pkl")))

    def test_commit_is_at_most_once_until_discarded(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        assert run.commit(0, {"values": [1]}, "w1")
        assert not run.commit(0, {"values": [2]}, "w2")
        assert list(run.collect()) == [(0, {"values": [1]})]
        run.discard_result(0)
        run.discard_result(0)  # already gone: harmless
        assert list(run.collect()) == []
        assert run.commit(0, {"values": [2]}, "w2")
        assert list(run.collect()) == [(0, {"values": [2]})]

    def test_requeue_returns_a_claim_to_the_queue(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(4, [{"a": 1, "b": 1}])
        run.open()
        _, _, claim_path = run.claim("slow-worker")
        assert run.queued_jobs() == []
        assert run.requeue(claim_path) == 4
        assert run.requeue(claim_path) is None  # already moved
        chunk, points, claim_path = run.claim("next-worker")
        assert (chunk, points) == (4, [{"a": 1, "b": 1}])
        assert [c[:2] for c in run.claimed_jobs()] == [(4, "next-worker")]
        run.clear_claim(claim_path)
        run.clear_claim(claim_path)
        assert run.claimed_jobs() == []


class TestSpoolWorker:
    def test_rejects_reserved_worker_id_characters(self, tmp_path):
        with pytest.raises(ParameterError):
            SpoolWorker(str(tmp_path), worker_id="bad@id")
        with pytest.raises(ParameterError):
            SpoolWorker(str(tmp_path), worker_id=f"bad{os.sep}id")

    def test_max_idle_exits(self, tmp_path):
        worker = SpoolWorker(str(tmp_path), poll=0.01, max_idle=0.05)
        stats = worker.serve_forever()
        assert stats["chunks"] == 0

    def test_shutdown_sentinel_exits(self, tmp_path):
        with open(tmp_path / SHUTDOWN_SENTINEL, "w"):
            pass
        worker = SpoolWorker(str(tmp_path), poll=0.01)
        stats = worker.serve_forever()
        assert stats == {"chunks": 0, "points": 0, "errors": 0,
                         "duplicate_commits": 0}

    def test_func_cache_pruned_after_run_closes(self, tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": 2, "b": 2}])
        run.open()
        worker = SpoolWorker(str(tmp_path), worker_id="w1", poll=0.01)
        assert worker.process_one(run)
        assert run.path in worker._funcs
        run.mark_done()
        worker._prune_func_cache()
        assert worker._funcs == {}

    def test_point_error_ships_instead_of_killing_worker(self,
                                                         tmp_path):
        run = SpoolRun.create(str(tmp_path), product_point)
        run.enqueue(0, [{"a": -1, "b": 2}])
        run.open()
        worker = SpoolWorker(str(tmp_path), worker_id="w1", poll=0.01)
        assert worker.process_one(run)
        assert worker.stats["errors"] == 1
        results = dict(run.collect())
        assert isinstance(results[0]["error"], ParameterError)

    def test_timeout_bounds_total_wall_clock(self, tmp_path):
        """A wedged (forever-empty) spool cannot hang the worker past
        its --timeout deadline."""
        worker = SpoolWorker(str(tmp_path), poll=0.01, timeout=0.2)
        started = time.monotonic()
        stats = worker.serve_forever()
        assert time.monotonic() - started < 5.0
        assert stats["chunks"] == 0

    def test_timeout_clamps_backed_off_sleeps(self, tmp_path):
        """The deadline wins over the idle-poll backoff: a huge poll
        interval must not stretch the worker past its timeout."""
        worker = SpoolWorker(str(tmp_path), poll=30.0, timeout=0.2)
        started = time.monotonic()
        worker.serve_forever()
        assert time.monotonic() - started < 5.0

    def test_idle_poll_backs_off_exponentially(self, tmp_path):
        """Idle polls double per empty scan, capped at max_poll."""
        worker = SpoolWorker(str(tmp_path), poll=0.01, max_poll=0.05)
        delays = [worker.poll]
        for _ in range(5):
            delays.append(worker._next_idle_delay(delays[-1]))
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05, 0.05]

    def test_default_backoff_ceiling(self, tmp_path):
        worker = SpoolWorker(str(tmp_path), poll=0.05)
        assert worker.max_poll == 2.0
        delay = worker.poll
        for _ in range(20):
            delay = worker._next_idle_delay(delay)
        assert delay == 2.0

    def test_rejects_bad_timeout_and_max_poll(self, tmp_path):
        with pytest.raises(ParameterError):
            SpoolWorker(str(tmp_path), timeout=0.0)
        with pytest.raises(ParameterError):
            SpoolWorker(str(tmp_path), max_poll=-1.0)


class TestWorkerCLI:
    def test_requires_spool(self, monkeypatch, capsys):
        monkeypatch.delenv(SWEEP_SPOOL_ENV, raising=False)
        assert worker_main([]) == 1
        assert "no spool directory" in capsys.readouterr().out

    def test_serves_until_shutdown(self, tmp_path, capsys):
        with open(tmp_path / SHUTDOWN_SENTINEL, "w"):
            pass
        assert worker_main(["--spool", str(tmp_path), "--id", "cli-1",
                            "--poll", "0.01"]) == 0
        assert "worker cli-1" in capsys.readouterr().out

    def test_reads_spool_from_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SWEEP_SPOOL_ENV, str(tmp_path))
        with open(tmp_path / SHUTDOWN_SENTINEL, "w"):
            pass
        assert worker_main(["--max-idle", "5"]) == 0
        assert "served 0 chunk(s)" in capsys.readouterr().out

    def test_timeout_flag_exits_without_sentinel(self, tmp_path,
                                                 capsys):
        """`repro worker --timeout` returns even when nothing ever
        tells the worker to stop — the wedged-broker escape hatch."""
        assert worker_main(["--spool", str(tmp_path), "--poll", "0.01",
                            "--timeout", "0.2"]) == 0
        assert "served 0 chunk(s)" in capsys.readouterr().out
