"""The chaos matrix: every seeded fault plan, end to end.

One test per ``(seed, kind)`` cell. Each cell builds its scenario from
:class:`FaultPlan` alone — which chunk dies, which byte flips, which
rename fails all derive from the seed — so a red cell reproduces
locally with ``pytest -k 'chaos and <kind> and <seed>'`` and nothing
else. The CI ``chaos-smoke`` job runs exactly this file.
"""

import dataclasses
import os
import threading
import time

import numpy as np
import pytest

from repro.errors import ResilienceWarning, RunAborted
from repro.memsys import build_engine
from repro.resilience import (
    FAULT_KINDS,
    CheckpointManager,
    FaultPlan,
    WorkerKilled,
)
from repro.sweep.distributed import (
    SHUTDOWN_SENTINEL,
    DistributedBroker,
    SpoolWorker,
)
from repro.units import nm_to_m

SEEDS = (0, 1)


def chaos_point(x, stall_target=None, delay=0.6):
    """One grid point; the stall-heartbeat scenario's target point
    sleeps past the broker's watchdog while its heartbeat is frozen."""
    if stall_target is not None and x == stall_target:
        time.sleep(delay)
    return x * 3 + 1


def _worker_thread(spool, faults, worker_id):
    """A spool worker in a thread; an injected kill ends the thread
    with its claim left to go stale, exactly like a dead process."""

    def serve():
        worker = SpoolWorker(spool, worker_id=worker_id, poll=0.02,
                             max_idle=30.0, faults=faults)
        try:
            worker.serve_forever()
        except WorkerKilled:
            pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def _stop_workers(spool, *threads):
    """Raise the shutdown sentinel so idle workers exit promptly."""
    with open(os.path.join(spool, SHUTDOWN_SENTINEL), "w"):
        pass
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def _broker(spool, plan, **kwargs):
    kwargs.setdefault("chunk_size", 1)
    kwargs.setdefault("spawn", 0)
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("timeout", 60.0)
    points = [{"x": x} for x in range(plan.n_chunks)]
    return DistributedBroker(chaos_point, spool=spool,
                             **kwargs), points


@pytest.mark.integration
@pytest.mark.parametrize("seed", SEEDS)
class TestChaosMatrix:
    def test_worker_kill(self, seed, tmp_path):
        """kill-worker-at-chunk-N: the claim goes stale, the chunk is
        stolen back, and a clean retry completes the sweep."""
        plan = FaultPlan(seed, "worker-kill")
        spool = str(tmp_path)
        faults = plan.worker_faults()
        broker, points = _broker(spool, plan, steal=False,
                                 heartbeat_timeout=0.3)
        doomed = _worker_thread(spool, faults, "doomed")
        threads = [doomed]

        # The doomed worker serves alone until its kill fires (so the
        # target chunk cannot be raced away from it); only then does
        # the clean replacement attach to pick up the stale claim.
        def launch_clean_after_kill():
            stop_at = time.monotonic() + 30.0
            while faults.kills == 0 and time.monotonic() < stop_at:
                time.sleep(0.02)
            threads.append(_worker_thread(spool, None, "clean"))

        launcher = threading.Thread(target=launch_clean_after_kill,
                                    daemon=True)
        launcher.start()
        try:
            values = broker.run(points)
        finally:
            launcher.join(timeout=60.0)
            _stop_workers(spool, *threads)
        assert faults.kills == 1
        assert values == [chaos_point(**p) for p in points]
        assert broker.stats["requeued"] >= 1
        assert broker.stats["attempts_max"] >= 2

    def test_poison_chunk(self, seed, tmp_path):
        """poison-chunk: the chunk fails every attempt, is quarantined
        with a record, and the sweep completes with partial results."""
        plan = FaultPlan(seed, "poison-chunk")
        spool = str(tmp_path)
        broker, points = _broker(spool, plan, steal=False,
                                 heartbeat_timeout=5.0,
                                 max_attempts=2,
                                 on_poison="quarantine")
        worker = _worker_thread(spool, plan.worker_faults(), "w1")
        try:
            with pytest.warns(ResilienceWarning, match="quarantined"):
                values = broker.run(points)
        finally:
            _stop_workers(spool, worker)
        expected = [chaos_point(**p) for p in points]
        expected[plan.target_chunk] = None
        assert values == expected
        assert broker.stats["quarantined"] == [plan.target_chunk]
        record = os.path.join(
            spool, "quarantine",
            f"chunk-{plan.target_chunk:06d}.json")
        assert os.path.exists(record)

    def test_corrupt_checkpoint(self, seed, tmp_path, eval_device):
        """corrupt-checkpoint: the checksum gate catches the plan's
        byte flip and the resume degrades to a clean, correct
        restart."""
        plan = FaultPlan(seed, "corrupt-checkpoint")
        engine_kwargs = dict(pitch=nm_to_m(70.0), rows=16, cols=16,
                             ecc="secded", workload="random")
        base = build_engine(eval_device, **engine_kwargs).run(
            4096, rng=np.random.default_rng(seed), batch_size=1024)

        manager = CheckpointManager(str(tmp_path))

        def kill_after_two(done, total, calls=[]):
            calls.append(1)
            if len(calls) >= 2:
                raise RunAborted("chaos kill")

        with pytest.raises(RunAborted):
            build_engine(eval_device, **engine_kwargs).run(
                4096, rng=np.random.default_rng(seed),
                batch_size=1024, checkpoint=manager,
                progress=kill_after_two)
        plan.corrupt(os.path.join(str(tmp_path), "run.ckpt"))

        with pytest.warns(ResilienceWarning, match="corrupt"):
            resumed = build_engine(eval_device, **engine_kwargs).run(
                4096, rng=np.random.default_rng(seed),
                batch_size=1024, checkpoint=manager, resume=True)
        assert manager.corrupt_fallbacks == 1
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)

    def test_eio_on_rename(self, seed, tmp_path):
        """eio-on-rename: the scheduled commit failure is counted and
        survived; later checkpoints land normally."""
        plan = FaultPlan(seed, "eio-on-rename")
        fs = plan.filesystem()
        manager = CheckpointManager(str(tmp_path), fs=fs)
        outcomes = []
        for _ in range(plan.replace_ordinal + 1):
            if manager.saves + manager.save_failures \
                    + 1 == plan.replace_ordinal:
                with pytest.warns(ResilienceWarning,
                                  match="save failed"):
                    outcomes.append(manager.save("run", {"key": "k"}))
            else:
                outcomes.append(manager.save("run", {"key": "k"}))
        assert outcomes.count(False) == 1
        assert manager.save_failures == 1
        assert fs.injected == 1
        # The surviving checkpoint is intact and loadable.
        assert manager.load("run") is not None

    def test_stall_heartbeat(self, seed, tmp_path):
        """stall-heartbeat: a live worker that stops heartbeating is
        declared dead and its chunk stolen; at-most-once commit keeps
        the duplicate harmless."""
        plan = FaultPlan(seed, "stall-heartbeat")
        spool = str(tmp_path)
        points = [{"x": x, "stall_target": plan.target_chunk}
                  for x in range(plan.n_chunks)]
        # steal=False: the stalled worker is the only executor, so the
        # target chunk is guaranteed to run under the frozen heartbeat
        # (an inline-stealing broker could drain the queue first).
        broker = DistributedBroker(chaos_point, spool=spool,
                                   chunk_size=1, spawn=0, steal=False,
                                   heartbeat_timeout=0.25, poll=0.02,
                                   timeout=60.0)
        worker = _worker_thread(spool, plan.worker_faults(), "stalled")
        try:
            values = broker.run(points)
        finally:
            _stop_workers(spool, worker)
        assert values == [chaos_point(**p) for p in points]
        assert broker.stats["requeued"] >= 1

    def _corrupted_commit_recovers(self, plan, spool):
        """Shared body of the two result-corruption cells: the worker
        mangles its own committed result file, the broker's frame
        verification rejects it as a counted integrity miss (never a
        wrong value), and a clean retry completes the sweep."""
        faults = plan.worker_faults()
        broker, points = _broker(spool, plan, steal=False,
                                 heartbeat_timeout=5.0,
                                 max_attempts=3)
        worker = _worker_thread(spool, faults, "mangler")
        try:
            values = broker.run(points)
        finally:
            _stop_workers(spool, worker)
        assert faults.corruptions == 1
        assert values == [chaos_point(**p) for p in points]
        assert broker.stats["integrity_rejects"] >= 1
        assert broker.stats["error_retries"] >= 1

    def test_torn_write(self, seed, tmp_path):
        """torn-write: flipped bytes inside a committed result file
        are caught by the frame digest and retried cleanly."""
        self._corrupted_commit_recovers(
            FaultPlan(seed, "torn-write"), str(tmp_path))

    def test_truncated_result(self, seed, tmp_path):
        """truncated-result: a result file cut mid-write is caught by
        the frame length check and retried cleanly."""
        self._corrupted_commit_recovers(
            FaultPlan(seed, "truncated-result"), str(tmp_path))


def test_matrix_covers_every_fault_kind():
    """Adding a FAULT_KINDS member without a matrix cell is a test
    failure, not a silent coverage gap."""
    covered = {name[len("test_"):].replace("_", "-")
               for name in dir(TestChaosMatrix)
               if name.startswith("test_")}
    assert covered == set(FAULT_KINDS)
