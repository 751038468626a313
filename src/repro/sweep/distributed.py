"""Distributed sweep execution over a spool-directory job queue.

The third and last :data:`~repro.sweep.runner.EXECUTORS` entry ships
:class:`~repro.sweep.spec.SweepSpec` chunks to *worker processes* —
spawned locally by the broker, or attached from anywhere that can see
the spool directory (``python -m repro.cli worker --spool DIR``). The
transport is a plain directory of pickle files with atomic-rename
claims, so it needs no sockets, no daemons, and works across any
shared filesystem; with :data:`~repro.arrays.kernel_disk.KERNEL_CACHE_ENV`
pointing at common storage every worker starts from the shared
persistent kernel cache.

Protocol (one *run* per sweep, one directory per run)::

    <spool>/
      shutdown                    # sentinel: long-lived workers exit
      run-<token>/
        task.pkl                  # the (picklable) point function
        OPEN                      # broker accepts claims while present
        DONE                      # all results collected; workers move on
        queue/chunk-000007.job    # pending chunk: index + point dicts
        claimed/chunk-000007.job@<wid>   # atomic-rename claim
        results/chunk-000007.pkl  # committed values (or shipped error)
        hb/<wid>                  # heartbeats, refreshed by a ticker
                                  # thread while a chunk evaluates

Scheduling is *dynamic work stealing*: chunk sizes follow the guided
self-scheduling rule (:func:`schedule_chunks` — large chunks first,
small tail chunks last), workers pull the next pending chunk the moment
they finish one, and the broker (a) re-queues chunks whose claimer's
heartbeat went stale — a crashed or stalled worker loses its chunk to a
live one — and (b) optionally steals queued chunks itself while it
waits, which also guarantees liveness with zero attached workers.

Delivery semantics: claims are at-least-once (a stale claim is retried
up to ``max_attempts`` times), result *commits* are at-most-once — a
worker only commits a chunk it has not already seen committed, commits
are atomic renames, and the broker takes the first commit per chunk and
counts any late duplicate from a presumed-dead worker. Chunk results
reassemble in chunk order, so a seeded distributed sweep is
byte-identical to the serial baseline.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
import threading
import time
import uuid

import warnings

from ..errors import IntegrityError, ParameterError, ResilienceWarning
from ..integrity.manifest import (
    MANIFEST_NAME,
    RunManifest,
    atomic_write,
    blob_digest,
    pack_record,
    pickle_digest,
    unpack_record,
)
from ..validation import require_int_in_range, require_positive
from .runner import SWEEP_SPOOL_ENV, _flush_kernel_store, schedule_chunks

#: Local-worker count the broker spawns (default: its job count).
#: ``REPRO_SWEEP_SPAWN=0`` defers entirely to externally attached
#: workers (the broker still steals, so the sweep cannot deadlock).
SWEEP_SPAWN_ENV = "REPRO_SWEEP_SPAWN"

#: Claim/retry attempts per chunk before the broker gives up on it
#: (integer; overridden by an explicit ``max_attempts=``).
SWEEP_MAX_ATTEMPTS_ENV = "REPRO_SWEEP_MAX_ATTEMPTS"

#: Seconds without a heartbeat before a claimed chunk is declared
#: stale and stolen back (float; overridden by an explicit
#: ``heartbeat_timeout=``).
SWEEP_HEARTBEAT_ENV = "REPRO_SWEEP_HEARTBEAT_TIMEOUT"

#: Sentinel file name (in the spool root) that tells long-lived
#: workers to exit: ``touch $REPRO_SWEEP_SPOOL/shutdown``.
SHUTDOWN_SENTINEL = "shutdown"

#: Spool-root directory poison-chunk records move to under
#: ``on_poison="quarantine"``.
QUARANTINE_DIR = "quarantine"

#: When truthy ("1"/"true"), brokers on an external spool preserve the
#: finished run directory — replay inputs plus a sealed manifest —
#: instead of removing it, so ``repro audit`` can verify it later.
SWEEP_KEEP_ENV = "REPRO_SWEEP_KEEP_RUNS"

#: Per-run directory holding each chunk's input points for replay audit.
REPLAY_DIR = "replay"


def _env_number(name, cast):
    """``cast(os.environ[name])``, None when unset/empty; a present but
    malformed knob is an error, never a silent default."""
    raw = os.environ.get(name)
    if raw in (None, ""):
        return None
    try:
        return cast(raw)
    except ValueError:
        raise ParameterError(
            f"{name} must be {'an integer' if cast is int else 'a number'}, "
            f"got {raw!r}") from None

_RUN_PREFIX = "run-"
_CHUNK_PREFIX = "chunk-"
_JOB_SUFFIX = ".job"
_PICKLE_SUFFIX = ".pkl"
_CLAIM_SEP = "@"


def _json_safe_point(point):
    """``point`` if it survives JSON, else its ``repr`` — quarantine
    records must always write, whatever the sweep axes hold."""
    try:
        json.dumps(point)
        return point
    except (TypeError, ValueError):
        return repr(point)


def _load_pickle(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _listdir(path):
    """Sorted entries of ``path``; none when it is missing or unreadable
    (a run directory racing away mid-scan reads as empty)."""
    try:
        return sorted(os.listdir(path))
    except OSError:
        return []


def _age(path):
    """Seconds since ``path`` was modified; infinite when it is gone."""
    try:
        return time.time() - os.path.getmtime(path)
    except OSError:
        return float("inf")


def _picklable_error(exc):
    """``exc`` if it survives a pickle round-trip, else a wrapper.

    Worker exceptions cross a process boundary by value; an exception
    holding an unpicklable payload must degrade to a description, not
    take the result file down with it.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"distributed sweep point failed: {exc!r}")


def _chunk_payload(chunk, worker, evaluate):
    """The committed payload of one chunk: ``evaluate()``'s values, or
    the exception it raised, shipped for the broker's retry/poison
    accounting instead of propagating."""
    try:
        return {"chunk": chunk, "values": evaluate(), "worker": worker}
    except Exception as exc:
        return {"chunk": chunk, "error": _picklable_error(exc),
                "worker": worker}


def _chunk_of(name, suffix):
    """The ordinal of a ``chunk-NNNNNN<suffix>`` file name; None for any
    other name (temp files, strays)."""
    if not (name.startswith(_CHUNK_PREFIX) and name.endswith(suffix)):
        return None
    try:
        return int(name[len(_CHUNK_PREFIX):len(name) - len(suffix)])
    except ValueError:
        return None


class SpoolRun:
    """One sweep run inside a spool directory — both protocol ends.

    The broker constructs it with :meth:`create` (which lays out the
    run directory and persists the point function); workers construct
    it from the path alone. Every mutation is an atomic rename, so
    concurrent claims, commits, and steals never observe torn state.

    It is also the one reader of the layout: the fleet supervisor, fsck,
    audit and the CLI list runs (:meth:`runs`), jobs, claims,
    heartbeats and verified results through it, and every file name
    comes from :meth:`chunk_name`. Listings are tolerant: a missing
    directory or a name that is not a chunk file reads as nothing.
    """

    def __init__(self, path):
        self.path = str(path)
        self.queue_dir = os.path.join(self.path, "queue")
        self.claimed_dir = os.path.join(self.path, "claimed")
        self.results_dir = os.path.join(self.path, "results")
        self.hb_dir = os.path.join(self.path, "hb")
        self._task_path = os.path.join(self.path, "task.pkl")
        self._open_path = os.path.join(self.path, "OPEN")
        self._done_path = os.path.join(self.path, "DONE")

    @classmethod
    def runs(cls, spool):
        """Every run directory under ``spool``, in name order."""
        for name in _listdir(spool):
            path = os.path.join(spool, name)
            if name.startswith(_RUN_PREFIX) and os.path.isdir(path):
                yield cls(path)

    @staticmethod
    def chunk_name(chunk, suffix=""):
        """``chunk-000007`` plus ``suffix``: the one spelling of a
        chunk's job, claim, result, replay and quarantine file names
        and of its manifest entry."""
        return f"{_CHUNK_PREFIX}{int(chunk):06d}{suffix}"

    def result_path(self, chunk):
        return os.path.join(self.results_dir,
                            self.chunk_name(chunk, _PICKLE_SUFFIX))

    def _replay_path(self, chunk):
        return os.path.join(self.path, REPLAY_DIR,
                            self.chunk_name(chunk, _PICKLE_SUFFIX))

    # -- broker side ---------------------------------------------------------

    @classmethod
    def create(cls, spool, func):
        """Lay out a fresh run directory under ``spool``."""
        os.makedirs(spool, exist_ok=True)
        path = os.path.join(spool,
                            f"{_RUN_PREFIX}{uuid.uuid4().hex[:12]}")
        os.mkdir(path)
        run = cls(path)
        for directory in (run.queue_dir, run.claimed_dir,
                          run.results_dir, run.hb_dir):
            os.mkdir(directory)
        atomic_write(run._task_path,
                     pickle.dumps(func, protocol=pickle.HIGHEST_PROTOCOL))
        return run

    def enqueue(self, chunk, points):
        """Queue one chunk job (atomically; claimable immediately)."""
        atomic_write(os.path.join(self.queue_dir,
                                  self.chunk_name(chunk, _JOB_SUFFIX)),
                     pickle.dumps({"chunk": int(chunk),
                                   "points": list(points)},
                                  protocol=pickle.HIGHEST_PROTOCOL))

    def open(self):
        """Start accepting claims (written after every job is queued)."""
        with open(self._open_path, "w"):
            pass

    def is_open(self):
        return os.path.exists(self._open_path)

    def mark_done(self):
        """All results collected: flip OPEN -> DONE so workers move on."""
        with open(self._done_path, "w"):
            pass
        try:
            os.unlink(self._open_path)
        except OSError:
            pass

    def is_done(self):
        return os.path.exists(self._done_path)

    def archive_points(self, chunk, points):
        """Keep ``chunk``'s input points under ``replay/`` for audit."""
        atomic_write(self._replay_path(chunk),
                     pickle.dumps(list(points),
                                  protocol=pickle.HIGHEST_PROTOCOL))

    # -- readers -------------------------------------------------------------

    def collect(self, skip=frozenset()):
        """Yield ``(chunk, payload)`` of committed results not in ``skip``.

        Files mid-commit never appear: commits are atomic renames, and
        the in-flight temp names start with a dot. Every result file is
        digest-verified on read (commits are framed with
        :func:`~repro.integrity.manifest.pack_record`); a torn,
        truncated, or tampered file yields ``payload=None`` so the
        broker can count and retry it — corrupt bytes never reassemble
        into sweep values.
        """
        for name in _listdir(self.results_dir):
            chunk = _chunk_of(name, _PICKLE_SUFFIX)
            if chunk is None or chunk in skip:
                continue
            try:
                with open(os.path.join(self.results_dir, name),
                          "rb") as fh:
                    blob = fh.read()
            except OSError:
                continue
            try:
                payload = unpack_record(blob)
            except IntegrityError:
                payload = None
            yield chunk, payload

    def queued_jobs(self):
        """``(chunk, path)`` of every queued job, lowest chunk first."""
        out = []
        for name in _listdir(self.queue_dir):
            chunk = _chunk_of(name, _JOB_SUFFIX)
            if chunk is not None:
                out.append((chunk, os.path.join(self.queue_dir, name)))
        return out

    def claimed_jobs(self):
        """``(chunk, worker_id, path)`` of every outstanding claim."""
        out = []
        for name in _listdir(self.claimed_dir):
            job, sep, wid = name.partition(_CLAIM_SEP)
            chunk = _chunk_of(job, _JOB_SUFFIX)
            if sep and chunk is not None:
                out.append((chunk, wid,
                            os.path.join(self.claimed_dir, name)))
        return out

    def live_workers(self, fresh):
        """Ids of the workers whose heartbeat is at most ``fresh``
        seconds old."""
        return {wid for wid in _listdir(self.hb_dir)
                if _age(os.path.join(self.hb_dir, wid)) <= fresh}

    def heartbeat_age(self, worker_id, claim_path):
        """Seconds since this claim was last known live.

        The *minimum* of the heartbeat file's age and the claim file's
        age (the claim is mtime-stamped at claim time): a worker that
        died before its first heartbeat never writes the hb file — the
        claim's age covers it — while a worker re-claiming after an
        idle stretch must not be condemned by the stale hb file of its
        *previous* chunk before its first fresh touch lands.
        """
        return min(_age(os.path.join(self.hb_dir, worker_id)),
                   _age(claim_path))

    def discard_result(self, chunk):
        """Drop a committed (error) result so the chunk can retry.

        The at-most-once commit guard keys on the result file's
        existence; unlinking it is what re-arms the chunk for a fresh
        commit after the broker re-enqueues it.
        """
        try:
            os.unlink(self.result_path(chunk))
        except OSError:
            pass

    def requeue(self, claim_path):
        """Steal a (stale) claim back onto the queue; returns the chunk.

        Returns None when the claim vanished underneath us — its worker
        committed and cleared it between the staleness check and now,
        which is not an error (the result is already in ``results/``).
        """
        name = os.path.basename(claim_path).split(_CLAIM_SEP, 1)[0]
        try:
            os.rename(claim_path, os.path.join(self.queue_dir, name))
        except OSError:
            return None
        return _chunk_of(name, _JOB_SUFFIX)

    # -- worker side ---------------------------------------------------------

    def task_bytes(self):
        """The pickled point function, as the broker wrote it."""
        with open(self._task_path, "rb") as fh:
            return fh.read()

    def load_func(self):
        """The run's point function (pickled once by the broker)."""
        return pickle.loads(self.task_bytes())

    def replay_points(self, chunk):
        """``chunk``'s input points as :meth:`archive_points` kept them."""
        return _load_pickle(self._replay_path(chunk))

    def claim(self, worker_id):
        """Claim the lowest pending chunk via atomic rename.

        Returns ``(chunk, points, claim_path)`` or None when the queue
        is empty. Losing a rename race to another worker just moves on
        to the next pending job.
        """
        for _, job_path in self.queued_jobs():
            claim_path = os.path.join(
                self.claimed_dir,
                f"{os.path.basename(job_path)}{_CLAIM_SEP}{worker_id}")
            try:
                os.rename(job_path, claim_path)
            except OSError:
                continue
            # The rename preserves the job file's *enqueue* mtime; a
            # chunk that sat queued past the heartbeat timeout would
            # look instantly stale to the watchdog (whose fallback is
            # this file's age) — stamp the claim with claim time.
            try:
                os.utime(claim_path)
                job = _load_pickle(claim_path)
            except OSError:
                # Lost the claim after all (stolen back before the
                # load); treat it as a lost race, not a crash.
                continue
            return job["chunk"], job["points"], claim_path
        return None

    def commit(self, chunk, payload, worker_id, faults=None):
        """At-most-once result commit; True when this commit landed.

        The first commit per chunk wins, atomically: the payload is
        written to a temp file and *linked* into place, which fails —
        instead of overwriting — when a result already exists. A
        presumed-dead-but-merely-slow worker racing the chunk's
        re-claimer therefore cannot clobber a committed result, even
        when its own late attempt ended in an error payload.
        Filesystems without hard links fall back to check-then-rename
        (the pre-check plus deterministic payloads keep that safe in
        practice), and a run directory the broker already tore down
        reads as a plain late duplicate, not a worker crash.

        ``faults`` (a :class:`~repro.resilience.faults.WorkerFaults`)
        damages the written bytes before they become visible, so a
        reader can never see the intact frame first.
        """
        path = self.result_path(chunk)
        if os.path.exists(path):
            return False
        tmp = os.path.join(self.results_dir,
                           f".tmp-{uuid.uuid4().hex[:8]}-{worker_id}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(pack_record(payload))
            if faults is not None:
                faults.corrupt_result(tmp, chunk)
        except OSError:
            # results/ vanished: the broker finished (or failed) and
            # removed the run while we were evaluating.
            return False
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        except OSError:
            # No hard-link support on this mount (CIFS/FAT): degrade
            # to check-then-rename at-most-once.
            if os.path.exists(path):
                return False
            try:
                os.replace(tmp, path)
            except OSError:
                return False
            tmp = None
            return True
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        return True

    def clear_claim(self, claim_path):
        try:
            os.unlink(claim_path)
        except OSError:
            pass

    def heartbeat(self, worker_id):
        path = os.path.join(self.hb_dir, worker_id)
        try:
            os.utime(path)
        except OSError:
            try:
                with open(path, "w"):
                    pass
            except OSError:
                # hb/ vanished with the run: nothing left to prove
                # liveness to; the ticker thread must not crash.
                pass


class SpoolWorker:
    """A worker process serving sweep chunks from a spool directory.

    Backs the ``repro worker`` CLI: attaches to ``spool``, claims
    chunks from every open run it finds, and exits on the
    :data:`SHUTDOWN_SENTINEL` or after ``max_idle`` seconds without
    work. The broker's locally spawned workers reuse :meth:`serve_run`
    bound to their single run.
    """

    #: Default seconds between heartbeat touches while a chunk
    #: evaluates. A background ticker keeps the heartbeat fresh through
    #: points of any duration, so a broker's ``heartbeat_timeout`` only
    #: needs to exceed this interval — never the cost of a single
    #: point. (Broker-spawned workers get an interval derived from the
    #: broker's own watchdog timeout.)
    heartbeat_interval = 1.0

    #: Upper bound of the idle-poll backoff in :meth:`serve_forever`.
    #: Idle polls start at ``poll`` and double per empty scan up to
    #: this cap (any served chunk resets them), so a worker parked
    #: against a wedged or idle broker costs a couple of directory
    #: scans per second at most instead of ``1/poll``.
    max_poll = 2.0

    def __init__(self, spool, worker_id=None, poll=0.05, max_idle=None,
                 heartbeat_interval=None, timeout=None, max_poll=None,
                 faults=None):
        self.spool = str(spool)
        require_positive(poll, "poll")
        if max_idle is not None:
            require_positive(max_idle, "max_idle")
        if heartbeat_interval is not None:
            require_positive(heartbeat_interval, "heartbeat_interval")
            self.heartbeat_interval = float(heartbeat_interval)
        if timeout is not None:
            require_positive(timeout, "timeout")
        if max_poll is not None:
            require_positive(max_poll, "max_poll")
            self.max_poll = float(max_poll)
        worker_id = worker_id or f"w{os.getpid()}-{uuid.uuid4().hex[:6]}"
        if _CLAIM_SEP in worker_id or os.sep in worker_id:
            raise ParameterError(
                f"worker id must not contain {_CLAIM_SEP!r} or a path "
                f"separator, got {worker_id!r}")
        self.worker_id = worker_id
        self.poll = float(poll)
        self.max_idle = max_idle
        self.timeout = timeout
        #: Optional :class:`~repro.resilience.faults.WorkerFaults` —
        #: the deterministic fault-injection seam the chaos tests use;
        #: None (production) costs one attribute check per chunk.
        self.faults = faults
        self.stats = {"chunks": 0, "points": 0, "errors": 0,
                      "duplicate_commits": 0}
        self._funcs = {}

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self):
        """Serve every open run under the spool; returns the stats.

        Exits on the :data:`SHUTDOWN_SENTINEL`, after ``max_idle``
        seconds without work, or after ``timeout`` seconds of total
        wall clock (mid-chunk evaluation is never interrupted — the
        bound is checked between chunks). Idle polling retries with
        exponential backoff, ``poll`` doubling up to :attr:`max_poll`
        per empty scan and resetting on work, so a wedged broker —
        a run left OPEN by a crashed submitter, say — cannot pin a
        fleet of workers at full poll rate forever; pair the backoff
        with ``timeout`` (the ``repro worker --timeout`` flag) to
        guarantee the fleet eventually drains instead of hanging.
        """
        started = time.monotonic()
        idle_since = started
        delay = self.poll
        while not self._shutdown_requested():
            if (self.timeout is not None
                    and time.monotonic() - started > self.timeout):
                break
            if self._serve_once():
                idle_since = time.monotonic()
                delay = self.poll
                continue
            self._prune_func_cache()
            if (self.max_idle is not None
                    and time.monotonic() - idle_since > self.max_idle):
                break
            sleep = delay
            if self.timeout is not None:
                # Never let one backoff sleep overshoot the deadline.
                remaining = started + self.timeout - time.monotonic()
                if remaining <= 0:
                    break
                sleep = min(sleep, remaining)
            time.sleep(sleep)
            delay = self._next_idle_delay(delay)
        _flush_kernel_store()
        return self.stats

    def _next_idle_delay(self, delay):
        """One backoff step: double the idle poll, capped at
        :attr:`max_poll` (never below the configured base ``poll``)."""
        return min(max(delay * 2.0, self.poll), self.max_poll)

    def serve_run(self, run):
        """Serve one run until it is done (the spawned-worker loop)."""
        while not run.is_done() and run.is_open():
            if not self.process_one(run):
                time.sleep(self.poll)
        _flush_kernel_store()
        return self.stats

    def _shutdown_requested(self):
        return os.path.exists(os.path.join(self.spool,
                                           SHUTDOWN_SENTINEL))

    def _serve_once(self):
        for run in self._open_runs():
            if self.process_one(run):
                return True
        return False

    def _open_runs(self):
        return (run for run in SpoolRun.runs(self.spool)
                if run.is_open() and not run.is_done())

    # -- one chunk -----------------------------------------------------------

    def process_one(self, run):
        """Claim, evaluate, and commit one chunk; False when none pending.

        A failing point does not kill the worker: the exception ships
        to the broker as the chunk's result and the worker keeps
        serving (the broker re-raises and tears the run down).
        ``KeyboardInterrupt``/``SystemExit`` are *not* absorbed — the
        worker dies, its claim goes stale, and the chunk retries on a
        live worker instead of failing the whole run.
        """
        claim = run.claim(self.worker_id)
        if claim is None:
            return False
        chunk, points, claim_path = claim
        stalled = (self.faults is not None
                   and self.faults.heartbeat_stalled(chunk))
        if not stalled:
            run.heartbeat(self.worker_id)
        ticker = self._start_heartbeat_ticker(run, stalled=stalled)

        def evaluate():
            # The fault hook runs inside the payload's Exception
            # absorber on purpose: an injected chunk *failure* ships as
            # an error payload like any real one, while an injected
            # *kill* (BaseException) propagates — the claim goes stale
            # exactly as if the process had died.
            if self.faults is not None:
                self.faults.on_chunk(self.worker_id, chunk)
            func = self._func_for(run)
            return [func(**params) for params in points]

        try:
            payload = _chunk_payload(chunk, self.worker_id, evaluate)
        finally:
            ticker()
        if "error" in payload:
            self.stats["errors"] += 1
        else:
            self.stats["points"] += len(payload["values"])
        if not run.commit(chunk, payload, self.worker_id, self.faults):
            self.stats["duplicate_commits"] += 1
        run.clear_claim(claim_path)
        self.stats["chunks"] += 1
        _flush_kernel_store()
        return True

    def _start_heartbeat_ticker(self, run, stalled=False):
        """Touch the heartbeat in the background while a chunk runs.

        Liveness must not depend on point duration: a single point
        slower than the broker's ``heartbeat_timeout`` would otherwise
        look like a crash and be stolen (and, past ``max_attempts``,
        fail the run) despite a perfectly healthy worker. Returns a
        stopper callable. ``stalled`` (fault injection) freezes the
        touches so the broker sees a dead worker that is still running.
        """
        stop = threading.Event()

        def tick():
            while not stop.wait(self.heartbeat_interval):
                if not stalled:
                    run.heartbeat(self.worker_id)

        thread = threading.Thread(target=tick, daemon=True)
        thread.start()

        def stopper():
            stop.set()
            thread.join(timeout=5.0)

        return stopper

    def _func_for(self, run):
        func = self._funcs.get(run.path)
        if func is None:
            func = self._funcs[run.path] = run.load_func()
        return func

    def _prune_func_cache(self):
        """Drop cached funcs of runs that closed (long-lived workers).

        A fleet worker serves many runs over its lifetime; each task
        function (often a partial pinning a device payload) must not
        stay referenced after its run directory is done or deleted.
        Runs cheaply on idle iterations only.
        """
        stale = [path for path in self._funcs
                 if not SpoolRun(path).is_open()]
        for path in stale:
            del self._funcs[path]


def _spawned_worker(run_path, worker_id, poll, heartbeat_interval):
    """Entry point of a broker-spawned local worker process."""
    SpoolWorker(os.path.dirname(run_path), worker_id=worker_id,
                poll=poll,
                heartbeat_interval=heartbeat_interval).serve_run(
        SpoolRun(run_path))


class DistributedBroker:
    """Schedules one sweep over spool workers and reassembles results.

    Parameters
    ----------
    func:
        Picklable point function (as for the ``process`` executors).
    spool:
        Spool directory; default is :data:`SWEEP_SPOOL_ENV`, else a
        private temp directory (removed afterwards).
    jobs:
        Target worker count; sizes the chunk schedule and the default
        local spawn count.
    chunk_size:
        Fixed chunk size; default is the guided schedule of
        :func:`schedule_chunks`.
    heartbeat_timeout:
        Seconds without a heartbeat before a claimed chunk is stolen
        back onto the queue. Default: :data:`SWEEP_HEARTBEAT_ENV`,
        else 10.
    max_attempts:
        Attempts per chunk — stale-claim steals and shipped error
        payloads both consume one — before the chunk is declared
        poison. Default: :data:`SWEEP_MAX_ATTEMPTS_ENV`, else 3.
    on_poison:
        What to do with a chunk that exhausted ``max_attempts``:
        ``"raise"`` (default) fails the run with the last error;
        ``"quarantine"`` moves a poison record into the spool root's
        ``quarantine/`` directory, completes the sweep with ``None``
        values for that chunk's points, and warns
        (:class:`~repro.errors.ResilienceWarning`) — partial results
        with an explicit trace instead of a hung or failed campaign.
    spawn:
        Local workers to spawn; default ``jobs``
        (:data:`SWEEP_SPAWN_ENV` overrides — 0 with externally
        attached workers).
    steal:
        Let the broker evaluate queued chunks inline while it waits;
        keeps zero-worker runs live and soaks up the tail.
    timeout:
        Overall wall-clock bound on the run [s].
    progress:
        Optional ``progress(points_done, points_total)`` callback,
        invoked from the gather loop whenever a chunk's results are
        collected (the :class:`~repro.sweep.runner.SweepRunner`
        progress contract, which is how the :mod:`repro.service`
        server streams sweep progress off the spool backend).
    keep_run:
        Preserve the finished run directory on an *external* spool —
        each chunk's input points archived under ``replay/`` plus a
        sealed :class:`~repro.integrity.manifest.RunManifest` of
        per-chunk result digests — instead of removing it, so ``repro
        audit`` can replay-verify the run later. Default:
        :data:`SWEEP_KEEP_ENV`, else False. No effect on a private
        temp spool (nothing would outlive the call).
    """

    def __init__(self, func, spool=None, jobs=None, chunk_size=None,
                 heartbeat_timeout=None, poll=0.02, max_attempts=None,
                 spawn=None, steal=True, timeout=None, progress=None,
                 on_poison="raise", keep_run=None):
        if not callable(func):
            raise ParameterError(f"func must be callable, got {func!r}")
        if progress is not None and not callable(progress):
            raise ParameterError(
                f"progress must be callable, got {progress!r}")
        if jobs is not None:
            require_int_in_range(jobs, "jobs", 1, 4096)
        if chunk_size is not None:
            require_int_in_range(chunk_size, "chunk_size", 1, 1_000_000)
        if heartbeat_timeout is None:
            heartbeat_timeout = _env_number(SWEEP_HEARTBEAT_ENV, float)
            if heartbeat_timeout is None:
                heartbeat_timeout = 10.0
        if max_attempts is None:
            max_attempts = _env_number(SWEEP_MAX_ATTEMPTS_ENV, int)
            if max_attempts is None:
                max_attempts = 3
        require_positive(heartbeat_timeout, "heartbeat_timeout")
        require_positive(poll, "poll")
        require_int_in_range(max_attempts, "max_attempts", 1, 100)
        if on_poison not in ("raise", "quarantine"):
            raise ParameterError(
                f"on_poison must be 'raise' or 'quarantine', got "
                f"{on_poison!r}")
        if spawn is None:
            spawn = _env_number(SWEEP_SPAWN_ENV, int)
        if spawn is not None:
            require_int_in_range(spawn, "spawn", 0, 4096)
        if timeout is not None:
            require_positive(timeout, "timeout")
        if keep_run is None:
            keep_run = os.environ.get(SWEEP_KEEP_ENV, "").lower() in (
                "1", "true", "yes")
        self.keep_run = bool(keep_run)
        self.func = func
        self.spool = spool if spool is not None else os.environ.get(
            SWEEP_SPOOL_ENV)
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.poll = float(poll)
        self.max_attempts = max_attempts
        self.spawn = spawn
        self.steal = bool(steal)
        self.timeout = timeout
        self.progress = progress
        self.on_poison = on_poison
        self.stats = {}

    def _n_workers(self):
        return self.jobs or os.cpu_count() or 1

    def run(self, points):
        """Evaluate every point; returns values in point order.

        Raises the first shipped worker exception as-is, and
        :class:`RuntimeError` on chunk-retry exhaustion or timeout.
        """
        points = list(points)
        if not points:
            return []
        owns_spool = self.spool is None
        spool = self.spool or tempfile.mkdtemp(prefix="repro-sweep-")
        run = None
        workers = []
        failed = True
        # Setup (pickling the func, enqueueing chunks) sits inside the
        # same try as the gather so a PicklingError or disk failure
        # cannot leak the temp spool or leave a claimable half-run.
        try:
            run = SpoolRun.create(spool, self.func)
            bounds = schedule_chunks(len(points), self._n_workers(),
                                     chunk_size=self.chunk_size)
            chunk_points = {chunk: points[start:stop]
                            for chunk, (start, stop)
                            in enumerate(bounds)}
            for chunk, pts in chunk_points.items():
                run.enqueue(chunk, pts)
            run.open()
            workers = self._spawn_workers(run)
            self.stats = {"chunks": len(bounds), "workers_spawned":
                          len(workers), "requeued": 0, "stolen": 0,
                          "duplicates": 0, "attempts_max": 1,
                          "error_retries": 0, "steal_errors": 0,
                          "integrity_rejects": 0,
                          "attempts": {}, "quarantined": []}
            results = self._gather(run, chunk_points, len(points),
                                   spool)
            if self.keep_run and not owns_spool:
                self._preserve(run, chunk_points, results)
            failed = False
        finally:
            if run is not None:
                run.mark_done()
            self._reap_workers(workers)
            # A failed run keeps its directory for post-mortem (unless
            # the broker owns the whole temp spool); a preserved run
            # keeps it for replay audit.
            if owns_spool:
                shutil.rmtree(spool, ignore_errors=True)
            elif not failed and run is not None and not self.keep_run:
                shutil.rmtree(run.path, ignore_errors=True)
        return [value for chunk in range(len(bounds))
                for value in results[chunk]["values"]]

    # -- internals -----------------------------------------------------------

    def _spawn_workers(self, run):
        if self.spawn == 0:
            return []
        import multiprocessing
        count = self.spawn if self.spawn is not None else \
            self._n_workers()
        # Spawned workers heartbeat several times per watchdog period
        # so a slow point can never masquerade as a crash. (External
        # `repro worker` processes use their own default interval; the
        # broker's default timeout of 10s comfortably exceeds it.)
        hb_interval = min(1.0, self.heartbeat_timeout / 4.0)
        workers = []
        for i in range(count):
            proc = multiprocessing.Process(
                target=_spawned_worker,
                args=(run.path, f"local-{i}", self.poll, hb_interval),
                daemon=True)
            proc.start()
            workers.append(proc)
        return workers

    def _reap_workers(self, workers):
        for proc in workers:
            proc.join(timeout=5.0)
        for proc in workers:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)

    def _gather(self, run, chunk_points, n_points, spool):
        n_chunks = len(chunk_points)
        results = {}
        attempts = dict.fromkeys(range(n_chunks), 1)
        failed_workers = {}
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        while len(results) < n_chunks:
            progressed = self._collect(run, results, attempts,
                                       failed_workers, chunk_points,
                                       n_points, spool)
            if len(results) >= n_chunks:
                break
            progressed |= self._requeue_stale(run, results, attempts,
                                              failed_workers,
                                              chunk_points, spool)
            if self.steal:
                progressed |= self._steal_one(run)
            if not progressed:
                if deadline is not None and time.monotonic() > deadline:
                    raise RuntimeError(
                        f"distributed sweep timed out after "
                        f"{self.timeout:g}s with {len(results)}/"
                        f"{n_chunks} chunks collected")
                time.sleep(self.poll)
        self.stats["attempts"] = {chunk: n for chunk, n
                                  in attempts.items() if n > 1}
        return results

    def _collect(self, run, results, attempts, failed_workers,
                 chunk_points, n_points, spool):
        progressed = False
        for chunk, payload in run.collect(skip=results.keys()):
            if chunk in results:  # pragma: no cover - skip covers this
                continue
            if payload is None:
                # Digest-failed result file (torn write, truncation,
                # tamper): counted and retried like a shipped error —
                # the corrupt bytes themselves never become values.
                self.stats["integrity_rejects"] += 1
                progressed |= self._retry_or_poison(
                    run, chunk, None, IntegrityError(
                        f"chunk {chunk} result file failed digest "
                        f"verification"),
                    results, attempts, failed_workers, chunk_points,
                    spool)
                continue
            error = payload.get("error")
            if error is not None:
                # A shipped failure consumes one attempt, like a stale
                # claim: transient errors (a worker's flaky mount, an
                # injected fault) retry on re-enqueue; persistent ones
                # exhaust the budget and hit the poison policy.
                progressed |= self._retry_or_poison(
                    run, chunk, payload.get("worker"), error, results,
                    attempts, failed_workers, chunk_points, spool)
                continue
            results[chunk] = payload
            progressed = True
            if self.progress is not None:
                done = sum(len(p["values"]) for p in results.values())
                self.progress(done, n_points)
        return progressed

    def _requeue_stale(self, run, results, attempts, failed_workers,
                       chunk_points, spool):
        """Steal chunks back from workers whose heartbeat went stale."""
        progressed = False
        for chunk, wid, claim_path in run.claimed_jobs():
            if chunk in results:
                # Late claim of an already-collected chunk (a duplicate
                # in flight): drop it rather than re-running it.
                run.clear_claim(claim_path)
                self.stats["duplicates"] += 1
                continue
            age = run.heartbeat_age(wid, claim_path)
            if age <= self.heartbeat_timeout:
                continue
            progressed |= self._retry_or_poison(
                run, chunk, wid,
                RuntimeError(f"worker {wid} went silent for "
                             f"{age:.1f}s"),
                results, attempts, failed_workers, chunk_points, spool,
                claim_path=claim_path,
                fatal=RuntimeError(
                    f"chunk {chunk} failed {attempts[chunk]} claim "
                    f"attempt(s) (last worker {wid} went silent for "
                    f"{age:.1f}s); giving up"))
        return progressed

    def _retry_or_poison(self, run, chunk, worker, error, results,
                         attempts, failed_workers, chunk_points, spool,
                         claim_path=None, fatal=None):
        """Spend one attempt on a failed ``chunk``; True if it moved.

        With attempts left the chunk runs again: a stale claim
        (``claim_path``) is stolen back, a failed result file is
        discarded and the chunk re-enqueued. Once ``max_attempts`` are
        spent, ``on_poison`` decides: ``"raise"`` raises ``fatal``
        (default ``error``) and leaves the result file or claim in
        place for post-mortem; ``"quarantine"`` removes it and files
        the chunk's stand-in payload in ``results``.
        """
        workers = failed_workers.setdefault(chunk, set())
        if worker is not None:
            workers.add(worker)
        if attempts[chunk] >= self.max_attempts:
            if self.on_poison == "raise":
                raise error if fatal is None else fatal
            if claim_path is None:
                run.discard_result(chunk)
            else:
                run.clear_claim(claim_path)
            results[chunk] = self._quarantine(
                chunk, chunk_points[chunk], error, attempts[chunk],
                workers, spool)
            return True
        if claim_path is None:
            run.discard_result(chunk)
            run.enqueue(chunk, chunk_points[chunk])
            self.stats["error_retries"] += 1
        elif run.requeue(claim_path) is None:
            return False
        else:
            self.stats["requeued"] += 1
        attempts[chunk] += 1
        self.stats["attempts_max"] = max(self.stats["attempts_max"],
                                         attempts[chunk])
        return True

    def _quarantine(self, chunk, points, error, n_attempts, workers,
                    spool):
        """Move a poison chunk's record aside; return a None-filled
        stand-in payload so the sweep completes with partial results.

        The record (points, last error, attempt count, the distinct
        workers that failed it) lands in ``<spool>/quarantine/`` for
        post-mortem; the chunk's points read as ``None`` in the sweep
        values. Counted in ``stats["quarantined"]`` and warned about —
        partial results must never look like a clean success.

        The record is *JSON*, deliberately: a poison chunk is by
        definition attacker-shaped data, and inspecting it (``repro
        spool ls-quarantine``) must never deserialize a pickle. The
        error ships as its ``repr`` plus type name; points that do not
        survive JSON degrade to their ``repr`` too.
        """
        workers = sorted(str(w) for w in workers if w is not None)
        record_path = os.path.join(spool, QUARANTINE_DIR,
                                   SpoolRun.chunk_name(chunk, ".json"))
        try:
            atomic_write(record_path, json.dumps({
                "chunk": int(chunk),
                "points": [_json_safe_point(p) for p in points],
                "error": repr(error),
                "error_type": type(error).__name__,
                "attempts": int(n_attempts), "workers": workers},
                indent=2, sort_keys=True).encode("utf-8"))
        except OSError:  # pragma: no cover - quarantine must not kill
            record_path = None
        self.stats["quarantined"].append(int(chunk))
        warnings.warn(
            f"chunk {chunk} quarantined after {n_attempts} attempt(s) "
            f"across worker(s) {workers or ['<none>']} ({error!r}); "
            f"its {len(points)} point(s) return None"
            + (f"; record at {record_path}" if record_path else ""),
            ResilienceWarning, stacklevel=5)
        return {"chunk": int(chunk), "values": [None] * len(points),
                "worker": None, "quarantined": True}

    def _preserve(self, run, chunk_points, results):
        """Archive the finished run for replay audit (``keep_run``).

        Writes each chunk's input points under ``replay/`` and a
        sealed :class:`~repro.integrity.manifest.RunManifest` whose
        entries carry the byte-exact pickle digest of every chunk's
        committed values — what ``repro audit`` later replays against.
        Quarantined chunks are recorded as such (their stand-in None
        values are not a reproducible artifact).
        """
        entries = {}
        for chunk in sorted(results):
            points = chunk_points[chunk]
            run.archive_points(chunk, points)
            payload = results[chunk]
            entry = {"n_points": len(points)}
            if payload.get("quarantined"):
                entry["quarantined"] = True
            else:
                entry["values_sha256"] = pickle_digest(
                    payload["values"])
            entries[run.chunk_name(chunk)] = entry
        try:
            task_digest = blob_digest(run.task_bytes())
        except OSError:  # pragma: no cover - defensive
            task_digest = None
        manifest = RunManifest("spool-run", identity={
            "run": os.path.basename(run.path),
            "task_sha256": task_digest,
            "n_chunks": len(chunk_points),
            "n_points": sum(len(p) for p in chunk_points.values()),
            "max_attempts": int(self.max_attempts),
        }, entries=entries)
        self.stats["manifest"] = manifest.write(
            os.path.join(run.path, MANIFEST_NAME))

    def _steal_one(self, run):
        """Evaluate one queued chunk inline while waiting on workers.

        A failing point must ship as an error payload — exactly as a
        worker would ship it — not propagate: the broker's gather loop
        owns retry/poison accounting, and an exception here would
        bypass it (and count nothing) entirely.
        """
        claim = run.claim("broker")
        if claim is None:
            return False
        chunk, points, claim_path = claim
        payload = _chunk_payload(
            chunk, "broker",
            lambda: [self.func(**params) for params in points])
        if "error" in payload:
            self.stats["steal_errors"] += 1
        if not run.commit(chunk, payload, "broker"):
            self.stats["duplicates"] += 1
        run.clear_claim(claim_path)
        self.stats["stolen"] += 1
        return True


def run_distributed(func, points, **kwargs):
    """One-call convenience: broker + run; returns ``(values, stats)``."""
    broker = DistributedBroker(func, **kwargs)
    values = broker.run(points)
    return values, broker.stats


def run_worker(spool=None, worker_id=None, poll=0.05, max_idle=None,
               timeout=None):
    """Serve a spool until shutdown/idle/timeout; returns a CLI exit code.

    The one implementation behind both ``repro worker`` and ``python
    -m repro.sweep.distributed``, so the flag semantics cannot drift
    between the two entry points.
    """
    spool = spool or os.environ.get(SWEEP_SPOOL_ENV)
    if not spool:
        print(f"no spool directory: pass --spool or set "
              f"{SWEEP_SPOOL_ENV}")
        return 1
    worker = SpoolWorker(spool, worker_id=worker_id, poll=poll,
                         max_idle=max_idle, timeout=timeout)
    stats = worker.serve_forever()
    print(f"worker {worker.worker_id}: served {stats['chunks']} "
          f"chunk(s) / {stats['points']} point(s), "
          f"{stats['errors']} error(s)")
    return 0


def add_worker_arguments(parser):
    """Attach the worker flag set (shared by every worker CLI)."""
    parser.add_argument("--spool", default=None,
                        help=f"spool directory (default: "
                             f"${SWEEP_SPOOL_ENV})")
    parser.add_argument("--id", default=None,
                        help="worker id (default: pid-derived)")
    parser.add_argument("--poll", type=float, default=0.05,
                        help="queue poll interval in seconds (idle "
                             "polls back off exponentially from here "
                             "to ~2s)")
    parser.add_argument("--max-idle", type=float, default=None,
                        help="exit after this many seconds without "
                             "work")
    parser.add_argument("--timeout", type=float, default=None,
                        help="exit after this many seconds of total "
                             "wall clock, busy or not — a wedged "
                             "broker cannot hang the worker forever")
    return parser


def worker_main(argv=None):
    """CLI entry point of ``python -m repro.sweep.distributed``."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="serve distributed sweep chunks from a spool "
                    "directory")
    add_worker_arguments(parser)
    args = parser.parse_args(argv)
    return run_worker(spool=args.spool, worker_id=args.id,
                      poll=args.poll, max_idle=args.max_idle,
                      timeout=args.timeout)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(worker_main())
