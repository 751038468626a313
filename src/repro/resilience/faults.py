"""Deterministic fault injection: seeded plans behind the OS shims.

Hope is not a resilience strategy. Every recovery path in this package
— checkpoint-corruption fallback, stale-claim requeue, poison-chunk
quarantine, crash-restart backoff — is exercised by *injecting* the
fault it guards against, deterministically, from a seeded
:class:`FaultPlan`. The same plans drive the unit tests and the CI
``chaos-smoke`` leg, so a recovery path that regresses fails a test
instead of failing a campaign.

The harness never monkeypatches. Faults enter through the same
injectable seams production code already uses:

* :class:`FaultyFileSystem` — a :class:`~repro.resilience.shims
  .FileSystem` that raises ``EIO`` on scheduled operations (the
  canonical plan: fail the atomic ``replace`` that commits a
  checkpoint).
* :class:`FaultClock` — a manually advanced clock, so heartbeat
  timeouts and retry backoff run in microseconds of real time.
* :class:`WorkerFaults` — hooks a :class:`~repro.sweep.distributed
  .SpoolWorker` consults mid-chunk: ``kill-worker-at-chunk-N`` raises
  :class:`WorkerKilled` (a ``BaseException``, so the worker's normal
  ``Exception`` absorption does *not* catch it — the claim goes stale
  exactly as if the process had been OOM-killed), and
  ``stall-heartbeat`` freezes the heartbeat file for a chunk so the
  broker sees a dead worker that is actually alive.
* :func:`~repro.resilience.checkpoint.corrupt_checkpoint` — flips a
  payload byte so the checksum gate must catch it.

Determinism contract: a plan is constructed from ``(seed, spec)``
only; two harness runs with the same plan observe the same faults at
the same points. No wall clock, no real randomness.
"""

from __future__ import annotations

import errno
import os

import numpy as np

from ..errors import ParameterError
from .shims import Clock, FileSystem


class WorkerKilled(BaseException):
    """A worker 'process death' injected mid-chunk.

    Deliberately derived from ``BaseException``: the spool worker's
    chunk loop absorbs ``Exception`` into an error payload, but a real
    SIGKILL ships nothing — it leaves a claimed chunk with a cooling
    heartbeat. Raising past the absorption reproduces that exactly,
    in-process.
    """

    def __init__(self, worker_id, chunk):
        super().__init__(f"worker {worker_id!r} killed at chunk {chunk}")
        self.worker_id = worker_id
        self.chunk = chunk


def _eio(op, path):
    err = OSError(errno.EIO, f"injected EIO on {op}")
    err.filename = path
    return err


class FaultyFileSystem(FileSystem):
    """A filesystem that fails on schedule.

    Parameters
    ----------
    fail_replace_at:
        Iterable of 1-based ``replace`` call ordinals to fail with
        ``EIO`` — e.g. ``{2}`` fails the second checkpoint commit.
    fail_write_at:
        Same, for ``write_bytes`` ordinals.
    fail_replace_matching / fail_write_matching:
        Substring filter: only calls whose destination path contains
        it count toward (and suffer) the scheduled ordinals.

    Counting is per-instance and survives across runs, which is what
    lets a plan say "the 3rd checkpoint this campaign writes fails".
    """

    def __init__(self, fail_replace_at=(), fail_write_at=(),
                 fail_replace_matching=None, fail_write_matching=None):
        self.fail_replace_at = frozenset(int(n) for n in fail_replace_at)
        self.fail_write_at = frozenset(int(n) for n in fail_write_at)
        self.fail_replace_matching = fail_replace_matching
        self.fail_write_matching = fail_write_matching
        self.replace_calls = 0
        self.write_calls = 0
        self.injected = 0

    def replace(self, src, dst):
        if (self.fail_replace_matching is None
                or self.fail_replace_matching in str(dst)):
            self.replace_calls += 1
            if self.replace_calls in self.fail_replace_at:
                self.injected += 1
                raise _eio("replace", dst)
        super().replace(src, dst)

    def write_bytes(self, path, data):
        if (self.fail_write_matching is None
                or self.fail_write_matching in str(path)):
            self.write_calls += 1
            if self.write_calls in self.fail_write_at:
                self.injected += 1
                raise _eio("write", path)
        super().write_bytes(path, data)


class FaultClock(Clock):
    """A virtual clock advanced by hand (or by ``sleep``).

    ``sleep`` advances virtual time instead of blocking, so supervisor
    backoff schedules spanning minutes run instantly and the recorded
    ``sleeps`` list *is* the backoff schedule under test.
    """

    def __init__(self, start=1000.0):
        self._now = float(start)
        self.sleeps = []

    def monotonic(self):
        return self._now

    def time(self):
        return self._now

    def sleep(self, seconds):
        self.sleeps.append(float(seconds))
        self._now += float(seconds)

    def advance(self, seconds):
        self._now += float(seconds)


class WorkerFaults:
    """Per-worker fault hooks for :class:`~repro.sweep.distributed
    .SpoolWorker`.

    Parameters
    ----------
    kill_at_chunk:
        Chunk index at which the worker "dies" (:class:`WorkerKilled`
        raised before the chunk's result commits). ``kill_once=True``
        (default) arms it a single time, so the chunk succeeds on
        retry — the worker-crash-and-recover scenario. ``False`` kills
        every attempt — the poison-chunk scenario when combined with
        quarantine.
    fail_at_chunk:
        Chunk index at which the chunk *function* raises an ordinary
        error (shipped as an error payload, consuming an attempt).
        ``fail_once`` mirrors ``kill_once``.
    stall_heartbeat_at_chunk:
        Chunk index during which the worker's heartbeat ticker is
        frozen, so the broker declares the claim stale while the
        worker still runs.
    corrupt_result_at_chunk:
        Chunk index whose *committed result file* is damaged: the bytes
        rot before the commit makes them visible — the crash-mid-write
        the atomic rename cannot cover for (a dying disk, a torn page
        on a network mount), which only read-side digests catch.
        ``corrupt_mode`` picks the damage: ``"torn"`` flips one byte
        (``corrupt_offset``/``corrupt_flip``), ``"truncate"`` cuts the
        file to half its length. ``corrupt_once`` (default) arms it a
        single time, so the broker's digest-reject → retry path must
        recover the chunk.
    """

    def __init__(self, kill_at_chunk=None, kill_once=True,
                 fail_at_chunk=None, fail_once=True,
                 stall_heartbeat_at_chunk=None,
                 corrupt_result_at_chunk=None, corrupt_mode="torn",
                 corrupt_once=True, corrupt_offset=-8, corrupt_flip=0x01):
        if corrupt_mode not in ("torn", "truncate"):
            raise ParameterError(
                f"corrupt_mode must be 'torn' or 'truncate', got "
                f"{corrupt_mode!r}")
        self.kill_at_chunk = kill_at_chunk
        self.kill_once = bool(kill_once)
        self.fail_at_chunk = fail_at_chunk
        self.fail_once = bool(fail_once)
        self.stall_heartbeat_at_chunk = stall_heartbeat_at_chunk
        self.corrupt_result_at_chunk = corrupt_result_at_chunk
        self.corrupt_mode = corrupt_mode
        self.corrupt_once = bool(corrupt_once)
        self.corrupt_offset = int(corrupt_offset)
        self.corrupt_flip = int(corrupt_flip)
        self.kills = 0
        self.failures = 0
        self.stalls = 0
        self.corruptions = 0

    def on_chunk(self, worker_id, chunk):
        """Called by the worker before evaluating ``chunk``; raises
        the scheduled fault, if any."""
        if (self.kill_at_chunk is not None
                and chunk == self.kill_at_chunk
                and not (self.kill_once and self.kills)):
            self.kills += 1
            raise WorkerKilled(worker_id, chunk)
        if (self.fail_at_chunk is not None
                and chunk == self.fail_at_chunk
                and not (self.fail_once and self.failures)):
            self.failures += 1
            raise RuntimeError(
                f"injected chunk failure at chunk {chunk}")

    def heartbeat_stalled(self, chunk):
        """True while the heartbeat ticker must skip its touch."""
        stalled = (self.stall_heartbeat_at_chunk is not None
                   and chunk == self.stall_heartbeat_at_chunk)
        if stalled:
            self.stalls += 1
        return stalled

    def corrupt_result(self, path, chunk):
        """Called by the result commit on ``chunk``'s written bytes at
        ``path`` before they become visible; applies the scheduled
        damage, if any."""
        if (self.corrupt_result_at_chunk is None
                or chunk != self.corrupt_result_at_chunk
                or (self.corrupt_once and self.corruptions)):
            return
        try:
            if self.corrupt_mode == "truncate":
                size = os.path.getsize(path)
                with open(path, "r+b") as fh:
                    fh.truncate(size // 2)
            else:
                from .checkpoint import corrupt_checkpoint
                corrupt_checkpoint(path, offset=self.corrupt_offset,
                                   flip=self.corrupt_flip)
        except OSError:  # pragma: no cover - run directory torn down
            return
        self.corruptions += 1


#: The named scenarios the chaos matrix iterates. Each value builds
#: the plan's knobs from the plan RNG; keeping them here (not in the
#: CI yaml) means `pytest -k chaos` runs the identical matrix locally.
FAULT_KINDS = (
    "worker-kill",
    "poison-chunk",
    "corrupt-checkpoint",
    "eio-on-rename",
    "stall-heartbeat",
    "torn-write",
    "truncated-result",
)


class FaultPlan:
    """A seeded, self-describing bundle of faults for one scenario.

    ``FaultPlan(seed, kind)`` derives every fault parameter (which
    chunk dies, which byte flips, which rename fails) from
    ``np.random.default_rng(seed)``, so a failing chaos run reproduces
    from its two-value identity alone.
    """

    def __init__(self, seed, kind, n_chunks=4):
        if kind not in FAULT_KINDS:
            raise ParameterError(
                f"unknown fault kind {kind!r}; expected one of "
                f"{FAULT_KINDS}")
        self.seed = int(seed)
        self.kind = kind
        self.n_chunks = int(n_chunks)
        rng = np.random.default_rng(self.seed)
        self.target_chunk = int(rng.integers(0, self.n_chunks))
        self.corrupt_offset = -int(rng.integers(1, 64))
        self.corrupt_flip = int(rng.integers(1, 256))
        self.replace_ordinal = int(rng.integers(1, 3))

    def describe(self):
        return (f"FaultPlan(seed={self.seed}, kind={self.kind!r}, "
                f"chunk={self.target_chunk})")

    def worker_faults(self):
        """Hooks for the worker under this plan (None when the plan
        does not target the worker)."""
        if self.kind == "worker-kill":
            return WorkerFaults(kill_at_chunk=self.target_chunk)
        if self.kind == "poison-chunk":
            return WorkerFaults(fail_at_chunk=self.target_chunk,
                                fail_once=False)
        if self.kind == "stall-heartbeat":
            return WorkerFaults(
                stall_heartbeat_at_chunk=self.target_chunk)
        if self.kind == "torn-write":
            return WorkerFaults(
                corrupt_result_at_chunk=self.target_chunk,
                corrupt_mode="torn",
                corrupt_offset=self.corrupt_offset,
                corrupt_flip=self.corrupt_flip)
        if self.kind == "truncated-result":
            return WorkerFaults(
                corrupt_result_at_chunk=self.target_chunk,
                corrupt_mode="truncate")
        return None

    def filesystem(self):
        """Filesystem shim for this plan (the real one unless the
        plan attacks file IO)."""
        if self.kind == "eio-on-rename":
            return FaultyFileSystem(
                fail_replace_at={self.replace_ordinal})
        return FileSystem()

    def corrupt(self, path):
        """Apply this plan's deterministic byte-flip to ``path``."""
        from .checkpoint import corrupt_checkpoint
        corrupt_checkpoint(path, offset=self.corrupt_offset,
                           flip=self.corrupt_flip)
