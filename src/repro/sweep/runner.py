"""Sweep execution: one point function, pluggable executors.

The :class:`SweepRunner` evaluates a point function over every point of
a :class:`~repro.sweep.spec.SweepSpec` and returns a
:class:`~repro.sweep.result.SweepResult` whose values are always in
spec order — so serial and parallel runs of a deterministic function
produce identical results.

Executors:

* ``"serial"`` — a plain loop in the calling process (the default, the
  baseline parallel runs are checked against, and the one in-process
  path: the point functions hold the GIL for most of their time, so
  an in-process pool only adds overhead),
* ``"process"`` — a ``concurrent.futures.ProcessPoolExecutor``; the
  point function and its bound arguments must be picklable
  (module-level functions / ``functools.partial`` of them),
* ``"distributed"`` — a broker + worker transport over a spool-
  directory job queue (:mod:`repro.sweep.distributed`): chunks are
  scheduled with guided work stealing, workers may be spawned locally
  or attached from other hosts (``repro worker --spool DIR``), stale
  claims are retried, and results reassemble in spec order — right for
  the dense pitch grids and chip-scale presets whose wall-clock
  exceeds one machine.

Every parallel executor ships contiguous chunks of points whose bounds
come from one rule, :func:`schedule_chunks`: a grid of fewer than four
points per worker runs one point per task; larger grids open with big
chunks (amortizing pickling and per-task overhead) and end with small
ones that balance the tail. Worker processes each warm
their own :class:`~repro.arrays.kernel_store.KernelStore`, so chunking
also maximizes kernel reuse within a worker; with the
:data:`~repro.arrays.kernel_disk.KERNEL_CACHE_ENV` variable set, every
worker additionally reads (and flushes back to) the shared on-disk
kernel cache.
"""

from __future__ import annotations

import os
import time

from ..errors import ParameterError
from ..validation import jobs_argument, require_int_in_range
from .result import SweepResult
from .spec import SweepSpec

#: The executor names :class:`SweepRunner` accepts.
EXECUTORS = ("serial", "process", "distributed")

#: Environment override of the executor :func:`executor_for_jobs` picks.
SWEEP_EXECUTOR_ENV = "REPRO_SWEEP_EXECUTOR"

#: Spool directory the ``distributed`` executor and external workers
#: rendezvous in; without it the broker uses a private temp spool.
SWEEP_SPOOL_ENV = "REPRO_SWEEP_SPOOL"

#: Grids of at most this many work units count as "small" for
#: :func:`executor_for_jobs`: process-pool spawn cost dominates them,
#: so the implicit parallel pick keeps them serial, in process.
SMALL_SWEEP_UNITS = 32

#: Grids of at least this many work units go to the spool broker when
#: :data:`SWEEP_SPOOL_ENV` names one.
DISTRIBUTED_MIN_UNITS = 64


def _flush_kernel_store():
    """Persist this process's kernel store (no-op without disk backing)."""
    from ..arrays.kernel_store import get_kernel_store
    get_kernel_store().flush_disk()


def _worker_initializer():
    """Pool-worker setup: flush the kernel store once at worker exit.

    Workers are long-lived (they serve many points), so flushing per
    point would rewrite the on-disk cache constantly; an exit hook
    persists each worker's freshly computed kernels exactly once, when
    the pool shuts down. Plain ``atexit`` never fires in
    ``multiprocessing`` children (``_bootstrap`` ends in ``os._exit``),
    so this registers through ``multiprocessing.util.Finalize``, which
    ``_bootstrap`` does run. No-op unless disk backing is enabled.
    """
    from multiprocessing.util import Finalize
    Finalize(None, _flush_kernel_store, exitpriority=100)


def _apply_chunk(func, chunk):
    """Evaluate a contiguous chunk of points in one task."""
    return [func(**params) for params in chunk]


def schedule_chunks(n_points, n_workers, chunk_size=None, min_chunk=1):
    """``(start, stop)`` chunk bounds for dynamic work stealing.

    With an explicit ``chunk_size`` the split is uniform, the same on
    every parallel executor. Otherwise sizes follow the guided
    self-scheduling rule: each next chunk takes ``remaining / (2 *
    workers)`` points, never below ``min_chunk`` — the sweep opens with
    large, cheap-to-ship chunks and ends with small tail chunks that
    let fast workers steal the remainder out from under slow ones
    instead of waiting on one oversized final chunk.
    """
    require_int_in_range(n_points, "n_points", 0, 10**9)
    require_int_in_range(n_workers, "n_workers", 1, 4096)
    if chunk_size is not None:
        require_int_in_range(chunk_size, "chunk_size", 1, 1_000_000)
    require_int_in_range(min_chunk, "min_chunk", 1, 1_000_000)
    bounds = []
    start = 0
    while start < n_points:
        remaining = n_points - start
        if chunk_size is not None:
            size = chunk_size
        else:
            size = max(min_chunk, remaining // (2 * n_workers))
        size = min(size, remaining)
        bounds.append((start, start + size))
        start += size
    return bounds


def require_executor(executor):
    """Raise :class:`ParameterError` unless ``executor`` is a known name."""
    if executor not in EXECUTORS:
        raise ParameterError(
            f"executor must be one of {EXECUTORS}, got {executor!r}")


class SweepRunner:
    """Evaluates ``func(**point)`` over a spec with a chosen executor.

    Parameters
    ----------
    func:
        The point function; called with one keyword argument per spec
        axis. For the process executors it must be picklable — a
        module-level function or a :func:`functools.partial` of one.
    executor:
        One of :data:`EXECUTORS`. ``"serial"`` ignores ``jobs``.
    jobs:
        Worker-process count for the pool executors; None lets
        ``ProcessPoolExecutor`` pick (``os.cpu_count()``).
    chunk_size:
        Points per task on every parallel executor (default: the
        guided work-stealing schedule of :func:`schedule_chunks`).
    spool:
        Spool directory for ``"distributed"``; default is the
        ``REPRO_SWEEP_SPOOL`` environment variable, else a private
        temp directory. Ignored by every other executor.
    progress:
        Optional callback invoked as ``progress(done, total)`` (in
        points) whenever completed work lands: after every point
        (serial) or after every completed chunk (process/
        distributed). It is also the cancellation point — raising
        :class:`~repro.errors.RunAborted` from the callback stops a
        serial sweep at the next point boundary, and a process sweep
        once its in-flight chunks finish (queued ones never start).
        The callback never reorders or changes values, so a seeded
        sweep with ``progress`` is byte-identical to one without.
    """

    def __init__(self, func, executor="serial", jobs=None,
                 chunk_size=None, spool=None, progress=None):
        if not callable(func):
            raise ParameterError(f"func must be callable, got {func!r}")
        require_executor(executor)
        if jobs is not None:
            require_int_in_range(jobs, "jobs", 1, 4096)
        if chunk_size is not None:
            require_int_in_range(chunk_size, "chunk_size", 1, 1_000_000)
        if progress is not None and not callable(progress):
            raise ParameterError(
                f"progress must be callable, got {progress!r}")
        self.func = func
        self.executor = executor
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.spool = spool
        self.progress = progress

    def run(self, spec):
        """Evaluate every point of ``spec``; returns a SweepResult."""
        if not isinstance(spec, SweepSpec):
            raise ParameterError(
                f"spec must be a SweepSpec, got {type(spec)!r}")
        start = time.perf_counter()
        extras = {}
        if self.executor == "serial":
            values = self._run_serial(spec)
        elif self.executor == "process":
            values = self._run_pool(spec.points())
        else:
            values, extras["distributed"] = self._run_distributed(
                spec.points())
        elapsed = time.perf_counter() - start
        # Persist kernels this process computed during the sweep (pool
        # workers flush themselves at pool shutdown); no-op unless the
        # on-disk kernel cache is enabled. Living here means every
        # sweep consumer warms the cache without its own incantation.
        _flush_kernel_store()
        return SweepResult(spec=spec, values=values,
                           executor=self.executor,
                           jobs=self._effective_jobs(), elapsed=elapsed,
                           extras=extras)

    def _effective_jobs(self):
        if self.executor == "serial":
            return 1
        return self.jobs or os.cpu_count() or 1

    def _report(self, done, total):
        if self.progress is not None:
            self.progress(done, total)

    def _run_serial(self, spec):
        values = []
        total = len(spec)
        for params in spec:
            values.append(self.func(**params))
            self._report(len(values), total)
        return values

    def _run_pool(self, points):
        """Evaluate ``points`` on a process pool in
        :func:`schedule_chunks` chunks; values in point order.

        The submit/as_completed shape reports progress per chunk as
        chunks land, in any order, while every chunk's values go back
        to their own positions — so parallel runs remain
        byte-identical to serial ones. If the loop exits by an
        exception (a failed chunk, or ``progress`` raising
        :class:`~repro.errors.RunAborted`), the chunks that have not
        started are cancelled, so the pool's shutdown waits only for
        the ones in flight.
        """
        # The pool loads on use: a serial run (every banked engine run
        # in-process) never imports multiprocessing.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        bounds = schedule_chunks(len(points), self._effective_jobs(),
                                 chunk_size=self.chunk_size)
        values = [None] * len(points)
        done = 0
        with ProcessPoolExecutor(max_workers=self.jobs,
                                 initializer=_worker_initializer) as pool:
            futures = {pool.submit(_apply_chunk, self.func,
                                   points[start:stop]): (start, stop)
                       for start, stop in bounds}
            try:
                for future in as_completed(futures):
                    start, stop = futures[future]
                    values[start:stop] = future.result()
                    done += stop - start
                    self._report(done, len(points))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
        return values

    def _run_distributed(self, points):
        """``(values, stats)`` from the spool broker; transient spool
        I/O (an NFS hiccup, the spool racing into existence) retries
        with seeded exponential backoff, three attempts in all."""
        from ..resilience.breaker import RetryPolicy, call_with_retry
        from .distributed import run_distributed
        policy = RetryPolicy(base=0.2, factor=2.0, cap=2.0,
                             max_attempts=3)
        return call_with_retry(
            lambda: run_distributed(self.func, points, spool=self.spool,
                                    jobs=self._effective_jobs(),
                                    chunk_size=self.chunk_size,
                                    progress=self.progress),
            policy, retry_on=OSError)


def run_sweep(func, spec, executor="serial", jobs=None, chunk_size=None,
              spool=None, progress=None):
    """One-call convenience: build a runner and run ``spec``."""
    return SweepRunner(func, executor=executor, jobs=jobs,
                       chunk_size=chunk_size, spool=spool,
                       progress=progress).run(spec)


def add_sweep_arguments(parser):
    """Attach the standard ``--jobs`` / ``--executor`` flag pair.

    Every sweep-shaped CLI (``repro reproduce|design|memsys`` and the
    figure runner) shares this one definition, so the flags validate
    and document identically everywhere.
    """
    parser.add_argument("--jobs", type=jobs_argument, default=None,
                        help="worker count for parallel sweep "
                             "execution")
    parser.add_argument("--executor", choices=EXECUTORS, default=None,
                        help="sweep executor (serial runs in "
                             "process; process forks workers; "
                             "distributed ships chunks over a spool-"
                             "directory job queue — see `repro "
                             "worker`)")
    return parser


def array_work_units(n_points, rows, cols):
    """Work units of ``n_points`` points on a ``rows`` x ``cols`` array:
    ``max(1, rows * cols // 65536)`` per point (a 256² point weighs 1,
    a 1024² point 16), capped at :func:`executor_for_jobs`' input
    bound."""
    per_point = max(1, int(rows) * int(cols) // 65536)
    return min(10**9, int(n_points) * per_point)


def executor_for_jobs(jobs, n_points=None):
    """The executor of a sweep that names none: the one policy.

    ``n_points`` is the grid's size in work units — points, or
    :func:`array_work_units` for grids of array points; None means
    unknown. Precedence: an explicit executor never reaches this
    function (call sites short-circuit on it); then the
    :data:`SWEEP_EXECUTOR_ENV` environment variable, which wins at
    *every* ``jobs`` value, including ``jobs`` of None or 1; then, with
    :data:`SWEEP_SPOOL_ENV` set, grids of at least
    :data:`DISTRIBUTED_MIN_UNITS` units go ``"distributed"`` (the
    ``repro worker`` fleet on that spool serves them); then the
    ``jobs`` size rule: None/1 mean the serial baseline, and anything
    larger keeps grids of at most :data:`SMALL_SWEEP_UNITS` units
    serial (process-pool spawn cost dominates them) and picks
    ``"process"`` for larger or unknown-size grids.

    One asymmetry, on purpose: for serial-sized runs (``jobs`` of
    ``None``/1) a *misspelled* environment value is ignored rather
    than raised, so a stale override cannot break a plain serial
    invocation; with ``jobs > 1`` an invalid value raises.
    """
    if jobs is not None:
        require_int_in_range(jobs, "jobs", 1, 4096)
    if n_points is not None:
        require_int_in_range(n_points, "n_points", 0, 10**9)
    env = os.environ.get(SWEEP_EXECUTOR_ENV) or None
    if env in EXECUTORS:
        return env
    serial_sized = jobs is None or jobs == 1
    if env is not None and not serial_sized:
        raise ParameterError(
            f"{SWEEP_EXECUTOR_ENV} must be one of {EXECUTORS}, got "
            f"{env!r}")
    known = n_points is not None
    if (known and n_points >= DISTRIBUTED_MIN_UNITS
            and os.environ.get(SWEEP_SPOOL_ENV)):
        return "distributed"
    if serial_sized or (known and n_points <= SMALL_SWEEP_UNITS):
        return "serial"
    return "process"
