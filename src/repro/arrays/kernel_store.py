"""Process-wide memoized store of stray-field coupling kernels.

Every consumer of the coupling model — :class:`repro.core.inter.
InterCellModel`, :class:`repro.arrays.coupling.InterCellCoupling`,
:class:`repro.arrays.extended.ExtendedNeighborhood`, the memsys
:class:`~repro.memsys.controller.ArrayController` — ultimately needs the
same scalar: the Hz field [A/m] at an evaluation point on the victim FL
sourced by one neighbor stack at a lateral offset. That scalar depends
only on

* the *stack fingerprint* — pillar geometry, the magnetic layers'
  effective moments (after any temperature scaling), and which layer set
  is sourcing (``"fixed"`` = RL + HL with pinned directions, ``"fl"`` =
  the free layer in the P state),
* the lateral offset (which encodes the pitch), and
* the evaluation point.

Before this store, every ``InterCellCoupling`` instance kept a private
``_kernel_cache``, so a pitch sweep that rebuilt model objects per point
recomputed identical elliptic-integral sums from scratch. The store
memoizes them process-wide: model objects stay cheap, throwaway facades,
and repeated grid scenarios (the paper's pitch x pattern x size sweeps)
pay for each kernel once per process.

The store is thread-safe (service queries share it across worker
threads); under the :mod:`repro.sweep` process-pool executor each
worker simply grows its own copy, which is exactly the right sharing
granularity (kernels are pure functions of the key).

Because the keys are content fingerprints, entries also survive the
process: setting the :data:`~repro.arrays.kernel_disk.KERNEL_CACHE_ENV`
environment variable to a directory gives the singleton a persistent
:class:`~repro.arrays.kernel_disk.DiskKernelCache` backend — memory
misses consult the disk before recomputing, fresh computes are queued
and flushed back, and any corrupt or stale file degrades to a counted
recompute, never an error.
"""

from __future__ import annotations

import atexit
import os
import threading
import time

import numpy as np

from ..errors import ParameterError
from ..fields import layer_to_loops
from ..fields.superposition import LoopCollection
from ..stack import MTJStack
from .kernel_disk import (
    KERNEL_CACHE_ENV,
    DiskKernelCache,
    KernelCacheError,
    key_digest,
)

#: Decimal places for rounding lengths [m] in cache keys (sub-fm).
_KEY_DECIMALS = 15

#: The kernel kinds the store computes.
KERNEL_KINDS = ("fixed", "fl")

#: Version of the kernel *semantics*, folded into every cache key.
#: Bump whenever the computed value for an unchanged key could change —
#: the field backend (`loop_field_analytic_many`), the loop
#: discretization (`layer_to_loops` sub-loop defaults), or the
#: fingerprint's meaning. The on-disk cache digests keys verbatim, so
#: without this a physics change would silently serve stale persisted
#: kernels (`kernel_disk.SCHEMA_VERSION` only covers the *file
#: layout*).
KERNEL_MODEL_VERSION = 1


def stack_fingerprint(stack, temperature=None):
    """Hashable fingerprint of everything a coupling kernel depends on.

    Captures the pillar radius and, per magnetic layer, its role,
    vertical extent, magnetization direction, and the *effective* Ms
    after Bloch scaling to ``temperature``. Two stacks with equal
    fingerprints produce identical kernels; changing any moment,
    thickness, eCD, or the temperature changes the fingerprint and
    therefore invalidates nothing — it simply keys new entries.
    """
    if not isinstance(stack, MTJStack):
        raise ParameterError(
            f"stack must be an MTJStack, got {type(stack)!r}")
    layers = []
    for layer in stack.magnetic_layers():
        ms = (layer.material.ms if temperature is None
              else layer.material.ms_at(temperature))
        # Coerce to plain Python types: the disk cache digests
        # repr(key), and a np.float64 reprs differently from the
        # ==-equal float, which would silently split the keys.
        layers.append((str(layer.role.value),
                       round(float(layer.z_bottom), _KEY_DECIMALS),
                       round(float(layer.z_top), _KEY_DECIMALS),
                       float(ms),
                       int(layer.direction)))
    return (round(float(stack.radius), _KEY_DECIMALS), tuple(layers))


class KernelStore:
    """Memoized ``(stack, offset, kind, point) -> Hz`` kernel evaluator.

    Normally used through the module-level singleton (see
    :func:`get_kernel_store`); instantiable separately for isolation in
    tests. ``hits``/``misses`` count lookups for observability.

    With a :class:`~repro.arrays.kernel_disk.DiskKernelCache` attached
    (``disk=`` or :meth:`attach_disk`), memory misses consult the disk
    snapshot before recomputing, and recomputed entries are queued for
    an atomic merge-write back (auto-flushed every
    :data:`FLUSH_THRESHOLD` new entries, or explicitly via
    :meth:`flush_disk`). Disk trouble of any kind — truncation, schema
    mismatch, torn concurrent writes — degrades to a recompute counted
    in ``stats()["disk_fallbacks"]``.
    """

    #: Queued disk write-backs that trigger an automatic flush.
    FLUSH_THRESHOLD = 256

    #: Seconds before a failed disk-snapshot load is retried, so an
    #: externally repaired cache comes back without restarting the
    #: process while a persistently corrupt one is not re-scanned on
    #: every lookup.
    DISK_RETRY_SECONDS = 60.0

    def __init__(self, disk=None):
        self._cache = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._disk = None
        self._disk_from_env = False
        with self._lock:
            self._reset_disk_state_locked()
        if disk is not None:
            self.attach_disk(disk)

    def __len__(self):
        return len(self._cache)

    def _reset_disk_state_locked(self):
        """Reset snapshot, queue, cooldown, and counters (lock held)."""
        self._disk_loaded = None
        self._disk_failed_at = 0.0
        self._pending = {}
        self.disk_hits = 0
        self.disk_fallbacks = 0
        self.disk_write_failures = 0

    def clear(self):
        """Drop every in-memory entry and reset every counter.

        The on-disk files (if a disk cache is attached) are untouched;
        the disk snapshot is re-read on the next lookup.
        """
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0
            self._reset_disk_state_locked()

    # -- disk backing -------------------------------------------------------

    @property
    def disk(self):
        """The attached :class:`DiskKernelCache`, or None."""
        return self._disk

    @property
    def disk_from_env(self):
        """True when the current backend was attached by the env sync.

        Callers that temporarily swap the backend (e.g. ``repro cache
        warm``) must restore this flag, or the environment opt-out
        would stop working afterwards.
        """
        return self._disk_from_env

    def attach_disk(self, disk, _from_env=False):
        """Back this store with ``disk`` (a DiskKernelCache or a path)."""
        if not isinstance(disk, DiskKernelCache):
            disk = DiskKernelCache(disk)
        with self._lock:
            self._attach_disk_locked(disk, _from_env)

    def _attach_disk_locked(self, disk, from_env):
        self._disk = disk
        self._disk_from_env = from_env
        self._reset_disk_state_locked()

    def detach_disk(self):
        """Drop the disk backend (pending write-backs are discarded).

        While :data:`KERNEL_CACHE_ENV` remains set, the next
        :func:`get_kernel_store` call re-attaches the environment's
        backend — to opt out of disk I/O persistently, unset the
        variable (as the benchmark conftest does) or attach an
        explicit backend, which the env sync never overrides.
        """
        with self._lock:
            self._detach_disk_locked()

    def _detach_disk_locked(self):
        self._disk = None
        self._disk_from_env = False
        self._reset_disk_state_locked()

    def sync_disk_from_env(self, environ=None):
        """Attach/detach the disk backend per :data:`KERNEL_CACHE_ENV`.

        Called by :func:`get_kernel_store` on every access so tests and
        subprocesses that flip the environment variable see the change
        without restarting the process. A backend attached explicitly
        via :meth:`attach_disk` is never overridden here — the
        environment only manages backends it attached itself. The
        check and the switch happen under one lock acquisition, so a
        concurrent explicit attach cannot be clobbered in between.
        """
        environ = os.environ if environ is None else environ
        directory = environ.get(KERNEL_CACHE_ENV) or None
        with self._lock:
            explicit = self._disk is not None and not self._disk_from_env
            current = (self._disk.directory if self._disk is not None
                       else None)
            if explicit or directory == current:
                return
            if directory is None:
                self._detach_disk_locked()
            else:
                self._attach_disk_locked(DiskKernelCache(directory),
                                         True)

    def _disk_snapshot(self):
        """The loaded disk snapshot, or None (no disk / failed load).

        The first load — open, checksum scan, index build — runs
        OUTSIDE the store lock so concurrent lookups (service worker
        threads in particular) are not stalled behind cache-file I/O;
        racing loaders duplicate that work harmlessly and the first
        install wins.
        """
        with self._lock:
            disk = self._disk
            if disk is None:
                return None
            loaded = self._disk_loaded
            if (loaded is False
                    and time.monotonic() - self._disk_failed_at
                    >= self.DISK_RETRY_SECONDS):
                self._disk_loaded = loaded = None   # retry the load
            if loaded is not None:
                return loaded or None   # empty snapshot serves nothing
        try:
            snapshot = disk.load()
        except KernelCacheError:
            snapshot = False
        with self._lock:
            if self._disk is disk and self._disk_loaded is None:
                self._disk_loaded = snapshot
                if snapshot is False:
                    self.disk_fallbacks += 1
                    self._disk_failed_at = time.monotonic()
            loaded = (self._disk_loaded if self._disk is disk
                      else None)
        return loaded or None

    def _queue_write_locked(self, key, value):
        if self._disk is not None:
            self._pending[key_digest(key)] = value

    def flush_disk(self):
        """Merge-write queued entries to disk; returns how many.

        Write failures are swallowed into ``disk_write_failures`` — the
        entries stay available in memory and will be recomputed by the
        next process.
        """
        with self._lock:
            disk, pending = self._disk, self._pending
            if disk is None or not pending:
                return 0
            self._pending = {}
        try:
            disk.write(pending)
        except (KernelCacheError, OSError):
            with self._lock:
                self.disk_write_failures += 1
            return 0
        return len(pending)

    def _maybe_autoflush(self):
        with self._lock:
            due = (self._disk is not None
                   and len(self._pending) >= self.FLUSH_THRESHOLD)
        if due:
            self.flush_disk()

    # -- observability ------------------------------------------------------

    def stats(self):
        """``{"entries": n, "hits": h, "misses": m}`` snapshot.

        With a disk backend attached, also reports ``disk_hits``
        (lookups served from the persistent cache), ``disk_fallbacks``
        (corrupt/stale cache reads that degraded to recompute),
        ``disk_write_failures`` (flushes that could not be written),
        ``disk_pending`` (queued write-backs), and ``disk_entries``
        (entries in the loaded snapshot; 0 until the first lookup
        loads it).
        """
        with self._lock:
            out = {"entries": len(self._cache), "hits": self.hits,
                   "misses": self.misses}
            if self._disk is not None:
                out["disk_hits"] = self.disk_hits
                out["disk_fallbacks"] = self.disk_fallbacks
                out["disk_write_failures"] = self.disk_write_failures
                out["disk_pending"] = len(self._pending)
                out["disk_entries"] = (
                    len(self._disk_loaded) if self._disk_loaded else 0)
            return out

    def kernel(self, stack, offset_xy, kind,
               evaluation_point=(0.0, 0.0, 0.0), temperature=None):
        """Hz [A/m] at ``evaluation_point`` from one neighbor stack.

        Parameters
        ----------
        stack:
            The neighbor's :class:`~repro.stack.MTJStack`.
        offset_xy:
            Lateral (x, y) position [m] of the neighbor's axis relative
            to the evaluation frame.
        kind:
            ``"fixed"`` (RL + HL with their pinned directions) or
            ``"fl"`` (free layer in the P state, +z).
        evaluation_point:
            (x, y, z) [m] where Hz is evaluated; default the FL center.
        temperature:
            Optional temperature [K] scaling the layer moments.

        The one-offset case of :meth:`kernel_batch`: same keys, same
        hit/miss/disk accounting, same value.
        """
        return float(self.kernel_batch(
            stack, [offset_xy], kind, evaluation_point=evaluation_point,
            temperature=temperature)[0])

    def kernel_batch(self, stack, offsets_xy, kind,
                     evaluation_point=(0.0, 0.0, 0.0), temperature=None):
        """Hz [A/m] at ``evaluation_point`` from neighbors at N offsets.

        The store's one lookup path (:meth:`kernel` is its one-offset
        case): ``offsets_xy`` is an (N, 2) array of lateral neighbor
        positions [m] and the return value is the (N,) array of their
        kernels, in order. Each offset is served from memory, else from
        the disk snapshot, and every still-uncached offset of the batch
        is evaluated in one broadcasted
        :meth:`~repro.fields.superposition.LoopCollection.field_grid`
        call (translation invariance: the field of a source at offset
        ``o`` evaluated at ``p`` equals the field of the same source at
        the origin evaluated at ``p - o``), which is what makes
        full-array field maps a single numpy expression instead of a
        per-cell Python loop.
        """
        point = _validated_point(kind, evaluation_point)
        offsets = np.asarray(offsets_xy, dtype=float)
        if offsets.ndim != 2 or offsets.shape[1] != 2:
            raise ParameterError(
                f"offsets_xy must have shape (N, 2), got {offsets.shape}")
        fingerprint = stack_fingerprint(stack, temperature)
        keys = [_entry_key(fingerprint, ox, oy, kind, point)
                for ox, oy in offsets]
        out = np.empty(len(keys))
        missing = []
        with self._lock:
            for i, key in enumerate(keys):
                if key in self._cache:
                    self.hits += 1
                    out[i] = self._cache[key]
                else:
                    missing.append(i)
        if missing:
            snapshot = self._disk_snapshot()
            if snapshot is not None:
                # Touch the memory-mapped snapshot outside the lock (a
                # cold page is a disk read); install hits under it.
                found = [(i, snapshot.get(key_digest(keys[i])))
                         for i in missing]
                still_missing = []
                with self._lock:
                    for i, value in found:
                        if value is None:
                            still_missing.append(i)
                        else:
                            self.disk_hits += 1
                            self._cache[keys[i]] = value
                            out[i] = value
                missing = still_missing
        if missing:
            values = self._compute_batch(stack, offsets[missing], kind,
                                         point, temperature)
            with self._lock:
                for i, value in zip(missing, values):
                    value = float(value)
                    self.misses += 1
                    self._cache[keys[i]] = value
                    self._queue_write_locked(keys[i], value)
                    out[i] = value
            self._maybe_autoflush()
        return out

    @staticmethod
    def _source_loops(stack, kind, center_xy, temperature):
        if kind == "fixed":
            layers, direction = stack.fixed_layers(), None
        else:
            layers, direction = (stack.free_layer,), +1
        loops = []
        for layer in layers:
            loops.extend(layer_to_loops(
                layer, stack.radius, center_xy=center_xy,
                direction=direction, temperature=temperature))
        return loops

    @staticmethod
    def _compute_batch(stack, offsets, kind, point, temperature):
        # One origin-centered source, evaluated at point - offset for
        # every offset: the lab-frame displacement point - (offset + c)
        # is computed with the same float ops as a source centered at
        # each offset, so the results are bit-identical to per-offset
        # computes.
        loops = KernelStore._source_loops(stack, kind, (0.0, 0.0),
                                          temperature)
        shifts = np.concatenate(
            [offsets, np.zeros((len(offsets), 1))], axis=1)
        pts = np.asarray(point, dtype=float) - shifts
        return LoopCollection(loops).field_grid(pts)[:, 2]


def _entry_key(fingerprint, ox, oy, kind, point):
    """The store/disk cache key of one kernel entry.

    The single definition of a kernel entry's key; the disk digests
    derive from it, so persisted entries stay valid only while it
    stays put. Leads with
    :data:`KERNEL_MODEL_VERSION` so persisted entries of older kernel
    semantics can never be served.
    """
    return (KERNEL_MODEL_VERSION, fingerprint,
            round(float(ox), _KEY_DECIMALS),
            round(float(oy), _KEY_DECIMALS),
            kind, point)


def _validated_point(kind, evaluation_point):
    if kind not in KERNEL_KINDS:
        raise ParameterError(f"unknown kernel kind {kind!r}")
    point = tuple(round(float(c), _KEY_DECIMALS)
                  for c in evaluation_point)
    if len(point) != 3:
        raise ParameterError(
            f"evaluation_point must have 3 components, got "
            f"{len(point)}")
    return point


#: The process-wide store shared by every coupling-model consumer.
_GLOBAL_STORE = KernelStore()

# Safety-net flush at interpreter exit: covers kernels computed in the
# main process outside any sweep (e.g. `repro wer`, direct library
# use), which would otherwise sit below FLUSH_THRESHOLD and be lost.
# Sweeps still flush promptly (SweepRunner.run), and pool workers use
# a multiprocessing Finalize hook because os._exit skips atexit there.
# No-op unless a disk backend is attached with entries pending.
atexit.register(_GLOBAL_STORE.flush_disk)


def get_kernel_store():
    """The process-wide :class:`KernelStore` singleton.

    Re-synchronizes the disk backend against the
    :data:`~repro.arrays.kernel_disk.KERNEL_CACHE_ENV` environment
    variable on every call, so opting in (or out) of persistence takes
    effect immediately — including in sweep worker processes, which
    inherit the parent's environment.
    """
    _GLOBAL_STORE.sync_disk_from_env()
    return _GLOBAL_STORE
