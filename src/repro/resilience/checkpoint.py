"""Atomic, checksummed run checkpoints: crash-tolerant Monte Carlo.

A chip-scale reliability campaign is hours of seeded draws; a process
crash at 97% used to mean starting over. This module makes every
:class:`~repro.memsys.engine.ReliabilityEngine` run resumable: at batch
boundaries the engine snapshots its complete dynamic state — bitplane
array state, the RNG generator state, every result counter,
workload/scrub stream state — through a :class:`RunCheckpointer`, and a
resumed run replays *nothing*: it restores the generator mid-stream and
continues, producing results byte-identical to the uninterrupted run
(asserted by the resilience test suite for flat and banked
topologies).

Durability rules, in the same spirit as the kernel disk cache:

* **Writes are atomic.** Payloads are framed by
  :func:`~repro.integrity.manifest.pack_record` (the ``RRECORD1``
  frame spool results use) and land through
  :func:`~repro.integrity.manifest.atomic_write`; a reader never
  observes a torn checkpoint.
* **Checksums gate reads.** The frame carries a SHA-256 of the
  payload; any mismatch (truncation, bitrot, a fault plan's corruption,
  a file from the retired ``RCHKPT01`` frame) is *detected*, counted,
  warned about — and survived: the caller falls back to a clean
  restart, never to wrong numbers.
* **Staleness is corruption's sibling.** Each checkpoint embeds a
  :func:`~repro.integrity.manifest.record_digest` key of the engine
  configuration and run shape; resuming against a checkpoint written
  by a different run degrades to a clean restart with a counted
  :class:`~repro.errors.ResilienceWarning`.
* **Write failures never kill the run.** A checkpoint that cannot be
  written (disk full, EIO from the fault harness) costs future
  resumability, not the run in progress.

All file IO flows through the :class:`~repro.resilience.shims
.FileSystem` shim, which is how the fault-injection harness drives
EIO-on-rename and corrupt-checkpoint scenarios deterministically.
"""

from __future__ import annotations

import io
import os
import warnings

from ..errors import (
    IntegrityError,
    ParameterError,
    ResilienceWarning,
    RunIdentityError,
)
from ..integrity.manifest import (
    atomic_write,
    blob_digest,
    canonical,
    identity_diff,
    load_sealed,
    pack_record,
    unpack_record,
    write_sealed,
)
from ..validation import require_positive
from .shims import REAL_FS

_SUFFIX = ".ckpt"

#: Per-tag manifest sidecar suffix (``<tag>.manifest.json``): a sealed
#: JSON record of the checkpoint blob's digest plus the run identity,
#: so ``repro audit`` can verify checkpoints without unpickling them.
_SIDECAR_SUFFIX = ".manifest.json"

#: Per-batch digest history entries kept in a sidecar.
_SIDECAR_HISTORY = 64


class CheckpointManager:
    """A directory of named, atomic, checksummed checkpoint files.

    Parameters
    ----------
    directory:
        Where checkpoints live; created on first save.
    fs:
        A :class:`~repro.resilience.shims.FileSystem`; the default is
        the real one. The fault harness substitutes a failing double.
    """

    def __init__(self, directory, fs=None):
        if not directory:
            raise ParameterError("checkpoint directory must be a path")
        self.directory = str(directory)
        self.fs = fs if fs is not None else REAL_FS
        self.saves = 0
        self.save_failures = 0
        self.corrupt_fallbacks = 0
        self.stale_fallbacks = 0

    def _path(self, tag):
        if not tag or "/" in tag or "\\" in tag or tag.startswith("."):
            raise ParameterError(f"bad checkpoint tag {tag!r}")
        return f"{self.directory}/{tag}{_SUFFIX}"

    def _sidecar_path(self, tag):
        return f"{self.directory}/{tag}{_SIDECAR_SUFFIX}"

    def _write_sidecar(self, tag, payload, blob):
        """Best-effort sealed manifest next to the checkpoint file.

        Carries the blob's full digest, the run identity, and a capped
        per-batch digest history. Deliberately written through plain
        ``os`` rather than the fault-injection filesystem shim: the
        sidecar is an advisory audit artifact, and its bookkeeping
        writes must not perturb the scheduled fault ordinals the chaos
        plans count on. Failures are swallowed — a missing sidecar
        costs auditability, never the run.
        """
        path = self._sidecar_path(tag)
        snapshot = {"done": payload.get("done"),
                    "sha256": blob_digest(blob)}
        try:
            history = load_sealed(path).get("snapshots", [])
        except (IntegrityError, OSError):
            history = []
        history = (list(history) + [snapshot])[-_SIDECAR_HISTORY:]
        record = {
            "kind": "checkpoint",
            "tag": str(tag),
            "key": payload.get("key"),
            "identity": payload.get("identity"),
            "complete": bool(payload.get("complete", False)),
            "done": payload.get("done"),
            "sha256": snapshot["sha256"],
            "bytes": len(blob),
            "snapshots": history,
        }
        try:
            # canonical() makes the record JSON-safe whatever the
            # identity values are (numpy scalars collapse to native).
            write_sealed(path, canonical(record))
        except (OSError, TypeError, ValueError):  # pragma: no cover
            pass

    def save(self, tag, payload):
        """Atomically persist ``payload`` under ``tag``.

        Returns True on success. Failure (any ``OSError`` from the
        filesystem) is counted, warned about once per call, and
        swallowed — checkpointing protects the run, it must never be
        the thing that kills it.
        """
        path = self._path(tag)
        blob = pack_record(payload)
        try:
            atomic_write(path, blob, fs=self.fs)
        except OSError as exc:
            self.save_failures += 1
            warnings.warn(
                f"checkpoint save failed for {path!r} ({exc}); the "
                f"run continues without this snapshot",
                ResilienceWarning, stacklevel=2)
            return False
        self.saves += 1
        self._write_sidecar(tag, payload, blob)
        return True

    def load(self, tag, expect_key=None, identity=None):
        """The payload stored under ``tag``, or None with a counted
        warning when it is absent, corrupt, or stale.

        ``expect_key`` (a :func:`~repro.integrity.manifest
        .record_digest` of the run's configuration) guards against
        resuming a different run's state: a mismatch is a *stale*
        fallback, distinct from corruption in the counters.

        ``identity`` (a flat dict of run-identity fields) upgrades the
        stale fallback to a hard :class:`~repro.errors
        .RunIdentityError` naming the differing fields: an explicit
        ``--resume`` against the wrong run's checkpoint is an operator
        error to surface, not a silent fresh start. It also catches
        mismatches the key is blind to (the seed is not part of the
        key, because resume restores the generator mid-stream).
        """
        path = self._path(tag)
        try:
            blob, payload = self.read_frame(tag)
        except FileNotFoundError:
            return None
        except OSError as exc:
            self.corrupt_fallbacks += 1
            warnings.warn(
                f"checkpoint {path!r} unreadable ({exc}); falling "
                f"back to a clean restart", ResilienceWarning,
                stacklevel=2)
            return None
        except IntegrityError as exc:
            self.corrupt_fallbacks += 1
            warnings.warn(
                f"checkpoint {path!r} corrupt ({exc}); falling back "
                f"to a clean restart", ResilienceWarning, stacklevel=2)
            return None
        try:
            agrees = self.sidecar_agrees(tag, blob)
        except IntegrityError:
            # A torn sidecar proves nothing: the blob's own checksum
            # already gates corruption; the sidecar catches swaps.
            agrees = None
        if agrees is False:
            self.corrupt_fallbacks += 1
            warnings.warn(
                f"checkpoint {path!r} disagrees with its manifest "
                f"sidecar (tamper or swapped file); falling back to a "
                f"clean restart", ResilienceWarning, stacklevel=2)
            return None
        if expect_key is not None and payload.get("key") != expect_key:
            if identity is not None:
                diff = identity_diff(identity, payload.get("identity"))
                raise RunIdentityError(
                    f"checkpoint {path!r} was written by a different "
                    f"run; refusing to resume it. Differing fields: "
                    + "; ".join(diff))
            self.stale_fallbacks += 1
            warnings.warn(
                f"checkpoint {path!r} belongs to a different run "
                f"(stale configuration); falling back to a clean "
                f"restart", ResilienceWarning, stacklevel=2)
            return None
        stored_identity = payload.get("identity")
        if (identity is not None and isinstance(stored_identity, dict)
                and stored_identity
                and canonical(stored_identity) != canonical(identity)):
            diff = identity_diff(identity, stored_identity)
            raise RunIdentityError(
                f"checkpoint {path!r} matches this run's configuration "
                f"key but not its identity; refusing to resume it. "
                f"Differing fields: " + "; ".join(diff))
        return payload

    def read_frame(self, tag):
        """``(blob, payload)`` of ``tag``'s checkpoint, read through the
        filesystem shim. Raises ``OSError`` (``FileNotFoundError`` when
        absent) or :class:`~repro.errors.IntegrityError` when the frame
        fails its checksum. :meth:`load` and ``repro audit`` both read
        checkpoints through here."""
        blob = self.fs.read_bytes(self._path(tag))
        return blob, unpack_record(blob)

    def sidecar_agrees(self, tag, blob):
        """Whether ``tag``'s sealed sidecar records ``blob``'s digest;
        None when there is no sidecar (pre-sidecar checkpoints). Raises
        :class:`~repro.errors.IntegrityError` when the sidecar fails its
        own seal — :meth:`load` shrugs that off, the audit fails it."""
        path = self._sidecar_path(tag)
        if not os.path.exists(path):
            return None
        return load_sealed(path).get("sha256") == blob_digest(blob)

    def delete(self, tag):
        """Remove ``tag``'s checkpoint and sidecar (no-op when absent)."""
        try:
            self.fs.unlink(self._path(tag))
        except OSError:
            pass
        try:
            os.unlink(self._sidecar_path(tag))
        except OSError:
            pass

    def tags(self):
        """Sorted tags currently stored (completed or in-flight)."""
        try:
            names = self.fs.listdir(self.directory)
        except OSError:
            return []
        return sorted(name[:-len(_SUFFIX)] for name in names
                      if name.endswith(_SUFFIX)
                      and not name.startswith("."))

    def stats(self):
        """Counters for run summaries and the resilience tests."""
        return {
            "directory": self.directory,
            "saves": self.saves,
            "save_failures": self.save_failures,
            "corrupt_fallbacks": self.corrupt_fallbacks,
            "stale_fallbacks": self.stale_fallbacks,
        }


class RunCheckpointer:
    """Cadence + identity policy over one engine run's checkpoints.

    Parameters
    ----------
    manager:
        The :class:`CheckpointManager` (or a directory path, wrapped
        on the spot).
    tag:
        File name of this run's checkpoint within the manager's
        directory (topology runs use one tag per shard).
    every:
        Minimum transactions between snapshots; None snapshots at
        every batch boundary.
    """

    def __init__(self, manager, tag="run", every=None):
        if isinstance(manager, str):
            manager = CheckpointManager(manager)
        if not isinstance(manager, CheckpointManager):
            raise ParameterError(
                f"manager must be a CheckpointManager or path, got "
                f"{type(manager)!r}")
        if every is not None:
            require_positive(every, "every")
        self.manager = manager
        self.tag = str(tag)
        self.every = None if every is None else int(every)
        self._last_saved = None

    def restore(self, key, identity=None):
        """The saved run state matching ``key``, or None.

        ``identity`` makes a mismatch a hard
        :class:`~repro.errors.RunIdentityError` (see
        :meth:`CheckpointManager.load`).
        """
        payload = self.manager.load(self.tag, expect_key=key,
                                    identity=identity)
        if payload is not None:
            self._last_saved = payload.get("done")
        return payload

    def maybe_save(self, done, payload_fn):
        """Snapshot at a batch boundary if the cadence is due.

        ``payload_fn()`` builds the state dict lazily so an off-cadence
        boundary costs one comparison, not a serialization.
        """
        if (self.every is not None and self._last_saved is not None
                and done - self._last_saved < self.every):
            return False
        payload = payload_fn()
        payload["done"] = int(done)
        if self.manager.save(self.tag, payload):
            self._last_saved = int(done)
            return True
        return False

    def finalize(self, key, result, identity=None):
        """Persist the completed run's result.

        A resume of a finished run then returns the stored result
        outright — which is what lets a multi-shard topology resume
        skip its completed shards entirely.
        """
        self.manager.save(self.tag, {
            "key": key, "complete": True, "result": result,
            "done": getattr(result, "n_transactions", None),
            "identity": identity,
        })


def as_checkpointer(checkpoint, tag="run", every=None):
    """Coerce a path / manager / checkpointer into a RunCheckpointer.

    The one spot that defines what the engine's ``checkpoint=``
    argument accepts; None passes through (checkpointing off).
    """
    if checkpoint is None:
        return None
    if isinstance(checkpoint, RunCheckpointer):
        return checkpoint
    return RunCheckpointer(checkpoint if isinstance(
        checkpoint, CheckpointManager) else CheckpointManager(
        str(checkpoint)), tag=tag, every=every)


def corrupt_checkpoint(path, offset=-8, flip=0x01):
    """Flip one payload byte of a checkpoint file (test/chaos helper).

    Deterministic by construction — ``offset`` indexes into the file
    (negative from the end, i.e. inside the pickled payload) and
    ``flip`` XORs that byte — so the corruption-fallback scenario in
    the chaos matrix is reproducible bit-for-bit.
    """
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    if not blob:
        raise ParameterError(f"cannot corrupt empty file {path!r}")
    blob[offset] ^= flip
    with io.open(path, "wb") as handle:
        handle.write(bytes(blob))
