"""Atomic, checksummed run checkpoints: crash-tolerant Monte Carlo.

A chip-scale reliability campaign is hours of seeded draws; a process
crash at 97% used to mean starting over. :class:`CheckpointManager` is
the tag -> blob store that makes every
:class:`~repro.memsys.engine.ReliabilityEngine` run resumable. What a
blob holds, when one is saved and whether a stored run may resume are
the engine's business (``repro.memsys.engine._Lane``): at batch
boundaries it snapshots its complete dynamic state — bitplane array
state, the RNG generator state, every result counter, workload/scrub
stream state — and a resumed run replays *nothing*: it restores the
generator mid-stream and continues, producing results byte-identical
to the uninterrupted run (asserted by the resilience test suite for
flat and banked topologies).

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
* **One digest per tag.** A sealed ``<tag>.manifest.json`` sidecar
  records the latest blob's SHA-256 and nothing else, so a well-framed
  blob swapped in behind its back is caught too (by :meth:`load` and
  by ``repro audit --checkpoint``).
* **Write failures never kill the run.** A checkpoint that cannot be
  written (disk full, EIO from the fault harness) costs future
  resumability, not the run in progress.

Checkpoint files flow through the :class:`~repro.resilience.shims
.FileSystem` shim, which is how the fault-injection harness drives
EIO-on-rename and corrupt-checkpoint scenarios deterministically.
"""

from __future__ import annotations

import io
import os
import warnings

from ..errors import IntegrityError, ParameterError, ResilienceWarning
from ..integrity.manifest import (
    atomic_write,
    blob_digest,
    load_sealed,
    pack_record,
    unpack_record,
    write_sealed,
)
from .shims import REAL_FS

_SUFFIX = ".ckpt"

#: Per-tag manifest sidecar suffix (``<tag>.manifest.json``): a sealed
#: JSON record of the latest checkpoint blob's digest, so
#: ``repro audit`` can verify checkpoints without unpickling them.
_SIDECAR_SUFFIX = ".manifest.json"


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

    def _path(self, tag):
        if not tag or "/" in tag or "\\" in tag or tag.startswith("."):
            raise ParameterError(f"bad checkpoint tag {tag!r}")
        return f"{self.directory}/{tag}{_SUFFIX}"

    def _sidecar_path(self, tag):
        return f"{self.directory}/{tag}{_SIDECAR_SUFFIX}"

    def _write_sidecar(self, tag, blob):
        """Best-effort sealed ``{kind, tag, sha256}`` manifest of the
        blob just saved, replacing whatever sidecar was there.

        Deliberately written through plain ``os`` rather than the
        fault-injection filesystem shim: the sidecar is an advisory
        audit artifact, and its bookkeeping writes must not perturb the
        scheduled fault ordinals the chaos plans count on. Failures are
        swallowed — a missing sidecar costs auditability, never the run.
        """
        try:
            write_sealed(self._sidecar_path(tag), {
                "kind": "checkpoint", "tag": str(tag),
                "sha256": blob_digest(blob)})
        except OSError:  # pragma: no cover
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
        self._write_sidecar(tag, blob)
        return True

    def load(self, tag):
        """The payload stored under ``tag``, or None: silently when it
        is absent, with a counted warning when its frame is unreadable
        or corrupt or its sidecar records a different blob. Whether the
        payload belongs to the caller's run is the caller's check."""
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
        }


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
