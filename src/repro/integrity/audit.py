"""Replay audit: prove a finished run's artifacts are what it computed.

The manifest layer (:mod:`repro.integrity.manifest`) makes corruption
*detectable* on the hot path; this module is the cold-path prosecutor
behind ``repro audit``. It verifies three artifact families —

* **spool runs** (:func:`audit_spool_run`) — every committed result
  file's frame and digest against the run's manifest, plus a seeded
  sample of chunks *replayed byte-for-byte*: the chunk's archived
  input points are re-evaluated through the run's own task function
  and must re-pickle to the exact bytes the manifest recorded.
* **checkpoint directories** (:func:`audit_checkpoint_dir`) — each
  checkpoint's framed checksum plus its sealed manifest sidecar.
* **disk-cache directories** (:func:`audit_cache_dir`) — each service
  memo envelope's version, fingerprint, payload digest and store time.

Every check lands in an :class:`AuditReport`; a single flipped byte
anywhere fails the report.

The audit parses no store's files itself. Each store's owner reads
them, with the same checks its own load path applies:
:class:`~repro.sweep.distributed.SpoolRun` for spool runs,
:class:`~repro.resilience.checkpoint.CheckpointManager` for
checkpoints and :meth:`~repro.service.results_cache.ResultsCache
.read_envelope` for the cache. So an artifact fails audit exactly when
its reader would reject it. These owners are imported inside
functions: they import the manifest layer, and this package's
``__init__`` imports this module, so eager imports here would cycle.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

from ..errors import IntegrityError, ParameterError
from .manifest import MANIFEST_NAME, RunManifest, blob_digest, pickle_digest

__all__ = [
    "AuditCheck",
    "AuditReport",
    "audit_cache_dir",
    "audit_checkpoint_dir",
    "audit_spool_run",
]


class AuditCheck:
    """One named verification with a pass/fail/skipped verdict."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name, status, detail=""):
        if status not in ("pass", "fail", "skipped"):
            raise ValueError(f"bad audit status {status!r}")
        self.name = str(name)
        self.status = status
        self.detail = str(detail)

    def to_record(self):
        return {"name": self.name, "status": self.status,
                "detail": self.detail}

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"AuditCheck({self.name!r}, {self.status!r})"


class AuditReport:
    """An ordered bundle of :class:`AuditCheck` results."""

    def __init__(self, subject):
        self.subject = str(subject)
        self.checks = []

    def add(self, name, status, detail=""):
        self.checks.append(AuditCheck(name, status, detail))

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def passed(self):
        return all(check.status != "fail" for check in self.checks)

    def counts(self):
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for check in self.checks:
            out[check.status] += 1
        return out

    def to_record(self):
        return {"subject": self.subject, "passed": self.passed,
                "counts": self.counts(),
                "checks": [c.to_record() for c in self.checks]}


# ---------------------------------------------------------------------------
# spool runs
# ---------------------------------------------------------------------------

def audit_spool_run(run_path, sample=4, seed=0):
    """Verify a preserved spool run against its manifest.

    Three passes: (1) every result file's frame + values digest against
    the manifest entry, (2) manifest entries with no result file (and
    result files with no entry) flagged, (3) a seeded sample of up to
    ``sample`` chunks replayed byte-for-byte — archived input points
    re-evaluated through the run's task function must reproduce the
    recorded digest exactly.
    """
    from ..sweep.distributed import SpoolRun

    report = AuditReport(run_path)
    try:
        manifest = RunManifest.load(os.path.join(run_path, MANIFEST_NAME))
    except IntegrityError as exc:
        report.add("manifest", "fail", str(exc))
        return report
    report.add("manifest", "pass",
               f"{len(manifest.entries)} entries, identity "
               f"{manifest.fingerprint}")

    run = SpoolRun(run_path)
    results = {run.chunk_name(chunk): (chunk, payload)
               for chunk, payload in run.collect()}
    verifiable = []
    for name in sorted(manifest.entries):
        entry = manifest.entries[name]
        if entry.get("quarantined"):
            report.add(f"{name}/digest", "skipped",
                       "quarantined chunk (no reproducible values)")
            continue
        if name not in results:
            report.add(f"{name}/digest", "fail",
                       "result file missing")
            continue
        chunk, payload = results[name]
        if payload is None:
            report.add(f"{name}/digest", "fail",
                       "result frame failed verification")
            continue
        digest = pickle_digest(payload.get("values"))
        if digest != entry.get("values_sha256"):
            report.add(f"{name}/digest", "fail",
                       f"values digest {digest[:16]}… != manifest "
                       f"{str(entry.get('values_sha256'))[:16]}…")
            continue
        report.add(f"{name}/digest", "pass", "")
        verifiable.append((name, chunk))

    # Unmanifested strays are as suspicious as missing files.
    for name in sorted(set(results) - set(manifest.entries)):
        report.add(f"{name}/digest", "fail",
                   "result file not in the manifest")

    if not verifiable:
        report.add("replay", "skipped", "no verifiable chunks")
        return report
    rng = np.random.default_rng(seed)
    count = min(int(sample), len(verifiable))
    picks = sorted(rng.choice(len(verifiable), size=count,
                              replace=False).tolist())
    try:
        task_blob = run.task_bytes()
        func = pickle.loads(task_blob)
    except Exception as exc:
        report.add("replay", "fail", f"task.pkl unusable: {exc!r}")
        return report
    expected_task = manifest.identity.get("task_sha256")
    if expected_task and blob_digest(task_blob) != expected_task:
        report.add("replay", "fail", "task.pkl digest mismatch")
        return report
    for index in picks:
        name, chunk = verifiable[index]
        try:
            points = run.replay_points(chunk)
        except Exception as exc:
            report.add(f"{name}/replay", "fail",
                       f"replay inputs unusable: {exc!r}")
            continue
        try:
            values = [func(**params) for params in points]
        except Exception as exc:
            report.add(f"{name}/replay", "fail",
                       f"replay evaluation raised {exc!r}")
            continue
        digest = pickle_digest(values)
        expected = manifest.entries[name].get("values_sha256")
        if digest != expected:
            report.add(f"{name}/replay", "fail",
                       f"replayed values digest {digest[:16]}… != "
                       f"manifest {str(expected)[:16]}…")
        else:
            report.add(f"{name}/replay", "pass",
                       f"{len(points)} point(s) byte-identical")
    return report


# ---------------------------------------------------------------------------
# checkpoint directories
# ---------------------------------------------------------------------------

def audit_checkpoint_dir(directory):
    """Verify every checkpoint's frame and sealed manifest sidecar in
    ``directory``, through the routines :meth:`~repro.resilience
    .checkpoint.CheckpointManager.load` uses."""
    from ..resilience.checkpoint import CheckpointManager

    report = AuditReport(directory)
    if not (os.path.isdir(directory) and os.access(directory, os.R_OK)):
        report.add("checkpoints", "fail", "not a readable directory")
        return report
    manager = CheckpointManager(directory)
    tags = manager.tags()
    if not tags:
        report.add("checkpoints", "skipped", "no checkpoint files")
        return report
    for tag in tags:
        try:
            blob, _ = manager.read_frame(tag)
        except (OSError, IntegrityError, ParameterError) as exc:
            report.add(f"{tag}/frame", "fail", str(exc))
            continue
        report.add(f"{tag}/frame", "pass", f"{len(blob)} bytes")
        try:
            agrees = manager.sidecar_agrees(tag, blob)
        except IntegrityError as exc:
            report.add(f"{tag}/sidecar", "fail", str(exc))
            continue
        if agrees is None:
            report.add(f"{tag}/sidecar", "skipped",
                       "no manifest sidecar")
        elif agrees:
            report.add(f"{tag}/sidecar", "pass", "")
        else:
            report.add(f"{tag}/sidecar", "fail",
                       "checkpoint blob does not match its sidecar "
                       "digest (tamper or swapped file)")
    return report


# ---------------------------------------------------------------------------
# service disk-cache directories
# ---------------------------------------------------------------------------

def audit_cache_dir(directory):
    """Verify every service memo envelope in ``directory`` through
    :meth:`~repro.service.results_cache.ResultsCache.read_envelope`:
    an entry fails here exactly when the cache would drop it. Nothing
    is deleted."""
    from ..service.results_cache import ResultsCache

    report = AuditReport(directory)
    cache = ResultsCache(directory=directory)
    try:
        keys = sorted(cache.disk_keys())
    except OSError as exc:
        report.add("cache", "fail", f"directory unreadable: {exc}")
        return report
    if not keys:
        report.add("cache", "skipped", "no cache entries")
        return report
    for key in keys:
        try:
            cache.read_envelope(key)
        except (OSError, IntegrityError) as exc:
            report.add(key, "fail", str(exc))
            continue
        report.add(key, "pass", "")
    return report
