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
  ``.ckpt`` blob's framed checksum plus its sealed manifest sidecar.
* **disk-cache directories** (:func:`audit_cache_dir`) — each service
  memo envelope's payload digest and fingerprint.

plus a **cross-backend canary** (:func:`cross_backend_canary`): the
same small seeded grid run on the numpy reference and the numba JIT
backend must produce identical counters — the cheap standing guard
against a miscompiled kernel poisoning a campaign.

Every check lands in an :class:`AuditReport`; a single flipped byte
anywhere fails the report.

Cross-package imports (engine, checkpoint, spool protocol) happen
lazily inside functions: those modules import the manifest layer, and
this package's ``__init__`` imports this module, so eager imports here
would cycle.
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np

from ..errors import IntegrityError
from .manifest import (
    MANIFEST_NAME,
    RunManifest,
    blob_digest,
    load_sealed,
    pickle_digest,
    record_digest,
    unpack_record,
)

__all__ = [
    "AuditCheck",
    "AuditReport",
    "audit_cache_dir",
    "audit_checkpoint_dir",
    "audit_spool_run",
    "cross_backend_canary",
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

def _chunk_result_path(run_path, name):
    return os.path.join(run_path, "results", f"{name}.pkl")


def audit_spool_run(run_path, sample=4, seed=0):
    """Verify a preserved spool run against its manifest.

    Three passes: (1) every result file's frame + values digest against
    the manifest entry, (2) manifest entries with no result file (and
    result files with no entry) flagged, (3) a seeded sample of up to
    ``sample`` chunks replayed byte-for-byte — archived input points
    re-evaluated through the run's task function must reproduce the
    recorded digest exactly.
    """
    from ..sweep.distributed import REPLAY_DIR

    report = AuditReport(run_path)
    manifest_path = os.path.join(run_path, MANIFEST_NAME)
    try:
        manifest = RunManifest.load(manifest_path)
    except IntegrityError as exc:
        report.add("manifest", "fail", str(exc))
        return report
    report.add("manifest", "pass",
               f"{len(manifest.entries)} entries, identity "
               f"{manifest.fingerprint}")

    verifiable = []
    for name in sorted(manifest.entries):
        entry = manifest.entries[name]
        if entry.get("quarantined"):
            report.add(f"{name}/digest", "skipped",
                       "quarantined chunk (no reproducible values)")
            continue
        path = _chunk_result_path(run_path, name)
        try:
            with open(path, "rb") as fh:
                payload = unpack_record(fh.read())
        except FileNotFoundError:
            report.add(f"{name}/digest", "fail",
                       "result file missing")
            continue
        except IntegrityError as exc:
            report.add(f"{name}/digest", "fail",
                       f"result frame failed verification: {exc}")
            continue
        digest = pickle_digest(payload.get("values"))
        if digest != entry.get("values_sha256"):
            report.add(f"{name}/digest", "fail",
                       f"values digest {digest[:16]}… != manifest "
                       f"{str(entry.get('values_sha256'))[:16]}…")
            continue
        report.add(f"{name}/digest", "pass", "")
        verifiable.append(name)

    # Unmanifested strays are as suspicious as missing files.
    try:
        on_disk = {name[:-len(".pkl")] for name in
                   os.listdir(os.path.join(run_path, "results"))
                   if name.endswith(".pkl") and not name.startswith(".")}
    except OSError:
        on_disk = set()
    for name in sorted(on_disk - set(manifest.entries)):
        report.add(f"{name}/digest", "fail",
                   "result file not in the manifest")

    if not verifiable:
        report.add("replay", "skipped", "no verifiable chunks")
        return report
    rng = np.random.default_rng(seed)
    count = min(int(sample), len(verifiable))
    picks = sorted(rng.choice(len(verifiable), size=count,
                              replace=False).tolist())
    task_path = os.path.join(run_path, "task.pkl")
    try:
        with open(task_path, "rb") as fh:
            task_blob = fh.read()
        func = pickle.loads(task_blob)
    except (OSError, Exception) as exc:
        report.add("replay", "fail", f"task.pkl unusable: {exc!r}")
        return report
    expected_task = manifest.identity.get("task_sha256")
    if expected_task and blob_digest(task_blob) != expected_task:
        report.add("replay", "fail", "task.pkl digest mismatch")
        return report
    for index in picks:
        name = verifiable[index]
        replay_path = os.path.join(run_path, REPLAY_DIR,
                                   f"{name}.pkl")
        try:
            with open(replay_path, "rb") as fh:
                points = pickle.load(fh)
        except (OSError, Exception) as exc:
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
    """Verify every ``.ckpt`` blob (framed checksum) and its sealed
    manifest sidecar in ``directory``."""
    from ..resilience.checkpoint import _SIDECAR_SUFFIX, _SUFFIX

    report = AuditReport(directory)
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        report.add("checkpoints", "fail",
                   f"directory unreadable: {exc}")
        return report
    tags = [name[:-len(_SUFFIX)] for name in names
            if name.endswith(_SUFFIX) and not name.startswith(".")]
    if not tags:
        report.add("checkpoints", "skipped", "no checkpoint files")
        return report
    for tag in tags:
        path = os.path.join(directory, f"{tag}{_SUFFIX}")
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
            unpack_record(blob)
        except (OSError, IntegrityError) as exc:
            report.add(f"{tag}/frame", "fail", str(exc))
            continue
        report.add(f"{tag}/frame", "pass", f"{len(blob)} bytes")
        sidecar = os.path.join(directory,
                               f"{tag}{_SIDECAR_SUFFIX}")
        if not os.path.exists(sidecar):
            report.add(f"{tag}/sidecar", "skipped",
                       "no manifest sidecar")
            continue
        try:
            record = load_sealed(sidecar)
        except IntegrityError as exc:
            report.add(f"{tag}/sidecar", "fail", str(exc))
            continue
        if record.get("sha256") != blob_digest(blob):
            report.add(f"{tag}/sidecar", "fail",
                       "checkpoint blob does not match its sidecar "
                       "digest (tamper or swapped file)")
        else:
            report.add(f"{tag}/sidecar", "pass", "")
    return report


# ---------------------------------------------------------------------------
# service disk-cache directories
# ---------------------------------------------------------------------------

def audit_cache_dir(directory):
    """Verify every service memo envelope in ``directory``."""
    report = AuditReport(directory)
    try:
        names = sorted(name for name in os.listdir(directory)
                       if name.endswith(".json")
                       and not name.startswith("."))
    except OSError as exc:
        report.add("cache", "fail", f"directory unreadable: {exc}")
        return report
    if not names:
        report.add("cache", "skipped", "no cache entries")
        return report
    for name in names:
        key = name[:-len(".json")]
        path = os.path.join(directory, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                envelope = json.load(fh)
        except (OSError, json.JSONDecodeError,
                UnicodeDecodeError) as exc:
            report.add(key, "fail", f"unreadable envelope: {exc}")
            continue
        if (not isinstance(envelope, dict)
                or not isinstance(envelope.get("payload"), dict)):
            report.add(key, "fail", "malformed envelope")
            continue
        if envelope.get("fingerprint") != key:
            report.add(key, "fail",
                       f"fingerprint {envelope.get('fingerprint')!r} "
                       f"does not match file name")
            continue
        if record_digest(envelope["payload"]) != envelope.get("sha256"):
            report.add(key, "fail", "payload digest mismatch")
            continue
        report.add(key, "pass", "")
    return report


# ---------------------------------------------------------------------------
# cross-backend canary
# ---------------------------------------------------------------------------

def _default_canary_runner(n_transactions, batch_size, seed):
    """Counter dict of one small seeded binomial run per backend."""
    import dataclasses

    from ..device import MTJDevice, PAPER_EVAL_DEVICE
    from ..memsys import build_engine
    from ..units import nm_to_m

    def run(backend):
        engine = build_engine(
            MTJDevice(PAPER_EVAL_DEVICE), pitch=nm_to_m(70.0),
            rows=16, cols=16, ecc="secded", workload="random",
            backend=backend)
        result = engine.run(int(n_transactions),
                            rng=np.random.default_rng(seed),
                            batch_size=int(batch_size))
        return {f.name: getattr(result, f.name)
                for f in dataclasses.fields(result)
                if f.name not in ("config", "extras")}

    return run


def cross_backend_canary(n_transactions=2048, batch_size=512, seed=0,
                         runner=None):
    """One :class:`AuditCheck`: numpy and numba must agree exactly.

    The engine's numba kernels are bit-exact ports of the
    numpy reference, so a single diverging counter on the same seeded
    grid means a miscompile (or a port regression) — exactly the
    silent-poison failure a statistics repo cannot tolerate.

    ``runner`` (a ``runner(backend_name) -> counter dict`` callable)
    is the injection seam the tests use to force a divergence; the
    default runs the real engine. Without ``runner``, the check is
    ``skipped`` when numba is unavailable (there is nothing to compare
    the reference against).
    """
    from ..memsys.backends import numba_available

    forced = runner is not None
    if runner is None:
        if not numba_available():
            return AuditCheck(
                "cross-backend-canary", "skipped",
                "numba unavailable: no second backend to compare")
        runner = _default_canary_runner(n_transactions, batch_size,
                                        seed)
    try:
        reference = dict(runner("numpy"))
        candidate = dict(runner("numba"))
    except Exception as exc:
        return AuditCheck("cross-backend-canary", "fail",
                          f"canary run raised {exc!r}")
    diverging = sorted(
        name for name in set(reference) | set(candidate)
        if reference.get(name) != candidate.get(name))
    if diverging:
        detail = "; ".join(
            f"{name}: numpy={reference.get(name)!r} != "
            f"numba={candidate.get(name)!r}" for name in diverging)
        return AuditCheck("cross-backend-canary", "fail", detail)
    return AuditCheck(
        "cross-backend-canary", "pass",
        f"{len(reference)} counters identical on "
        f"{n_transactions} transactions"
        + (" (injected runner)" if forced else ""))
