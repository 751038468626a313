"""Crash-consistency scanner for the distributed sweep spool.

A spool that hosted crashes, kills, and injected faults accumulates
debris the normal protocol never cleans up: claims whose worker died
*after* committing, torn or truncated result files from interrupted
writes, jobs re-queued after their result already landed, temp files
orphaned mid-rename, and quarantine records superseded by a later
successful commit. None of this debris can corrupt an answer — every
reader verifies frames and digests — but it wastes retries, pins disk,
and obscures what actually happened.

:func:`fsck_spool` walks a spool and names each problem as a
:class:`Finding`; with ``repair=True`` it also applies the (always
conservative, always deletion-of-provably-redundant-state) fix.
:func:`list_quarantine` renders the poison ledger without ever
unpickling anything — legacy pickle records are listed by size only.

fsck parses no spool file names. Runs, jobs, claims and verified
results come from :class:`~repro.sweep.distributed.SpoolRun`, the
broker's own reader, so a chunk fsck calls torn is exactly one the
broker's ``collect`` rejects. It is imported inside the functions: the
sweep module imports this package's manifest layer, so an eager import
here would cycle. Both fsck and the listing read quarantine records
through one parser.
"""

from __future__ import annotations

import json
import os

__all__ = ["Finding", "fsck_spool", "list_quarantine"]


class Finding:
    """One problem fsck identified (and possibly repaired)."""

    __slots__ = ("kind", "path", "detail", "repaired")

    def __init__(self, kind, path, detail="", repaired=False):
        self.kind = str(kind)
        self.path = str(path)
        self.detail = str(detail)
        self.repaired = bool(repaired)

    def to_record(self):
        return {"kind": self.kind, "path": self.path,
                "detail": self.detail, "repaired": self.repaired}

    def __repr__(self):  # pragma: no cover - debugging aid
        flag = " repaired" if self.repaired else ""
        return f"Finding({self.kind!r}, {self.path!r}{flag})"


def _try_unlink(path, repair):
    if not repair:
        return False
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def _listdir(path):
    try:
        return sorted(os.listdir(path))
    except OSError:
        return []


def _scan_run(run, repair, findings):
    """Findings for one :class:`~repro.sweep.distributed.SpoolRun`;
    returns its verified chunk set for the quarantine cross-check."""
    good = set()
    for chunk, payload in run.collect():
        if payload is not None:
            good.add(chunk)
            continue
        path = run.result_path(chunk)
        findings.append(Finding(
            "torn-result", path,
            "result frame failed verification; removing re-arms the "
            "retry path", _try_unlink(path, repair)))

    # Temp files orphaned mid-rename by a crash inside atomic_write.
    for directory in (run.path, run.queue_dir, run.claimed_dir,
                      run.results_dir):
        for name in _listdir(directory):
            if not name.startswith(".tmp-"):
                continue
            path = os.path.join(directory, name)
            repaired = _try_unlink(path, repair)
            findings.append(Finding(
                "stray-temp", path,
                "orphaned atomic-write temp file", repaired))

    # A queued job whose chunk already has a verified commit would be
    # executed (and committed) a second time for nothing.
    for chunk, path in run.queued_jobs():
        if chunk in good:
            repaired = _try_unlink(path, repair)
            findings.append(Finding(
                "duplicate-commit", path,
                f"chunk {chunk} already has a verified result",
                repaired))

    # A claim is orphaned when its work is provably over: the chunk
    # has a verified commit, or the whole run is marked DONE.
    done = run.is_done()
    for chunk, _, path in run.claimed_jobs():
        if chunk in good or done:
            why = (f"chunk {chunk} already has a verified result"
                   if chunk in good else "run is marked DONE")
            repaired = _try_unlink(path, repair)
            findings.append(Finding("orphaned-claim", path, why,
                                    repaired))
    return good


def _quarantine_files(spool):
    """``(name, path)`` of every file in ``spool``'s quarantine."""
    from ..sweep.distributed import QUARANTINE_DIR

    directory = os.path.join(str(spool), QUARANTINE_DIR)
    return [(name, os.path.join(directory, name))
            for name in _listdir(directory)]


def _read_quarantine(path):
    """A JSON quarantine record as a dict; None when it is unreadable.
    Never unpickles anything."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def fsck_spool(spool, repair=False):
    """Scan ``spool`` for crash debris; optionally repair it.

    Returns the list of :class:`Finding` records. Every repair is a
    deletion of provably redundant state — fsck never rewrites or
    fabricates results.
    """
    from ..sweep.distributed import SpoolRun

    findings = []
    committed = set()
    for run in SpoolRun.runs(str(spool)):
        committed |= _scan_run(run, repair, findings)

    for name, path in _quarantine_files(spool):
        if not name.endswith(".json"):
            continue
        try:
            chunk = int(_read_quarantine(path)["chunk"])
        except (KeyError, TypeError, ValueError):
            repaired = _try_unlink(path, repair)
            findings.append(Finding(
                "stray-quarantine", path,
                "unparseable quarantine record", repaired))
            continue
        if chunk in committed:
            repaired = _try_unlink(path, repair)
            findings.append(Finding(
                "stray-quarantine", path,
                f"chunk {chunk} has a verified result in a live run; "
                f"the quarantine record is superseded", repaired))
    return findings


def list_quarantine(spool):
    """Metadata of every quarantine record under ``spool``.

    JSON records surface their chunk/error/attempt fields; legacy
    pickle records (pre-integrity spools) are listed by name and size
    only — this function never unpickles anything, so a poisoned
    record cannot execute code at listing time.
    """
    records = []
    for name, path in _quarantine_files(spool):
        try:
            size = os.path.getsize(path)
        except OSError:
            continue
        if name.endswith(".json"):
            record = _read_quarantine(path)
            if record is None:
                records.append({"name": name, "bytes": size,
                                "unreadable": True})
                continue
            records.append({
                "name": name,
                "bytes": size,
                "chunk": record.get("chunk"),
                "error": record.get("error"),
                "error_type": record.get("error_type"),
                "attempts": record.get("attempts"),
                "workers": record.get("workers"),
            })
        elif name.endswith(".pkl"):
            records.append({"name": name, "bytes": size,
                            "legacy": True})
    return records
