"""Run manifests and digest primitives — the trust layer's vocabulary.

Everything this repo persists across a process boundary (spool chunk
results, engine checkpoints, service disk-cache entries) now carries a
digest a later reader can verify, and every *run* can emit a
:class:`RunManifest` recording its identity plus per-chunk/per-batch
result digests. The contract shared by every consumer is **counted
miss, never a wrong answer**: a verification failure surfaces as an
:class:`~repro.errors.IntegrityError` that callers translate into a
retry, a quarantine record, or a cache miss — never into silently
serving the corrupt bytes.

Three digest flavors, each matched to what it protects:

``record_digest``
    Digest of *semantic content*: the object is canonicalized with the
    exact collapse rules of
    :func:`repro.service.protocol.query_fingerprint` (dict ordering is
    irrelevant, ``70`` and ``70.0`` digest identically, bools stay
    bools) and the digest is taken over its canonical JSON. Used where
    two logically-equal payloads must verify equal even if they were
    serialized by different writers.

``blob_digest`` / ``pickle_digest``
    Digest of *exact bytes* — byte-for-byte replay verification. A
    reproduced chunk must re-pickle to the same bytes, which is the
    strongest statement of determinism the audit can make.

``pack_record`` / ``unpack_record``
    The one self-verifying frame for pickled payloads on disk (magic,
    length, sha256), shared by spool results and engine checkpoints. A
    torn or truncated write fails structurally, without guessing at
    pickle errors.

``atomic_write``
    The one durable writer: a same-directory temp file ``replace``-d
    into place, so a reader never observes a torn file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import uuid

from ..errors import IntegrityError

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "RunManifest",
    "atomic_write",
    "blob_digest",
    "canonical",
    "canonical_scalar",
    "load_sealed",
    "pack_record",
    "pickle_digest",
    "record_digest",
    "seal_record",
    "unpack_record",
    "verify_sealed",
    "write_sealed",
]

#: File name of a run manifest, written next to the artifacts it covers.
MANIFEST_NAME = "manifest.json"

#: Bumped when the manifest schema changes shape incompatibly.
MANIFEST_VERSION = 1

#: Key carrying a sealed record's own digest (see :func:`seal_record`).
CHECK_FIELD = "check"

# Framed pickled payloads: magic, payload length, payload sha256.
_MAGIC = b"RRECORD1"
_HEADER = struct.Struct("<8sQ32s")


# ---------------------------------------------------------------------------
# canonicalization — one set of collapse rules for every digest
# ---------------------------------------------------------------------------

def canonical_scalar(value):
    """Collapse a scalar to its canonical JSON spelling.

    The *same* collapse rule ``query_fingerprint`` applies per field:
    ints and floats unify (``70`` == ``70.0``), bools stay bools
    (``True`` is not ``1.0``), numpy scalars drop to native Python.
    An int a float cannot hold exactly (a 128-bit generator state)
    stays an exact int, so ``v`` and ``v + 1`` never collide.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        try:
            as_float = float(value)
        except OverflowError:
            return int(value)
        return as_float if as_float == value else int(value)
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return canonical_scalar(value.item())
    return value


def canonical(value):
    """Recursively canonicalize ``value`` for digesting.

    Dicts sort by (stringified) key, tuples become lists, scalars
    collapse via :func:`canonical_scalar`; anything not JSON-shaped
    falls back to its ``repr`` so digesting never raises.
    """
    if isinstance(value, dict):
        return {str(key): canonical(value[key])
                for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return canonical(tolist())
    scalar = canonical_scalar(value)
    if scalar is None or isinstance(scalar, (bool, int, float, str)):
        return scalar
    return repr(scalar)


def record_digest(obj):
    """128-bit hex digest of ``obj``'s canonical JSON form.

    Stable under dict reordering and int/float respelling — the
    hypothesis properties in ``tests/test_integrity.py`` pin this.
    Same width (32 hex chars) as a query fingerprint.
    """
    payload = json.dumps(canonical(obj), sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:32]


def blob_digest(data):
    """Full sha256 hex digest of exact bytes."""
    return hashlib.sha256(data).hexdigest()


def pickle_digest(obj):
    """Byte-exact digest of ``obj``'s pickled form.

    This is the replay-audit invariant: recomputing a chunk from its
    recorded inputs must reproduce these exact bytes.
    """
    return blob_digest(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------------------
# framed pickle blobs — self-verifying result files
# ---------------------------------------------------------------------------

def pack_record(payload):
    """Serialize ``payload`` into a self-verifying framed blob."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).digest()
    return _HEADER.pack(_MAGIC, len(body), digest) + body


def unpack_record(blob):
    """Verify and deserialize a :func:`pack_record` blob.

    Raises :class:`IntegrityError` on any structural or digest
    mismatch — truncation, torn write, flipped byte, wrong magic.
    """
    if len(blob) < _HEADER.size:
        raise IntegrityError(
            f"record blob shorter than its header "
            f"({len(blob)} < {_HEADER.size} bytes)")
    magic, length, digest = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise IntegrityError(f"bad record magic {magic!r}")
    body = blob[_HEADER.size:]
    if len(body) != length:
        raise IntegrityError(
            f"record body length {len(body)} != header length {length}")
    if hashlib.sha256(body).digest() != digest:
        raise IntegrityError("record sha256 mismatch")
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise IntegrityError(
            f"record payload undecodable: {exc!r}") from exc


def atomic_write(path, data, fs=None):
    """Atomically write ``data`` (bytes) to ``path``.

    The bytes land in a same-directory temp file
    (``.tmp-<hex8>-<basename>``) that is then ``replace``-d into place.
    ``fs`` is a :class:`~repro.resilience.shims.FileSystem` (the fault
    harness's seam); ``None`` writes through plain ``os``. On an
    ``OSError`` the temp file is removed (best effort) and the error
    re-raised.
    """
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory,
                       f".tmp-{uuid.uuid4().hex[:8]}-{os.path.basename(path)}")
    try:
        if fs is None:
            os.makedirs(directory, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        else:
            fs.makedirs(directory)
            fs.write_bytes(tmp, data)
            fs.replace(tmp, path)
    except OSError:
        try:
            (os.unlink if fs is None else fs.unlink)(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# sealed JSON records — manifests and checkpoint sidecars
# ---------------------------------------------------------------------------

def seal_record(record):
    """Return a copy of ``record`` carrying its own content digest."""
    body = {key: record[key] for key in record if key != CHECK_FIELD}
    sealed = dict(body)
    sealed[CHECK_FIELD] = record_digest(body)
    return sealed

def verify_sealed(record):
    """True iff ``record``'s embedded digest matches its content."""
    if not isinstance(record, dict) or CHECK_FIELD not in record:
        return False
    body = {key: record[key] for key in record if key != CHECK_FIELD}
    return record[CHECK_FIELD] == record_digest(body)


def write_sealed(path, record, fs=None):
    """Atomically write a sealed JSON record (temp file + rename)."""
    atomic_write(path, json.dumps(seal_record(record), sort_keys=True,
                                  indent=2).encode("utf-8"), fs=fs)


def load_sealed(path, fs=None):
    """Load a sealed JSON record, raising :class:`IntegrityError` if
    it does not parse or its embedded digest does not verify."""
    try:
        if fs is not None:
            data = fs.read_bytes(path)
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        record = json.loads(data.decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"unreadable sealed record {path}: {exc}")
    if not verify_sealed(record):
        raise IntegrityError(f"sealed record failed verification: {path}")
    return record


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

class RunManifest:
    """Identity plus per-entry digests for one run.

    ``identity`` answers *which run produced these artifacts* (seed,
    stack fingerprint, topology, protocol version — whatever
    the emitting layer knows); ``entries`` maps artifact names
    (``chunk-000003``, ``batch-0012``) to digest records. The manifest
    file is itself sealed, so a tampered manifest is as detectable as
    a tampered artifact.
    """

    def __init__(self, kind, identity=None, entries=None):
        self.kind = str(kind)
        self.identity = dict(identity or {})
        self.entries = dict(entries or {})

    def entry(self, name):
        return self.entries.get(str(name))

    @property
    def fingerprint(self):
        """Digest of the run identity alone — the run's short name."""
        return record_digest({"kind": self.kind, "identity": self.identity})

    def to_record(self):
        return {
            "manifest_version": MANIFEST_VERSION,
            "kind": self.kind,
            "identity": dict(self.identity),
            "entries": {name: dict(fields)
                        for name, fields in self.entries.items()},
        }

    def write(self, path, fs=None):
        write_sealed(path, self.to_record(), fs=fs)
        return path

    @classmethod
    def load(cls, path, fs=None):
        record = load_sealed(path, fs=fs)
        version = record.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise IntegrityError(
                f"unsupported manifest version {version!r} in {path}")
        identity = record.get("identity")
        entries = record.get("entries")
        if not isinstance(identity, dict) or not isinstance(entries, dict):
            raise IntegrityError(f"malformed manifest {path}")
        return cls(record.get("kind", "unknown"), identity, entries)


def identity_diff(current, stored):
    """Human-readable list of fields on which two identities differ.

    Powers the :class:`~repro.errors.RunIdentityError` message: the
    operator sees *which* of seed/config/topology/shape moved, not
    just "key mismatch".
    """
    if not isinstance(stored, dict) or not stored:
        return ["stored run predates identity records (no fields to compare)"]
    lines = []
    for name in sorted(set(current) | set(stored), key=str):
        mine = canonical(current.get(name, "<absent>"))
        theirs = canonical(stored.get(name, "<absent>"))
        if mine != theirs:
            lines.append(f"{name}: run={mine!r} != stored={theirs!r}")
    return lines
