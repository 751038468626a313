"""Memoized query results: bounded in-memory LRU + optional disk tier.

The memory tier is an :class:`collections.OrderedDict` LRU bounded by
``capacity`` entries; the disk tier is one JSON file per fingerprint
under ``<REPRO_KERNEL_CACHE>/service-results/`` — the same opt-in
environment variable (and the same "new physics keys new entries,
never invalidates old ones" story) as the kernel cache it lives next
to. Both tiers are keyed by :func:`~repro.service.protocol
.query_fingerprint`, so a warm directory survives server restarts and
is shared by every server pointed at it.

Every entry is stored in a manifest envelope — fingerprint, store
time, and a :func:`~repro.integrity.manifest.record_digest` of the
payload — and verified on read: a corrupt, tampered, or
wrong-fingerprint file is a counted miss (and deleted), never a wrong
answer. :meth:`ResultsCache.read_envelope` is the only envelope
parser; ``repro audit --cache`` reports through it too, so the audit
fails exactly the entries the cache would drop. The store time powers
two ages:

* ``get(key, max_age=...)`` — the memo TTL: entries older than
  ``max_age`` read as misses (but are *retained* — they may still
  serve stale).
* ``get_stale(key, max_age)`` — degraded-mode reads: the freshest
  entry within the (much longer) stale TTL, digest-verified, returned
  with its age so the server can tag the answer ``stale: true``.

Thread-safe: the server touches the cache from ``asyncio.to_thread``
workers as well as the event loop.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import OrderedDict

from ..arrays.kernel_disk import KERNEL_CACHE_ENV
from ..errors import IntegrityError, ParameterError
from ..integrity.manifest import atomic_write, record_digest
from ..validation import require_int_in_range, require_positive

#: Subdirectory of ``REPRO_KERNEL_CACHE`` holding service results.
RESULTS_SUBDIR = "service-results"

#: Disk-envelope schema version.
ENVELOPE_VERSION = 1

_FINGERPRINT_LEN = 32

#: A well-formed key: exactly 32 lower-case ASCII hex digits.
_KEY_PATTERN = re.compile(f"[0-9a-f]{{{_FINGERPRINT_LEN}}}")


class CachedPayload(dict):
    """A memoized payload plus ``encoded``, its compact sorted JSON,
    encoded once as it enters the memory tier so a hit's answer
    splices it in (:func:`~repro.service.framing.encode_result_line`)."""

    __slots__ = ("encoded",)

    def __init__(self, payload):
        super().__init__(payload)
        self.encoded = json.dumps(self, separators=(",", ":"),
                                  sort_keys=True).encode("utf-8")


class ResultsCache:
    """Two-tier (memory LRU + optional disk) memo cache.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries; least-recently-used beyond that are
        evicted (they remain on disk when a disk tier is attached).
    directory:
        Disk-tier directory. ``None`` (default) derives
        ``$REPRO_KERNEL_CACHE/service-results`` when the environment
        variable is set, else runs memory-only. Pass an explicit path
        to force a tier, or ``directory=False`` to disable the disk
        tier regardless of the environment.
    clock:
        Time source for entry ages — a callable or an object with a
        ``time()`` method (the :class:`~repro.resilience.shims.Clock`
        shape, so the fault harness can age entries by hand). Default:
        ``time.time``.
    """

    def __init__(self, capacity=256, directory=None, clock=None):
        require_int_in_range(capacity, "capacity", 1, 1 << 20)
        self.capacity = capacity
        if directory is None:
            root = os.environ.get(KERNEL_CACHE_ENV)
            directory = (os.path.join(root, RESULTS_SUBDIR)
                         if root else False)
        self.directory = None if directory is False else str(directory)
        if clock is None:
            self._clock = time.time
        elif callable(getattr(clock, "time", None)):
            self._clock = clock.time
        elif callable(clock):
            self._clock = clock
        else:
            raise ParameterError(
                f"clock must be callable or expose time(), got "
                f"{clock!r}")
        self._lock = threading.Lock()
        #: key -> (CachedPayload, stored_at, digest)
        self._memory = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._disk_write_failures = 0
        self._disk_corrupt = 0
        self._expired = 0
        self._stale_hits = 0
        self._stale_rejects = 0

    # -- key plumbing --------------------------------------------------

    @staticmethod
    def _check_key(key):
        if not isinstance(key, str) or _KEY_PATTERN.fullmatch(key) is None:
            raise ParameterError(
                f"cache key must be a {_FINGERPRINT_LEN}-hex-digit "
                f"fingerprint, got {key!r}")
        return key

    def _path(self, key):
        return os.path.join(self.directory, f"{key}.json")

    # -- tiers ---------------------------------------------------------

    def disk_keys(self):
        """Keys with an envelope file in the disk tier (unverified);
        raises ``OSError`` when the directory cannot be listed."""
        return [name[:-len(".json")]
                for name in os.listdir(self.directory)
                if name.endswith(".json") and not name.startswith(".")]

    def read_envelope(self, key):
        """``(payload, stored_at, digest)`` of ``key``'s verified disk
        envelope — the one envelope reader, shared by the disk tier and
        ``repro audit --cache``.

        Raises ``FileNotFoundError`` when there is no file, and
        :class:`~repro.errors.IntegrityError` naming the failed check
        otherwise: unparseable JSON, a pre-envelope bare payload, a
        wrong version, fingerprint or digest, or no store time.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            raise
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise IntegrityError(f"unreadable envelope: {exc}") from None
        if (not isinstance(envelope, dict)
                or not isinstance(envelope.get("payload"), dict)):
            raise IntegrityError("malformed envelope")
        if envelope.get("v") != ENVELOPE_VERSION:
            raise IntegrityError(
                f"envelope version {envelope.get('v')!r}, expected "
                f"{ENVELOPE_VERSION}")
        if envelope.get("fingerprint") != key:
            raise IntegrityError(
                f"fingerprint {envelope.get('fingerprint')!r} does not "
                f"match file name")
        payload = envelope["payload"]
        digest = envelope.get("sha256")
        if record_digest(payload) != digest:
            raise IntegrityError("payload digest mismatch")
        try:
            stored_at = float(envelope.get("stored_at"))
        except (TypeError, ValueError):
            raise IntegrityError(
                f"bad store time {envelope.get('stored_at')!r}") from None
        return payload, stored_at, digest

    def _disk_get(self, key):
        """``(payload, stored_at, digest)`` from a verified envelope,
        else None. An envelope that fails :meth:`read_envelope` is
        counted corrupt and the file removed: a counted miss, never a
        wrong answer."""
        if self.directory is None:
            return None
        try:
            return self.read_envelope(key)
        except FileNotFoundError:
            return None
        except IntegrityError:
            self._disk_corrupt += 1
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            return None

    def _disk_put(self, key, payload, stored_at, digest):
        if self.directory is None:
            return
        envelope = {"v": ENVELOPE_VERSION, "fingerprint": key,
                    "stored_at": stored_at, "sha256": digest,
                    "payload": payload}
        try:
            atomic_write(self._path(key), json.dumps(
                envelope, separators=(",", ":"),
                sort_keys=True).encode("utf-8"))
        except (OSError, TypeError, ValueError):
            # Persistence is best-effort; the memory tier still serves.
            self._disk_write_failures += 1

    def _entry(self, key):
        """The freshest verified entry from either tier, or None.

        Disk entries are promoted into the memory LRU (with their
        original store time — promotion must not rejuvenate an entry).
        """
        if key in self._memory:
            self._memory.move_to_end(key)
            return self._memory[key]
        entry = self._disk_get(key)
        if entry is not None:
            self._disk_hits += 1
            entry = self._store(key, *entry)
        return entry

    # -- public API ----------------------------------------------------

    def get(self, key, max_age=None):
        """The memoized :class:`CachedPayload` for ``key``, or ``None``
        on a miss.

        ``max_age`` (seconds) is the memo TTL: an older entry reads as
        a counted miss but is kept in both tiers, where
        :meth:`get_stale` can still reach it during degraded serving.
        """
        self._check_key(key)
        if max_age is not None:
            require_positive(max_age, "max_age")
        with self._lock:
            entry = self._entry(key)
            if entry is None:
                self._misses += 1
                return None
            payload, stored_at, _ = entry
            if max_age is not None:
                age = max(0.0, self._clock() - stored_at)
                if age > max_age:
                    self._expired += 1
                    self._misses += 1
                    return None
            self._hits += 1
            return payload

    def get_stale(self, key, max_age):
        """``(payload, age_seconds)`` for degraded-mode serving, or
        None.

        Ignores the memo TTL but bounds the answer's age by
        ``max_age`` (the stale TTL) and re-verifies the payload
        against its stored digest — an entry that fails verification
        is dropped and counted, because a degraded answer must still
        be a *correct* stale answer.
        """
        self._check_key(key)
        require_positive(max_age, "max_age")
        with self._lock:
            entry = self._entry(key)
            if entry is None:
                return None
            payload, stored_at, digest = entry
            if record_digest(payload) != digest:
                self._stale_rejects += 1
                self._memory.pop(key, None)
                if self.directory is not None:
                    try:
                        os.unlink(self._path(key))
                    except OSError:
                        pass
                return None
            age = max(0.0, self._clock() - stored_at)
            if age > max_age:
                return None
            self._stale_hits += 1
            return payload, age

    def put(self, key, payload):
        """Memoize ``payload`` (a JSON-safe dict) under ``key``."""
        self._check_key(key)
        if not isinstance(payload, dict):
            raise ParameterError(
                f"payload must be a dict, got {type(payload).__name__}")
        with self._lock:
            stored_at = float(self._clock())
            digest = record_digest(payload)
            self._store(key, payload, stored_at, digest)
            self._disk_put(key, payload, stored_at, digest)

    def _store(self, key, payload, stored_at, digest):
        entry = (CachedPayload(payload), stored_at, digest)
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
        return entry

    def clear(self):
        """Drop the memory tier (the disk tier is left untouched)."""
        with self._lock:
            self._memory.clear()

    def stats(self):
        """Counters for the ``/stats`` ops surface."""
        with self._lock:
            disk_entries = None
            if self.directory is not None:
                try:
                    disk_entries = len(self.disk_keys())
                except OSError:
                    disk_entries = 0
            return {
                "hits": self._hits,
                "misses": self._misses,
                "disk_hits": self._disk_hits,
                "disk_write_failures": self._disk_write_failures,
                "disk_corrupt": self._disk_corrupt,
                "expired": self._expired,
                "stale_hits": self._stale_hits,
                "stale_rejects": self._stale_rejects,
                "memory_entries": len(self._memory),
                "capacity": self.capacity,
                "disk_directory": self.directory,
                "disk_entries": disk_entries,
            }
