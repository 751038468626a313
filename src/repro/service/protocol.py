"""Wire protocol of the reliability service.

One request per line, one JSON object per line (NDJSON) in both
directions. A request is ``{"op": <name>, "id": <client tag>,
...params}``; the server answers with zero or more ``progress`` events
followed by exactly one terminal ``result`` or ``error`` event, each
echoing the request ``id`` so clients may pipeline. The line codec
lives in the numpy-free :mod:`repro.service.framing` and is re-exported
here.

Requests normalize into frozen dataclasses (the "request objects in"
half of the service contract): every field is validated and coerced to
plain Python scalars at parse time, so two textually different JSON
spellings of the same physical question — ``70`` vs ``70.0``, keys in
any order — collapse onto one :func:`query_fingerprint`. The
fingerprint reuses the kernel store's ``stack_fingerprint`` for the
device geometry and the disk cache's ``key_digest`` for hashing, which
is what lets the service's memo cache share a directory tree (and an
invalidation story: new physics => new fingerprint => new key, never a
stale hit) with ``REPRO_KERNEL_CACHE``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

from ..arrays.kernel_disk import repr_digest
from ..arrays.kernel_store import stack_fingerprint
from ..device import MTJDevice, PAPER_EVAL_DEVICE
from ..errors import ParameterError
from ..integrity.manifest import canonical_scalar
from ..units import nm_to_m
from ..validation import require_int_in_range, require_positive
from .framing import MAX_LINE_BYTES, decode_line, encode_line  # noqa: F401

#: Version prefix of every fingerprint; bump on any semantic change to
#: a query's evaluation so memoized results from older servers miss.
#: Version 2: ``uber`` lost its ``sampler`` field, and sampled queries
#: draw class-grouped binomial flips. Version 3: sampled runs draw
#: their write data as raw uint64 lanes, so seeded answers moved.
PROTOCOL_VERSION = 3

#: Distinct eCDs whose stack key :func:`query_fingerprint` keeps; clients
#: choose ``ecd_nm``, so the memo is bounded.
_STACK_KEY_CACHE_SIZE = 128


def _tuple_of_floats(value, name):
    """A non-empty tuple of positive finite floats; a string (which
    would iterate as digits), a bool or a non-positive or non-finite
    item is a :class:`ParameterError`."""
    if isinstance(value, (str, bytes)):
        raise ParameterError(
            f"{name} must be a sequence of numbers, got {value!r}")
    try:
        items = tuple(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be a sequence of numbers, got {value!r}") from None
    if not items:
        raise ParameterError(f"{name} must not be empty")
    return tuple(float(require_positive(v, f"{name} item")) for v in items)


def _tuple_of_strs(value, name):
    if isinstance(value, str):
        value = (value,)
    try:
        items = tuple(str(v) for v in value)
    except TypeError:
        raise ParameterError(
            f"{name} must be a sequence of strings, got {value!r}") from None
    if not items:
        raise ParameterError(f"{name} must not be empty")
    return items


def _require_known(names, registry, what):
    """Reject a name the engine would refuse later, so a bad query
    fails at parse time instead of inside a runner."""
    for name in names:
        if name not in registry:
            raise ParameterError(f"unknown {what} {name!r}; choose from "
                                 f"{sorted(registry)}")


def _require_seed(seed):
    """Reject a seed numpy's generators would refuse, so it fails at
    parse time instead of inside a runner: any integer >= 0 (no upper
    bound — numpy takes arbitrarily large seeds), bools excluded."""
    require_int_in_range(seed, "seed", 0, math.inf)


@dataclass(frozen=True)
class UberQuery:
    """System-level UBER of one operating point.

    ``mode="expected"`` evaluates the engine's noise-free expectation
    (deterministic, cheap); ``mode="sampled"`` runs the Monte-Carlo
    traffic loop over ``transactions`` transactions. ``backend``
    optionally pins the Monte-Carlo compute backend (``"numpy"`` /
    ``"numba"``); ``None`` lets the server resolve its own
    ``REPRO_ENGINE_BACKEND`` environment. Sampled responses report the
    backend the run actually used.

    ``topology``/``banks``/``subarrays`` select the array organization
    (see :data:`repro.memsys.topology.TOPOLOGIES`): non-flat queries
    shard the run across banks x subarrays sub-runs. The wire accepts
    both ``cross-point`` and ``cross_point``; the name normalizes at
    parse time so both spellings share one fingerprint.
    """

    op = "uber"

    pitch_nm: float = 70.0
    rows: int = 64
    cols: int = 64
    ecc: str = "secded"
    pattern: str = "random"
    vp: float = 0.95
    nominal_wer: float = 2e-3
    backend: str | None = None
    mode: str = "expected"
    transactions: int = 50_000
    seed: int = 0
    ecd_nm: float | None = None
    topology: str = "flat"
    banks: int = 1
    subarrays: int = 1

    def __post_init__(self):
        require_positive(self.pitch_nm, "pitch_nm")
        require_int_in_range(self.rows, "rows", 1, 1 << 16)
        require_int_in_range(self.cols, "cols", 1, 1 << 16)
        require_positive(self.vp, "vp")
        require_positive(self.nominal_wer, "nominal_wer")
        from ..memsys.ecc import ECC_SCHEMES
        from ..memsys.topology import ArrayTopology
        from ..memsys.traffic import WORKLOADS
        _require_known((self.ecc,), ECC_SCHEMES, "ECC scheme")
        _require_known((self.pattern,), WORKLOADS, "workload")
        topology = ArrayTopology(self.topology, self.banks,
                                 self.subarrays, self.rows, self.cols)
        object.__setattr__(self, "topology", topology.kind)
        if self.mode not in ("expected", "sampled"):
            raise ParameterError(
                f"mode must be 'expected' or 'sampled', got "
                f"{self.mode!r}")
        require_int_in_range(self.transactions, "transactions", 1,
                             10**9)
        _require_seed(self.seed)
        if self.backend is not None:
            from ..memsys.backends import validate_backend
            validate_backend(self.backend)
        if self.ecd_nm is not None:
            require_positive(self.ecd_nm, "ecd_nm")


@dataclass(frozen=True)
class WerQuery:
    """Worst-case write-error pulse sizing + sampled WER check."""

    op = "wer"

    target_wer: float = 1e-6
    vp: float = 0.95
    pitch_ratio: float = 2.0
    n_samples: int = 200_000
    seed: int = 0
    ecd_nm: float | None = None

    def __post_init__(self):
        require_positive(self.target_wer, "target_wer")
        require_positive(self.vp, "vp")
        require_positive(self.pitch_ratio, "pitch_ratio")
        require_int_in_range(self.n_samples, "n_samples", 1, 10**9)
        _require_seed(self.seed)
        if self.ecd_nm is not None:
            require_positive(self.ecd_nm, "ecd_nm")


@dataclass(frozen=True)
class SweepQuery:
    """Expected-UBER sweep over pitch x pattern x ECC (streams
    progress)."""

    op = "sweep"

    pitch_ratios: tuple = (3.0, 2.5, 2.0, 1.75, 1.5)
    patterns: tuple = ("random", "checkerboard", "solid0")
    eccs: tuple = ("none", "secded")
    rows: int = 64
    cols: int = 64
    vp: float = 0.95
    nominal_wer: float = 2e-3
    seed: int = 0
    executor: str | None = None
    jobs: int | None = None
    ecd_nm: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pitch_ratios",
                           _tuple_of_floats(self.pitch_ratios,
                                            "pitch_ratios"))
        object.__setattr__(self, "patterns",
                           _tuple_of_strs(self.patterns, "patterns"))
        object.__setattr__(self, "eccs",
                           _tuple_of_strs(self.eccs, "eccs"))
        from ..memsys.ecc import ECC_SCHEMES
        from ..memsys.traffic import WORKLOADS
        _require_known(self.patterns, WORKLOADS, "workload")
        _require_known(self.eccs, ECC_SCHEMES, "ECC scheme")
        if self.executor is not None:
            from ..sweep.runner import require_executor
            require_executor(self.executor)
        require_int_in_range(self.rows, "rows", 1, 1 << 16)
        require_int_in_range(self.cols, "cols", 1, 1 << 16)
        require_positive(self.vp, "vp")
        require_positive(self.nominal_wer, "nominal_wer")
        _require_seed(self.seed)
        if self.jobs is not None:
            require_int_in_range(self.jobs, "jobs", 1, 4096)
        if self.ecd_nm is not None:
            require_positive(self.ecd_nm, "ecd_nm")

    @property
    def n_points(self):
        return (len(self.pitch_ratios) * len(self.patterns)
                * len(self.eccs))


@dataclass(frozen=True)
class DesignQuery:
    """Design-space table over eCD x pitch ratio (streams progress)."""

    op = "design"

    ecds_nm: tuple = (25.0, 35.0, 45.0)
    pitch_ratios: tuple = (1.5, 2.0, 3.0)
    probe_voltage: float = 0.85
    executor: str | None = None
    jobs: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "ecds_nm",
                           _tuple_of_floats(self.ecds_nm, "ecds_nm"))
        object.__setattr__(self, "pitch_ratios",
                           _tuple_of_floats(self.pitch_ratios,
                                            "pitch_ratios"))
        require_positive(self.probe_voltage, "probe_voltage")
        if self.executor is not None:
            from ..sweep.runner import require_executor
            require_executor(self.executor)
        if self.jobs is not None:
            require_int_in_range(self.jobs, "jobs", 1, 4096)

    @property
    def n_points(self):
        return len(self.ecds_nm) * len(self.pitch_ratios)


@dataclass(frozen=True)
class StatsQuery:
    """Ops-surface snapshot: request counts, latencies, cache, gauge."""

    op = "stats"


#: Registry mapping wire ``op`` names to request dataclasses.
QUERY_TYPES = {
    "uber": UberQuery,
    "wer": WerQuery,
    "sweep": SweepQuery,
    "design": DesignQuery,
    "stats": StatsQuery,
}

#: Request keys that frame the protocol rather than parameterize the
#: query; stripped before dataclass construction. ``deadline_s`` is a
#: delivery constraint, not part of the physical question, so it never
#: reaches the fingerprint — the same query with and without a
#: deadline shares one memo entry.
_ENVELOPE_KEYS = ("op", "id", "deadline_s")


def parse_request(obj):
    """Normalize one decoded request dict into its query dataclass.

    Raises :class:`ParameterError` for an unknown ``op``, unknown
    parameter names, or out-of-domain values — the server maps these to
    ``error`` events without touching any engine.
    """
    op = obj.get("op")
    if not isinstance(op, str) or op not in QUERY_TYPES:
        known = ", ".join(sorted(QUERY_TYPES))
        raise ParameterError(f"unknown op {op!r} (known: {known})")
    cls = QUERY_TYPES[op]
    params = {k: v for k, v in obj.items() if k not in _ENVELOPE_KEYS}
    unknown = sorted(set(params).difference(_field_names(cls)))
    if unknown:
        raise ParameterError(
            f"unknown parameter(s) for op {op!r}: {', '.join(unknown)}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for op {op!r}: "
                             f"{exc}") from None


@functools.cache
def _field_names(cls):
    """Sorted field names of one query class, computed once per class."""
    return tuple(sorted(field.name for field in dataclasses.fields(cls)))


def device_for(query):
    """The :class:`MTJDevice` a query evaluates against.

    The paper-quoted evaluation device, optionally re-targeted to the
    query's ``ecd_nm`` — the same convention the CLI and the
    design-space explorer use.
    """
    return _device_at(getattr(query, "ecd_nm", None))


def _device_at(ecd_nm):
    params = PAPER_EVAL_DEVICE
    if ecd_nm is not None:
        params = params.with_ecd(nm_to_m(ecd_nm))
    return MTJDevice(params)


@functools.lru_cache(maxsize=_STACK_KEY_CACHE_SIZE)
def _stack_key_repr(ecd_nm):
    """``repr(stack_fingerprint(...))`` of the device at ``ecd_nm``,
    built once per distinct eCD (callers pass the canonical scalar, so
    ``25`` and ``25.0`` share one entry)."""
    return repr(stack_fingerprint(_device_at(ecd_nm).stack))


def query_fingerprint(query):
    """Stable 32-hex-digit memo key of one normalized query.

    Keyed by ``(PROTOCOL_VERSION, op, stack_fingerprint(device.stack),
    sorted params)`` and digested with the kernel-disk hash — the same
    scheme (and therefore the same cross-process determinism argument)
    as the on-disk kernel cache. Queries that reach the physics through
    a device (uber/wer/sweep) fold the *stack* fingerprint in, so a
    service upgrade that changes the reference stack re-keys every
    memoized result instead of serving stale physics.

    The stack key is memoized per ``ecd_nm`` (a bounded LRU, holding
    the key's repr), so a repeated query builds no device. The digest
    input is unchanged — the same bytes as ``repr`` of the tuple above
    — so memoizing re-keys nothing.
    """
    # JSON spells 70 and 70.0 interchangeably; canonicalize every
    # scalar number to float so both spellings key identically — the
    # one collapse rule, shared with the manifest digests so
    # fingerprints and integrity digests can never drift apart.
    parts = tuple((name, canonical_scalar(getattr(query, name)))
                  for name in _field_names(type(query)))
    if query.op in ("uber", "wer", "sweep"):
        stack_repr = _stack_key_repr(canonical_scalar(query.ecd_nm))
    else:
        stack_repr = "None"
    # The repr of the 4-tuple above, with the stack part pre-spelled.
    hi, lo = repr_digest(f"({PROTOCOL_VERSION!r}, {query.op!r}, "
                         f"{stack_repr}, {parts!r})")
    return f"{hi:016x}{lo:016x}"
