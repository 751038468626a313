"""Exception hierarchy for the repro library.

A small, explicit hierarchy so callers can catch library errors without
catching unrelated ``ValueError``/``RuntimeError`` from numpy or scipy.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ParameterError(ReproError, ValueError):
    """A physical or geometric parameter is out of its valid domain."""


class GeometryError(ParameterError):
    """Stack or array geometry is inconsistent (overlaps, negative sizes)."""


class CalibrationError(ReproError, RuntimeError):
    """A calibration / curve fit failed to converge or is ill-posed."""


class SimulationError(ReproError, RuntimeError):
    """A simulation failed (non-finite state, no switching event found)."""


class RunAborted(ReproError, RuntimeError):
    """A long-running evaluation was cancelled by its caller.

    Raised *by progress callbacks* to stop an engine run or sweep at the
    next batch/point boundary — the cancellation mechanism behind the
    :mod:`repro.service` server's abandoned-query handling.
    """


class MeasurementError(ReproError, RuntimeError):
    """An emulated measurement could not extract the requested quantity."""


class ServiceError(ReproError, RuntimeError):
    """The reliability service answered a query with an error event,
    or the connection to it failed."""


class IntegrityError(ReproError, RuntimeError):
    """A persisted artifact (spool result, manifest, cache entry)
    failed digest or framing verification.

    The integrity layer's contract is "counted miss, never a wrong
    answer": most callers catch this, count it, and recompute. It only
    propagates where a human asked for verification outright
    (``repro audit``, ``repro spool fsck``)."""


class RunIdentityError(ReproError, ValueError):
    """A ``--resume`` targeted a checkpoint written by a *different*
    run (seed, backend, topology, or shape differ).

    Raised instead of silently restarting clean: resuming is an
    explicit claim about which campaign is being continued, so a
    mismatch is an operator error to surface, not a fallback to
    absorb. The message names the differing identity fields."""


class ResilienceWarning(UserWarning):
    """A resilience mechanism degraded but recovered: a corrupt or
    swapped checkpoint fell back to a clean restart, a poison chunk was
    quarantined, a checkpoint write failed and the run continued
    unprotected. Warnings, not errors, on purpose — every one of these
    events is survivable by design, but none should pass silently."""
