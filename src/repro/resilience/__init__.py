"""Resilient run lifecycle: checkpoints, fleet supervision, faults.

Chip-scale Monte-Carlo campaigns run for hours across many processes;
this subpackage is what lets them survive the real world — crashes,
poison chunks, corrupt files, flapping workers — without ever trading
away the library's core contract that seeded runs are byte-identical:

* :mod:`repro.resilience.checkpoint` — :class:`CheckpointManager`,
  the atomic, checksummed tag -> blob store behind engine checkpoints:
  a killed run resumes mid-stream, byte-identical to the uninterrupted
  run; a corrupt or swapped checkpoint falls back to a clean restart
  with a counted :class:`~repro.errors.ResilienceWarning`, and one
  written by a different run is refused with a
  :class:`~repro.errors.RunIdentityError`.
* :mod:`repro.resilience.supervisor` — the worker-fleet supervisor
  (:class:`FleetSupervisor`, ``repro fleet``): spawns ``repro worker``
  processes when queue-depth x chunk-cost exceeds a latency target,
  restarts crashes with exponential backoff + jitter, retires the
  fleet on idle.
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` and
  :class:`RetryPolicy`, the failure-aware pacing shared by the service
  layer and the supervisor.
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness (:class:`FaultPlan`): seeded kill-worker / poison-chunk /
  corrupt-checkpoint / EIO-on-rename / stall-heartbeat scenarios
  behind the :mod:`~repro.resilience.shims` seams, reused by the unit
  tests and the CI chaos leg.

Quick start::

    from repro.resilience import CheckpointManager

    engine = build_engine(device, rows=64, cols=64)
    ckpt = CheckpointManager("/tmp/campaign")
    result = engine.run(10**6, rng=np.random.default_rng(7),
                        checkpoint=ckpt, resume=True)   # crash-safe
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "breaker": ["CircuitBreaker", "RetryPolicy", "call_with_retry"],
    "checkpoint": ["CheckpointManager", "corrupt_checkpoint"],
    "faults": [
        "FAULT_KINDS", "FaultClock", "FaultPlan", "FaultyFileSystem",
        "WorkerFaults", "WorkerKilled"],
    "shims": [
        "REAL_CLOCK", "REAL_FS", "Clock", "FileSystem", "ProcessSpawner"],
    "supervisor": [
        "FleetSupervisor", "SpoolView", "add_fleet_arguments", "run_fleet"],
})
