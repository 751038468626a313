"""Generic parameter-sweep engine: specs, runners, structured results.

Every quantitative claim of the paper — and every system-level scenario
built on it — reduces to evaluating a function over a named parameter
grid (pitch x pattern x size x temperature ...). This subpackage makes
that shape first-class:

* :mod:`repro.sweep.spec` — :class:`SweepSpec`: named axes with
  product/zip composition,
* :mod:`repro.sweep.runner` — :class:`SweepRunner`: serial,
  process-pool, and distributed executors with deterministic result
  order, both parallel ones on one chunk schedule
  (:func:`schedule_chunks`),
* :mod:`repro.sweep.result` — :class:`SweepResult`: values in spec
  order, grid reshaping, table rendering,
* :mod:`repro.sweep.distributed` — the spool-directory broker/worker
  transport behind the ``distributed`` executor: work stealing,
  heartbeats, crash retry, at-most-once result commit.

Quick start::

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec.product(pitch_nm=(60, 70, 80), pattern=("solid0",
                                                             "random"))
    result = run_sweep(my_point_function, spec, executor="process",
                       jobs=4)
    grid = result.values_array()        # shape (3, 2)

Consumers: :meth:`repro.apps.design_space.DesignSpaceExplorer.sweep`,
:func:`repro.memsys.sweeps.uber_sweep`,
:func:`repro.experiments.runner.run_all`, and the ``--jobs`` flags of
``python -m repro.cli``.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "distributed": [
        "SHUTDOWN_SENTINEL", "SWEEP_SPAWN_ENV", "DistributedBroker",
        "SpoolWorker"],
    "result": ["SweepResult"],
    "runner": [
        "DISTRIBUTED_MIN_UNITS", "EXECUTORS", "SMALL_SWEEP_UNITS",
        "SWEEP_EXECUTOR_ENV", "SWEEP_SPOOL_ENV", "SweepRunner",
        "array_work_units", "add_sweep_arguments", "executor_for_jobs",
        "run_sweep", "schedule_chunks"],
    "spec": ["SweepSpec"],
})
