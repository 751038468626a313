"""Application-layer analyses built on the coupling model.

These modules answer the engineering questions the paper's conclusions
raise, using the calibrated device/array models:

* :mod:`repro.apps.write_error` — write-error-rate vs pulse width
  (the quantitative form of the paper's "larger write margin" warning),
* :mod:`repro.apps.design_space` — joint pitch/size design-space sweeps
  combining density, Psi, Ic spread, tw penalty and retention,
* :mod:`repro.apps.yield_analysis` — Monte-Carlo array yield under
  process variation plus coupling,
* :mod:`repro.apps.retention_budget` — scrub-interval and application-
  class budgeting from worst-case Delta.

These analyses price one mechanism at a time at the device/array level;
for the *system-level* composition — what UBER a coupled array delivers
under read/write traffic with ECC and scrubbing — see
:mod:`repro.memsys`, which consumes the models defined here.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "design_space": ["DESIGN_HEADERS", "DesignPoint", "DesignSpaceExplorer"],
    "fault_models": ["CouplingFaultAnalyzer", "FaultAssessment"],
    "read_disturb": ["ReadDisturbAnalysis"],
    "retention_budget": [
        "RetentionBudget", "RetentionBudgetPlanner", "classify_retention"],
    "voltage_optimizer": ["BreakdownModel", "WriteVoltageOptimizer"],
    "write_error": ["WriteErrorModel"],
    "yield_analysis": ["ArrayYieldAnalysis", "YieldResult"],
})
