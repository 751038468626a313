"""repro — magnetic coupling and density modeling for STT-MRAM arrays.

A reproduction of Wu et al., *Impact of Magnetic Coupling and Density on
STT-MRAM Performance* (DATE 2020). The library models intra- and inter-cell
magnetic coupling in perpendicular STT-MRAM arrays with a bound-current
magnetostatics solver, and evaluates the impact on the critical switching
current, the average switching time, and the thermal stability factor.

Quick start::

    from repro import MTJDevice, PAPER_EVAL_DEVICE, VictimAnalysis

    device = MTJDevice(PAPER_EVAL_DEVICE)       # the paper's 35 nm device
    victim = VictimAnalysis(device, pitch=70e-9)
    print(victim.summary())

Module map (device physics up to system questions):

* :mod:`repro.device` — one MTJ cell: stack, resistance, switching,
  retention, thermal scaling,
* :mod:`repro.fields` — bound-current magnetostatics solver,
* :mod:`repro.core` — the paper's intra/inter coupling models and Psi,
* :mod:`repro.arrays` — layout, NP8 data patterns, inter-cell coupling
  kernels, victim-cell analysis,
* :mod:`repro.apps` — engineering analyses (write error, read disturb,
  retention budget, design space, yield),
* :mod:`repro.memsys` — system level: array controller, traffic,
  Hamming SEC-DED, scrubbing, and the Monte-Carlo UBER engine — start
  here for "what error rate does the *system* deliver" questions,
* :mod:`repro.sweep` — generic parameter-sweep engine (named axes,
  serial/process/distributed executors) that the design-space,
  memsys, and figure sweeps run on,
* :mod:`repro.experiments` / :mod:`repro.reporting` — figure-by-figure
  reproduction and rendering/export.

See ``examples/`` for runnable scenarios and ``python -m repro.cli`` for
the command-line front end.

Imports are lazy: this package and every subpackage resolve a public
name on first use (PEP 562, :func:`repro._lazy.attach`), importing only
the submodule that defines it. ``import repro`` therefore loads no
numpy and no subpackage; ``from repro import MTJDevice`` loads the
device layer and what it needs, nothing else. The table handed to
``attach`` is each package's one list of public names: ``attach``
derives ``__all__`` from it, so the names and ``__all__`` are the same
as with eager imports.
"""

from ._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "apps": [
        "ArrayYieldAnalysis", "DesignSpaceExplorer", "RetentionBudgetPlanner",
        "WriteErrorModel"],
    "arrays": [
        "ArrayLayout", "DataPattern", "InterCellCoupling",
        "NeighborhoodPattern", "VictimAnalysis"],
    "core": [
        "IcAnalysis", "InterCellModel", "IntraCellModel", "RetentionAnalysis",
        "SwitchingTimeAnalysis", "coupling_factor", "fit_effective_moments",
        "psi_threshold_pitch", "psi_vs_pitch"],
    "device": [
        "DeviceParameters", "MTJDevice", "MTJState", "PAPER_EVAL_DEVICE",
        "ResistanceModel"],
    "errors": [
        "CalibrationError", "GeometryError", "MeasurementError",
        "ParameterError", "ReproError", "SimulationError"],
    "stack": ["MTJStack", "build_reference_stack"],
})

__version__ = "1.0.0"

# Beyond the table: the version and three submodules, each imported on
# first use.
__all__ += ["__version__", "memsys", "sweep", "units"]
