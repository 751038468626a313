"""Experiment generators: one module per paper figure.

Each ``figXX`` module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.base.ExperimentResult` with the figure's series,
a table view, and a paper-vs-measured comparison. ``runner.run_all`` drives
everything and ``runner.render`` pretty-prints a result.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "base": ["Comparison", "ExperimentResult"],
    "data": [
        "EVAL_ECD", "MEASURED_ECDS", "WAFER_RESISTANCE", "eval_device",
        "synthetic_intra_dataset", "wafer_device_parameters"],
    "runner": ["run_all", "render"],
})
