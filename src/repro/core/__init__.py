"""The paper's primary contribution: the magnetic coupling model.

* :mod:`repro.core.intra` — intra-cell stray field vs device size and its
  spatial profile (Sections III / IV-A),
* :mod:`repro.core.calibration` — fitting the effective layer moments to
  measured offset-field data (the Fig. 2b calibration),
* :mod:`repro.core.inter` — the 3x3 inter-cell extrapolation
  (Section IV-B),
* :mod:`repro.core.psi` — the coupling factor Psi and density threshold,
* :mod:`repro.core.impact` — the performance impact analyses behind
  Figs. 4c, 5 and 6.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "calibration": ["CalibrationResult", "fit_effective_moments"],
    "impact": ["IcAnalysis", "RetentionAnalysis", "SwitchingTimeAnalysis"],
    "inter": ["InterCellModel"],
    "intra": ["IntraCellModel"],
    "psi": ["coupling_factor", "psi_threshold_pitch", "psi_vs_pitch"],
})
