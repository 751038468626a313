"""Stochastic macrospin Landau-Lifshitz-Gilbert-Slonczewski solver.

The paper's switching-time results come from Sun's analytical model; this
subpackage provides an independent, lower-level cross-check: a single-domain
(macrospin) LLG solver with Slonczewski spin-transfer torque and the thermal
fluctuation field, integrated with the stochastic Heun scheme.

It validates that (i) the STT threshold current matches Eq. 2 and (ii) the
inverse switching time grows linearly with the overdrive current in the
precessional regime, the functional form behind Eq. 3.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "field_switching": ["astroid_switching_field", "simulate_switching_field"],
    "integrator": ["HeunIntegrator"],
    "macrospin": ["MacrospinParameters", "effective_field", "llgs_rhs"],
    "multispin": ["FLGrid", "MultiMacrospinFL", "make_fl_grid"],
    "simulate": [
        "SwitchingResult", "SwitchingSimulation", "equilibrium_ensemble",
        "relax"],
    "stt": ["slonczewski_field", "stt_critical_current"],
    "thermal_field": ["thermal_field_sigma"],
})
