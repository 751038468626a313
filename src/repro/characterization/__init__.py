"""Measurement emulation and parameter extraction.

The paper calibrates its models against silicon measurements. This
subpackage reproduces the full measurement methodology on the physics-based
device models:

* :mod:`repro.characterization.rh_loop` — repeated R-H loop measurements
  with statistics over cycles (Section III),
* :mod:`repro.characterization.extraction` — Hc / Hoffset / eCD extraction,
* :mod:`repro.characterization.switching_prob` — switching probability vs
  field from repeated cycling (Section V-A),
* :mod:`repro.characterization.fitting` — the Thomas-et-al. curve fit
  extracting ``Hk`` and ``Delta0`` from switching-probability data,
* :mod:`repro.characterization.vsm` — blanket-film ``Ms*t`` measurement,
* :mod:`repro.characterization.variation` — device-to-device process
  variation ensembles.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "bake": ["BakeResult", "delta_from_bake", "plan_bake", "run_bake_test"],
    "extraction": [
        "extract_ecd", "extract_hc_oe", "extract_offset_oe", "loop_statistics"],
    "fitting": ["SwitchingFieldFit", "fit_hk_delta0"],
    "rh_loop": ["RHMeasurement", "RHStatistics"],
    "switching_prob": [
        "switching_probability_curve", "switching_probability_model"],
    "tmr_bias": ["TmrBiasFit", "fit_tmr_bias", "measure_rv_curves"],
    "variation": ["ProcessVariation", "sample_device_parameters"],
    "vsm": ["VSMMeasurement", "measure_blanket_moments"],
})
