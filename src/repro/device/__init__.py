"""MTJ device models.

Implements the electrical and magnetic behaviour of one MTJ device:

* :mod:`repro.device.resistance` — TMR/RA resistance with voltage roll-off
  and the eCD extraction used in the paper's Section III,
* :mod:`repro.device.energy` — energy barrier and thermal stability factor
  (paper Eq. 5),
* :mod:`repro.device.thermal` — temperature scaling of Ms/Hk/Delta,
* :mod:`repro.device.switching` — critical current (Eq. 2) and Sun's
  average switching time (Eq. 3-4),
* :mod:`repro.device.retention` — Neel-Arrhenius retention statistics,
* :mod:`repro.device.hysteresis` — stochastic swept-field R-H loops,
* :mod:`repro.device.mtj` — the :class:`MTJDevice` facade tying it together.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "access": ["AccessTransistor", "WritePath"],
    "compact": ["export_model_card", "lookup_tables", "spice_subcircuit"],
    "energy": ["delta_factor", "delta_with_stray", "energy_barrier"],
    "hysteresis": ["HysteresisLoop", "RHLoopSimulator", "SweepProtocol"],
    "mtj": ["DeviceParameters", "MTJDevice", "MTJState", "PAPER_EVAL_DEVICE"],
    "pulse": [
        "TrapezoidalPulse", "equivalent_rectangular_width", "rectangular",
        "shaped_pulse_wer"],
    "resistance": ["ResistanceModel", "ecd_from_rp", "rp_from_ecd"],
    "retention": [
        "fit_rate", "retention_failure_probability", "retention_time"],
    "switching": [
        "SunModel", "calibrate_eta", "calibrate_polarization",
        "critical_current", "intrinsic_critical_current"],
    "thermal": ["ThermalModel"],
})
