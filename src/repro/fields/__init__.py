"""Magnetostatic field solvers.

This subpackage is the magnetostatics substrate of the library. It models
uniformly magnetized cylindrical layers as bound-current loops (the paper's
Section IV-A) and provides three field evaluators of increasing speed:

* :mod:`repro.fields.biot_savart` — the paper's discrete segmented-loop
  Biot-Savart summation (reference implementation),
* :mod:`repro.fields.loop_analytic` — the exact circular-loop field via
  complete elliptic integrals (fast, used by default). K and E come
  from :mod:`repro.fields.elliptic`, a numpy port of the Cephes
  ``ellpk``/``ellpe`` coefficients, bit-identical to
  ``scipy.special.ellipk``/``ellipe`` because it takes its logarithm
  from libm (``math.log``; ``np.log`` may differ by one ulp),
* :mod:`repro.fields.dipole` — the far-field point-dipole limit (used for
  cross-checks and fast array-scale estimates).

:mod:`repro.fields.bound_current` reduces stack layers to loop sources and
:mod:`repro.fields.superposition` evaluates fields of many sources at many
points.
"""

# ``bound_current`` is also the name of its submodule, so it is bound eagerly:
# importing the submodule later would rebind the package attribute.
from .bound_current import bound_current
from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "biot_savart": ["loop_field_biot_savart", "segment_loop"],
    "bound_current": ["layer_to_loops"],
    "dipole": ["dipole_field", "loop_as_dipole"],
    "loop_analytic": [
        "loop_field_analytic", "loop_field_analytic_many", "loop_field_on_axis"],
    "sampling": ["disk_average", "grid3d", "radial_line"],
    "superposition": ["CurrentLoop", "LoopCollection"],
})

__all__ += ["bound_current"]
