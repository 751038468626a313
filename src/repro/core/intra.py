"""Intra-cell magnetic coupling model (paper Sections III / IV-A).

The stray field generated by a device's own RL and HL at its FL, as a
function of device size and of position across the FL. This is the model
the paper calibrates against measured R-H loop offsets (Fig. 2b) and then
extrapolates to arrays.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..fields import LoopCollection, layer_to_loops, radial_line
from ..stack import build_reference_stack
from ..validation import require_positive


class IntraCellModel:
    """Bound-current model of the intra-cell stray field.

    Parameters
    ----------
    stack_builder:
        Callable ``ecd -> MTJStack`` defining the stack family; defaults to
        the calibrated reference stack. The calibration module produces
        customized builders.
    """

    def __init__(self, stack_builder=None):
        self.stack_builder = (build_reference_stack if stack_builder is None
                              else stack_builder)

    def _fixed_loops(self, ecd, temperature=None):
        stack = self.stack_builder(ecd)
        loops = []
        for layer in stack.fixed_layers():
            loops.extend(layer_to_loops(layer, stack.radius,
                                        temperature=temperature))
        return LoopCollection(loops), stack

    def hz_at_center(self, ecd, temperature=None):
        """``Hz_s_intra`` [A/m] at the FL center for a device of ``ecd``.

        The paper's calibration point (Fig. 2b y-axis). ``temperature``
        [K], when given, scales each fixed layer's magnetization by its
        material's Bloch factor — the paper's own analysis holds the
        sources at their room-temperature values.
        """
        require_positive(ecd, "ecd")
        col, _ = self._fixed_loops(ecd, temperature)
        return float(col.field((0.0, 0.0, 0.0))[2])

    def hz_vs_ecd(self, ecds, temperature=None):
        """``Hz_s_intra`` [A/m] for an array of device sizes [m]."""
        ecds = np.asarray(ecds, dtype=float)
        if ecds.ndim != 1 or ecds.size == 0:
            raise ParameterError("ecds must be a non-empty 1-D array")
        return np.array([self.hz_at_center(e, temperature)
                         for e in ecds])

    def radial_profile(self, ecd, n_points=81, margin=0.95):
        """``Hz_s_intra`` across the FL diameter (paper Fig. 3d).

        Parameters
        ----------
        ecd:
            Device size [m].
        n_points:
            Samples across the diameter.
        margin:
            Fraction of the radius to scan (staying slightly inside the
            edge avoids the bound-current singularity at the rim).

        Returns
        -------
        (positions, hz):
            Radial positions [m] and out-of-plane field [A/m].
        """
        require_positive(ecd, "ecd")
        col, stack = self._fixed_loops(ecd)
        positions, points = radial_line(stack.radius, n_points=n_points,
                                        z=0.0, margin=margin)
        hz = col.field(points)[:, 2]
        return positions, hz

    def field_map(self, ecd, points):
        """Full vector stray field [A/m] at arbitrary ``points`` (Fig. 3c).

        Points are in the device frame (FL midplane center at the origin).
        """
        require_positive(ecd, "ecd")
        col, _ = self._fixed_loops(ecd)
        return col.field(points)
