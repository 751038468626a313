"""Inter-cell coupling model facade (paper Section IV-B).

Thin, paper-oriented wrapper around
:class:`repro.arrays.coupling.InterCellCoupling`: NP8 sweeps in oersted,
the Fig. 4a class table, and pitch sweeps of the field extremes.
"""

from __future__ import annotations

from ..arrays.coupling import InterCellCoupling
from ..stack import build_reference_stack
from ..units import am_to_oe
from ..validation import require_positive


class InterCellModel:
    """Inter-cell stray-field model for one device size.

    Parameters
    ----------
    ecd:
        Device size [m].
    stack_builder:
        Callable ``ecd -> MTJStack``; defaults to the calibrated reference
        stack (pass a calibration result's builder to use fitted moments).
    """

    def __init__(self, ecd, stack_builder=None):
        require_positive(ecd, "ecd")
        self.ecd = float(ecd)
        builder = (build_reference_stack if stack_builder is None
                   else stack_builder)
        self.stack = builder(self.ecd)

    def coupling(self, pitch):
        """The :class:`InterCellCoupling` at ``pitch`` [m]."""
        return InterCellCoupling(self.stack, pitch)

    def class_table_oe(self, pitch):
        """Fig. 4a: ``{(n_direct, n_diag): Hz_s_inter [Oe]}``."""
        table = self.coupling(pitch).class_table()
        return {key: am_to_oe(value) for key, value in table.items()}

    def np8_sweep_oe(self, pitch):
        """``Hz_s_inter`` [Oe] for all 256 patterns at ``pitch``."""
        return am_to_oe(self.coupling(pitch).hz_inter_all())

    def extremes_oe(self, pitch):
        """(min, max) of ``Hz_s_inter`` [Oe] at ``pitch``."""
        lo, hi = self.coupling(pitch).extremes()
        return am_to_oe(lo), am_to_oe(hi)

    def steps_oe(self, pitch):
        """Per-neighbor-flip steps [Oe]: ``(direct, diagonal)``.

        The paper reports ~15 Oe per direct and ~5 Oe per diagonal flip at
        eCD = 55 nm, pitch = 90 nm.
        """
        kernels = self.coupling(pitch).kernels()
        return (am_to_oe(2.0 * abs(kernels.fl_direct)),
                am_to_oe(2.0 * abs(kernels.fl_diagonal)))
