"""Inter-cell magnetic coupling (paper Section IV-B).

The inter-cell stray field at the victim's FL is the superposition of the
fields of every neighbor's three magnetic layers::

    Hs_inter = sum_i ( Hs_HL(Ci) + Hs_RL(Ci) + Hs_FL(Ci) )

The RL/HL contributions are fixed once geometry is fixed; only the FL term
flips sign with the stored data. Exploiting linearity, the model is fully
described by two kernels per neighbor position:

* ``fixed``  — Hz at the victim FL center from the neighbor's RL + HL,
* ``fl``     — Hz from the neighbor's FL in the P state (+z); the AP state
  contributes the negative of this.

so the field for pattern NP8 is
``sum_i fixed(pos_i) + sum_i sign_i * fl(pos_i)`` with ``sign_i = +1`` for
P and -1 for AP. By symmetry the four direct neighbors share one kernel
value and the four diagonals another, which is why Fig. 4a collapses onto
25 classes; every pattern evaluation here goes through those two
symmetry-reduced kernel pairs. Kernel values are memoized process-wide in
the :mod:`repro.arrays.kernel_store`, so rebuilding coupling objects
across a sweep re-uses the elliptic-integral work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..stack import MTJStack
from ..validation import require_positive
from .kernel_store import get_kernel_store
from .layout import Neighborhood3x3
from .pattern import NeighborhoodPattern

#: Popcount of the 16 nibble values; indexes AP counts from NP8 bits.
_NIBBLE_POPCOUNT = np.array([bin(v).count("1") for v in range(16)],
                            dtype=np.int64)


@dataclass(frozen=True)
class CouplingKernels:
    """Per-position field kernels of one stack geometry.

    ``fixed_direct``/``fixed_diagonal`` are the RL+HL contributions [A/m]
    of one direct/diagonal neighbor; ``fl_direct``/``fl_diagonal`` the
    P-state FL contributions.
    """

    fixed_direct: float
    fixed_diagonal: float
    fl_direct: float
    fl_diagonal: float

    @property
    def pattern_independent(self):
        """Total fixed (RL+HL) field of all 8 neighbors [A/m]."""
        return 4.0 * (self.fixed_direct + self.fixed_diagonal)

    @property
    def max_variation(self):
        """Max Hz_inter variation across the 256 patterns [A/m].

        Flipping one neighbor P<->AP changes the field by twice its FL
        kernel, so the full range is ``2 * (4 |fl_d| + 4 |fl_g|)``.
        """
        return 2.0 * 4.0 * (abs(self.fl_direct) + abs(self.fl_diagonal))


class InterCellCoupling:
    """Inter-cell coupling model for a 3x3 neighborhood.

    Parameters
    ----------
    stack:
        The (shared) :class:`~repro.stack.MTJStack` of every cell.
    pitch:
        Array pitch [m].
    evaluation_point:
        Where on the victim axis the field is evaluated; default is the
        FL center (0, 0, 0), the paper's calibration point. Must lie ON
        the axis (x = y = 0): the whole model rests on the 4-fold
        symmetry that collapses the 8 neighbors onto one direct and one
        diagonal kernel, which only holds there. Off-axis sampling
        needs the per-position kernels of
        :class:`~repro.arrays.extended.ExtendedNeighborhood`.
    """

    def __init__(self, stack, pitch, evaluation_point=(0.0, 0.0, 0.0),
                 temperature=None):
        if not isinstance(stack, MTJStack):
            raise ParameterError(
                f"stack must be an MTJStack, got {type(stack)!r}")
        require_positive(pitch, "pitch")
        self.stack = stack
        self.pitch = float(pitch)
        self.neighborhood = Neighborhood3x3(pitch=self.pitch)
        self.evaluation_point = np.asarray(evaluation_point, dtype=float)
        if self.evaluation_point.shape != (3,):
            raise ParameterError(
                f"evaluation_point must have 3 components, got "
                f"{self.evaluation_point.shape}")
        if self.evaluation_point[0] != 0.0 or \
                self.evaluation_point[1] != 0.0:
            raise ParameterError(
                "evaluation_point must lie on the victim axis "
                "(x = y = 0) — the symmetry-reduced kernels are wrong "
                "off-axis; use ExtendedNeighborhood for per-position "
                f"sampling. Got {tuple(self.evaluation_point)}")
        self.temperature = temperature
        self._kernels = None

    # -- kernels -----------------------------------------------------------

    def kernels(self):
        """The four symmetry-reduced kernels of this geometry.

        Fetched once per instance through the store's lookup path (two
        two-offset :meth:`~repro.arrays.kernel_store.KernelStore
        .kernel_batch` calls, sharing cache keys with every other
        kernel consumer) and memoized — pattern sweeps call
        this per pattern, and the instance is immutable after
        construction.
        """
        if self._kernels is None:
            positions = self.neighborhood.aggressor_positions()
            offsets = (positions[0], positions[4])  # direct, diagonal
            store = get_kernel_store()
            point = tuple(self.evaluation_point)
            fixed = store.kernel_batch(self.stack, offsets, "fixed",
                                       evaluation_point=point,
                                       temperature=self.temperature)
            fl = store.kernel_batch(self.stack, offsets, "fl",
                                    evaluation_point=point,
                                    temperature=self.temperature)
            self._kernels = CouplingKernels(
                fixed_direct=float(fixed[0]),
                fixed_diagonal=float(fixed[1]),
                fl_direct=float(fl[0]),
                fl_diagonal=float(fl[1]),
            )
        return self._kernels

    # -- pattern fields ------------------------------------------------------

    def hz_inter(self, pattern):
        """``Hz_s_inter`` [A/m] at the victim FL for one NP8 pattern.

        Evaluated through the two symmetry-reduced kernel pairs of
        :meth:`kernels` — the four direct (and four diagonal) positions
        share one kernel value, so only the AP counts matter.
        """
        if not isinstance(pattern, NeighborhoodPattern):
            pattern = NeighborhoodPattern.from_int(int(pattern))
        k = self.kernels()
        n_dir, n_diag = pattern.direct_ones, pattern.diagonal_ones
        # sign sum over 4 neighbors with n ones: (4 - n) - n = 4 - 2n.
        return (k.pattern_independent
                + (4 - 2 * n_dir) * k.fl_direct
                + (4 - 2 * n_diag) * k.fl_diagonal)

    # Kept as an alias: the "fast" path IS the only pattern path now.
    hz_inter_fast = hz_inter

    def hz_inter_batch(self, patterns):
        """``Hz_s_inter`` [A/m] for an array of NP8 decimal patterns.

        Vectorized over any integer array shape: decodes the direct
        (bits 0-3) and diagonal (bits 4-7) AP counts with a nibble
        popcount table and applies the symmetry-reduced kernels in one
        numpy expression.
        """
        patterns = np.asarray(patterns)
        if not np.issubdtype(patterns.dtype, np.integer):
            raise ParameterError(
                f"patterns must be integers, got dtype {patterns.dtype}")
        if patterns.size and (patterns.min() < 0 or patterns.max() > 255):
            raise ParameterError("patterns must lie in [0, 255]")
        n_dir = _NIBBLE_POPCOUNT[patterns & 0x0F]
        n_diag = _NIBBLE_POPCOUNT[(patterns >> 4) & 0x0F]
        k = self.kernels()
        return (k.pattern_independent
                + (4 - 2 * n_dir) * k.fl_direct
                + (4 - 2 * n_diag) * k.fl_diagonal)

    def hz_inter_all(self):
        """``Hz_s_inter`` [A/m] for all 256 patterns (decimal order)."""
        return self.hz_inter_batch(np.arange(256))

    def class_table(self):
        """Fig. 4a data: ``{(n_direct, n_diag): Hz_inter [A/m]}``."""
        k = self.kernels()
        table = {}
        for n_dir in range(5):
            for n_diag in range(5):
                table[(n_dir, n_diag)] = (
                    k.pattern_independent
                    + (4 - 2 * n_dir) * k.fl_direct
                    + (4 - 2 * n_diag) * k.fl_diagonal)
        return table

    def extremes(self):
        """(min, max) of ``Hz_inter`` [A/m] over the 256 patterns.

        With the reference stack the minimum occurs at NP8 = 0 (all P) and
        the maximum at NP8 = 255 (all AP), as in the paper.
        """
        values = self.hz_inter_all()
        return float(np.min(values)), float(np.max(values))

    def max_variation(self):
        """Maximum pattern-to-pattern variation of ``Hz_inter`` [A/m]."""
        return self.kernels().max_variation
