"""Victim-cell analysis: combined intra- and inter-cell stray fields.

Ties the device model and the inter-cell coupling together for the cell at
the center of the 3x3 neighborhood: total stray field per pattern,
worst-case patterns for each figure of merit, and full-array sweeps.
"""

from __future__ import annotations

import numpy as np

from ..device.mtj import MTJDevice, MTJState
from ..errors import ParameterError
from ..units import am_to_oe
from .coupling import InterCellCoupling
from .pattern import ALL_AP, ALL_P, NeighborhoodPattern


class VictimAnalysis:
    """Stray-field and performance analysis of a victim cell.

    Parameters
    ----------
    device:
        The :class:`~repro.device.mtj.MTJDevice` (all cells identical).
    pitch:
        Array pitch [m].
    """

    def __init__(self, device, pitch):
        if not isinstance(device, MTJDevice):
            raise ParameterError(
                f"device must be an MTJDevice, got {type(device)!r}")
        self.device = device
        self.coupling = InterCellCoupling(device.stack, pitch)

    @property
    def pitch(self):
        """Array pitch [m]."""
        return self.coupling.pitch

    def hz_intra(self):
        """Intra-cell stray field at the victim FL [A/m]."""
        return self.device.intra_stray_field()

    def hz_inter(self, pattern):
        """Inter-cell stray field for ``pattern`` [A/m]."""
        return self.coupling.hz_inter_fast(pattern)

    def hz_total(self, pattern=None):
        """Total stray field [A/m]; ``pattern=None`` means intra only."""
        total = self.hz_intra()
        if pattern is not None:
            total += self.hz_inter(pattern)
        return total

    # -- figure-of-merit sweeps ---------------------------------------------

    def ic(self, direction, pattern=None):
        """Critical current [A] for ``direction`` under the total field."""
        return self.device.ic(direction, self.hz_total(pattern))

    def switching_time(self, vp, pattern=None, initial_state=MTJState.AP):
        """Average switching time [s] under the total stray field."""
        return self.device.switching_time(
            vp, self.hz_total(pattern), initial_state=initial_state)

    def delta(self, state, pattern=None, temperature=None):
        """Thermal stability of ``state`` under the total stray field."""
        return self.device.delta(state, self.hz_total(pattern),
                                 temperature)

    def worst_case_delta(self, temperature=None):
        """Minimum Delta over states and patterns.

        Returns ``(delta, state, pattern)``. With the reference stack the
        minimum is Delta_P at NP8 = 0, the paper's worst case.
        """
        candidates = []
        for pattern in (ALL_P, ALL_AP):
            for state in (MTJState.P, MTJState.AP):
                candidates.append((
                    self.delta(state, pattern, temperature), state,
                    pattern))
        # Extremes of a monotone function of Hz occur at field extremes,
        # which occur at the all-P / all-AP patterns; checking those four
        # candidates is exhaustive.
        return min(candidates, key=lambda item: item[0])

    def ic_spread(self, direction):
        """(min, max) critical current [A] over all patterns."""
        values = [self.ic(direction, NeighborhoodPattern.from_int(v))
                  for v in (0, 255)]
        return min(values), max(values)

    def summary(self):
        """Dict summary (fields in Oe) for reports."""
        lo, hi = self.coupling.extremes()
        return {
            "pitch_nm": self.pitch * 1e9,
            "hz_intra_oe": am_to_oe(self.hz_intra()),
            "hz_inter_min_oe": am_to_oe(lo),
            "hz_inter_max_oe": am_to_oe(hi),
            "ic_ap_p_np0_ua": self.ic("AP->P", ALL_P) * 1e6,
            "ic_ap_p_np255_ua": self.ic("AP->P", ALL_AP) * 1e6,
            "delta_p_np0": self.delta(MTJState.P, ALL_P),
        }


def array_field_map(device, layout, data_pattern):
    """Total stray field [A/m] at every interior cell of a full array.

    Evaluates, for each interior cell of ``layout``, the intra-cell field
    plus the inter-cell field of its 8-neighborhood extracted from
    ``data_pattern``. Returns a (rows, cols) array with NaN on the border
    (border cells lack a full neighborhood).

    The whole map is one numpy expression: the direct/diagonal AP
    counts of every interior cell come from shifted slices of the bit
    array, and the four symmetry-reduced kernels come from the store's
    batch path — value-identical to evaluating
    ``hz_inter_fast(neighborhood_of(row, col))`` per cell (the
    pre-batch implementation, reconstructed as the baseline of
    ``benchmarks/test_bench_field_map.py``).
    """
    rows, cols = layout.rows, layout.cols
    if data_pattern.shape != (rows, cols):
        raise ParameterError(
            f"data pattern shape {data_pattern.shape} does not match "
            f"layout {rows}x{cols}")
    coupling = InterCellCoupling(device.stack, layout.pitch)
    intra = device.intra_stray_field()
    out = np.full((rows, cols), np.nan)
    bits = data_pattern.bits
    n_dir = (bits[:-2, 1:-1] + bits[2:, 1:-1]
             + bits[1:-1, :-2] + bits[1:-1, 2:])
    n_diag = (bits[:-2, :-2] + bits[:-2, 2:]
              + bits[2:, :-2] + bits[2:, 2:])
    k = coupling.kernels()
    # Parenthesized to add intra LAST, exactly like the per-cell
    # ``intra + hz_inter_fast(np8)`` it replaces (bit-identical maps).
    out[1:-1, 1:-1] = intra + (k.pattern_independent
                               + (4 - 2 * n_dir) * k.fl_direct
                               + (4 - 2 * n_diag) * k.fl_diagonal)
    return out
