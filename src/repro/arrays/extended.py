"""Beyond-3x3 neighborhoods: how good is the paper's truncation?

The paper models inter-cell coupling with the eight nearest aggressors
(the 3x3 neighborhood). Cells two pitches away also couple — weaker by
roughly (1/2)^3 per the dipole law, but there are more of them. This
module generalizes the coupling model to a (2k+1)x(2k+1) neighborhood and
quantifies the field the 3x3 truncation ignores, plus a fast vectorized
field map for full arrays built from the same ring kernels.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..stack import MTJStack
from ..validation import require_int_in_range, require_positive
from .kernel_store import get_kernel_store


class ExtendedNeighborhood:
    """Coupling from a (2k+1)x(2k+1) neighborhood around the victim.

    Parameters
    ----------
    stack:
        The shared :class:`~repro.stack.MTJStack` of every cell.
    pitch:
        Array pitch [m].
    order:
        Neighborhood half-width ``k`` (1 reproduces the paper's 3x3).
    """

    def __init__(self, stack, pitch, order=2):
        if not isinstance(stack, MTJStack):
            raise ParameterError(
                f"stack must be an MTJStack, got {type(stack)!r}")
        require_positive(pitch, "pitch")
        self.stack = stack
        self.pitch = float(pitch)
        self.order = require_int_in_range(order, "order", 1, 8)
        self._kernels = None

    def offsets(self):
        """All lattice offsets (i, j) != (0, 0) within the neighborhood."""
        k = self.order
        return [(i, j)
                for i in range(-k, k + 1)
                for j in range(-k, k + 1)
                if (i, j) != (0, 0)]

    def kernels(self):
        """``{offset: (fixed, fl_p)}`` for every neighbor (cached).

        All (2k+1)^2 - 1 neighbor kernels of each kind are fetched in
        one :meth:`~repro.arrays.kernel_store.KernelStore.kernel_batch`
        call — every store miss of the window is a single broadcasted
        field evaluation rather than a per-offset Python loop. The
        store keys are those of scalar ``kernel`` lookups at the same
        lateral offsets, so the ring-1 entries are shared with
        :class:`~repro.arrays.coupling.InterCellCoupling` at the same
        stack and pitch.
        """
        if self._kernels is None:
            offsets = self.offsets()
            lateral = [(i * self.pitch, j * self.pitch)
                       for i, j in offsets]
            store = get_kernel_store()
            fixed = store.kernel_batch(self.stack, lateral, "fixed")
            fl = store.kernel_batch(self.stack, lateral, "fl")
            self._kernels = {
                off: (float(fx), float(fp))
                for off, fx, fp in zip(offsets, fixed, fl)}
        return self._kernels

    def hz_inter(self, data_signs):
        """Hz [A/m] at the victim for neighbor FL signs ``data_signs``.

        ``data_signs`` maps offsets to +1 (P) / -1 (AP); missing offsets
        default to +1.
        """
        total = 0.0
        for off, (fixed, fl) in self.kernels().items():
            sign = data_signs.get(off, +1)
            if sign not in (-1, +1):
                raise ParameterError(
                    f"data sign for {off} must be +/-1, got {sign!r}")
            total += fixed + sign * fl
        return total

    def max_variation(self):
        """Max pattern-to-pattern Hz variation [A/m] over the window."""
        return 2.0 * sum(abs(fl) for _, fl in self.kernels().values())

    def ring_contributions(self):
        """Per-ring breakdown: ``{ring: (fixed_sum, fl_abs_sum)}`` [A/m].

        Ring r holds the cells with Chebyshev distance r from the victim;
        ring 1 is the paper's 3x3 shell.
        """
        rings = {}
        for (i, j), (fixed, fl) in self.kernels().items():
            ring = max(abs(i), abs(j))
            fixed_sum, fl_sum = rings.get(ring, (0.0, 0.0))
            rings[ring] = (fixed_sum + fixed, fl_sum + abs(fl))
        return rings

    def truncation_error(self):
        """Fraction of the max variation the 3x3 truncation misses.

        ``(variation(full) - variation(ring 1)) / variation(full)``.
        """
        rings = self.ring_contributions()
        full = 2.0 * sum(fl for _, fl in rings.values())
        ring1 = 2.0 * rings.get(1, (0.0, 0.0))[1]
        if full == 0.0:
            return 0.0
        return (full - ring1) / full


def fast_array_field_map(device, pitch, data_bits, order=1):
    """Vectorized total stray field over a full array [A/m].

    Same result as :func:`repro.arrays.victim.array_field_map` (for
    ``order=1``) but computed as a correlation of the ±1 data array with
    the FL kernel stencil — O(cells x window) numpy work instead of
    per-cell Python loops, practical for megabit-scale planning sweeps.

    Cells whose full window extends beyond the array get NaN.

    Parameters
    ----------
    device:
        :class:`~repro.device.mtj.MTJDevice` (all cells identical).
    pitch:
        Array pitch [m].
    data_bits:
        (rows, cols) array of 0/1 data (0 = P, 1 = AP).
    order:
        Neighborhood half-width (1 = the paper's 3x3).

    Returns
    -------
    numpy.ndarray of shape (rows, cols).
    """
    bits = np.asarray(data_bits)
    if bits.ndim != 2:
        raise ParameterError(f"data_bits must be 2-D, got {bits.shape}")
    if not np.all(np.isin(bits, (0, 1))):
        raise ParameterError("data_bits must contain only 0/1")

    hood = ExtendedNeighborhood(device.stack, pitch, order=order)
    kernels = hood.kernels()
    intra = device.intra_stray_field()
    fixed_total = sum(fixed for fixed, _ in kernels.values())

    signs = 1.0 - 2.0 * bits.astype(float)  # 0 -> +1 (P), 1 -> -1 (AP)
    rows, cols = bits.shape
    k = hood.order
    if rows <= 2 * k or cols <= 2 * k:
        raise ParameterError(
            f"array {rows}x{cols} too small for order-{k} neighborhood")

    out = np.full((rows, cols), np.nan)
    interior = np.zeros((rows - 2 * k, cols - 2 * k))
    for (dx, dy), (_, fl) in kernels.items():
        # Offset (dx, dy) is in +x (columns) / +y (up = -rows) units.
        dc, dr = dx, -dy
        interior += fl * signs[k + dr:rows - k + dr,
                               k + dc:cols - k + dc]
    out[k:rows - k, k:cols - k] = intra + fixed_total + interior
    return out
