"""Superposition of current-loop sources.

:class:`CurrentLoop` is the elementary source of the coupling model: a
z-normal circular loop at an arbitrary center. :class:`LoopCollection`
evaluates the total H-field of many loops at many points, using the exact
analytic solution by default and the discrete Biot-Savart solver on request
(both converge to each other; see the test suite).

Magnetostatics is linear, so the collection field is the plain sum of the
member fields — this module is also where that linearity is exploited for
caching per-source contributions in the array model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ParameterError
from ..validation import as_point_array, require_positive


@dataclass(frozen=True)
class CurrentLoop:
    """A circular current loop normal to z.

    Parameters
    ----------
    center:
        Loop center (x, y, z) [m].
    radius:
        Loop radius [m].
    current:
        Loop current [A]; positive current gives +z field at the center.
    """

    center: Tuple[float, float, float]
    radius: float
    current: float

    def __post_init__(self):
        require_positive(self.radius, "radius")
        center = tuple(float(c) for c in self.center)
        if len(center) != 3:
            raise ParameterError(
                f"center must have 3 components, got {len(center)}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "current", float(self.current))

    @property
    def moment(self):
        """Magnetic moment z-component [A*m^2]."""
        return self.current * np.pi * self.radius ** 2

    def field(self, points):
        """H-field [A/m] of this loop at ``points`` (analytic)."""
        from .loop_analytic import loop_field_analytic
        pts = as_point_array(points)
        single = np.asarray(points).ndim == 1
        local = pts - np.asarray(self.center)
        out = loop_field_analytic(self.current, self.radius, local)
        return out[0] if single else out

    def scaled(self, factor):
        """Return a copy with the current multiplied by ``factor``."""
        return CurrentLoop(self.center, self.radius, self.current * factor)


class LoopCollection:
    """An immutable bag of :class:`CurrentLoop` sources.

    Loop parameters are stored as packed numpy arrays so that
    :meth:`field` evaluates *all loops at all points* in one broadcasted
    :func:`~repro.fields.loop_analytic.loop_field_analytic_many` call;
    :meth:`field_per_loop` keeps the original loop-by-loop summation as
    the reference path for parity tests. Supports concatenation with
    ``+`` and scaling of all currents.
    """

    def __init__(self, loops=()):
        loops = tuple(loops)
        for loop in loops:
            if not isinstance(loop, CurrentLoop):
                raise ParameterError(
                    f"expected CurrentLoop, got {type(loop)!r}")
        self._loops = loops
        self._centers = np.array([lp.center for lp in loops],
                                 dtype=float).reshape(len(loops), 3)
        self._radii = np.array([lp.radius for lp in loops], dtype=float)
        self._currents = np.array([lp.current for lp in loops],
                                  dtype=float)
        # The packed arrays are exposed as read-only views; in-place
        # mutation would desynchronize them from the member loops.
        for arr in (self._centers, self._radii, self._currents):
            arr.flags.writeable = False

    @property
    def loops(self):
        """The member loops (tuple)."""
        return self._loops

    @property
    def centers(self):
        """Packed loop centers, shape (M, 3) [m] (read-only view)."""
        return self._centers

    @property
    def radii(self):
        """Packed loop radii, shape (M,) [m] (read-only view)."""
        return self._radii

    @property
    def currents(self):
        """Packed loop currents, shape (M,) [A] (read-only view)."""
        return self._currents

    def __len__(self):
        return len(self._loops)

    def __iter__(self):
        return iter(self._loops)

    def __add__(self, other):
        if isinstance(other, LoopCollection):
            return LoopCollection(self._loops + other.loops)
        return NotImplemented

    def scaled(self, factor):
        """Return a collection with every current multiplied by ``factor``."""
        return LoopCollection([lp.scaled(factor) for lp in self._loops])

    def field(self, points):
        """Total H-field [A/m] at ``points``, all loops batched."""
        from .loop_analytic import loop_field_analytic_many
        pts = as_point_array(points)
        single = np.asarray(points).ndim == 1
        if not self._loops:
            total = np.zeros_like(pts)
        else:
            total = loop_field_analytic_many(
                self._currents, self._radii, self._centers, pts)
        return total[0] if single else total

    def field_per_loop(self, points):
        """Total H-field [A/m] summed loop by loop (reference path).

        Numerically identical to :meth:`field` up to floating-point
        summation order; kept for parity tests and as the readable
        specification of what the batched path computes.
        """
        pts = as_point_array(points)
        single = np.asarray(points).ndim == 1
        total = np.zeros_like(pts)
        for loop in self._loops:
            total += loop.field(pts)
        return total[0] if single else total

    def field_grid(self, points):
        """Batched :meth:`field` over points of any shape ``(..., 3)``.

        Accepts meshgrid-style arrays (e.g. from
        :func:`repro.fields.sampling.grid3d`) and returns H vectors with
        the same leading shape.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim < 1 or pts.shape[-1] != 3:
            raise ParameterError(
                f"points must have shape (..., 3), got {pts.shape}")
        flat = pts.reshape(-1, 3)
        out = self.field(flat)
        return out.reshape(pts.shape)

    def field_z(self, points):
        """Convenience: z-component of :meth:`field` only."""
        out = self.field(points)
        return out[..., 2]
