"""Declarative parameter-grid specifications.

A :class:`SweepSpec` names the axes of a parameter study and how they
compose: ``SweepSpec.product`` forms the cartesian grid (the pitch x
pattern x size sweeps of the paper), ``SweepSpec.zipped`` pairs axes
element-wise (e.g. a list of named experiments), and two specs multiply
into their product grid. The spec is pure data — evaluation lives in
:class:`repro.sweep.runner.SweepRunner` — so the same grid can run
serially, on a process pool, or across hosts and always
enumerate points in the same deterministic order.
"""

from __future__ import annotations

import itertools

from ..errors import ParameterError


class SweepSpec:
    """An ordered, named parameter grid.

    Construct with :meth:`product` or :meth:`zipped`; compose larger
    grids with ``spec_a * spec_b`` (cartesian product, left-major).
    Iterating yields ``{axis_name: value}`` dicts in deterministic
    order; ``shape`` gives the logical grid shape for reshaping result
    arrays.
    """

    def __init__(self, axes, points, shape):
        self._axes = dict(axes)
        self._points = tuple(points)
        self._shape = tuple(shape)

    @classmethod
    def product(cls, **axes):
        """Cartesian product of the named axes, first axis slowest."""
        names, values = cls._validate_axes(axes)
        points = [dict(zip(names, combo))
                  for combo in itertools.product(*values)]
        return cls(axes=zip(names, values), points=points,
                   shape=[len(v) for v in values])

    @classmethod
    def zipped(cls, **axes):
        """Element-wise pairing of equal-length axes (one grid axis)."""
        names, values = cls._validate_axes(axes)
        lengths = {len(v) for v in values}
        if len(lengths) > 1:
            raise ParameterError(
                f"zipped axes must have equal lengths, got "
                f"{ {n: len(v) for n, v in zip(names, values)} }")
        points = [dict(zip(names, combo)) for combo in zip(*values)]
        return cls(axes=zip(names, values), points=points,
                   shape=[lengths.pop()])

    @staticmethod
    def _validate_axes(axes):
        if not axes:
            raise ParameterError("a sweep needs at least one axis")
        names = list(axes)
        values = []
        for name in names:
            vals = tuple(axes[name])
            if not vals:
                raise ParameterError(f"axis {name!r} has no values")
            values.append(vals)
        return names, values

    def __mul__(self, other):
        if not isinstance(other, SweepSpec):
            return NotImplemented
        overlap = set(self._axes) & set(other._axes)
        if overlap:
            raise ParameterError(
                f"cannot compose sweeps sharing axes {sorted(overlap)}")
        points = [{**a, **b} for a in self._points for b in other._points]
        return SweepSpec(axes={**self._axes, **other._axes},
                         points=points,
                         shape=self._shape + other._shape)

    @property
    def axes(self):
        """``{name: values}`` of every axis (insertion-ordered)."""
        return dict(self._axes)

    @property
    def names(self):
        """Axis names in order."""
        return tuple(self._axes)

    @property
    def shape(self):
        """Logical grid shape (one entry per product factor)."""
        return self._shape

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def point(self, index):
        """The ``index``-th parameter dict (deterministic order)."""
        return dict(self._points[index])

    def points(self):
        """All parameter dicts, in order."""
        return [dict(p) for p in self._points]

    def __repr__(self):
        axes = ", ".join(f"{n}[{len(v)}]" for n, v in self._axes.items())
        return f"SweepSpec({axes}; {len(self)} points)"
