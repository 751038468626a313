"""Structured result of one sweep run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..errors import ParameterError
from .spec import SweepSpec


@dataclass
class SweepResult:
    """Values of a function over a :class:`~repro.sweep.spec.SweepSpec`.

    ``values[i]`` is the function value at ``spec.point(i)`` — order is
    always the spec's enumeration order regardless of executor, which is
    what makes parallel and serial runs byte-identical for deterministic
    point functions.

    Attributes
    ----------
    spec:
        The grid that was evaluated.
    values:
        One entry per point, in spec order.
    executor, jobs:
        How the run was executed (for reports).
    elapsed:
        Wall-clock seconds of the run.
    """

    spec: SweepSpec
    values: List
    executor: str = "serial"
    jobs: int = 1
    elapsed: float = 0.0
    extras: Dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.values) != len(self.spec):
            raise ParameterError(
                f"got {len(self.values)} values for a "
                f"{len(self.spec)}-point sweep")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        """Yield ``(params, value)`` pairs in spec order."""
        return iter(zip(self.spec.points(), self.values))

    def values_array(self, dtype=None):
        """Values as a numpy array reshaped to the spec's grid shape.

        Scalar values give an array of ``spec.shape``; non-scalar values
        fall back to an object array of the same shape.
        """
        try:
            arr = np.asarray(self.values, dtype=dtype)
            if dtype is None and arr.dtype == object:
                raise ValueError
        except (ValueError, TypeError):
            arr = np.empty(len(self.values), dtype=object)
            arr[:] = self.values
        lead = arr.shape[1:]
        return arr.reshape(self.spec.shape + lead)

    def describe(self) -> Dict:
        """Run metadata (for logs and experiment extras)."""
        return {
            "n_points": len(self),
            "axes": {n: list(v) for n, v in self.spec.axes.items()},
            "executor": self.executor,
            "jobs": self.jobs,
            "elapsed_s": self.elapsed,
        }
