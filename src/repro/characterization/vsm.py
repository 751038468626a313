"""Vibrating-sample magnetometry (VSM) emulation.

The bound-current model needs one number per fixed layer: the areal moment
``Ms * t``, which the paper measures at blanket-film level by VSM before
patterning. This module emulates that measurement: it reports the ``Ms*t``
of each magnetic layer of a stack with a configurable relative measurement
noise, exactly the quantity the calibration consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..stack import MTJStack
from ..validation import require_fraction


@dataclass(frozen=True)
class VSMMeasurement:
    """One blanket-film VSM result for a magnetic layer.

    ``moment_per_area`` is the signed areal moment ``direction * Ms * t``
    [A]; ``nominal`` is the noise-free value.
    """

    layer_role: str
    moment_per_area: float
    nominal: float


def measure_blanket_moments(stack, rng=None, noise=0.02):
    """Emulated VSM measurement of every magnetic layer of ``stack``.

    Parameters
    ----------
    stack:
        :class:`~repro.stack.MTJStack`.
    rng:
        Seed or generator.
    noise:
        1-sigma relative measurement noise (default 2 %, typical for VSM
        on blanket films).

    Returns
    -------
    tuple[VSMMeasurement, ...] in stack order (bottom to top).
    """
    if not isinstance(stack, MTJStack):
        raise ParameterError(
            f"stack must be an MTJStack, got {type(stack)!r}")
    require_fraction(noise, "noise")
    rng = np.random.default_rng(rng)
    results = []
    for layer in stack.magnetic_layers():
        nominal = layer.moment_per_area
        measured = nominal * (1.0 + noise * rng.standard_normal())
        results.append(VSMMeasurement(
            layer_role=layer.role.value,
            moment_per_area=float(measured),
            nominal=float(nominal)))
    return tuple(results)
