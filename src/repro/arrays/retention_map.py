"""Whole-array retention-risk maps.

Combines the vectorized field map with the Delta/retention models: for a
given stored data pattern, compute every interior cell's thermal
stability and flag the cells below a retention spec. Identifies *where*
in an array the coupling-induced weak bits sit for a given workload
pattern — the spatial view behind the scalar worst-case analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.energy import delta_with_stray
from ..device.mtj import MTJDevice
from ..errors import ParameterError
from .extended import fast_array_field_map


@dataclass(frozen=True)
class RetentionMap:
    """Per-cell retention stability of one array + data pattern.

    Attributes
    ----------
    delta:
        (rows, cols) array of per-cell Delta for the *stored* state;
        NaN on the border (incomplete neighborhood).
    bits:
        The data pattern that produced it.
    """

    delta: np.ndarray
    bits: np.ndarray


def retention_map(device, pitch, data_pattern, temperature=None):
    """Per-cell Delta map of an array storing ``data_pattern``.

    For each interior cell the stored state's Delta is evaluated under
    the total stray field (intra + 3x3 inter) of the actual neighborhood
    data. Bit 0 stores P (the '+h' branch of Eq. 5), bit 1 stores AP.

    Parameters
    ----------
    device:
        :class:`~repro.device.mtj.MTJDevice` (all cells identical).
    pitch:
        Array pitch [m].
    data_pattern:
        A :class:`~repro.arrays.pattern.DataPattern` or a 0/1 array.
    temperature:
        Optional operating temperature [K].

    Returns
    -------
    RetentionMap
    """
    if not isinstance(device, MTJDevice):
        raise ParameterError(
            f"device must be an MTJDevice, got {type(device)!r}")
    bits = np.asarray(getattr(data_pattern, "bits", data_pattern))
    hz_total = fast_array_field_map(device, pitch, bits, order=1)

    params = device.params
    temp = params.temperature if temperature is None else temperature
    delta0 = device.thermal_model.delta0_at(params.delta0, temp)
    hk = device.thermal_model.hk_at(params.hk, temp)

    delta = np.full(bits.shape, np.nan)
    rows, cols = bits.shape
    for row in range(1, rows - 1):
        for col in range(1, cols - 1):
            state = "P" if bits[row, col] == 0 else "AP"
            delta[row, col] = delta_with_stray(
                delta0, hz_total[row, col] / hk, state)
    return RetentionMap(delta=delta, bits=bits.astype(np.int8))
