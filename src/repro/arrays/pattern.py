"""Neighborhood and array data patterns.

The inter-cell stray field at the victim depends on the data stored in its
eight neighbors — the *neighborhood pattern* NP8 of the paper. NP8 is the
8-bit word ``[d0 .. d7]`` where ``di`` is the data in aggressor Ci
(0 = P state, 1 = AP state); its decimal form indexes the 256 patterns.

Because C0-C3 sit at symmetric positions (and likewise C4-C7), the victim
field depends only on the *counts* of 1s among direct and diagonal
neighbors: 5 x 5 = 25 distinct classes (paper Fig. 4a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..device.mtj import MTJState
from ..errors import ParameterError
from ..validation import require_int_in_range


@dataclass(frozen=True)
class NeighborhoodPattern:
    """One NP8 pattern: the data bits of aggressors C0..C7.

    ``bits[i]`` is the bit stored in Ci: 0 keeps the FL parallel to the RL
    (P), 1 anti-parallel (AP). Bits 0-3 are the direct neighbors, 4-7 the
    diagonal ones.
    """

    bits: Tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != 8:
            raise ParameterError(
                f"NP8 needs exactly 8 bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ParameterError(f"bits must be 0/1, got {self.bits!r}")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def from_int(cls, value):
        """Decode the decimal form ``[n]_10`` (bit i of n is di)."""
        require_int_in_range(value, "value", 0, 255)
        return cls(tuple((value >> i) & 1 for i in range(8)))

    def to_int(self):
        """Decimal form of the pattern."""
        return sum(b << i for i, b in enumerate(self.bits))

    @property
    def direct_ones(self):
        """Number of 1s (AP cells) among the direct neighbors C0-C3."""
        return sum(self.bits[:4])

    @property
    def diagonal_ones(self):
        """Number of 1s (AP cells) among the diagonal neighbors C4-C7."""
        return sum(self.bits[4:])

    def state(self, index):
        """:class:`MTJState` of aggressor ``index``."""
        require_int_in_range(index, "index", 0, 7)
        return MTJState.from_bit(self.bits[index])

    def states(self):
        """States of all aggressors C0..C7."""
        return tuple(MTJState.from_bit(b) for b in self.bits)

    def signs(self):
        """FL mz signs (+1 P / -1 AP) of C0..C7 as a numpy array."""
        return np.array([MTJState.from_bit(b).mz for b in self.bits],
                        dtype=float)


#: The all-P pattern (paper's NP8 = 0, the Fig. 4a minimum).
ALL_P = NeighborhoodPattern.from_int(0)

#: The all-AP pattern (NP8 = 255, the Fig. 4a maximum).
ALL_AP = NeighborhoodPattern.from_int(255)


def all_patterns():
    """All 256 NP8 patterns, in decimal order."""
    return [NeighborhoodPattern.from_int(v) for v in range(256)]


def pattern_classes():
    """The 25 symmetry classes as ``{(n_direct, n_diag): representative}``.

    The representative of class (a, b) sets the first ``a`` direct bits and
    the first ``b`` diagonal bits.
    """
    classes = {}
    for n_direct in range(5):
        for n_diag in range(5):
            bits = ([1] * n_direct + [0] * (4 - n_direct)
                    + [1] * n_diag + [0] * (4 - n_diag))
            classes[(n_direct, n_diag)] = NeighborhoodPattern(tuple(bits))
    return classes


@dataclass(frozen=True)
class DataPattern:
    """A data pattern over an entire rows x cols array.

    ``bits`` is a (rows, cols) 0/1 array; 0 stores P, 1 stores AP.
    """

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2:
            raise ParameterError(
                f"bits must be 2-D, got shape {arr.shape}")
        # Cast, then compare back: one bool per cell, where np.isin
        # builds int64 copies (~12 B/cell on a whole-array pattern).
        with np.errstate(invalid="ignore"):
            bits = arr.astype(np.int8)
        if not (np.array_equal(bits, arr)
                and bits.view(np.uint8).max(initial=0) <= 1):
            raise ParameterError("bits must contain only 0/1")
        object.__setattr__(self, "bits", bits)

    @property
    def shape(self):
        """(rows, cols)."""
        return self.bits.shape

    def bit(self, row, col):
        """Data bit at (row, col)."""
        return int(self.bits[row, col])

    def state(self, row, col):
        """:class:`MTJState` at (row, col)."""
        return MTJState.from_bit(self.bit(row, col))

    def neighborhood_of(self, row, col):
        """The NP8 pattern around an interior cell (row, col).

        Raises :class:`~repro.errors.ParameterError` for border cells,
        which do not have all eight neighbors.
        """
        rows, cols = self.shape
        if not (1 <= row < rows - 1 and 1 <= col < cols - 1):
            raise ParameterError(
                f"cell ({row}, {col}) is not interior to {rows}x{cols}")
        from .layout import DIAGONAL_OFFSETS, DIRECT_OFFSETS
        bits = []
        for dc, dr in DIRECT_OFFSETS + DIAGONAL_OFFSETS:
            # Offsets are (dx, dy); +y is -row in the layout convention.
            bits.append(self.bit(row - dr, col + dc))
        return NeighborhoodPattern(tuple(bits))


def solid(rows, cols, bit=0):
    """A solid all-0 (all-P) or all-1 (all-AP) pattern."""
    require_int_in_range(bit, "bit", 0, 1)
    return DataPattern(np.full((rows, cols), bit, dtype=np.int8))


def checkerboard(rows, cols, phase=0):
    """A checkerboard pattern; ``phase`` flips which corner holds a 1."""
    require_int_in_range(phase, "phase", 0, 1)
    # Row parity XOR column parity, broadcast in int8 (1 B/cell).
    row_parity = (np.arange(rows) % 2).astype(np.int8)
    col_parity = ((np.arange(cols) + phase) % 2).astype(np.int8)
    return DataPattern(row_parity[:, None] ^ col_parity)


def random_pattern(rows, cols, rng=None, p_one=0.5):
    """A uniformly random data pattern (Bernoulli ``p_one``)."""
    rng = np.random.default_rng(rng)
    return DataPattern(
        (rng.random((rows, cols)) < p_one).astype(np.int8))
