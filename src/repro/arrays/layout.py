"""Array layout: square-pitch cell placement and the 3x3 neighborhood.

The paper analyzes a representative 3x3 sub-array (Fig. 1b): the victim C8
sits at the center, the four *direct* neighbors C0-C3 share an edge with it
(lateral distance = pitch) and the four *diagonal* neighbors C4-C7 share a
corner (distance = sqrt(2) * pitch).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from ..validation import require_int_in_range, require_positive

#: Offsets (in pitch units) of the four direct neighbors C0..C3.
DIRECT_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1))

#: Offsets (in pitch units) of the four diagonal neighbors C4..C7.
DIAGONAL_OFFSETS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class ArrayLayout:
    """A rows x cols memory array on a square pitch.

    Cell (r, c) sits at ``(c * pitch, -r * pitch)`` — columns along +x,
    rows downward along -y, matching the usual array drawing.
    """

    pitch: float
    rows: int
    cols: int

    def __post_init__(self):
        require_positive(self.pitch, "pitch")
        require_int_in_range(self.rows, "rows", 1, 1_000_000)
        require_int_in_range(self.cols, "cols", 1, 1_000_000)

    @property
    def n_cells(self):
        """Total number of cells."""
        return self.rows * self.cols

    def position(self, row, col):
        """(x, y) position [m] of cell (row, col)."""
        self._check_cell(row, col)
        return (col * self.pitch, -row * self.pitch)

    def cells(self):
        """Iterate over (row, col) pairs in row-major order."""
        for row in range(self.rows):
            for col in range(self.cols):
                yield row, col

    def neighbors(self, row, col, include_diagonal=True):
        """In-array neighbor coordinates of (row, col)."""
        self._check_cell(row, col)
        offsets = DIRECT_OFFSETS + (DIAGONAL_OFFSETS if include_diagonal
                                    else ())
        result = []
        for dc, dr in offsets:
            r, c = row + dr, col + dc
            if 0 <= r < self.rows and 0 <= c < self.cols:
                result.append((r, c))
        return result

    def _check_cell(self, row, col):
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ParameterError(
                f"cell ({row}, {col}) outside {self.rows}x{self.cols} array")


@dataclass(frozen=True)
class Neighborhood3x3:
    """The paper's 3x3 victim/aggressor geometry.

    The victim (C8) is at the origin. Aggressor cells C0..C7 are placed at
    the direct offsets (C0..C3) followed by the diagonal offsets (C4..C7).
    """

    pitch: float

    def __post_init__(self):
        require_positive(self.pitch, "pitch")

    def aggressor_positions(self):
        """Positions [(x, y)] of C0..C7 in index order."""
        positions = []
        for ox, oy in DIRECT_OFFSETS + DIAGONAL_OFFSETS:
            positions.append((ox * self.pitch, oy * self.pitch))
        return positions
