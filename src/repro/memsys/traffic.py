"""Workload generators: seeded read/write transaction streams.

A workload produces *batches* of word-level transactions — numpy arrays
of word addresses and read/write flags — so the Monte-Carlo engine never
loops over individual transactions. Each workload also defines the
initial array content (reusing :mod:`repro.arrays.pattern` for the
solid/checkerboard stress backgrounds) and the data its writes store:
random write data comes as packed uint64 lanes, drawn raw from the
generator (one output per 64 data bits), which the engine encodes
without unpacking. The initial random background stays on the float64
stream (one uniform per cell); expectation mode classifies that
background and never draws write data.

Available workloads (see :data:`WORKLOADS`):

``random``
    Uniform random addresses, random write data, balanced read/write.
``read-heavy`` / ``write-heavy``
    Uniform random with a 90/10 (10/90) read/write mix.
``sequential``
    Striding sweep over the address space (stride configurable).
``hot-row`` / ``hot-col``
    Most accesses hammer the words of one row (column) of the array.
``checkerboard`` / ``solid0`` / ``solid1``
    Data-pattern stress: the background holds the pattern and every
    write rewrites the background data, keeping the coupling
    neighborhoods pinned at the pattern's classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arrays.pattern import checkerboard, solid
from ..errors import ParameterError
from ..validation import require_in_range, require_positive
from .bitplane import row_blocks


@dataclass(frozen=True)
class TrafficBatch:
    """One batch of word transactions.

    ``is_write[i]`` marks transaction ``i`` as a write of word
    ``word[i]``; reads carry no data.
    """

    word: np.ndarray
    is_write: np.ndarray

    def __post_init__(self):
        word = np.asarray(self.word, dtype=np.int64)
        is_write = np.asarray(self.is_write, dtype=bool)
        if word.shape != is_write.shape or word.ndim != 1:
            raise ParameterError(
                f"word/is_write must be matching 1-D arrays, got "
                f"{word.shape} and {is_write.shape}")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "is_write", is_write)

    def __len__(self):
        return self.word.shape[0]


class Workload:
    """Base workload: uniform random addresses, random write data.

    Parameters
    ----------
    read_fraction:
        Probability that a transaction is a read.
    """

    name = "random"

    def __init__(self, read_fraction=0.5):
        require_in_range(read_fraction, "read_fraction", 0.0, 1.0)
        self.read_fraction = float(read_fraction)

    def initial_bits(self, rows, cols, rng):
        """Initial (rows, cols) array content: uniform random bits.

        Drawn in row blocks — the same float64 stream, and so the same
        bits, as one ``rng.random((rows, cols)) < 0.5``
        (:func:`~repro.arrays.pattern.random_pattern`) without its
        8 B/cell uniforms.
        """
        rng = np.random.default_rng(rng)
        bits = np.empty((rows, cols), dtype=np.int8)
        for lo, hi in row_blocks(rows, cols):
            np.less(rng.random((hi - lo, cols)), 0.5, out=bits[lo:hi])
        return bits

    def bind(self, word_map):
        """Attach the array's word map (geometry-aware workloads)."""
        return self

    def reset(self):
        """Restart any address-stream state (engine calls per run)."""

    def addresses(self, n, n_words, rng):
        """``n`` word addresses of the stream."""
        return rng.integers(0, n_words, size=n)

    def batch(self, n, n_words, rng):
        """A :class:`TrafficBatch` of ``n`` transactions."""
        require_positive(n, "n")
        require_positive(n_words, "n_words")
        return TrafficBatch(
            word=self.addresses(int(n), int(n_words), rng),
            is_write=rng.random(int(n)) >= self.read_fraction)

    def write_data(self, words, data_bits, rng):
        """Data stored by writes to ``words``, as packed uint64 lanes.

        Returns ``(n_writes, ceil(data_bits / 64))`` little-endian lanes
        (data bit ``b`` of a word in lane ``b // 64`` at bit ``b % 64``,
        the :func:`~repro.memsys.bitplane.pack_bits` layout): the
        values of one ``rng.integers(0, 2**64, size=(n_writes, lanes),
        dtype=np.uint64)`` draw, with the unused high bits of the last
        lane zeroed — 64 data bits per generator output instead of one
        float64 uniform per bit. A PCG64 generator (every
        ``default_rng``) gives those outputs straight from its bit
        generator: the same values and the same next draw, without
        ``integers``' per-call overhead.
        """
        shape = (words.shape[0], -(-data_bits // 64))
        if type(rng.bit_generator) is np.random.PCG64:
            lanes = rng.bit_generator.random_raw(
                shape[0] * shape[1]).reshape(shape)
        else:
            lanes = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        if data_bits % 64:
            lanes[:, -1] &= np.uint64((1 << data_bits % 64) - 1)
        return lanes

    def describe(self):
        """Summary dict for reports."""
        return {"workload": self.name,
                "read_fraction": self.read_fraction}


class SequentialWorkload(Workload):
    """Striding sweep over the word address space."""

    name = "sequential"

    def __init__(self, read_fraction=0.5, stride=1):
        super().__init__(read_fraction)
        require_positive(stride, "stride")
        self.stride = int(stride)
        self._next = 0

    def reset(self):
        self._next = 0

    def addresses(self, n, n_words, rng):
        start = self._next
        addresses = (start + self.stride * np.arange(n)) % n_words
        self._next = int((start + self.stride * n) % n_words)
        return addresses

    def describe(self):
        return {**super().describe(), "stride": self.stride}


class HotSpotWorkload(Workload):
    """Accesses concentrated on the words of a hot row or column band.

    ``hot_fraction`` of the transactions land uniformly on the hot word
    set; the rest are uniform over the whole space. Once the engine
    binds the array's word map, the hot set is derived from the actual
    geometry: the words holding cells of the first ``rows // 8`` rows
    (``axis="row"``) or the first ``cols // 8`` columns
    (``axis="col"``). Note that column locality maps poorly onto
    row-major codewords — a column band touches one short run of cells
    in almost every word, so the ``hot-col`` set is correspondingly
    wide, exactly as it would be in hardware. Unbound (library use
    without an array), the hot set falls back to the first 1/16th of
    the word address space.
    """

    def __init__(self, read_fraction=0.5, hot_fraction=0.9, axis="row"):
        super().__init__(read_fraction)
        require_in_range(hot_fraction, "hot_fraction", 0.0, 1.0)
        if axis not in ("row", "col"):
            raise ParameterError(f"axis must be 'row'/'col', got {axis!r}")
        self.hot_fraction = float(hot_fraction)
        self.axis = axis
        self.name = f"hot-{axis}"
        self._bound_words = None
        self._fallback = None

    def bind(self, word_map):
        cols, code_bits = word_map.layout.cols, word_map.code_bits
        if self.axis == "row":
            # The band's cells are the flat prefix [0, band * cols).
            band = max(1, word_map.layout.rows // 8)
            n_cells = min(band * cols, word_map.n_mapped_cells)
            self._bound_words = np.arange(-(-n_cells // code_bits))
        else:
            # A word covers columns start, start + 1, ... (mod cols): it
            # holds a band cell when it starts inside the band or wraps
            # past the last column into the next row's first.
            band = max(1, cols // 8)
            start = np.arange(word_map.n_words) * code_bits % cols
            self._bound_words = np.flatnonzero(
                (start < band) | (start + code_bits > cols))
        return self

    def hot_words(self, n_words):
        """The hot word set (geometry-derived once bound)."""
        if self._bound_words is not None:
            return self._bound_words
        if self._fallback is None or self._fallback[0] != n_words:
            self._fallback = (n_words,
                              np.arange(max(1, n_words // 16)))
        return self._fallback[1]

    def addresses(self, n, n_words, rng):
        hot = self.hot_words(n_words)
        pick_hot = rng.random(n) < self.hot_fraction
        addresses = rng.integers(0, n_words, size=n)
        addresses[pick_hot] = hot[rng.integers(0, hot.size,
                                               size=int(pick_hot.sum()))]
        return addresses

    def describe(self):
        return {**super().describe(), "hot_fraction": self.hot_fraction,
                "axis": self.axis}


class StressPatternWorkload(Workload):
    """Solid / checkerboard data-pattern stress.

    The array background holds the stress pattern and every write
    rewrites the background's own data for that word, so the coupling
    neighborhoods stay pinned at the pattern's classes — the system-level
    version of the paper's NP8 = 0 / 255 corners.
    """

    def __init__(self, pattern="checkerboard", read_fraction=0.5):
        super().__init__(read_fraction)
        if pattern not in ("checkerboard", "solid0", "solid1"):
            raise ParameterError(
                f"pattern must be checkerboard/solid0/solid1, got "
                f"{pattern!r}")
        self.pattern = pattern
        self._background = None

    @property
    def name(self):
        return self.pattern

    def initial_bits(self, rows, cols, rng):
        if self.pattern == "checkerboard":
            bits = checkerboard(rows, cols).bits
        else:
            bits = solid(rows, cols, bit=int(self.pattern[-1])).bits
        self._background = bits
        return bits

    def background_data(self, words, word_map, data_positions):
        """The pattern's data bits for each of ``words``.

        ``data_positions`` are the data-bit indices inside a codeword
        (the ECC's systematic positions).
        """
        if self._background is None:
            raise ParameterError(
                "initial_bits() must run before background_data()")
        # Whole codeword rows, then their data columns: no per-cell
        # index array.
        rows = self._background.reshape(-1)[:word_map.n_mapped_cells]
        return rows.reshape(word_map.n_words, word_map.code_bits)[
            words].take(data_positions, axis=1)

    def describe(self):
        return {"workload": self.name,
                "read_fraction": self.read_fraction}


def make_workload(name, read_fraction=None, **kwargs):
    """Instantiate a workload by registry name (see :data:`WORKLOADS`)."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ParameterError(
            f"unknown workload {name!r}; choose from "
            f"{sorted(WORKLOADS)}") from None
    if read_fraction is not None:
        kwargs["read_fraction"] = read_fraction
    return factory(**kwargs)


#: Workload registry: name -> factory.
WORKLOADS = {
    "random": Workload,
    "read-heavy": lambda read_fraction=0.9, **kw: Workload(
        read_fraction, **kw),
    "write-heavy": lambda read_fraction=0.1, **kw: Workload(
        read_fraction, **kw),
    "sequential": SequentialWorkload,
    "hot-row": lambda **kw: HotSpotWorkload(axis="row", **kw),
    "hot-col": lambda **kw: HotSpotWorkload(axis="col", **kw),
    "checkerboard": lambda **kw: StressPatternWorkload(
        "checkerboard", **kw),
    "solid0": lambda **kw: StressPatternWorkload("solid0", **kw),
    "solid1": lambda **kw: StressPatternWorkload("solid1", **kw),
}
