"""Behavioral array controller: transactions onto coupled physics.

The controller owns the mapping from word transactions to cells of an
:class:`~repro.arrays.layout.ArrayLayout` and translates the library's
device-level failure models into *per-access error probabilities* that a
vectorized Monte-Carlo engine can draw from.

Because the inter-cell field of the 3x3 neighborhood collapses onto the
25 symmetry classes ``(n_direct_AP, n_diagonal_AP)`` (paper Fig. 4a),
every mechanism reduces to a 2 x 5 x 5 lookup table — (stored/target
bit, direct count, diagonal count) — evaluated once per configuration:

* write-error probability from :class:`~repro.apps.write_error.\
WriteErrorModel` (per write polarity, with the pulse width of each
  polarity *trimmed* at the array's mean operating field, the way a real
  controller trims its write timing per die — what survives is purely
  the data-dependent coupling spread the paper quantifies),
* read-disturb probability from
  :class:`~repro.apps.read_disturb.ReadDisturbAnalysis`,
* retention flip rate from the stray-field-shifted Delta (paper Eq. 5).

Border cells are treated as if surrounded by P-initialized dummy cells
(missing neighbors count as data 0), matching the dummy rows/columns
real arrays place at the edge.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..apps.read_disturb import ReadDisturbAnalysis
from ..apps.write_error import WriteErrorModel
from ..arrays.layout import ArrayLayout
from ..arrays.victim import VictimAnalysis
from ..device.mtj import MTJDevice, MTJState
from ..device.retention import flip_rate
from ..errors import ParameterError
from ..validation import (
    require_in_range,
    require_non_negative,
    require_positive,
)


def neighborhood_class_map(bits):
    """Vectorized ``(n_direct, n_diagonal)`` AP counts for every cell.

    ``bits`` is a (rows, cols) 0/1 array; returns two int8 arrays of the
    same shape. Missing neighbors beyond the array edge count as 0 (P) —
    the dummy-cell boundary convention.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ParameterError(f"bits must be 2-D, got shape {bits.shape}")
    rows, cols = bits.shape
    padded = np.zeros((rows + 2, cols + 2), dtype=np.int8)
    padded[1:-1, 1:-1] = bits
    # Separable sums: the left+right pair of every padded row serves
    # both counts — direct = own row's pair + up + down, diagonal = the
    # pairs of the rows above and below.
    pair = padded[:, :-2] + padded[:, 2:]
    n_direct = pair[1:-1] + padded[:-2, 1:-1]
    n_direct += padded[2:, 1:-1]
    return n_direct, pair[:-2] + pair[2:]


class WordMap:
    """Word-address to cell-index mapping of one array organization.

    Codewords are laid out along the row-major flattened array: word
    ``w`` occupies flat cells ``[w * n_code, (w + 1) * n_code)``.
    Trailing cells that do not fill a whole codeword stay unused.
    """

    def __init__(self, layout, code_bits):
        if not isinstance(layout, ArrayLayout):
            raise ParameterError(
                f"layout must be an ArrayLayout, got {type(layout)!r}")
        require_positive(code_bits, "code_bits")
        self.layout = layout
        self.code_bits = int(code_bits)
        self.n_words = layout.n_cells // self.code_bits
        if self.n_words < 1:
            raise ParameterError(
                f"array of {layout.n_cells} cells cannot hold one "
                f"{self.code_bits}-bit codeword")
        self.cells = np.arange(
            self.n_words * self.code_bits).reshape(self.n_words,
                                                   self.code_bits)

    @property
    def n_mapped_cells(self):
        """Number of cells that belong to some codeword."""
        return self.n_words * self.code_bits


class ArrayController:
    """Maps transactions onto the array and prices every access.

    Parameters
    ----------
    device:
        :class:`~repro.device.mtj.MTJDevice` (all cells identical).
    layout:
        :class:`~repro.arrays.layout.ArrayLayout`.
    ecc:
        An ECC scheme from :mod:`repro.memsys.ecc`.
    vp:
        Write voltage [V].
    nominal_wer:
        Per-polarity write-error target the controller trims its pulse
        widths to at the array's mean operating field. The default is an
        accelerated-stress corner (a shipping part trims to ~1e-9;
        Monte-Carlo at that rate would need 1e11 draws per event).
    read_voltage, t_read:
        Read-pulse operating point [V], [s].
    temperature:
        Cell temperature [K]; default is the device reference.
    sense:
        Optional :class:`~repro.memsys.sense.SenseMarginModel`. When
        given, the per-state misread probability (sense margin against
        the device's resistance spread, through the access-transistor
        divider) is folded into the read-disturb tables — a misread is
        booked like a read-induced flip of the sensed value, which is
        the pessimistic choice for ECC. Default ``None`` leaves the
        tables untouched.
    """

    def __init__(self, device, layout, ecc, vp=0.95, nominal_wer=2e-3,
                 read_voltage=0.15, t_read=20e-9, temperature=None,
                 sense=None):
        if not isinstance(device, MTJDevice):
            raise ParameterError(
                f"device must be an MTJDevice, got {type(device)!r}")
        require_positive(vp, "vp")
        require_in_range(nominal_wer, "nominal_wer", 0.0, 1.0,
                         inclusive=False)
        require_positive(read_voltage, "read_voltage")
        require_positive(t_read, "t_read")
        self.device = device
        self.layout = layout
        self.ecc = ecc
        self.vp = float(vp)
        self.nominal_wer = float(nominal_wer)
        self.read_voltage = float(read_voltage)
        self.t_read = float(t_read)
        self.temperature = temperature
        self.sense = sense
        self.words = WordMap(layout, ecc.n_code)

        self.victim = VictimAnalysis(device, layout.pitch)
        # The four symmetry-reduced kernels ride the store's batch path
        # (InterCellCoupling.kernels fetches them via kernel_batch): one
        # broadcasted field evaluation per kind on a cold store, pure
        # lookups on a warm or disk-backed one.
        kernels = self.victim.coupling.kernels()
        #: Mean operating field: intra + pattern-independent inter [A/m].
        self.hz_operating = (self.victim.hz_intra()
                             + kernels.pattern_independent)
        self._fl_direct = kernels.fl_direct
        self._fl_diagonal = kernels.fl_diagonal

        wem = WriteErrorModel(device)
        #: Trimmed write pulse widths [s] per written bit (0 -> AP->P).
        self.t_pulse = (
            wem.pulse_for_wer(self.nominal_wer, self.vp,
                              self.hz_operating, MTJState.AP),
            wem.pulse_for_wer(self.nominal_wer, self.vp,
                              self.hz_operating, MTJState.P),
        )
        self._build_tables(wem)

    # -- per-class probability tables ---------------------------------------

    def class_field(self, n_direct, n_diagonal):
        """Total stray field [A/m] of coupling class ``(nd, ng)``.

        Vectorized over integer arrays of AP-neighbor counts.
        """
        n_direct = np.asarray(n_direct)
        n_diagonal = np.asarray(n_diagonal)
        return (self.hz_operating
                + (4 - 2 * n_direct) * self._fl_direct
                + (4 - 2 * n_diagonal) * self._fl_diagonal)

    def _build_tables(self, wem):
        rda = ReadDisturbAnalysis(self.device)
        f0 = self.device.params.attempt_frequency
        self.wer_table = np.empty((2, 5, 5))
        self.disturb_table = np.empty((2, 5, 5))
        self.retention_rate_table = np.empty((2, 5, 5))
        for bit in (0, 1):
            state = MTJState.from_bit(bit)
            initial = state.opposite   # writing `bit` starts from there
            for nd in range(5):
                for ng in range(5):
                    hz = float(self.class_field(nd, ng))
                    self.wer_table[bit, nd, ng] = wem.wer(
                        self.t_pulse[bit], self.vp, hz,
                        initial_state=initial)
                    self.disturb_table[bit, nd, ng] = (
                        rda.disturb_probability(
                            state, self.read_voltage, self.t_read, hz))
                    self.retention_rate_table[bit, nd, ng] = flip_rate(
                        self.device.delta(state, hz, self.temperature),
                        f0)
        if self.sense is not None:
            # Sense-margin read gating: a misread corrupts the sensed
            # word exactly like a disturbed cell, so the per-state
            # misread probability composes into the disturb tables as
            # an independent failure mode.
            p_fail = self.sense.read_failure_probability(
                self.device, self.read_voltage)
            for bit in (0, 1):
                self.disturb_table[bit] = 1.0 - (
                    (1.0 - self.disturb_table[bit])
                    * (1.0 - float(p_fail[bit])))

    # -- vectorized per-cell probability maps -------------------------------

    def class_maps(self, bits):
        """Flat ``(n_direct, n_diagonal)`` maps of a (rows, cols) array."""
        nd, ng = neighborhood_class_map(
            np.asarray(bits).reshape(self.layout.rows, self.layout.cols))
        return nd.reshape(-1), ng.reshape(-1)

    def write_error_probability(self, new_bits, nd, ng):
        """Per-cell write-error probability for writing ``new_bits``."""
        return self.wer_table[np.asarray(new_bits), nd, ng]

    def disturb_probability(self, stored_bits, nd, ng):
        """Per-cell single-read disturb probability."""
        return self.disturb_table[np.asarray(stored_bits), nd, ng]

    @cached_property
    def half_select_table(self):
        """(2, 5, 5) single half-select disturb probability per class.

        The cross-point sneak-path term (Zhao et al., arXiv:1202.1782):
        an access puts ~half the read bias across the unselected cells
        sharing the accessed row/column, priced with the same thermal
        read-disturb model as a full select. Built lazily — 1T-1R
        configurations never touch it.
        """
        rda = ReadDisturbAnalysis(self.device)
        table = np.empty((2, 5, 5))
        for bit in (0, 1):
            state = MTJState.from_bit(bit)
            for nd in range(5):
                for ng in range(5):
                    hz = float(self.class_field(nd, ng))
                    table[bit, nd, ng] = rda.disturb_probability(
                        state, 0.5 * self.read_voltage, self.t_read,
                        hz)
        return table

    def half_select_probability(self, stored_bits, nd, ng, exposures):
        """Per-cell flip probability after ``exposures`` half-selects
        (``exposures`` may be fractional: a mean exposure count)."""
        require_non_negative(exposures, "exposures")
        single = np.clip(
            self.half_select_table[np.asarray(stored_bits), nd, ng],
            0.0, 1.0 - 1e-15)
        return 1.0 - (1.0 - single) ** exposures

    def retention_flip_probability(self, stored_bits, nd, ng, interval):
        """Per-cell retention-flip probability over ``interval`` [s].

        ``interval == 0`` is a valid zero-dwell window (a scrub
        immediately followed by an access) and yields probability 0.
        """
        require_non_negative(interval, "interval")
        rate = self.retention_rate_table[np.asarray(stored_bits), nd, ng]
        return -np.expm1(-rate * interval)

    # -- flat per-class probability views -----------------------------------
    #
    # The binomial fast path draws per *coupling class* rather than per
    # cell; these views expose the tables in class_index order (bit
    # major, then n_direct, then n_diagonal — the tables' memory
    # layout), so ``flat[class_index(bit, nd, ng)] == table[bit, nd,
    # ng]`` exactly.

    def wer_class_probability(self):
        """Flat (50,) per-class write-error probability."""
        return self.wer_table.reshape(-1)

    def disturb_class_probability(self):
        """Flat (50,) per-class single-read disturb probability."""
        return self.disturb_table.reshape(-1)

    def retention_class_probability(self, interval):
        """Flat (50,) per-class retention-flip probability over
        ``interval`` [s] (``interval == 0`` allowed, yielding zeros)."""
        require_non_negative(interval, "interval")
        return -np.expm1(-self.retention_rate_table.reshape(-1)
                         * interval)

    def half_select_class_probability(self, exposures):
        """Flat (50,) per-class flip probability after ``exposures``
        half-selects (fractional exposure counts allowed)."""
        require_non_negative(exposures, "exposures")
        single = np.clip(self.half_select_table.reshape(-1), 0.0,
                         1.0 - 1e-15)
        return 1.0 - (1.0 - single) ** exposures

    def describe(self):
        """Summary dict (for reports and the CLI header)."""
        out = {
            "pitch_nm": self.layout.pitch * 1e9,
            "rows": self.layout.rows,
            "cols": self.layout.cols,
            "n_words": self.words.n_words,
            "code_bits": self.ecc.n_code,
            "data_bits": self.ecc.n_data,
            "vp": self.vp,
            "t_pulse0_ns": self.t_pulse[0] * 1e9,
            "t_pulse1_ns": self.t_pulse[1] * 1e9,
            "nominal_wer": self.nominal_wer,
            "wer_spread": float(self.wer_table.max()
                                / self.wer_table.min()),
        }
        if self.sense is not None:
            out["sense"] = self.sense.describe()
        return out
