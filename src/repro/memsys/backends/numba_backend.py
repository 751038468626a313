"""Numba-JIT kernels for the binomial engine's two hot loops.

Each kernel is written as a plain scalar loop over flat indices — the
fidimag ``lib/`` idiom: precompute nothing fancy, walk the flat cell
indices, and let the compiler remove the dispatch —
then wrapped by ``@njit`` when numba imports. Without numba the
module still imports and every kernel runs as ordinary (slow) Python,
which is what lets the parity/property tests exercise the exact
compiled logic on machines without the ``[fast]`` extra; the registry
(:func:`repro.memsys.backends.resolve_backend`) never *selects* this
backend there, it falls back to numpy with one warning.

Two deliberate choices keep the kernels simple and portable:

* All bit manipulation happens on ``uint8`` views of the uint64
  lanes. ``LANE_DTYPE`` is explicitly little-endian, so byte ``k`` of
  a lane always holds codeword bits ``8k..8k+7`` regardless of
  platform, and staying in uint8/int64 arithmetic sidesteps numba's
  uint64/int64 promotion pitfalls.
* The kernels mutate the caller's arrays in place.

A one-time :meth:`NumbaEngineBackend.ready` self-check compiles every
kernel on tiny inputs and verifies it against the numpy reference, so
a numba/LLVM environment problem degrades to the numpy backend at
resolve time instead of crashing mid-run.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via python mode
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """No-numba stand-in: leave the kernel as plain Python."""
        def decorate(func):
            return func
        return decorate

@njit(cache=True)
def _toggle_and_count(i8, a8, tail, idx, err_count, code_bits,
                      n_mapped):
    """Fused toggle + exact per-word error-count maintenance.

    Flips ``actual`` at every flat cell index, updating the per-word
    mismatch counters against ``intended`` as it goes; returns the
    array-wide wrong-bit delta that keeps the engine's all-clean read
    short-circuit exact. Tail cells (beyond the word-mapped prefix)
    toggle without touching any counter, as in the reference.
    """
    delta_total = 0
    for k in range(idx.size):
        cell = idx[k]
        if cell < n_mapped:
            w = cell // code_bits
            b = cell % code_bits
            byte = b >> 3
            mask = np.uint8(1 << (b & 7))
            wrong_before = (a8[w, byte] & mask) != (i8[w, byte] & mask)
            a8[w, byte] ^= mask
            if wrong_before:
                err_count[w] -= 1
                delta_total -= 1
            else:
                err_count[w] += 1
                delta_total += 1
        else:
            tail[cell - n_mapped] = tail[cell - n_mapped] ^ 1
    return delta_total


@njit(cache=True)
def _inject_and_count(a8, cells, err_count, code_bits):
    """Write-error injection: every cell was just written clean, so
    each toggle makes exactly one new wrong bit."""
    for k in range(cells.size):
        cell = cells[k]
        w = cell // code_bits
        b = cell % code_bits
        a8[w, b >> 3] ^= np.uint8(1 << (b & 7))
        err_count[w] += 1


class NumbaEngineBackend:
    """Compiled kernels for the binomial fast path."""

    name = "numba"

    def __init__(self):
        self._ready = None
        self._error = None

    # -- availability -------------------------------------------------------

    def ready(self):
        """True once the kernels compiled and passed the self-check."""
        if self._ready is None:
            if not NUMBA_AVAILABLE:
                self._ready = False
                self._error = "numba is not installed"
            else:
                try:
                    self.self_check()
                except Exception as exc:  # degrade, never fail
                    self._ready = False
                    self._error = (f"kernel self-check failed: "
                                   f"{type(exc).__name__}: {exc}")
                else:
                    self._ready = True
        return self._ready

    def unavailable_reason(self):
        return self._error

    def self_check(self):
        """Compile every kernel on tiny inputs and verify it against
        the numpy reference; raises on any mismatch."""
        from ..bitplane import BitPlane

        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=42).astype(np.int8)
        # 4 x 8-bit words over 42 cells: cells 32..41 are tail.
        intended = BitPlane.from_bits(bits, n_words=4, code_bits=8)
        actual = intended.copy()
        err = np.zeros(4, dtype=np.int16)
        flips = np.array([0, 9, 17, 19, 34], dtype=np.int64)
        delta = self.toggle_and_count(intended, actual, flips, err)
        if (delta != 4
                or not np.array_equal(err, np.array([1, 1, 2, 0]))
                or not np.array_equal(actual.diff_counts(intended),
                                      np.array([1, 1, 2, 0]))
                or actual.tail[2] == intended.tail[2]):
            raise AssertionError("toggle_and_count mismatch")
        if self.toggle_and_count(intended, actual, flips, err) != -4:
            raise AssertionError("toggle_and_count undo mismatch")
        if int(err.sum()) != 0 or not np.array_equal(
                actual.tail, intended.tail):
            raise AssertionError("toggle_and_count undo mismatch")
        self.inject_and_count(actual, flips[:2], err)
        if not np.array_equal(err, np.array([1, 1, 0, 0])):
            raise AssertionError("inject_and_count mismatch")

    # -- kernel hooks -------------------------------------------------------

    def toggle_and_count(self, intended, actual, idx, err_count):
        idx = np.ascontiguousarray(idx, dtype=np.int64).reshape(-1)
        if idx.size == 0:
            return 0
        return int(_toggle_and_count(
            intended.lanes.view(np.uint8), actual.lanes.view(np.uint8),
            actual.tail, idx, err_count, actual.code_bits,
            actual.n_mapped))

    def inject_and_count(self, actual, cells, err_count):
        cells = np.ascontiguousarray(cells, dtype=np.int64).reshape(-1)
        if cells.size:
            _inject_and_count(actual.lanes.view(np.uint8), cells,
                              err_count, actual.code_bits)
        return int(cells.size)
