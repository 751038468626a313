"""Numba-JIT kernels for the binomial engine's four hot loops.

Each kernel is written as a plain scalar loop over flat indices — the
fidimag ``lib/`` idiom: precompute nothing fancy, walk a flat
neighbor-index pattern, and let the compiler remove the dispatch —
then wrapped by ``@njit`` when numba imports. Without numba the
module still imports and every kernel runs as ordinary (slow) Python,
which is what lets the parity/property tests exercise the exact
compiled logic on machines without the ``[fast]`` extra; the registry
(:func:`repro.memsys.backends.resolve_backend`) never *selects* this
backend there, it falls back to numpy with one warning.

Two deliberate representation choices keep the kernels simple and
portable:

* All bit manipulation happens on ``uint8`` views of the uint64
  lanes. ``LANE_DTYPE`` is explicitly little-endian, so byte ``k`` of
  a lane always holds codeword bits ``8k..8k+7`` regardless of
  platform, and staying in uint8/int64 arithmetic sidesteps numba's
  uint64/int64 promotion pitfalls.
* The class-map kernels mutate the caller's arrays in place and
  deduplicate touched cells with a sort + scan over a small scratch
  buffer (at most ``9 x changed`` entries), not a whole-array pass.

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

#: Set-bit count of every byte value, as int64 so kernel sums never
#: touch uint8 accumulation.
_TABLE64 = np.array([bin(i).count("1") for i in range(256)],
                    dtype=np.int64)


@njit(cache=True)
def _xor_popcount_rows(a8, b8, table, out):
    """Per-row popcount of ``a ^ b`` over uint8 views, no XOR temp."""
    n, m = a8.shape
    for i in range(n):
        total = 0
        for j in range(m):
            total += table[a8[i, j] ^ b8[i, j]]
        out[i] = total


@njit(cache=True)
def _block_class_index(halo, top, n_rows, class_idx, hist):
    """Fused block rebuild: neighbor counts + class + histogram.

    ``halo`` is a ``(h, cols)`` block of bits with its neighbor rows;
    its rows ``[top, top + n_rows)`` are classified into the flat
    ``class_idx`` block, counting each class into ``hist``. One pass
    replaces the reference's three vectorized stages (padded separable
    sums, class_index, byte-pair histogram) and their temporaries.
    Missing neighbors beyond the halo count as 0 (P) — the dummy-cell
    boundary convention.
    """
    h, cols = halo.shape
    for k in range(n_rows):
        r = top + k
        up = r > 0
        down = r < h - 1
        for c in range(cols):
            left = c > 0
            right = c < cols - 1
            d = 0
            g = 0
            if up:
                d += halo[r - 1, c]
                if left:
                    g += halo[r - 1, c - 1]
                if right:
                    g += halo[r - 1, c + 1]
            if down:
                d += halo[r + 1, c]
                if left:
                    g += halo[r + 1, c - 1]
                if right:
                    g += halo[r + 1, c + 1]
            if left:
                d += halo[r, c - 1]
            if right:
                d += halo[r, c + 1]
            ci = halo[r, c] * 25 + d * 5 + g
            class_idx[k * cols + c] = ci
            hist[ci] += 1


@njit(cache=True)
def _apply_class_changes(changed, new_bits, class_idx, hist, cells,
                         weights, rows, cols):
    """Incremental class-map update around ``changed`` cells.

    Every changed cell has been toggled exactly once since the last
    refresh; ``new_bits`` holds its *new* value. A toggle moves the
    cell's own class by +-25, each direct neighbor's by +-5 and each
    diagonal neighbor's by +-1 (the class digits ``bit, nd, ng``).
    The touched cells and their class changes collect into ``cells`` /
    ``weights`` (<= 9 per change) with a flat index walk (the fidimag
    neighbor pattern); each distinct touched cell leaves its old
    histogram bin before the changes land and enters its new one after.
    """
    m = 0
    for k in range(changed.size):
        i = changed[k]
        sign = 2 * new_bits[k] - 1  # 0 -> 1: +1, 1 -> 0: -1
        r = i // cols
        c = i % cols
        for dr in range(-1, 2):
            rr = r + dr
            if rr < 0 or rr >= rows:
                continue
            for dc in range(-1, 2):
                cc = c + dc
                if cc < 0 or cc >= cols:
                    continue
                if dr == 0 and dc == 0:
                    weight = 25
                elif dr == 0 or dc == 0:
                    weight = 5
                else:
                    weight = 1
                cells[m] = rr * cols + cc
                weights[m] = sign * weight
                m += 1
    touched = np.sort(cells[:m])
    prev = -1
    for k in range(m):
        j = touched[k]
        if j != prev:
            hist[class_idx[j]] -= 1
            prev = j
    for k in range(m):
        class_idx[cells[k]] += weights[k]
    prev = -1
    for k in range(m):
        j = touched[k]
        if j != prev:
            hist[class_idx[j]] += 1
            prev = j


@njit(cache=True)
def _group_class_members(flat, cursor, order):
    """Counting-sort grouping: scatter each cell into its class slot.

    ``cursor`` starts at each class's group offset and advances as
    members land, so within a class the member order is ascending —
    exactly the stable-argsort order of the reference, which keeps
    seeded ``rng.choice`` draws bit-identical across backends.
    """
    for i in range(flat.size):
        c = flat[i]
        k = cursor[c]
        order[k] = i
        cursor[c] = k + 1


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
    """Compiled kernels for the binomial fast path.

    ``preferred_rebuild_fraction`` is raised well above the numpy
    default (0.001): the compiled incremental walk costs ~9 scalar
    updates per changed cell, so it beats a full rebuild up to far
    higher churn than scattered ``np.add.at`` does. The maps produced
    are identical either way — the threshold only picks which kernel
    computes them.
    """

    name = "numba"
    preferred_rebuild_fraction = 0.25

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
        from ..bitplane import BitPlane, popcount_rows
        from ..controller import neighborhood_class_map
        from ..sampling import IncrementalClassMaps, class_index

        rng = np.random.default_rng(0)
        lanes = rng.integers(0, 2**63, size=(5, 2)).astype("<u8")
        other = lanes.copy()
        other[2, 1] ^= np.uint64(0b1011)
        expect = popcount_rows(lanes ^ other)
        if not np.array_equal(self.xor_popcount_rows(lanes, other),
                              expect):
            raise AssertionError("xor_popcount_rows mismatch")

        rows, cols = 6, 7
        bits = rng.integers(0, 2, size=rows * cols).astype(np.int8)
        # 4 x 9-bit words over 42 cells: cells 36..41 are tail.
        plane = BitPlane.from_bits(bits, n_words=4, code_bits=9)
        maps = IncrementalClassMaps(rows, cols, plane, backend=self)
        nd_ref, ng_ref = neighborhood_class_map(
            bits.reshape(rows, cols))
        ci = class_index(bits, nd_ref.reshape(-1), ng_ref.reshape(-1))
        hist = np.bincount(ci, minlength=50)
        if not (np.array_equal(maps.class_idx, ci)
                and np.array_equal(maps.hist, hist)):
            raise AssertionError("rebuild_class_maps mismatch")
        flips = np.array([0, 8, 20, 41], dtype=np.int64)
        plane.toggle_cells(flips)
        maps._apply_changes(flips, plane)
        bits[flips] ^= 1
        nd_ref, ng_ref = neighborhood_class_map(
            bits.reshape(rows, cols))
        ci = class_index(bits, nd_ref.reshape(-1), ng_ref.reshape(-1))
        hist = np.bincount(ci, minlength=50)
        if not (np.array_equal(maps.class_idx, ci)
                and np.array_equal(maps.hist, hist)):
            raise AssertionError("apply_class_changes mismatch")

        order, bounds = self.group_class_members(ci, hist)
        ref = np.argsort(ci, kind="stable")
        if not np.array_equal(order, ref):
            raise AssertionError("group_class_members mismatch")

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

    def xor_popcount_rows(self, a, b):
        a8 = np.ascontiguousarray(a).view(np.uint8)
        b8 = np.ascontiguousarray(b).view(np.uint8)
        out = np.empty(a8.shape[0], dtype=np.int64)
        _xor_popcount_rows(a8, b8, _TABLE64, out)
        return out

    def rebuild_class_maps(self, maps, plane):
        from ..sampling import halo_blocks
        hist = np.zeros(50, dtype=np.int64)
        grid = maps.class_idx.reshape(maps.rows, maps.cols)
        for lo, hi, halo, top in halo_blocks(plane, maps.rows,
                                             maps.cols):
            _block_class_index(halo, top, hi - lo,
                               grid[lo:hi].reshape(-1), hist)
        return hist

    def apply_class_changes(self, maps, changed, new_bits, plane):
        changed = np.ascontiguousarray(changed, dtype=np.int64)
        new_bits = np.ascontiguousarray(new_bits, dtype=np.int64)
        cells = np.empty(changed.size * 9, dtype=np.int64)
        weights = np.empty(changed.size * 9, dtype=np.int64)
        _apply_class_changes(changed, new_bits, maps.class_idx,
                             maps.hist, cells, weights, maps.rows,
                             maps.cols)
        return True

    def group_class_members(self, class_idx, hist):
        bounds = np.empty(hist.size + 1, dtype=np.int64)
        bounds[0] = 0
        np.cumsum(hist, out=bounds[1:])
        cursor = bounds[:-1].copy()
        order = np.empty(class_idx.size, dtype=np.int64)
        _group_class_members(class_idx, cursor, order)
        return order, bounds

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
