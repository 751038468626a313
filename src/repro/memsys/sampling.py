"""Rare-event flip sampling: class-grouped binomial draws.

Every per-cell error probability in the memsys stack is a pure function
of the cell's coupling class — (stored/target bit, direct AP-neighbor
count, diagonal AP-neighbor count) — so a whole array, or any accessed
subset of it, takes at most ``2 x 5 x 5 = 50`` distinct probabilities
(the controller's probability tables). Drawing one uniform per cell per
mechanism would, at rare-event operating points (WER <= 1e-6), spend
billions of uniforms per observed flip. The engine's sampler instead

1. classifies cells into their 50 classes (:func:`class_index`),
2. histograms the classes (``np.bincount``),
3. draws one flip *count* per class (``rng.binomial(n_c, p_c)``),
4. places the (few) flips uniformly within each class group.

Cost: O(cells classified + flips drawn) instead of O(cells) uniform
draws — and :class:`IncrementalClassMaps` maintains the classification
itself incrementally between engine batches, leaving the per-batch
whole-array sampling cost at O(50 + flips).

The draws are exact, not an approximation of the per-cell field: a sum
of independent equal-``p`` Bernoulli draws is ``Binomial(n, p)``, and
cells of one class are exchangeable, so placing ``k`` flips uniformly
without replacement reproduces the conditional law of the Bernoulli
field given its per-class counts. The test suite keeps a per-cell
reference state and checks the engine's counters against it
statistically (``tests/memsys_reference.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .bitplane import popcount_rows, row_blocks, unpack_bits

#: Number of coupling classes: bit x n_direct x n_diagonal.
N_CLASSES = 2 * 5 * 5

def class_index(bits, nd, ng, out=None):
    """Flat 0..49 coupling-class index: ``bit * 25 + nd * 5 + ng``.

    Matches the memory order of the controller's ``(2, 5, 5)``
    probability tables, so ``table.reshape(-1)[class_index(...)]``
    equals ``table[bits, nd, ng]``. Computed in int8 throughout (the
    largest class, 49, fits), into ``out`` when given.
    """
    idx = np.multiply(np.asarray(bits, dtype=np.int8), np.int8(25),
                      out=out)
    idx += np.asarray(nd, dtype=np.int8) * np.int8(5)
    idx += np.asarray(ng, dtype=np.int8)
    return idx


def class_histogram(class_idx):
    """50-bin histogram of an int8 array of 0..49 classes.

    ``np.bincount`` would cast every int8 class to an intp (an 8x copy
    of a whole-array map). Counting byte *pairs* through the ``uint16``
    view halves both that cast and the count loop; each pair value is
    ``lo + 256 * hi`` (the byte order decides which byte is which, and
    both are counted), so summing the ``(hi, lo)`` table along either
    axis recovers one byte's classes. An odd trailing byte is added on
    its own.
    """
    flat = np.ascontiguousarray(class_idx, dtype=np.int8).reshape(-1)
    n_even = flat.size - flat.size % 2
    pairs = np.bincount(flat[:n_even].view(np.uint16),
                        minlength=256 * N_CLASSES)
    table = pairs.reshape(N_CLASSES, 256)
    hist = table.sum(axis=1) + table[:, :N_CLASSES].sum(axis=0)
    if n_even < flat.size:
        hist[flat[-1]] += 1
    return hist


def sample_thinned_flips(n, p_class, class_of, rng, p_max=None):
    """Flat indices of flipped cells among ``n`` accessed cells.

    The class-grouped draw of :func:`sample_class_flips` needs the
    class histogram of the sampled population — O(cells) to build for a
    freshly gathered access batch. For *accessed subsets* (the cells of
    one round's writes or reads) this thinned variant is exact at
    O(candidates) instead: draw the candidate count from ``Binomial(n,
    p_max)`` where ``p_max = max(p_class)``, place candidates by index
    choice, then classify only the candidates (``class_of(idx) ->
    0..49``) and accept each with ``p_class[class] / p_max``.

    Equivalence: i.i.d. ``Bernoulli(p_max)`` indicators over ``n``
    cells have exactly the law Binomial-total + uniform placement
    (exchangeability), and independent acceptance with ``p_c / p_max``
    thins each candidate to ``Bernoulli(p_c)`` — the target field.

    ``n`` may also be a sequence of population sizes with ``rng`` a
    matching sequence of generators: consecutive populations (indices
    run on across them), each drawing its candidates from its own
    generator exactly as it would alone, and one ``class_of`` call
    classifying every candidate.

    Callers on a hot loop may pass ``p_max`` (with ``p_class`` already
    clipped to [0, 1]) to skip the per-call table scan.
    """
    if p_max is None:
        p_class = np.clip(np.asarray(p_class, dtype=float), 0.0, 1.0)
        p_max = float(p_class.max())
    if p_max <= 0.0:
        return np.empty(0, dtype=np.intp)
    if not isinstance(n, (list, tuple)):
        n, rng = (n,), (rng,)
    candidates, uniforms = [], []
    base = 0
    for size, gen in zip(n, rng):
        size = int(size)
        if size > 0:
            k = int(gen.binomial(size, p_max))
            if k:
                candidates.append(gen.choice(size, size=k, replace=False)
                                  + base)
                uniforms.append(gen.random(k))
        base += size
    if not candidates:
        return np.empty(0, dtype=np.intp)
    if len(candidates) > 1:
        candidates = [np.concatenate(candidates)]
        uniforms = [np.concatenate(uniforms)]
    accept = uniforms[0] * p_max < p_class[class_of(candidates[0])]
    return candidates[0][accept]


def sample_class_flips(class_idx, p_class, rng, hist=None,
                       backend=None):
    """Flat indices of flipped cells among ``class_idx``.

    ``class_idx`` is any-shape array of 0..49 classes (flattened
    internally; returned indices address the flattened view).
    ``p_class`` is the flat ``(50,)`` per-class flip probability.
    ``hist`` is the precomputed class histogram when the caller
    maintains one (:class:`IncrementalClassMaps`); recomputed otherwise.
    ``backend`` is an optional engine backend (see
    :mod:`repro.memsys.backends`) whose ``group_class_members`` hook
    may replace the stable-argsort grouping with a counting sort; both
    yield ascending member order per class, so the seeded draws are
    bit-identical either way.

    One vectorized ``rng.binomial`` over the 50 classes, then one
    ``rng.choice`` per class that actually flipped — at rare-event
    rates the common case is an immediate empty return.
    """
    flat = np.asarray(class_idx).reshape(-1)
    if hist is None:
        hist = np.bincount(flat, minlength=N_CLASSES)
    p = np.clip(np.asarray(p_class, dtype=float), 0.0, 1.0)
    counts = rng.binomial(hist, p)
    hot = np.flatnonzero(counts)
    if hot.size == 0:
        return np.empty(0, dtype=np.intp)
    if hot.size == 1:
        members_by_class = {int(hot[0]):
                            np.flatnonzero(flat == hot[0])}
    else:
        # One stable grouping pass instead of a whole-array scan per
        # hot class; stable sort keeps each group ascending, exactly
        # like flatnonzero, so the draws are unchanged.
        grouped = (backend.group_class_members(flat, hist)
                   if backend is not None else None)
        if grouped is not None:
            order, bounds = grouped
        else:
            order = np.argsort(flat, kind="stable")
            bounds = np.concatenate([[0], np.cumsum(hist)])
        members_by_class = {int(c): order[bounds[c]:bounds[c + 1]]
                            for c in hot}
    picks = []
    for c in hot:
        picks.append(rng.choice(members_by_class[int(c)],
                                size=int(counts[c]), replace=False))
    return np.concatenate(picks)


def halo_blocks(plane, rows, cols):
    """``(lo, hi, halo, top)`` of every row block of ``plane``.

    ``halo`` is the block's rows ``[lo - top, min(hi + 1, rows))``
    unpacked to a 2-D int8 array: the block plus the neighbor row on
    each side that exists (``top`` is 1 unless the block starts at row
    0), so the block's classes match a whole-array pass exactly.
    """
    for lo, hi in row_blocks(rows, cols):
        top = 1 if lo else 0
        halo = plane.to_bits((lo - top) * cols, min(hi + 1, rows) * cols)
        yield lo, hi, halo.reshape(-1, cols), top


def rebuild_class_index(plane, rows, cols, out):
    """Rebuild a plane's class map in row blocks; returns its histogram.

    ``plane`` is a packed :class:`~repro.memsys.bitplane.BitPlane` of
    ``rows x cols`` row-major cells (mapped words plus unmapped tail);
    ``out`` is the flat int8 ``(rows * cols,)`` class map, filled in
    place. Each block of rows unpacks straight from the lanes, with one
    halo row above and below, into one reused zero-bordered uint8 pad;
    the class ``25 * bit + 5 * (pair + up + down) + pair_up +
    pair_down`` (``pair`` a row's left + right neighbor sum, as in
    :func:`~repro.memsys.controller.neighborhood_class_map`) is summed
    in place in the block's slice of ``out``, then counted by
    :func:`class_histogram` — so no temporary is larger than a block,
    whatever the array size.
    """
    hist = np.zeros(N_CLASSES, dtype=np.int64)
    grid = out.reshape(rows, cols).view(np.uint8)
    blocks = row_blocks(rows, cols)
    step = blocks[0][1] - blocks[0][0]
    pad = np.zeros((step + 2, cols + 2), dtype=np.uint8)
    pair_buf = np.empty((step + 2, cols), dtype=np.uint8)
    for lo, hi in blocks:
        n = hi - lo
        top = 1 if lo else 0
        bottom = 1 if hi < rows else 0
        # Pad row i holds array row lo - 1 + i; rows past either array
        # edge stay zero (the last block may be short: zero the row
        # below it, which an earlier block may have filled).
        pad[1 - top:n + 1 + bottom, 1:-1] = plane.to_bits(
            (lo - top) * cols, (hi + bottom) * cols).reshape(-1, cols)
        if not bottom:
            pad[n + 1] = 0
        pair = np.add(pad[:n + 2, :-2], pad[:n + 2, 2:],
                      out=pair_buf[:n + 2])
        cls = np.multiply(pad[1:n + 1, 1:-1], np.uint8(5), out=grid[lo:hi])
        cls += pair[1:-1]
        cls += pad[:n, 1:-1]
        cls += pad[2:n + 2, 1:-1]
        cls *= np.uint8(5)
        cls += pair[:-2]
        cls += pair[2:]
        hist += class_histogram(cls.view(np.int8))
    return hist


class IncrementalClassMaps:
    """Per-cell coupling classes of one array, refreshed incrementally.

    Holds one int8 0..49 :func:`class_index` per cell of the array
    (mapped words plus unmapped tail) and the 50-bin class histogram
    the binomial sampler draws from — one byte per cell in all. The
    ``(n_direct, n_diagonal)`` AP-neighbor counts are not stored: they
    are digits of the class (``class = bit * 25 + nd * 5 + ng``), and
    :attr:`nd` / :attr:`ng` derive them on request.

    :meth:`refresh` diffs the current ``actual`` plane against a packed
    snapshot of the plane at the previous refresh (XOR + popcount, so
    the diff costs word-wide bit ops). When the touched fraction is
    small the classes are updated in place around the changed cells
    only — O(changed x 9): a toggled cell moves its own class by
    +-25, each direct neighbor's by +-5 and each diagonal neighbor's by
    +-1. Past :attr:`full_rebuild_fraction` of the array the map
    rebuilds from the packed plane in row blocks
    (:func:`rebuild_class_index`); when the count of changed lanes
    alone is past it, the rebuild starts without the popcount.

    ``backend`` (see :mod:`repro.memsys.backends`) may take over the
    diff popcount, the full rebuild, and the incremental update via its
    kernel hooks; any hook returning ``None`` falls through to the
    reference numpy path, and the maps are identical either way. A
    backend may also retune :attr:`full_rebuild_fraction` through its
    ``preferred_rebuild_fraction`` (an explicit
    ``full_rebuild_fraction`` argument still wins).

    ``out`` is optional int8 storage of ``rows * cols`` cells that the
    class map is kept in, in place — how :func:`stacked_class_maps`
    lays many shards' maps side by side.
    """

    #: Touched-cell fraction above which a full rebuild wins over
    #: scattered in-place updates (each changed cell touches itself
    #: plus 8 neighbors). Measured crossover (numpy 2.4, 2 cores;
    #: median refresh of random toggles / whole-word rewrites vs a
    #: block rebuild, two runs): 1024 x 1024 rebuilds in 2.9-3.9 ms,
    #: and the incremental update costs 1.8-2.3 / 1.5 ms at 0.1%
    #: churn, 2.7-2.9 / 1.9 ms at 0.15%, 3.4-3.6 / 2.3 ms at 0.2%; a
    #: 256 x 256 shard rebuilds in 0.23-0.25 ms against 0.35 / 0.37 ms
    #: at 0.02%, 0.41 / 0.38 ms at 0.1%. The large array's crossover
    #: moved up to ~0.15% while a shard still rebuilds cheaper at any
    #: vectorized churn, so 0.1% stays: it costs a large array at most
    #: ~1 ms and a shard at most ~0.2 ms per refresh. Measured engine
    #: churn is far above it — flat write-heavy ~20%, banked shards
    #: ~30%, flat read-heavy ~2.8% per batch — so those batches
    #: rebuild; sparse rare-event flips stay incremental.
    full_rebuild_fraction = 0.001

    #: ``(row offset, col offset, class weight)`` of a toggled cell's
    #: own class and its eight neighbors' classes.
    _NEIGHBORHOOD = tuple((dr, dc, (25, 5, 1)[abs(dr) + abs(dc)])
                          for dr in (-1, 0, 1) for dc in (-1, 0, 1))

    def __init__(self, rows, cols, plane, full_rebuild_fraction=None,
                 backend=None, out=None):
        self.rows = int(rows)
        self.cols = int(cols)
        if self.rows * self.cols != plane.n_cells:
            raise ParameterError(
                f"plane has {plane.n_cells} cells, expected "
                f"{rows} x {cols}")
        self.class_idx = (out if out is not None
                          else np.empty(plane.n_cells, dtype=np.int8))
        self.backend = backend
        if full_rebuild_fraction is not None:
            self.full_rebuild_fraction = float(full_rebuild_fraction)
        elif (backend is not None
                and backend.preferred_rebuild_fraction is not None):
            self.full_rebuild_fraction = float(
                backend.preferred_rebuild_fraction)
        self.rebuilds = 0
        self.incremental_refreshes = 0
        self._rebuild(plane)

    @property
    def nd(self):
        """Direct AP-neighbor count of every cell (derived, int8)."""
        return self.class_idx % np.int8(25) // np.int8(5)

    @property
    def ng(self):
        """Diagonal AP-neighbor count of every cell (derived, int8)."""
        return self.class_idx % np.int8(5)

    # -- refresh ------------------------------------------------------------

    def refresh(self, plane):
        """Bring the maps up to date with ``plane``.

        Cheap no-op when nothing changed since the last refresh (one
        XOR + popcount over the packed lanes).
        """
        snap = self._snapshot
        limit = self.full_rebuild_fraction * plane.n_cells
        per_word = None
        if self.backend is not None:
            # Fused XOR + popcount: no whole-plane XOR temp.
            per_word = self.backend.xor_popcount_rows(snap.lanes,
                                                      plane.lanes)
        xor = None
        if per_word is None:
            xor = snap.lanes ^ plane.lanes
            # Every changed lane holds at least one changed cell, so
            # past the limit in lanes the rebuild is already decided
            # (the high-churn common case skips the popcount).
            if np.count_nonzero(xor) > limit:
                self._rebuild(plane)
                return
            per_word = popcount_rows(xor)
        tail_changed = np.flatnonzero(snap.tail != plane.tail)
        n_changed = int(per_word.sum()) + tail_changed.size
        if n_changed == 0:
            return
        if n_changed > limit:
            self._rebuild(plane)
            return
        changed_words = np.flatnonzero(per_word)
        if changed_words.size:
            xor_changed = (xor[changed_words] if xor is not None
                           else snap.lanes[changed_words]
                           ^ plane.lanes[changed_words])
            diff_bits = unpack_bits(xor_changed, plane.code_bits)
            word_row, bit = np.nonzero(diff_bits)
            changed = changed_words[word_row] * plane.code_bits + bit
        else:
            changed = np.empty(0, dtype=np.intp)
        if tail_changed.size:
            changed = np.concatenate(
                [changed, tail_changed + plane.n_mapped])
        self._apply_changes(changed, plane)
        # Patch the snapshot in place — O(changed words), not a whole
        # plane copy per refresh.
        self._snapshot.lanes[changed_words] = plane.lanes[changed_words]
        self._snapshot.tail[tail_changed] = plane.tail[tail_changed]
        self.incremental_refreshes += 1

    def _rebuild(self, plane):
        hist = (self.backend.rebuild_class_maps(self, plane)
                if self.backend is not None else None)
        self.hist = (hist if hist is not None else rebuild_class_index(
            plane, self.rows, self.cols, self.class_idx))
        self._snapshot = plane.copy()
        self.rebuilds += 1

    def _apply_changes(self, changed, plane):
        """Scattered update: every changed cell toggled exactly once."""
        new_bits = plane.get_cells(changed)
        if self.backend is not None and self.backend.apply_class_changes(
                self, changed, new_bits, plane):
            return
        if changed.size <= 8:
            # The per-batch common case at rare-event rates is one or
            # two flipped cells; scalar neighbor updates beat a dozen
            # numpy dispatches by an order of magnitude.
            affected, delta = self._class_deltas_scalar(changed, new_bits)
        else:
            affected, delta = self._class_deltas_vector(changed, new_bits)
        old_ci = self.class_idx[affected]
        new_ci = old_ci + delta
        self.class_idx[affected] = new_ci
        np.subtract.at(self.hist, old_ci, 1)
        np.add.at(self.hist, new_ci, 1)

    def _class_deltas_scalar(self, changed, new_bits):
        """``(cells, class change)`` of every cell the toggles touch."""
        rows, cols = self.rows, self.cols
        deltas = {}
        for idx, bit in zip(changed.tolist(), new_bits.tolist()):
            sign = 2 * bit - 1  # 0->1: +1, 1->0: -1
            r, c = divmod(idx, cols)
            for dr, dc, weight in self._NEIGHBORHOOD:
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    j = rr * cols + cc
                    deltas[j] = deltas.get(j, 0) + sign * weight
        return (np.fromiter(deltas, dtype=np.intp, count=len(deltas)),
                np.fromiter(deltas.values(), dtype=np.int8,
                            count=len(deltas)))

    def _class_deltas_vector(self, changed, new_bits):
        sign = new_bits.astype(np.int8) * 2 - 1
        r, c = np.divmod(changed, self.cols)
        cells, weights = [], []
        for dr, dc, weight in self._NEIGHBORHOOD:
            rr, cc = r + dr, c + dc
            ok = ((rr >= 0) & (rr < self.rows)
                  & (cc >= 0) & (cc < self.cols))
            cells.append(rr[ok] * self.cols + cc[ok])
            weights.append(sign[ok] * np.int8(weight))
        affected, inverse = np.unique(np.concatenate(cells),
                                      return_inverse=True)
        delta = np.bincount(inverse, weights=np.concatenate(weights),
                            minlength=affected.size)
        return affected, delta.astype(np.int8)

    # -- class lookups -------------------------------------------------------

    def cell_classes(self, bits, cells):
        """Classes of ``cells`` when they hold ``bits``.

        The neighbor-count part comes from the maps (the batch's frozen
        classes); the bit part is the caller's — stored bits for a
        disturb draw, target bits for a write draw. ``bits`` and
        ``cells`` may be any matching shape (a whole access batch or
        the handful of candidates of a thinned draw).
        """
        neighbor_part = self.class_idx[cells] % 25
        return np.asarray(bits, dtype=np.int8) * np.int8(25) + neighbor_part


def stacked_class_maps(rows, cols, planes, backend=None):
    """Per-shard :class:`IncrementalClassMaps` over one stacked store.

    ``planes`` are the shards' ``rows x cols`` packed planes (views of
    one stacked plane). Shard ``s`` keeps its class map in row ``s`` of
    one shared ``(S, rows * cols)`` int8 array: a class lookup across
    shards is one gather at ``s * rows * cols + local``, while every
    refresh and rebuild stays shard-sized and no neighborhood crosses a
    shard edge (the ``-1``-at-the-boundary neighbor table of a
    multi-material mesh, here one table per subarray). Returns
    ``(maps, class_idx)``, ``class_idx`` the flat stacked class array.
    """
    class_idx = np.empty((len(planes), int(rows) * int(cols)),
                         dtype=np.int8)
    maps = [IncrementalClassMaps(rows, cols, plane, backend=backend,
                                 out=class_idx[s])
            for s, plane in enumerate(planes)]
    return maps, class_idx.reshape(-1)
