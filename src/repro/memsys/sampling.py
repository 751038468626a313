"""Rare-event flip sampling: class-grouped binomial draws.

Every per-cell error probability in the memsys stack is a pure function
of the cell's coupling class — (stored/target bit, direct AP-neighbor
count, diagonal AP-neighbor count) — so a whole array, or any accessed
subset of it, takes at most ``2 x 5 x 5 = 50`` distinct probabilities
(the controller's probability tables). The reference ``bernoulli``
sampler draws one uniform per cell per mechanism; at rare-event
operating points (WER <= 1e-6) that is billions of uniforms per
observed flip. The ``binomial`` sampler instead

1. classifies cells into their 50 classes (:func:`class_index`),
2. histograms the classes (``np.bincount``),
3. draws one flip *count* per class (``rng.binomial(n_c, p_c)``),
4. places the (few) flips uniformly within each class group.

Cost: O(cells classified + flips drawn) instead of O(cells) uniform
draws — and :class:`IncrementalClassMaps` maintains the classification
itself incrementally between engine batches, leaving the per-batch
whole-array sampling cost at O(50 + flips).

The two samplers are statistically equivalent: a sum of independent
equal-``p`` Bernoulli draws is ``Binomial(n, p)``, and cells of one
class are exchangeable, so placing ``k`` flips uniformly without
replacement reproduces the conditional law of the Bernoulli field given
its per-class counts. Seeded runs of either sampler are individually
deterministic; their streams differ, but every expected counter agrees
(see ``tests/test_memsys_sampling.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .bitplane import popcount_rows, unpack_bits
from .controller import neighborhood_class_map

#: Number of coupling classes: bit x n_direct x n_diagonal.
N_CLASSES = 2 * 5 * 5

#: Sampler registry names accepted by the engine and the CLI.
SAMPLERS = ("bernoulli", "binomial")


def validate_sampler(name):
    """Return ``name`` if it names a known sampler, else raise."""
    if name not in SAMPLERS:
        raise ParameterError(
            f"unknown sampler {name!r}; choose from {sorted(SAMPLERS)}")
    return name


def class_index(bits, nd, ng):
    """Flat 0..49 coupling-class index: ``bit * 25 + nd * 5 + ng``.

    Matches the memory order of the controller's ``(2, 5, 5)``
    probability tables, so ``table.reshape(-1)[class_index(...)]``
    equals ``table[bits, nd, ng]``. Computed in int8 throughout: the
    largest class, 49, fits.
    """
    idx = (np.asarray(bits, dtype=np.int8) * np.int8(25)
           + np.asarray(nd, dtype=np.int8) * np.int8(5))
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

    Callers on a hot loop may pass ``p_max`` (with ``p_class`` already
    clipped to [0, 1]) to skip the per-call table scan.
    """
    if p_max is None:
        p_class = np.clip(np.asarray(p_class, dtype=float), 0.0, 1.0)
        p_max = float(p_class.max())
    p = p_class
    if p_max <= 0.0 or n <= 0:
        return np.empty(0, dtype=np.intp)
    k = int(rng.binomial(int(n), p_max))
    if k == 0:
        return np.empty(0, dtype=np.intp)
    candidates = rng.choice(int(n), size=k, replace=False)
    accept = rng.random(k) * p_max < p[class_of(candidates)]
    return candidates[accept]


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


class IncrementalClassMaps:
    """Per-cell coupling-class state, refreshed incrementally.

    Holds, for every cell of the array (mapped words plus unmapped
    tail), the ``(n_direct, n_diagonal)`` AP-neighbor counts, the
    combined 0..49 :func:`class_index`, and the 50-bin class histogram
    the binomial sampler draws from.

    :meth:`refresh` diffs the current ``actual`` plane against a packed
    snapshot of the plane at the previous refresh (XOR + popcount, so
    the diff costs word-wide bit ops). When the touched fraction is
    small the neighbor counts are updated in place around the changed
    cells only — O(changed x 9); past :attr:`full_rebuild_fraction` of
    the array a full vectorized
    :func:`~repro.memsys.controller.neighborhood_class_map` recompute
    is cheaper and the maps rebuild from scratch.

    ``backend`` (see :mod:`repro.memsys.backends`) may take over the
    diff popcount, the full rebuild, and the incremental update via its
    kernel hooks; any hook returning ``None`` falls through to the
    reference numpy path, and the maps are identical either way. A
    backend may also retune :attr:`full_rebuild_fraction` through its
    ``preferred_rebuild_fraction`` (an explicit
    ``full_rebuild_fraction`` argument still wins).
    """

    #: Touched-cell fraction above which a full rebuild wins over
    #: scattered in-place updates (each changed cell touches itself
    #: plus 8 neighbors via ``np.add.at``). Measured crossover (numpy
    #: 2.4, 2 cores; median refresh of random toggles / whole-word
    #: rewrites vs a rebuild): 1024 x 1024 rebuilds in 3.0 ms, and the
    #: incremental update costs 2.7 / 1.9 ms at 0.1% churn, 3.7 /
    #: 2.5 ms at 0.15%; a 256 x 256 shard rebuilds in 0.18 ms against
    #: 0.20 / 0.23 ms at 0.02%, 0.31 / 0.32 ms at 0.1%. 0.1% is the
    #: large array's crossover and costs a shard at most ~0.1 ms per
    #: refresh. Measured engine churn is far above it — flat
    #: write-heavy ~20%, banked shards ~30%, flat read-heavy ~2.8% per
    #: batch — so those batches rebuild; sparse rare-event flips stay
    #: incremental.
    full_rebuild_fraction = 0.001

    _DIRECT_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
    _DIAGONAL_OFFSETS = ((-1, -1), (-1, 1), (1, -1), (1, 1))

    def __init__(self, rows, cols, plane, full_rebuild_fraction=None,
                 backend=None):
        self.rows = int(rows)
        self.cols = int(cols)
        if self.rows * self.cols != plane.n_cells:
            raise ParameterError(
                f"plane has {plane.n_cells} cells, expected "
                f"{rows} x {cols}")
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

    # -- refresh ------------------------------------------------------------

    def refresh(self, plane):
        """Bring the maps up to date with ``plane``.

        Cheap no-op when nothing changed since the last refresh (one
        XOR + popcount over the packed lanes).
        """
        snap = self._snapshot
        per_word = None
        if self.backend is not None:
            # Fused XOR + popcount: no whole-plane XOR temp.
            per_word = self.backend.xor_popcount_rows(snap.lanes,
                                                      plane.lanes)
        xor = None
        if per_word is None:
            xor = snap.lanes ^ plane.lanes
            per_word = popcount_rows(xor)
        tail_changed = np.flatnonzero(snap.tail != plane.tail)
        n_changed = int(per_word.sum()) + tail_changed.size
        if n_changed == 0:
            return
        if n_changed > self.full_rebuild_fraction * plane.n_cells:
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
        bits = plane.to_bits()
        rebuilt = (self.backend.rebuild_class_maps(bits, self.rows,
                                                   self.cols)
                   if self.backend is not None else None)
        if rebuilt is not None:
            self.nd, self.ng, self.class_idx, self.hist = rebuilt
        else:
            nd2, ng2 = neighborhood_class_map(
                bits.reshape(self.rows, self.cols))
            self.nd = nd2.reshape(-1)
            self.ng = ng2.reshape(-1)
            self.class_idx = class_index(bits, self.nd, self.ng)
            self.hist = class_histogram(self.class_idx)
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
            affected = self._update_counts_scalar(changed, new_bits)
        else:
            affected = self._update_counts_vector(changed, new_bits)
        old_ci = self.class_idx[affected]
        new_ci = class_index(plane.get_cells(affected),
                             self.nd[affected], self.ng[affected])
        self.class_idx[affected] = new_ci
        np.subtract.at(self.hist, old_ci, 1)
        np.add.at(self.hist, new_ci, 1)

    def _update_counts_scalar(self, changed, new_bits):
        rows, cols = self.rows, self.cols
        nd, ng = self.nd, self.ng
        affected = set()
        for i in range(changed.size):
            idx = int(changed[i])
            delta = 2 * int(new_bits[i]) - 1  # 0->1: +1, 1->0: -1
            r, c = divmod(idx, cols)
            affected.add(idx)
            for dr in (-1, 0, 1):
                rr = r + dr
                if not 0 <= rr < rows:
                    continue
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    cc = c + dc
                    if not 0 <= cc < cols:
                        continue
                    j = rr * cols + cc
                    if dr == 0 or dc == 0:
                        nd[j] += delta
                    else:
                        ng[j] += delta
                    affected.add(j)
        return np.fromiter(affected, dtype=np.intp,
                           count=len(affected))

    def _update_counts_vector(self, changed, new_bits):
        delta = (new_bits.astype(np.int8) * 2 - 1)
        r, c = np.divmod(changed, self.cols)
        nd2 = self.nd.reshape(self.rows, self.cols)
        ng2 = self.ng.reshape(self.rows, self.cols)
        affected = [changed]
        for grid, offsets in ((nd2, self._DIRECT_OFFSETS),
                              (ng2, self._DIAGONAL_OFFSETS)):
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                ok = ((rr >= 0) & (rr < self.rows)
                      & (cc >= 0) & (cc < self.cols))
                if not np.any(ok):
                    continue
                np.add.at(grid, (rr[ok], cc[ok]), delta[ok])
                affected.append(rr[ok] * self.cols + cc[ok])
        return np.unique(np.concatenate(affected))

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
