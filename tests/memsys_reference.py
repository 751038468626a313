"""Per-cell Monte-Carlo reference for the engine tests and benches.

The engine draws thinned binomial flip counts over bit-packed state
(``repro.memsys.engine._PackedState``) and settles each batch's
per-word access chains in a few vectorized passes. Its reference is
the per-cell Bernoulli field applied in order: one uniform per exposed
cell per mechanism against dense int8 planes, every word's accesses
replayed one after another — which is what the engine must reproduce
in law. That state and its in-order driver live here, outside the
product, and :func:`per_cell_reference` swaps them in for a block of
code: the statistical-equivalence tests and the speedup floors run the
same engine over both states and compare.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager

import numpy as np

from repro.memsys import engine as engine_module
from repro.memsys.bitplane import unpack_bits
from repro.memsys.controller import neighborhood_class_map
from repro.memsys.engine import _prof, _segments, _sizes


@contextmanager
def per_cell_reference():
    """Run every engine inside the block on :class:`_DenseState`.

    The driver looks ``_PackedState`` up in ``repro.memsys.engine`` at
    each run, so rebinding that global swaps the state of every run,
    stacked shards included; pool workers fork-started inside the block
    inherit the swap. Yields a counter shared with those workers of the
    reference states built, so a caller can check that a run — also one
    fanned out over processes — really took the per-cell path.
    """
    built = multiprocessing.Value("i", 0)

    class Counted(_DenseState):
        @classmethod
        def stacked(cls, engine, n_shards):
            with built.get_lock():
                built.value += 1
            return super().stacked(engine, n_shards)

    saved = engine_module._PackedState
    engine_module._PackedState = Counted
    try:
        yield built
    finally:
        engine_module._PackedState = saved


def _shard_of(bounds):
    """Owning shard of every position of a ``bounds``-cut array, or
    None when one shard owns them all."""
    if len(bounds) == 2:
        return None
    return np.repeat(np.arange(len(bounds) - 1), _sizes(bounds))


def _shard_sums(shard, values, n_shards):
    """Per-shard integer sums of ``values``, ``shard`` as from
    ``_shard_of``."""
    if shard is None:
        return [int(values.sum())]
    return np.bincount(shard, weights=values,
                       minlength=n_shards).astype(np.int64)


def _flip_counts(flips, bounds):
    """Per-shard totals of a ``(words, code_bits)`` flip mask."""
    shard = _shard_of(bounds)
    if shard is None:
        return [int(np.count_nonzero(flips))]
    return _shard_sums(shard, flips.sum(axis=1), len(bounds) - 1)


def _step_bounds(shard, n_shards):
    """Per-shard bounds of one step's accesses, ``shard`` the owning
    shard of each (ascending)."""
    return np.searchsorted(shard, np.arange(n_shards + 1)).tolist()


class _DenseState:
    """Dense int8 planes of the bernoulli reference path.

    Every mechanism draws one uniform per exposed cell against its
    class table gathered at ``(bit, nd, ng)``; ``nd``/``ng`` are the
    batch's coupling-class maps, recomputed whole at every batch
    boundary. Shard ``s`` owns cells ``[s * C, (s + 1) * C)`` of each
    plane (``C`` cells per shard, row-major), and word ``w`` of shard
    ``s`` its ``[w * code_bits, (w + 1) * code_bits)`` cells there —
    row ``[s, w]`` of a plane's :meth:`_by_word` view, so accesses
    gather whole words and no per-cell index table exists.
    """

    def __init__(self, intended, actual, controller):
        self.intended = intended
        self.actual = actual
        self.nd = self.ng = self.word_maps = None
        self.wer_p = controller.wer_class_probability().reshape(2, 5, 5)
        self.disturb_p = controller.disturb_class_probability().reshape(
            2, 5, 5)
        layout = controller.layout
        self.shape = (-1, layout.rows, layout.cols)
        self.shard_cells = layout.n_cells
        self.code_bits = controller.words.code_bits
        self.shard_words = controller.words.n_words
        self.intended_words = self._by_word(intended)
        self.actual_words = self._by_word(actual)

    @classmethod
    def stacked(cls, engine, n_shards):
        """Zeroed planes for ``n_shards`` shards of ``engine``'s array."""
        cells = n_shards * engine.controller.layout.n_cells
        return cls(np.zeros(cells, dtype=np.int8),
                   np.zeros(cells, dtype=np.int8), engine.controller)

    def _shard(self, shard):
        return slice(shard * self.shard_cells,
                     (shard + 1) * self.shard_cells)

    def _by_word(self, flat):
        """``(shards, words, code_bits)`` view of a flat per-cell array:
        the mapped cells of each shard, one row per word."""
        shards = flat.reshape(-1, self.shard_cells)
        return shards[:, :self.shard_words * self.code_bits].reshape(
            shards.shape[0], self.shard_words, self.code_bits)

    def _at(self, words):
        """``(shard, local word)`` of global ``words``: their index into
        :meth:`_by_word` views."""
        return np.divmod(words, self.shard_words)

    def fresh(self, shard, bits):
        self.intended[self._shard(shard)] = bits
        self.actual[self._shard(shard)] = bits

    def load(self, shard, saved):
        self.intended[self._shard(shard)] = saved["intended"]
        self.actual[self._shard(shard)] = saved["actual"]

    def build(self):
        """Nothing to build: the maps are recomputed every batch."""

    def snapshot(self, shard):
        return {"intended": self.intended[self._shard(shard)],
                "actual": self.actual[self._shard(shard)]}

    def _class_maps(self):
        nd, ng = neighborhood_class_map(self.actual.reshape(self.shape))
        return nd.reshape(-1), ng.reshape(-1)

    def classify(self):
        self.nd, self.ng = self._class_maps()
        self.word_maps = (self._by_word(self.nd), self._by_word(self.ng))

    def _draw(self, table, bits, at, bounds, lanes, profiler=None,
              maps=None):
        """Boolean flip mask of the words at ``at`` holding ``bits``,
        each shard's uniforms from its own generator."""
        nd, ng = self.word_maps if maps is None else maps
        with _prof(profiler, "draw"):
            draws = [lanes[shard].rng.random((hi - lo, self.code_bits))
                     for shard, lo, hi in _segments(bounds)]
            return ((draws[0] if len(draws) == 1
                     else np.concatenate(draws))
                    < table[bits, nd[at], ng[at]])

    def drift(self, shard, table, rng, profiler):
        cells = self._shard(shard)
        with _prof(profiler, "draw"):
            flips = rng.random(self.shard_cells) < table.reshape(
                2, 5, 5)[self.actual[cells], self.nd[cells],
                         self.ng[cells]]
        with _prof(profiler, "place"):
            self.actual[cells] ^= flips
        return int(flips.sum())

    def access(self, word, is_write, bounds, cw, lanes, corrects,
               profiler):
        """The batch in order, step by step: step ``r`` applies every
        word's ``r``-th access (``word`` is in chain order, so it is
        each chain's ``r``-th link), each shard's uniforms from its own
        generator. A write stores its codeword with write errors; a
        read counts its word's wrong bits, writes a correctable word
        back with write errors, then draws its disturb from the bits
        now stored. Returns the engine state's ``(read_at, n_err,
        write_errors, disturb_flips)``."""
        n_shards = len(bounds) - 1
        cw = unpack_bits(cw, self.code_bits) if cw is not None else None
        shard = np.repeat(np.arange(n_shards), np.diff(bounds))
        chain_start = np.ones(word.size, dtype=bool)
        chain_start[1:] = word[1:] != word[:-1]
        link = np.arange(word.size) - np.maximum.accumulate(
            np.where(chain_start, np.arange(word.size), 0))
        write_no = np.cumsum(is_write) - 1
        read_no = np.cumsum(~is_write) - 1
        n_err = np.zeros(int(np.count_nonzero(~is_write)), dtype=np.int64)
        write_errors = np.zeros(n_shards, dtype=np.int64)
        disturb_flips = np.zeros(n_shards, dtype=np.int64)
        for step in range(int(link.max()) + 1 if word.size else 0):
            here = np.flatnonzero(link == step)
            writes = here[is_write[here]]
            if writes.size:
                at = self._at(word[writes])
                bits = cw[write_no[writes]]
                step_bounds = _step_bounds(shard[writes], n_shards)
                errs = self._draw(self.wer_p, bits, at, step_bounds, lanes,
                                  profiler)
                self.intended_words[at] = bits
                self.actual_words[at] = bits ^ errs
                write_errors += _flip_counts(errs, step_bounds)
            reads = here[~is_write[here]]
            if not reads.size:
                continue
            at = self._at(word[reads])
            counts = (self.actual_words[at]
                      != self.intended_words[at]).sum(axis=1)
            n_err[read_no[reads]] = counts
            fix = corrects[counts]
            if fix.any():
                fixed = reads[fix]
                at_fix = self._at(word[fixed])
                step_bounds = _step_bounds(shard[fixed], n_shards)
                bits = self.intended_words[at_fix]
                errs = self._draw(self.wer_p, bits, at_fix, step_bounds,
                                  lanes, profiler)
                self.actual_words[at_fix] = bits ^ errs
                write_errors += _flip_counts(errs, step_bounds)
            step_bounds = _step_bounds(shard[reads], n_shards)
            flips = self._draw(self.disturb_p, self.actual_words[at], at,
                               step_bounds, lanes, profiler)
            with _prof(profiler, "place"):
                self.actual_words[at] ^= flips
            disturb_flips += _flip_counts(flips, step_bounds)
        read_at = np.flatnonzero(~is_write)
        return (read_at[n_err > 0], n_err[n_err > 0], write_errors,
                disturb_flips)

    def error_counts(self, words):
        at = self._at(words)
        return (self.actual_words[at] != self.intended_words[at]).sum(
            axis=1)

    def rewrite(self, words, bounds, lanes, reclassify=False):
        """Restore whole words through the write path. A scrub
        (``reclassify``) prices its rewrites against the array as it
        stands rather than the batch's maps."""
        maps = None
        if reclassify:
            maps = [self._by_word(m) for m in self._class_maps()]
        at = self._at(words)
        cw = self.intended_words[at]
        errs = self._draw(self.wer_p, cw, at, bounds, lanes, maps=maps)
        self.actual_words[at] = cw ^ errs
        return _flip_counts(errs, bounds)
