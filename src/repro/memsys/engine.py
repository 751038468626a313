"""Vectorized Monte-Carlo reliability engine.

Composes the failure mechanisms — write error, read disturb, retention
and, on cross-point arrays, half-select sneak flips — into the number a
memory designer asks for: the uncorrectable bit-error rate (UBER) of a
coupled, dense array under real traffic. Every per-epoch step is a
numpy array operation over the whole batch/array; there is no per-bit
(or per-transaction) Python loop.

Two evaluation modes:

* :meth:`ReliabilityEngine.run` — transaction-by-transaction Monte
  Carlo: draws every error event, books ECC outcomes per read, applies
  write-back and scrubbing. The ground truth, with sampling noise.
* :meth:`ReliabilityEngine.expected_rates` — closed-form expectation
  over one write->read cycle per word against a fixed background: exact
  Poisson-binomial head (P[0], P[1] errors per word), noise-free. This
  is what the pitch sweeps use, so monotone coupling trends are not
  buried under Monte-Carlo noise.

Monte Carlo is one driver (:meth:`ReliabilityEngine.run`) over one
state, ``_PackedState`` (see :mod:`repro.memsys.sampling`): every term
is an exact thinned draw — a binomial candidate count at the table's
largest class probability (at most 50 distinct probabilities), placed
by index choice and kept per the candidate's class; ``intended``/
``actual`` live bit-packed in uint64 lanes (:mod:`repro.memsys.bitplane`)
with exact per-word error counters; each candidate's class is a lookup
of its 3 x 3 window in a snapshot of the cells' bits taken once per
batch (one byte gather, O(cells / 8) bytes). Cost O(cells / 8 +
candidates), which is what makes nominal_wer <= 1e-6 scenarios
reachable.

The driver owns everything else once: restore or init, the batch loop
(classify, whole-array terms, scrub, one pass over the batch's
per-word access chains), ECC bookkeeping, checkpoints and progress. Every mechanism is one flat
(50,) per-class table from the controller — write error and read
disturb per access, retention and the cross-point half-select term as
a list of whole-array ``(counter, table)`` terms the driver walks —
and the state draws against those tables.
"""

from __future__ import annotations

import copy
import itertools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields as dataclass_fields
from types import SimpleNamespace
from typing import Dict

import numpy as np

from ..device.mtj import MTJDevice
from ..errors import ParameterError, RunIdentityError
from ..experiments.base import ExperimentResult
from ..integrity.manifest import canonical, identity_diff, record_digest
from ..resilience.checkpoint import CheckpointManager
from ..validation import require_non_negative, require_positive
from . import bitplane
from .bitplane import BitPlane, pack_bits, row_blocks, row_items
from .controller import ArrayController
from .ecc import DecodeOutcome, NoECC, make_ecc
from .sampling import (
    ClassPlanes,
    sample_class_flips,
    sample_thinned_flips,
    thinned_candidates,
)
from .scrub import no_scrub
from .traffic import StressPatternWorkload, Workload, make_workload

#: Shared do-nothing context for un-profiled runs: ``_prof(None, ...)``
#: must cost one attribute check, not an allocation per phase.
_NULL_CONTEXT = nullcontext()


def _prof(profiler, name):
    """Phase context of ``profiler``, or a no-op when profiling is off."""
    if profiler is None:
        return _NULL_CONTEXT
    return profiler.phase(name)


class PhaseProfiler:
    """Accumulates *self* wall-time per engine phase.

    Phases may nest (a scrub's rewrite draws flips); time booked to an
    inner phase is excluded from the enclosing one, so the phase totals
    partition the instrumented wall-time and sum to (at most) the run's
    elapsed time.
    """

    #: Canonical phase order for reports.
    PHASES = ("classify", "draw", "place", "ecc", "scrub")

    def __init__(self):
        self.seconds = {}
        self._stack = []

    @contextmanager
    def phase(self, name):
        """Time the enclosed block as ``name`` (exclusive of children)."""
        now = time.perf_counter()
        if self._stack:
            parent = self._stack[-1]
            self.seconds[parent[0]] = (self.seconds.get(parent[0], 0.0)
                                       + now - parent[1])
        self._stack.append([name, now])
        try:
            yield
        finally:
            entry = self._stack.pop()
            now = time.perf_counter()
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + now - entry[1])
            if self._stack:
                self._stack[-1][1] = now

    def breakdown(self, total=None):
        """Ordered ``{phase: seconds}`` with every canonical phase
        (0.0 when it never ran); adds ``other``/``total`` rows when the
        run's total wall-time is known."""
        out = {name: self.seconds.get(name, 0.0) for name in self.PHASES}
        for name in self.seconds:
            if name not in out:
                out[name] = self.seconds[name]
        if total is not None:
            out["other"] = max(0.0, float(total) - sum(out.values()))
            out["total"] = float(total)
        return out


@dataclass
class MemsysResult:
    """Counters and rates of one engine run.

    ``raw_ber`` is the pre-correction bit-error rate observed at the
    sense amplifiers; ``uber`` counts the bits of words the ECC failed
    to correct (detected or silent) per bit read; ``word_fail_rate`` is
    the per-read-word uncorrectable probability.
    """

    config: Dict
    n_transactions: int = 0
    n_reads: int = 0
    n_writes: int = 0
    n_scrubs: int = 0
    bits_read: int = 0
    bits_written: int = 0
    write_errors: int = 0
    disturb_flips: int = 0
    retention_flips: int = 0
    sneak_flips: int = 0
    raw_bit_errors: int = 0
    uncorrectable_bit_errors: int = 0
    words_ok: int = 0
    words_corrected: int = 0
    words_detected: int = 0
    words_silent: int = 0
    scrub_corrected_words: int = 0
    scrub_uncorrectable_words: int = 0
    simulated_time: float = 0.0
    extras: Dict = field(default_factory=dict)

    @property
    def raw_ber(self):
        """Pre-ECC bit-error rate per bit read."""
        return (self.raw_bit_errors / self.bits_read
                if self.bits_read else 0.0)

    @property
    def uber(self):
        """Post-ECC uncorrectable bit-error rate per bit read."""
        return (self.uncorrectable_bit_errors / self.bits_read
                if self.bits_read else 0.0)

    @property
    def word_fail_rate(self):
        """Uncorrectable (detected + silent) words per word read."""
        if not self.n_reads:
            return 0.0
        return (self.words_detected + self.words_silent) / self.n_reads

    def summary_rows(self):
        """(headers, rows) of the headline metric table."""
        headers = ["metric", "value"]
        rows = [
            ("transactions", self.n_transactions),
            ("reads / writes", f"{self.n_reads} / {self.n_writes}"),
            ("raw BER (pre-ECC)", f"{self.raw_ber:.3e}"),
            ("post-ECC UBER", f"{self.uber:.3e}"),
            ("word fail rate", f"{self.word_fail_rate:.3e}"),
            ("words corrected", self.words_corrected),
            ("words detected uncorrectable", self.words_detected),
            ("words silently corrupt", self.words_silent),
            ("write errors injected", self.write_errors),
            ("read-disturb flips", self.disturb_flips),
            ("retention flips", self.retention_flips),
            ("half-select sneak flips", self.sneak_flips),
            ("scrubs (corrected words)",
             f"{self.n_scrubs} ({self.scrub_corrected_words})"),
        ]
        return headers, rows

    def to_experiment_result(self):
        """Render as an :class:`~repro.experiments.base.ExperimentResult`
        so :mod:`repro.reporting` and the report builder work for free.
        """
        headers, rows = self.summary_rows()
        return ExperimentResult(
            experiment_id="memsys",
            title=("System-level reliability: "
                   f"{self.config.get('workload', '?')} traffic, "
                   f"{self.config.get('ecc', '?')} ECC"),
            headers=headers,
            rows=rows,
            extras={"config": self.config, "raw_ber": self.raw_ber,
                    "uber": self.uber,
                    "word_fail_rate": self.word_fail_rate},
        )


#: Counter fields of :class:`MemsysResult` (everything but ``config``,
#: ``simulated_time`` and ``extras``): what :func:`merge_results` sums
#: and a stacked run tallies per shard.
_COUNTERS = tuple(spec.name for spec in dataclass_fields(MemsysResult)
                  if spec.name not in ("config", "simulated_time",
                                       "extras"))
_COLUMN = {name: column for column, name in enumerate(_COUNTERS)}


def merge_results(results, config=None):
    """Merge per-shard (or per-chunk) results into one aggregate.

    Every counter field sums; ``simulated_time`` takes the maximum
    (shards run concurrently on real hardware, so elapsed simulated
    time is the longest shard's, not the sum). ``config`` defaults to
    the first result's config.

    Profile extras are *preserved*, not dropped: when every part
    carries ``extras["profile"]``, the merged result carries the
    per-phase totals summed across parts (``total`` then means
    aggregate engine-seconds, which can exceed wall-clock on parallel
    executors). A part without a profile poisons the merge — summing a
    partial profile would silently under-report — so the key is only
    present when it is complete.
    """
    results = list(results)
    if not results:
        raise ParameterError("merge_results needs at least one result")
    for result in results:
        if not isinstance(result, MemsysResult):
            raise ParameterError(
                f"results must be MemsysResult, got {type(result)!r}")
    merged = MemsysResult(config=dict(
        results[0].config if config is None else config))
    for name in _COUNTERS:
        setattr(merged, name, sum(getattr(r, name) for r in results))
    merged.simulated_time = max(r.simulated_time for r in results)
    profiles = [r.extras.get("profile") for r in results]
    if all(profile is not None for profile in profiles):
        combined = {}
        for profile in profiles:
            for phase, seconds in profile.items():
                combined[phase] = (combined.get(phase, 0.0)
                                   + float(seconds))
        merged.extras["profile"] = combined
    return merged


class ReliabilityEngine:
    """Workload-driven reliability engine over one array controller.

    Parameters
    ----------
    controller:
        :class:`~repro.memsys.controller.ArrayController`.
    workload:
        A workload from :mod:`repro.memsys.traffic` (or a registry name).
    scrub:
        A :class:`~repro.memsys.scrub.ScrubPolicy`; default no scrub.
    cycle_time:
        Seconds of simulated time per transaction — sets the retention
        exposure between accesses.
    writeback:
        Rewrite words whose read found a correctable error (through the
        write path, so the rewrite itself may inject an error).
    half_select_exposure:
        Half-selects accrued per cell per transaction — the cross-point
        sneak-path term (see :mod:`repro.memsys.topology`). Each batch
        draws extra flips against the controller's half-select disturb
        table with ``batch * exposure`` exposures per cell. The default
        0 skips the draw entirely, leaving 1T-1R draw streams
        untouched.
    """

    def __init__(self, controller, workload="random", scrub=None,
                 cycle_time=50e-9, writeback=True,
                 half_select_exposure=0.0):
        if not isinstance(controller, ArrayController):
            raise ParameterError(
                f"controller must be an ArrayController, got "
                f"{type(controller)!r}")
        require_positive(cycle_time, "cycle_time")
        self.controller = controller
        self.workload = (make_workload(workload)
                         if isinstance(workload, str) else workload)
        if not isinstance(self.workload, Workload):
            raise ParameterError(
                f"workload must be a Workload, got "
                f"{type(self.workload)!r}")
        self.scrub = no_scrub() if scrub is None else scrub
        self.cycle_time = float(cycle_time)
        self.writeback = bool(writeback)
        require_non_negative(half_select_exposure,
                             "half_select_exposure")
        self.half_select_exposure = float(half_select_exposure)

    def _config(self):
        config = {
            **self.controller.describe(),
            **self.workload.describe(),
            **self.scrub.describe(),
            "ecc": type(self.controller.ecc).__name__,
            "cycle_time_s": self.cycle_time,
            "writeback": self.writeback,
            # kept for perfbench; ROADMAP item 1 deletes it
            "backend": "numpy",
        }
        if self.half_select_exposure:
            config["half_select_exposure"] = self.half_select_exposure
        return config

    # -- Monte-Carlo mode ---------------------------------------------------

    def run(self, n_transactions, rng=None, batch_size=8192,
            progress=None, profile=False, checkpoint=None,
            checkpoint_every=None, resume=False):
        """Simulate ``n_transactions`` and return a :class:`MemsysResult`.

        Each batch is one pass: its accesses are sorted into per-word
        *chains* (each word's accesses in batch order), every
        mechanism draws its flips for the whole batch at once, and the
        chains are resolved together in a few vectorized passes, so
        repeated accesses to the same word keep their exact sequential
        semantics without a step per access. Coupling classes and
        retention exposure refresh at batch boundaries (the background
        data drifts slowly relative to a batch).

        Flips are drawn by exact thinning over bit-packed state
        (:mod:`repro.memsys.sampling`), deterministic under a seeded
        ``rng``.

        ``progress``, when given, is called after every batch as
        ``progress(transactions_done, n_transactions)``. It is also the
        cancellation point: raising
        :class:`~repro.errors.RunAborted` (or anything else) from the
        callback stops the run at that batch boundary — which is how
        the :mod:`repro.service` server streams progress and aborts
        abandoned queries. The callback never changes the draw stream,
        so a run with ``progress`` is bit-identical to one without.

        ``profile=True`` times the run's phases (classify / draw /
        place / ecc / scrub) and attaches the breakdown as
        ``result.extras["profile"]`` (seconds per phase, plus
        ``other``/``total``), so speedups are attributable — also
        when the answer comes from a finalized checkpoint. Timing
        never touches the draw stream: a profiled run is bit-identical
        to an unprofiled one.

        ``checkpoint`` (a directory path or a
        :class:`~repro.resilience.checkpoint.CheckpointManager`) arms
        crash tolerance: the complete dynamic state — plane arrays,
        RNG generator state, counters, workload and scrub stream state
        — is snapshotted atomically under the tag ``"run"`` at batch
        boundaries, at most every ``checkpoint_every`` transactions
        (default: every batch). With ``resume=True`` a checkpoint of
        this run restores it mid-stream and the completed result is
        byte-identical to the uninterrupted seeded run; a corrupt,
        swapped or absent checkpoint degrades to a clean restart (the
        first two with a counted
        :class:`~repro.errors.ResilienceWarning`), and one whose stored
        identity differs from this run's — another seed, config or
        shape, or no identity at all — raises
        :class:`~repro.errors.RunIdentityError` naming the fields.
        Saving never changes the draw stream: a checkpointed run is
        bit-identical to an unprotected one.

        A run is the one-shard case of :meth:`run_shards`.
        """
        require_positive(n_transactions, "n_transactions")
        (result,), breakdown = self.run_shards(
            [(n_transactions, rng, "run")], batch_size=batch_size,
            progress=progress, profile=profile, checkpoint=checkpoint,
            checkpoint_every=checkpoint_every, resume=resume)
        if breakdown is not None:
            result.extras["profile"] = breakdown
        return result

    def run_shards(self, shards, batch_size=8192, progress=None,
                   profile=False, checkpoint=None,
                   checkpoint_every=None, resume=False):
        """Simulate independent shards of this engine's array at once.

        ``shards`` lists one ``(n_transactions, rng, tag)`` per shard:
        each shard is a run of this engine's array with its own
        generator (``rng`` as for :meth:`run`), its own copies of the
        workload and scrub policy, its own clock and — when
        ``checkpoint`` (as for :meth:`run`) is given — its own
        checkpoint under ``tag``, saved on the ``checkpoint_every``
        cadence and resumed under ``resume`` as :meth:`run` resumes.
        The shards advance in lockstep over one stacked state (see
        :meth:`_drive`), and every shard's result is byte-identical to
        :meth:`run` over that shard alone.

        ``progress(done, total)`` follows the shards' summed
        transactions, called after every shard's batch; ``profile``
        times the stacked run as one phase breakdown. Returns
        ``(results, breakdown)``: the shards' :class:`MemsysResult`
        in order, and the breakdown (None unless ``profile``).
        """
        require_positive(batch_size, "batch_size")
        if checkpoint is not None:
            if not isinstance(checkpoint, CheckpointManager):
                checkpoint = CheckpointManager(str(checkpoint))
            if checkpoint_every is not None:
                checkpoint_every = int(require_positive(
                    checkpoint_every, "checkpoint_every"))
        profiler = PhaseProfiler() if profile else None
        t0 = time.perf_counter()
        lanes = [_Lane(self, n, rng, int(batch_size), checkpoint, tag,
                       checkpoint_every, resume)
                 for n, rng, tag in shards]
        live = [lane for lane in lanes if lane.result is None]
        if live:
            self._drive(live, int(batch_size), progress, profiler,
                        sum(lane.n_transactions for lane in lanes))
        breakdown = (None if profiler is None else profiler.breakdown(
            total=time.perf_counter() - t0))
        return [lane.result for lane in lanes], breakdown

    def _drive(self, lanes, batch_size, progress, profiler, total):
        """The batch loop, every shard in lockstep.

        The shards share one stacked state: shard ``s`` owns the global
        words ``s * W + local`` (``W`` words per shard, the
        :class:`~repro.memsys.topology.HierarchicalAddressMap`
        convention). Every draw stays on its shard's own generator, in
        the order a lone run makes it — per batch traffic, drift,
        scrub, write data, then the batch's write, write-back and
        disturb candidates — while the RNG-free work (SEC-DED encode,
        classify, chain resolution, placement, ECC bookkeeping) runs
        once over all shards. So each shard's counters are
        byte-identical to running it alone, and a batch's numpy
        dispatch is paid once, not once per shard.

        A batch is one pass (:meth:`_apply_round_binomial`), not one
        step per access: within a batch every candidate takes its
        neighbor class from the batch-start snapshot, so each word's
        accesses form an independent chain that the pass resolves for
        all words at once.
        """
        words_per_shard = self.controller.words.n_words
        state = _PackedState.stacked(self, len(lanes))
        for shard, lane in enumerate(lanes):
            lane.open(self, state, shard)
        state.build()
        tally = _Tally([lane.result for lane in lanes])
        corrects = self._corrects()
        codewords = (_StressCodewords(self.controller, lanes)
                     if isinstance(lanes[0].workload, StressPatternWorkload)
                     else None)
        done = total - sum(lane.remaining for lane in lanes)
        # Global words as int32 below 2**31 cells (half the memory).
        index = (np.int32 if len(lanes) * self.controller.layout.n_cells
                 < 2**31 else np.int64)
        while True:
            sizes = [min(batch_size, lane.remaining) for lane in lanes]
            if not any(sizes):
                break
            # Every shard's batch in chain order, shard after shard.
            bounds = [0, *itertools.accumulate(sizes)]
            word = np.empty(bounds[-1], dtype=index)
            is_write = np.empty(bounds[-1], dtype=bool)
            for shard, (lane, n) in enumerate(zip(lanes, sizes)):
                if n:
                    lane.remaining -= n
                    lo, hi = bounds[shard], bounds[shard + 1]
                    _chain_order(lane.workload.batch(
                        n, words_per_shard, lane.rng), words_per_shard,
                        shard * words_per_shard, word[lo:hi],
                        is_write[lo:hi])
            with _prof(profiler, "classify"):
                state.classify()

            # Whole-array terms accrued over each batch's window; a due
            # scrub repairs the accumulation *before* the window's
            # accesses observe it.
            for shard, (lane, n) in enumerate(zip(lanes, sizes)):
                if not n:
                    continue
                lane.now += n * self.cycle_time
                for counter, table in self._drift_terms(n):
                    tally.add(counter, state.drift(shard, table,
                                                   lane.rng, profiler),
                              shard)
                if lane.scrub.due(lane.now):
                    with _prof(profiler, "scrub"):
                        self._run_scrub(state, shard, lanes, tally)
                    lane.scrub.mark_done(lane.now)

            tally.add("n_transactions", sizes)
            self._apply_round_binomial(word, is_write, bounds, state,
                                       lanes, tally, corrects, profiler,
                                       codewords)
            del word, is_write

            for shard, (lane, n) in enumerate(zip(lanes, sizes)):
                if not n:
                    continue
                tally.store(shard, lane.result)
                lane.checkpoint(state, shard)
                done += n
                if progress is not None:
                    progress(done, total)

    def _drift_terms(self, n):
        """``(counter, flat class table)`` of every whole-array term
        over an ``n``-transaction window, in draw order."""
        ctl = self.controller
        terms = [("retention_flips",
                  ctl.retention_class_probability(n * self.cycle_time))]
        if self.half_select_exposure > 0.0:
            # Cross-point sneak term: every cell accrued ~exposure
            # half-selects per transaction of the window.
            terms.append(("sneak_flips", ctl.half_select_class_probability(
                n * self.half_select_exposure)))
        return terms

    def _apply_round_binomial(self, word, is_write, bounds, state, lanes,
                              tally, corrects, profiler=None,
                              codewords=None):
        """One batch of every shard, applied in one pass. (The name is
        that of the occurrence-rank round this pass replaced, kept
        because perfbench's trace hooks wrap it by name; ROADMAP item 1
        renames it.)

        ``word`` (global words) and ``is_write`` hold the batch in
        chain order (:func:`_chain_order`), shard ``s``'s accesses at
        ``bounds[s]:bounds[s + 1]``. The writes' codewords are drawn
        (or, for a stress workload, taken from ``codewords``, a
        :class:`_StressCodewords`) in that order, then the
        state applies every chain at once (:meth:`_PackedState.access`;
        ``corrects`` as from :meth:`_corrects`) and the reads' error
        counts are booked per shard.
        """
        ctl = self.controller
        code_bits = ctl.ecc.n_code
        words_per_shard = ctl.words.n_words
        w_bounds = [0, *itertools.accumulate(
            int(np.count_nonzero(is_write[lo:hi]))
            for lo, hi in zip(bounds, bounds[1:]))]
        r_bounds = [at - w for at, w in zip(bounds, w_bounds)]
        n_writes, n_reads = _sizes(w_bounds), _sizes(r_bounds)
        tally.add("n_writes", n_writes)
        tally.add("bits_written", [n * code_bits for n in n_writes])
        tally.add("n_reads", n_reads)
        tally.add("bits_read", [n * code_bits for n in n_reads])

        cw = None
        if codewords is not None and w_bounds[-1]:
            with _prof(profiler, "ecc"):
                cw = codewords.rows(word[is_write], lanes)
        elif w_bounds[-1]:
            data = [lanes[shard].workload.write_data(
                word[lo:hi][is_write[lo:hi]] - shard * words_per_shard,
                ctl.ecc.n_data, lanes[shard].rng)
                for shard, lo, hi in _segments(bounds)
                if w_bounds[shard + 1] > w_bounds[shard]]
            data = data[0] if len(data) == 1 else np.concatenate(data)
            with _prof(profiler, "ecc"):
                # In blocks of BLOCK_CELLS codeword bytes, so the
                # encoder's temporaries stay small however many words a
                # batch writes.
                row_bytes = -(-code_bits // 64) * 8
                cw = np.empty((len(data), row_bytes // 8),
                              dtype=bitplane.LANE_DTYPE)
                for lo, hi in row_blocks(len(data), row_bytes):
                    cw[lo:hi] = ctl.ecc.encode_lanes(data[lo:hi])

        read_at, n_err, write_errors, disturb_flips = state.access(
            word, is_write, bounds, cw, lanes, corrects, profiler)
        tally.add("write_errors", write_errors)
        tally.add("disturb_flips", disturb_flips)
        with _prof(profiler, "ecc"):
            self._book_read_errors(read_at, n_err, bounds, n_reads, tally)

    def _corrects(self):
        """bool per error count ``0..n_code``: whether a read that
        counts that many wrong bits writes its word back."""
        ecc = self.controller.ecc
        return self.writeback & (
            ecc.classify_errors(np.arange(ecc.n_code + 1)) == _CORRECTED)

    def _book_read_errors(self, read_at, n_err, bounds, n_reads, tally):
        """ECC bookkeeping of a batch's reads (``n_reads`` per shard,
        shard ``s``'s accesses at ``bounds[s]:bounds[s + 1]``): the
        reads at accesses ``read_at`` counted ``n_err`` wrong bits, and
        every other read none (OK). One classify of the former, booked
        per shard by two shard-offset bincounts (words and wrong bits
        per outcome)."""
        n_shards = len(n_reads)
        by_outcome = np.zeros((n_shards, 4), dtype=np.int64)
        bits = np.zeros((n_shards, 4))
        if read_at.size:
            outcomes = self.controller.ecc.classify_errors(n_err)
            key = outcomes
            if n_shards > 1:
                key = 4 * (np.searchsorted(bounds, read_at, side="right")
                           - 1) + outcomes
            by_outcome = np.bincount(key, minlength=4 * n_shards).reshape(
                -1, 4)
            bits = np.bincount(key, weights=n_err,
                               minlength=4 * n_shards).reshape(-1, 4)
        by_outcome[:, _OK] += np.asarray(n_reads) - by_outcome.sum(axis=1)
        # raw_bit_errors, uncorrectable_bit_errors and words_ok ..
        # words_silent (in DecodeOutcome order) are consecutive counters.
        tally.add("raw_bit_errors", [
            [int(sum(wrong)), int(wrong[_DETECTED] + wrong[_SILENT]), *row]
            for row, wrong in zip(by_outcome.tolist(), bits.tolist())])
        if self.writeback:
            tally.add("bits_written", by_outcome[:, _CORRECTED]
                      * self.controller.ecc.n_code)

    def _run_scrub(self, state, shard, lanes, tally):
        """One scrub pass over every word of ``shard``."""
        words_per_shard = self.controller.words.n_words
        words = np.arange(shard * words_per_shard,
                          (shard + 1) * words_per_shard)
        n_err = state.error_counts(words)
        outcomes = self.controller.ecc.classify_errors(n_err)
        fixable = ((outcomes == _CORRECTED) | (outcomes == _OK)) & (n_err > 0)
        tally.add("n_scrubs", 1, shard)
        tally.add("scrub_corrected_words", int(fixable.sum()), shard)
        tally.add("scrub_uncorrectable_words",
                  int((outcomes >= _DETECTED).sum()), shard)
        if np.any(fixable):
            fixed = words[fixable]
            tally.add("bits_written",
                      fixed.size * self.controller.ecc.n_code, shard)
            tally.add("write_errors", state.rewrite(
                fixed, [0] * (shard + 1)
                + [fixed.size] * (len(lanes) - shard), lanes,
                reclassify=True))

    # -- expectation mode ---------------------------------------------------

    def expected_rates(self, rng=None):
        """Noise-free expected rates over one write->read cycle per word.

        Against the workload's (seeded) background data, every mapped
        cell accrues a write error, one read disturb, and the retention
        exposure of one ``cycle_time``; the per-word uncorrectable
        probability follows from the exact Poisson-binomial head::

            P0 = prod(1 - p_i),  P1 = P0 * sum(p_i / (1 - p_i))

        Returns a dict with ``raw_ber``, ``word_fail_rate`` and ``uber``
        (expected uncorrected wrong bits per bit read).
        """
        ctl = self.controller
        rows, cols = ctl.layout.rows, ctl.layout.cols
        rng = np.random.default_rng(rng)
        bits = np.asarray(self.workload.initial_bits(rows, cols, rng),
                          dtype=np.int8).reshape(-1)
        nd, ng = ctl.class_maps(bits)
        # Every mechanism combines per coupling class; one gather then
        # prices every mapped cell.
        table = 1.0 - ((1.0 - ctl.wer_class_probability())
                       * (1.0 - ctl.disturb_class_probability())
                       * (1.0 - ctl.retention_class_probability(
                           self.cycle_time)))
        if self.half_select_exposure > 0.0:
            table = 1.0 - (1.0 - table) * (
                1.0 - ctl.half_select_class_probability(
                    self.half_select_exposure))
        # Word w's cells are the contiguous flat run [w * k, (w + 1) * k).
        words = ctl.words
        bits, nd, ng = (m[:words.n_mapped_cells].reshape(
            words.n_words, words.code_bits) for m in (bits, nd, ng))
        p = np.clip(table.reshape(2, 5, 5)[bits, nd, ng],
                    0.0, 1.0 - 1e-12)

        p0 = np.prod(1.0 - p, axis=1)
        p1 = p0 * np.sum(p / (1.0 - p), axis=1)
        sum_p = p.sum(axis=1)
        if isinstance(ctl.ecc, NoECC):
            # No redundancy: every wrong bit reaches the user.
            uncorrected = sum_p
            word_fail = 1.0 - p0
        else:
            # SEC-DED: single errors vanish, everything else survives.
            uncorrected = sum_p - p1
            word_fail = 1.0 - p0 - p1
        total_bits = p.size
        return {
            "raw_ber": float(sum_p.sum() / total_bits),
            "word_fail_rate": float(word_fail.mean()),
            "uber": float(uncorrected.sum() / total_bits),
        }


# -- stacked runs --------------------------------------------------------

#: Decode outcomes as plain ints, for the per-batch bookkeeping.
_OK, _CORRECTED, _DETECTED, _SILENT = (int(o) for o in DecodeOutcome)

#: No accesses (an empty event list).
_NO_WORDS = np.zeros(0, dtype=np.int32)


def _segments(bounds):
    """``(shard, lo, hi)`` of every non-empty shard segment of
    ``bounds`` (shard ``s`` owns ``bounds[s]:bounds[s + 1]``)."""
    return [(shard, lo, hi) for shard, (lo, hi)
            in enumerate(zip(bounds, bounds[1:])) if hi > lo]


def _sizes(bounds):
    """Per-shard segment sizes of ``bounds``."""
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


class _Tally:
    """Counters of a stacked run: one row of ints per shard, one column
    per :data:`_COUNTERS` field. A batch books all shards at once from
    per-shard counts (a list or array, one entry per shard)."""

    def __init__(self, results):
        self.rows = [[getattr(result, name) for name in _COUNTERS]
                     for result in results]

    def add(self, counter, values, shard=None):
        """Add per-shard ``values`` to ``counter`` — rows of several
        consecutive counters from it, for a 2-D block — or one number
        to ``shard``'s; None adds nothing."""
        if values is None:
            return
        column = _COLUMN[counter]
        if shard is not None:
            self.rows[shard][column] += int(values)
            return
        if isinstance(values, np.ndarray):
            values = values.tolist()
        for row, value in zip(self.rows, values):
            if isinstance(value, list):
                row[column:column + len(value)] = [
                    a + b for a, b in zip(row[column:], value)]
            else:
                row[column] += value

    def store(self, shard, result):
        """Write ``shard``'s counters into its result."""
        for name, value in zip(_COUNTERS, self.rows[shard]):
            setattr(result, name, value)


class _StressCodewords:
    """A stress workload's codewords, encoded on first write.

    A stress write stores its word's background data, fixed for the
    run, so every word is encoded at most once per run — only the words
    the run writes, however large the array. Rows are stacked by global
    word (shard ``s``'s from ``s * W``); the table is derived data, so
    a resumed run starts it empty."""

    def __init__(self, controller, lanes):
        self.controller = controller
        n_words = len(lanes) * controller.words.n_words
        self.table = np.empty((n_words, -(-controller.ecc.n_code // 64)),
                              dtype=bitplane.LANE_DTYPE)
        self.encoded = np.zeros(n_words, dtype=bool)

    def rows(self, words, lanes):
        """The codewords of global ``words`` (ascending), one row per
        word."""
        ctl = self.controller
        new = words[~self.encoded[words]]
        if new.size:
            first = np.empty(new.size, dtype=bool)
            first[0] = True
            np.not_equal(new[1:], new[:-1], out=first[1:])
            new = new[first].astype(np.intp)
            shard = new // ctl.words.n_words
            for s in np.unique(shard).tolist():
                mine = new[shard == s]
                local = mine - s * ctl.words.n_words
                for lo, hi in row_blocks(mine.size, ctl.ecc.n_code):
                    self.table[mine[lo:hi]] = ctl.ecc.encode_lanes(pack_bits(
                        lanes[s].workload.background_data(
                            local[lo:hi], ctl.words,
                            ctl.ecc.data_positions)))
            self.encoded[new] = True
        return self.table[words]


class _Lane:
    """One shard's stream in a stacked run: its own generator, workload
    and scrub copies, clock, transaction budget, result — and its
    checkpoint: the payload, the save cadence and the one check that a
    stored run is this run."""

    def __init__(self, engine, n_transactions, rng, batch_size,
                 manager, tag, every, resume):
        require_positive(n_transactions, "n_transactions")
        self.n_transactions = int(n_transactions)
        self.rng = np.random.default_rng(rng)
        self.manager, self.tag, self.every = manager, tag, every
        self.identity = self.restored = self.result = None
        self.saved_done = None  # ``done`` of the last snapshot saved
        self.workload = self.scrub = None
        self.now = 0.0
        self.remaining = 0
        if manager is None:
            return
        # The run's identity record: every config field flattened, plus
        # the shape and a digest of the generator's *initial* state
        # (the seed's footprint: resume restores the generator
        # mid-stream, so resuming with the wrong seed must be a named
        # error rather than a silent seed swap). ``write_stream`` names
        # how write data is drawn from the generator: a checkpoint of
        # the older per-bit float stream (no such field) is refused
        # rather than resumed into a mixed stream. ``drift_stream``
        # likewise names how the whole-array terms draw: a checkpoint
        # of the older class-grouped draw (no such field) is refused;
        # and ``access_stream`` how a batch's accesses draw: one
        # candidate set per mechanism per batch, not one per
        # occurrence-rank round (no such field).
        self.identity = {
            "n_transactions": self.n_transactions,
            "batch_size": batch_size,
            "seed_state": record_digest(self.rng.bit_generator.state),
            "write_stream": "uint64-lanes",
            "drift_stream": "thinned",
            "access_stream": "batched",
            **{str(k): v for k, v in engine._config().items()},
        }
        if resume:
            self.restored = self._restore()
        if self.restored is not None and self.restored.get("complete"):
            self.result = self.restored["result"]

    def _restore(self):
        """This run's stored payload, or None when there is none to
        trust; raises :class:`~repro.errors.RunIdentityError` when the
        stored identity is not this run's (or is missing)."""
        payload = self.manager.load(self.tag)
        if payload is None:
            return None
        stored = payload.get("identity")
        if (not isinstance(stored, dict)
                or canonical(stored) != canonical(self.identity)):
            raise RunIdentityError(
                f"checkpoint {self.tag!r} in {self.manager.directory!r} "
                f"was written by a different run; refusing to resume "
                f"it. Differing fields: "
                + "; ".join(identity_diff(self.identity, stored)))
        self.saved_done = payload.get("done")
        return payload

    def open(self, engine, state, shard):
        """Load this stream into ``shard`` of the stacked state:
        restored mid-stream from its checkpoint, or started fresh."""
        ctl = engine.controller
        saved = self.restored
        if saved is not None:
            # Resume mid-stream: the saved RNG state already accounts
            # for every draw up to the checkpointed boundary (including
            # initial_bits), so nothing is drawn here.
            state.load(shard, saved)
            self.workload = saved["workload"]
            self.scrub = saved["scrub"]
            self.workload.bind(ctl.words)
            self.result = saved["result"]
            self.now = float(saved["now"])
            self.remaining = int(saved["remaining"])
            self.rng.bit_generator.state = saved["rng_state"]
            return
        self.workload = copy.deepcopy(engine.workload)
        self.scrub = copy.deepcopy(engine.scrub)
        initial = self.workload.initial_bits(ctl.layout.rows,
                                             ctl.layout.cols, self.rng)
        state.fresh(shard, np.asarray(initial, dtype=np.int8).reshape(-1))
        self.workload.bind(ctl.words)
        self.workload.reset()
        self.scrub.reset()
        self.result = MemsysResult(config=engine._config())
        self.remaining = self.n_transactions

    def checkpoint(self, state, shard):
        """At a batch boundary: snapshot on the checkpoint cadence, or
        close the stream (and finalize its checkpoint) once its budget
        is spent."""
        done = int(self.result.n_transactions)
        if not self.remaining:
            self.result.simulated_time = self.now
            # A resume of a finished run returns the stored result
            # outright, which lets a topology resume skip its completed
            # shards entirely.
            payload = {"complete": True, "result": self.result,
                       "done": done, "identity": self.identity}
        elif self.manager is None or (
                self.every is not None and self.saved_done is not None
                and done - self.saved_done < self.every):
            return
        else:
            payload = {
                "identity": self.identity,
                "rng_state": self.rng.bit_generator.state,
                **state.snapshot(shard),
                "workload": self.workload, "scrub": self.scrub,
                "result": self.result, "now": self.now,
                "remaining": self.remaining, "done": done}
        if self.manager is not None and self.manager.save(self.tag,
                                                          payload):
            self.saved_done = done


# -- Monte-Carlo state ---------------------------------------------------
#
# The driver talks to its state through these verbs (the test suite's
# per-cell reference state implements the same ones):
# stacked/fresh/load/build/snapshot (lifecycle and per-shard checkpoint
# payload), classify (batch-boundary classes), drift (one shard's
# whole-array term from a flat (50,) class table), access (one batch of
# every shard's accesses, in chain order), and error_counts and rewrite
# (a scrub). The access verbs take global words with per-shard
# ``bounds``, draw each shard's flips on that shard's generator, place
# them all at once and return per-shard flip counts.


class _PackedState:
    """Packed planes + class lookup + exact per-word error counters:
    the engine's Monte-Carlo state.

    Every term is an exact thinned draw
    (:func:`~repro.memsys.sampling.sample_thinned_flips`): a binomial
    candidate count at the table's largest class probability, uniform
    candidates, each kept per its class — over the whole array for the
    retention and sneak terms (:func:`sample_class_flips`), over a
    batch's accessed cells for write, write-back and disturb
    (:meth:`access`), over a scrub's words for its rewrites. Every
    candidate takes
    its class from :class:`~repro.memsys.sampling.ClassPlanes`: a
    lookup of its 3 x 3 window in the snapshot of the cells' bits that
    :meth:`classify` takes once per batch. Writes and restores move
    whole codeword rows (one void item per word), and skip the error
    counters while no bit in the array is wrong.

    ``err_count[w]`` tracks, exactly, how many cells of word ``w``
    currently disagree with their intended value; ``wrong_bits`` is its
    array-wide total. Both are maintained at every mutation — O(flips)
    each — so a read books its error count with one int gather and, at
    rare-event operating points (where ``wrong_bits`` is almost always
    zero), without touching any per-word array at all. The packed
    planes stay the ground truth: ``BitPlane.diff_counts`` (XOR +
    popcount) must agree with ``err_count`` at any instant, which the
    equivalence tests assert.

    Stacked (:meth:`stacked`), shard ``s`` owns the planes' words
    ``[s * W, (s + 1) * W)`` and tail cells ``[s * T, (s + 1) * T)``
    (:meth:`BitPlane.split`), so cell indices are plane indices:
    ``word * code_bits + bit`` for mapped cells, the tail after every
    mapped cell. The class lookup indexes shard ``s``'s row-major ``rows
    x cols`` cells from ``s * rows * cols``; a mapped cell ``c`` of
    shard ``s`` sits at ``c + s * T`` there.
    """

    def __init__(self, intended, actual, planes, controller):
        self.intended = intended
        self.actual = actual
        self.planes = planes
        # Each plane's codeword rows as single void items, so a store
        # copies one item per word, not one per lane.
        self._intended_rows = intended.word_items()
        self._actual_rows = actual.word_items()
        self.err_count = np.zeros(intended.n_words, dtype=np.int16)
        self.wrong_bits = 0
        # Run-scoped clipped copies of the controller's fixed per-class
        # tables (plus their maxima), so the thinned draws skip a table
        # scan per call without leaking state onto the engine.
        self.wer_p = np.clip(controller.wer_class_probability(),
                             0.0, 1.0)
        self.wer_pmax = float(self.wer_p.max())
        self.disturb_p = np.clip(
            controller.disturb_class_probability(), 0.0, 1.0)
        self.disturb_pmax = float(self.disturb_p.max())

    @classmethod
    def stacked(cls, engine, n_shards):
        """Zeroed planes for ``n_shards`` shards of ``engine``'s array;
        :meth:`fresh`/:meth:`load` fill the shards, then :meth:`build`
        sets up the class lookup."""
        ctl = engine.controller
        state = cls(*(BitPlane(n_shards * ctl.words.n_words,
                               ctl.ecc.n_code,
                               n_shards * ctl.layout.n_cells)
                      for _ in range(2)),
                    None, ctl)
        state.layout = ctl.layout
        state.shards = tuple(zip(state.intended.split(n_shards),
                                 state.actual.split(n_shards)))
        one = state.shards[0][1]
        state.shard_words, state.shard_mapped = one.n_words, one.n_mapped
        state.tail_cells = one.tail.size
        return state

    def _words(self, shard):
        return slice(shard * self.shard_words,
                     (shard + 1) * self.shard_words)

    def fresh(self, shard, bits):
        plane = BitPlane.from_bits(bits, self.shard_words,
                                   self.actual.code_bits)
        for view in self.shards[shard]:
            view.lanes[:] = plane.lanes
            view.tail[:] = plane.tail

    def load(self, shard, saved):
        # Planes and exact error counters come from the snapshot; the
        # classes are a pure function of the actual plane and are
        # looked up from it.
        for view, plane in zip(self.shards[shard],
                               (saved["intended"], saved["actual"])):
            view.lanes[:] = plane.lanes
            view.tail[:] = plane.tail
        self.err_count[self._words(shard)] = saved["err_count"]
        self.wrong_bits += int(saved["wrong_bits"])

    def build(self):
        self.planes = ClassPlanes(self.layout.rows, self.layout.cols,
                                  len(self.shards))

    def snapshot(self, shard):
        intended, actual = self.shards[shard]
        err_count = self.err_count[self._words(shard)]
        return {"intended": intended, "actual": actual,
                "err_count": err_count,
                "wrong_bits": int(err_count.sum())}

    def classify(self):
        self.planes.refresh(self.actual)

    def drift(self, shard, table, rng, profiler):
        with _prof(profiler, "draw"):
            flips = sample_class_flips(self.planes, shard, table, rng)
        if flips.size:
            # Shard-local row-major cells to plane cells, in place:
            # mapped cells follow the shard's word block, tail cells
            # its tail block.
            mapped = self.shard_mapped
            tail = flips >= mapped
            flips += shard * mapped
            if tail.any():
                flips[tail] += (self.actual.n_mapped - (shard + 1) * mapped
                                + shard * self.tail_cells)
            with _prof(profiler, "place"):
                self.toggle(flips)
        return int(flips.size)

    def _class_cells(self, word, bit):
        """The cells of codeword bit ``bit`` of global words ``word`` in
        the class lookup's stacked order."""
        at = word * self.actual.code_bits
        at += bit
        if len(self.shards) > 1:
            at += word // self.shard_words * self.tail_cells
        return at

    def _candidates(self, bounds, p_max, lanes):
        """One thinned candidate draw over every shard's (access, bit)
        pairs — shard ``s`` owns accesses ``bounds[s]:bounds[s + 1]`` of
        a mechanism's accesses — each shard's from its own generator:
        the candidates' access positions, bits and thresholds."""
        code_bits = self.actual.code_bits
        if len(lanes) == 1:
            flat, threshold = thinned_candidates(
                int(bounds[1]) * code_bits, p_max, lanes[0].rng)
        else:
            flat, threshold = thinned_candidates(
                [int(n) * code_bits for n in np.diff(bounds)], p_max,
                [lane.rng for lane in lanes])
        access, bit = np.divmod(flat, code_bits)
        return access, bit, threshold

    def _intended_bits(self, word, acc, bit, w_at, cw):
        """Codeword bit ``bit`` that each read at access ``acc`` intends:
        that of its chain's last write before it (``cw`` holds the
        writes at accesses ``w_at``), else the stored intended word."""
        bits = self.intended.row_bits(self.intended.lanes, word[acc], bit)
        if w_at.size:
            j = np.searchsorted(w_at, acc) - 1
            own = j >= 0
            own[own] = word[w_at[j[own]]] == word[acc[own]]
            if own.any():
                bits[own] = self.actual.row_bits(cw, j[own], bit[own])
        return bits

    def _wrong_now(self, word, bit):
        """bool: whether codeword bit ``bit`` of ``word`` is wrong."""
        return (self.actual.row_bits(self.actual.lanes, word, bit)
                != self.intended.row_bits(self.intended.lanes, word, bit))

    def access(self, word, is_write, bounds, cw, lanes, corrects,
               profiler):
        """Apply one batch of every shard's accesses.

        ``word`` (global words) and ``is_write`` list the batch in chain
        order (see :meth:`ReliabilityEngine._apply_round_binomial`),
        shard ``s``'s accesses at ``bounds[s]:bounds[s + 1]``; ``cw``
        holds the writes' packed codewords in that order, and
        ``corrects[n]`` says whether a read that counts ``n`` wrong
        bits writes its word back.

        A write stores its codeword with write errors; a read counts its
        word's wrong bits, writes a correctable word back (with write
        errors) and then suffers read disturb. Each shard draws on its
        own generator one thinned candidate set per mechanism over the
        batch's (access, bit) pairs: write errors over the written bits,
        then write-back errors and disturb over the read bits. A write
        or write-back candidate's class needs only the bit being
        written, so it is accepted here; a disturb candidate's needs
        the stored bit at its read, and a read's write-back its error
        count, which :func:`_resolve_chains` settles for every chain
        that starts the batch with a wrong bit or holds a write error
        or a disturb candidate. The batch's net effect on each word
        then lands on the planes.

        Returns ``(read_at, n_err, write_errors, disturb_flips)``: the
        accesses of the reads that counted a wrong bit and their
        counts, and per-shard flip counts (None when none flipped).
        """
        code_bits = self.actual.code_bits
        w_at = np.flatnonzero(is_write)
        w_bounds = np.searchsorted(w_at, bounds)
        r_bounds = np.asarray(bounds) - w_bounds
        # Read k is access k + (the writes before it): no array of every
        # read's access.
        reads_before = w_at - np.arange(w_at.size)
        with _prof(profiler, "draw"):
            w_acc = w_bit = b_acc = b_bit = _NO_WORDS
            pos, bit, threshold = self._candidates(
                w_bounds, self.wer_pmax, lanes)
            if pos.size:
                keep = threshold < self.wer_p[self.planes.classes(
                    self._class_cells(word[w_at[pos]], bit),
                    self.actual.row_bits(cw, pos, bit))]
                w_acc, w_bit = w_at[pos[keep]], bit[keep]
            if corrects.any():
                pos, bit, threshold = self._candidates(
                    r_bounds, self.wer_pmax, lanes)
                if pos.size:
                    acc = pos + np.searchsorted(reads_before, pos,
                                                side="right")
                    keep = threshold < self.wer_p[self.planes.classes(
                        self._class_cells(word[acc], bit),
                        self._intended_bits(word, acc, bit, w_at, cw))]
                    b_acc, b_bit = acc[keep], bit[keep]
            pos, bit, threshold = self._candidates(
                r_bounds, self.disturb_pmax, lanes)
            d_acc = pos + np.searchsorted(reads_before, pos, side="right")
            cells = self._class_cells(word[d_acc], bit)
            stored = np.zeros(pos.size, dtype=np.uint16)
            # Accepted if the stored bit is 0, and if it is 1.
            d0 = threshold < self.disturb_p[
                self.planes.classes(cells, stored)]
            stored += 1
            d1 = threshold < self.disturb_p[
                self.planes.classes(cells, stored)]
            keep = d0 | d1
            d_acc, d_bit, d0, d1 = d_acc[keep], bit[keep], d0[keep], d1[keep]

        starts = np.empty(word.size, dtype=bool)
        starts[0] = True
        np.not_equal(word[1:], word[:-1], out=starts[1:])
        starts = np.flatnonzero(starts)
        dirty = _NO_WORDS
        if self.wrong_bits:
            # A chain's wrong bits matter only to the reads before its
            # first write.
            dirty = starts[~is_write[starts]]
            dirty = dirty[self.err_count[word[dirty].astype(np.intp)] > 0]
        d_intended = d_wrong = d0
        if d_acc.size:
            d_acc, d_bit, d0, d1, d_intended, d_wrong = self._settle_lone(
                word, d_acc, d_bit, d0, d1, w_acc, w_bit, b_acc, b_bit,
                w_at, cw)
        events = np.concatenate([dirty, w_acc, d_acc])
        if not events.size:
            # No wrong bit anywhere in the batch's chains: the writes
            # store clean codewords and every read is clean.
            if w_at.size:
                self._store_last_writes(word, w_at, cw, _NO_WORDS,
                                        _NO_WORDS, profiler)
            return _NO_WORDS, _NO_WORDS, None, None

        # Only the chains with an event need resolving: index their
        # accesses compactly, chain by chain.
        ends = np.append(starts[1:], word.size)
        active = np.unique(np.searchsorted(starts, events, side="right") - 1)
        lo, lengths = starts[active], ends[active] - starts[active]
        offset = np.zeros(active.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offset[1:])
        act = np.arange(offset[-1])
        act += np.repeat(lo - offset[:-1], lengths)
        first = np.repeat(offset[:-1], lengths)

        def local(acc):
            """Compact index of accesses ``acc`` of active chains."""
            chain = np.searchsorted(lo, acc, side="right") - 1
            return offset[chain] + acc - lo[chain]

        wrong0 = np.zeros(act.size, dtype=np.int64)
        wrong0[local(dirty)] = self.err_count[word[dirty]]
        chain = np.searchsorted(lo, b_acc, side="right") - 1
        keep = (chain >= 0) & (b_acc < (lo + lengths)[chain])
        b_acc, b_bit = b_acc[keep], b_bit[keep]
        # Events in access order, a read's write-back errors before its
        # disturb candidates.
        at = local(np.concatenate([w_acc, b_acc, d_acc]))
        order = np.argsort(2 * at + np.repeat(
            [0, 0, 1], [w_acc.size, b_acc.size, d_acc.size]), kind="stable")
        head = np.zeros(w_acc.size + b_acc.size, dtype=bool)
        chains = _resolve_chains(
            is_write[act], first, wrong0, at[order],
            np.concatenate([w_bit, b_bit, d_bit])[order],
            np.repeat([_W, _WB, _D],
                      [w_acc.size, b_acc.size, d_acc.size])[order],
            *(np.concatenate([head, d])[order] for d in (
                d0, d1, d_intended.astype(bool), d_wrong)),
            corrects, code_bits)

        acc = act[chains.at]
        flipped = chains.flip
        final = flipped & chains.final
        bit = chains.bit
        if w_at.size:
            sel = final & (chains.kind == _W)
            self._store_last_writes(word, w_at, cw, acc[sel], bit[sel],
                                    profiler)
        restored = act[chains.fin[chains.fin >= 0]]
        restored = restored[~is_write[restored]]
        if restored.size:
            sel = final & (chains.kind == _WB)
            flips = np.searchsorted(restored, acc[sel]) * code_bits
            flips += bit[sel]
            with _prof(profiler, "place"):
                self.restore_words(word[restored], flips)
        sel = final & (chains.kind == _D)
        if sel.any():
            # Two disturb flips of one cell in one segment cancel.
            cells, times = np.unique(word[acc[sel]] * code_bits + bit[sel],
                                     return_counts=True)
            with _prof(profiler, "place"):
                self.toggle(cells[times % 2 == 1])

        wrong = chains.n_err > 0
        errors = flipped & ((chains.kind == _W) | (chains.kind == _WB))
        disturbed = flipped & (chains.kind == _D)
        if len(lanes) == 1:
            counts = ([int(np.count_nonzero(errors))],
                      [int(np.count_nonzero(disturbed))])
        else:
            shard = word[acc] // self.shard_words
            counts = (np.bincount(shard[errors], minlength=len(lanes)),
                      np.bincount(shard[disturbed], minlength=len(lanes)))
        return (act[chains.reads[wrong]], chains.n_err[wrong], *counts)

    def _settle_lone(self, word, d_acc, d_bit, d0, d1, w_acc, w_bit, b_acc,
                     b_bit, w_at, cw):
        """The disturb candidates that may flip, with their intended
        bits and whether their bit starts the batch wrong.

        A candidate alone on its cell — no write error, write-back
        error or other disturb candidate on the same bit of its word
        this batch — whose bit starts the batch right sees its intended
        bit: it is settled here, and dropped if that rejects it (the
        common case: a disturb table is lopsided between stored 0 and
        1)."""
        code_bits = self.actual.code_bits
        intended = self._intended_bits(word, d_acc, d_bit, w_at, cw)
        wrong = (self._wrong_now(word[d_acc], d_bit) if self.wrong_bits
                 else np.zeros(d_acc.size, dtype=bool))
        cells = np.concatenate([word[acc] * code_bits + bit for acc, bit in
                                ((d_acc, d_bit), (w_acc, w_bit),
                                 (b_acc, b_bit))])
        _, first, times = np.unique(cells, return_index=True,
                                    return_counts=True)
        lone = np.zeros(d_acc.size, dtype=bool)
        alone = first[(times == 1) & (first < d_acc.size)]
        lone[alone] = ~wrong[alone]
        keep = ~lone | np.where(intended.astype(bool), d1, d0)
        return (d_acc[keep], d_bit[keep], d0[keep], d1[keep],
                intended[keep], wrong[keep])

    def _store_last_writes(self, word, w_at, cw, flip_acc, flip_bit,
                           profiler):
        """Store every chain's last write (at accesses ``w_at``, their
        codewords ``cw``), with write errors at the bits ``flip_bit`` of
        the writes at ``flip_acc``."""
        # Index arrays as intp: numpy converts narrower ones per use.
        w_word = word[w_at].astype(np.intp)
        last = np.empty(w_at.size, dtype=bool)
        last[-1] = True
        np.not_equal(w_word[1:], w_word[:-1], out=last[:-1])
        last = np.flatnonzero(last)
        flips = np.searchsorted(w_at[last], flip_acc) * self.actual.code_bits
        flips += flip_bit
        with _prof(profiler, "place"):
            self.write_words(w_word[last], cw.take(last, axis=0), flips)

    def error_counts(self, words):
        return self.err_count[words]

    def rewrite(self, words, bounds, lanes, reclassify=False):
        """Restore whole words through the write path, each shard's
        write errors from its own generator. The class snapshot
        refreshes at batch boundaries only, so a scrub's rewrites
        (``reclassify``) reuse the batch's classes — unlike the per-cell
        test reference, a second-order difference at rare-event rates,
        where the classes differ only around the handful of freshly
        flipped cells."""
        code_bits = self.actual.code_bits

        def class_of(flat):
            position, bit = np.divmod(flat, code_bits)
            word = words[position]
            return self.planes.classes(
                self._class_cells(word, bit),
                self.intended.row_bits(self.intended.lanes, word, bit))

        sizes = [n * code_bits for n in _sizes(bounds)]
        if len(lanes) == 1:
            flips = sample_thinned_flips(sizes[0], self.wer_p, class_of,
                                         lanes[0].rng, self.wer_pmax)
        else:
            flips = sample_thinned_flips(sizes, self.wer_p, class_of,
                                         [lane.rng for lane in lanes],
                                         p_max=self.wer_pmax)
        self.restore_words(words, flips)
        if not flips.size:
            return None
        if len(lanes) == 1:
            return [flips.size]
        return np.bincount(np.searchsorted(
            np.asarray(bounds) * code_bits, flips, side="right") - 1,
            minlength=len(lanes))

    def toggle(self, flat_idx):
        """Flip ``actual`` at flat cells (duplicate-free indices), in
        blocks of :data:`~repro.memsys.bitplane.BLOCK_CELLS`: the
        (word, lane, mask) that flips a mapped cell also reads whether
        it is now wrong, which moves its word's error count (+1 for a
        cell now wrong, -1 for one now right)."""
        step = bitplane.BLOCK_CELLS
        for lo in range(0, flat_idx.size, step):
            word, lane, mask = self.actual.toggle_cells(
                flat_idx[lo:lo + step])
            wrong = self.actual.diff_bits(self.intended, word, lane, mask)
            np.add.at(self.err_count, word, _TOGGLE_DELTA.take(wrong))
            self.wrong_bits += 2 * np.count_nonzero(wrong) - wrong.size

    def write_words(self, word_idx, cw, flips):
        """``intended = actual = cw`` (packed codeword lanes), then
        inject errors at ``flips``: word-major positions in the written
        words' ``(len(word_idx), code_bits)`` cells."""
        self._clear_counts(word_idx)
        cw = row_items(np.ascontiguousarray(cw))
        self._intended_rows[word_idx] = cw
        self._actual_rows[word_idx] = cw
        self._inject(word_idx, flips)

    def restore_words(self, word_idx, flips):
        """``actual = intended`` for whole words, plus write errors at
        ``flips`` (positions as for :meth:`write_words`)."""
        self._clear_counts(word_idx)
        self._actual_rows[word_idx] = self._intended_rows[word_idx]
        self._inject(word_idx, flips)

    def _clear_counts(self, word_idx):
        """Zero the error counts of words about to be rewritten (all
        already 0 when no bit in the array is wrong)."""
        if self.wrong_bits:
            self.wrong_bits -= int(np.add.reduce(self.err_count[word_idx]))
            self.err_count[word_idx] = 0

    def _inject(self, word_idx, flips):
        """Flip the freshly stored (so right) cells at word-major
        positions ``flips`` of ``word_idx``: each is a new wrong bit."""
        if not flips.size:
            return
        position, lane, mask = self.actual.lane_masks(flips)
        word = word_idx[position]
        self.actual.xor_masks(word, lane, mask)
        np.add.at(self.err_count, word, np.int16(1))
        self.wrong_bits += flips.size


#: Error-count change of a toggled cell, by whether it is now wrong.
_TOGGLE_DELTA = np.array([-1, 1], dtype=np.int16)


# kept for perfbench; ROADMAP item 1 deletes it
def resolve_backend(name=None):
    """The one compute path (``.name == "numpy"``) for ``None`` or
    ``"numpy"``; any other name raises
    :class:`~repro.errors.ParameterError`."""
    if name not in (None, "numpy"):
        raise ParameterError(
            f"backend={name!r}: the numba engine backend is retired; "
            "every run uses the numpy path, so drop the argument")
    return SimpleNamespace(name="numpy")


def build_engine(device, pitch, rows=64, cols=64, ecc="secded",
                 workload="random", data_bits=64, scrub=None,
                 vp=0.95, nominal_wer=2e-3, read_voltage=0.15,
                 t_read=20e-9, cycle_time=50e-9, temperature=None,
                 writeback=True, sampler="binomial", backend=None,
                 sense=None, topology=None, banks=None, subarrays=None,
                 half_select_exposure=0.0):
    """Convenience factory: device + knobs -> a reliability engine.

    ``ecc`` and ``workload`` accept registry names (see
    :data:`repro.memsys.ecc.ECC_SCHEMES` and
    :data:`repro.memsys.traffic.WORKLOADS`); ``sampler`` accepts only
    ``"binomial"``, the one Monte-Carlo sampler (any other value raises
    :class:`~repro.errors.ParameterError`), and ``backend`` likewise
    only ``None`` or ``"numpy"``; ``sense`` optionally gates reads
    through a :class:`~repro.memsys.sense.SenseMarginModel`.

    ``topology``/``banks``/``subarrays`` select the array organization
    (see :data:`repro.memsys.topology.TOPOLOGIES`): the default flat
    1x1 case returns a plain :class:`ReliabilityEngine`; anything
    sharded (or any explicit non-flat ``topology``) returns a
    :class:`~repro.memsys.topology.TopologyEngine` over ``rows x
    cols`` tiled into banks x subarrays.
    """
    from ..arrays.layout import ArrayLayout
    if not isinstance(device, MTJDevice):
        raise ParameterError(
            f"device must be an MTJDevice, got {type(device)!r}")
    if sampler != "binomial":
        raise ParameterError(
            f"sampler={sampler!r}: the per-cell 'bernoulli' sampler is "
            "retired; every run draws thinned binomial flips, so "
            "drop the argument")
    resolve_backend(backend)  # kept for perfbench; ROADMAP item 1 deletes it
    n_banks = 1 if banks is None else int(banks)
    n_subarrays = 1 if subarrays is None else int(subarrays)
    if (topology is not None and str(topology) != "flat") \
            or n_banks != 1 or n_subarrays != 1:
        from .topology import ArrayTopology, TopologyEngine
        topo = ArrayTopology(
            kind="banked" if topology is None else topology,
            banks=n_banks, subarrays=n_subarrays, rows=rows,
            cols=cols)
        return TopologyEngine(
            device, topo, pitch=pitch, ecc=ecc, workload=workload,
            data_bits=data_bits, scrub=scrub, vp=vp,
            nominal_wer=nominal_wer, read_voltage=read_voltage,
            t_read=t_read, cycle_time=cycle_time,
            temperature=temperature, writeback=writeback,
            sense=sense)
    layout = ArrayLayout(pitch=pitch, rows=rows, cols=cols)
    ecc_obj = make_ecc(ecc, data_bits=data_bits) if isinstance(
        ecc, str) else ecc
    controller = ArrayController(
        device, layout, ecc_obj, vp=vp, nominal_wer=nominal_wer,
        read_voltage=read_voltage, t_read=t_read,
        temperature=temperature, sense=sense)
    return ReliabilityEngine(controller, workload=workload, scrub=scrub,
                             cycle_time=cycle_time, writeback=writeback,
                             half_select_exposure=half_select_exposure)


def _occurrence_rank(words, n_words=None, return_order=False):
    """Occurrence index of every element within its equal-value group.

    ``_occurrence_rank([7, 3, 7, 7, 3]) == [0, 0, 1, 2, 1]`` — the r-th
    access to each word is link ``r`` of its chain (the word's accesses
    in batch order), which keeps the sequential semantics of repeated
    accesses without a per-transaction loop.

    ``n_words`` bounds the addresses (default: the largest plus one).
    Up to 65536 words the sort runs on ``uint16`` keys, where numpy's
    stable sort is a radix sort (~8x faster than on int64 keys); the
    order, and so the rank, is the same. ``return_order=True`` returns
    ``(rank, order)``, ``order`` the sort's permutation: the accesses
    in chain order.
    """
    n = words.shape[0]
    if n == 0:
        rank = np.zeros(0, dtype=np.int64)
        return (rank, rank.copy()) if return_order else rank
    if n_words is None:
        n_words = int(words.max()) + 1
    order = np.argsort(words.astype(np.uint16) if n_words <= 65536
                       else words, kind="stable")
    sorted_words = words[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_words[1:], sorted_words[:-1],
                 out=new_group[1:])
    starts = np.maximum.accumulate(
        np.where(new_group, np.arange(n), 0))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - starts
    return (rank, order) if return_order else rank


def _chain_order(batch, n_words, offset, word, is_write):
    """Write a :class:`~repro.memsys.traffic.TrafficBatch`'s accesses
    into ``word`` (each plus ``offset``) and ``is_write`` in chain
    order: by word, each word's accesses in batch order — the stable
    sort behind :func:`_occurrence_rank`."""
    _, order = _occurrence_rank(batch.word, n_words, return_order=True)
    np.add(batch.word[order], offset, out=word, casting="unsafe")
    is_write[:] = batch.is_write[order]


#: Kinds of chain event: a write's write error, a write-back's write
#: error, a disturb candidate.
_W, _WB, _D = range(3)


def _resolve_chains(is_write, first, wrong0, at, bit, kind, accept0,
                    accept1, intended, wrong, corrects, code_bits):
    """Settle every chain of a batch at once, by fixed-point passes.

    The chains' accesses are indexed ``0..A`` in chain order;
    ``is_write`` marks the writes, ``first`` holds each access's chain
    start, and ``wrong0`` the number of wrong bits each chain starts the
    batch with (at its start). A write stores its codeword; a read
    counts the bits its *segment* — the chain since its last store, or
    since the batch start — left wrong, and iff ``corrects[count]``
    writes its word back (a store too). After an access come its
    events (``E`` of them, sorted by access ``at``), each at codeword
    bit ``bit``: ``_W``, a write error of the write; ``_WB``, a write
    error of the read's write-back (real only if it writes back); then
    ``_D``, a disturb candidate of the read, which flips if ``accept1``
    (stored bit 1) or ``accept0`` (stored bit 0) says so. Its stored
    bit is its ``intended`` bit — flipped if the bit was ``wrong`` at
    the batch start and no store came since — unless its segment
    flipped it an odd number of times.

    Each unknown — a disturb candidate's flip, a read's write-back —
    depends only on the unknowns before it in its chain. So a pass
    that recomputes all of them from the previous pass's values fixes
    at least one more link of every chain, and the first pass that
    changes nothing has reached the one consistent (sequential)
    outcome; the number of passes is the chains' conflict depth plus
    one.

    Returns a namespace: per event in (chain, bit, access) order its
    ``at``, ``bit``, ``kind``, whether it ``flip``-ped, whether it is
    in its chain's ``final`` segment; per chain the access of its last
    store ``fin`` (-1: none this batch); the accesses of the ``reads``
    and each one's error count ``n_err``; and the ``passes`` taken.
    """
    n_events = at.size
    index = np.arange(is_write.size)
    reads = np.flatnonzero(~is_write)
    # Events grouped by cell (chain, bit), each cell's in access order.
    cell = first[at] * code_bits + bit
    perm = np.argsort(cell, kind="stable")
    cell = cell[perm]
    new_cell = np.empty(n_events, dtype=bool)
    new_cell[:1] = True
    np.not_equal(cell[1:], cell[:-1], out=new_cell[1:])
    at, bit, kind = at[perm], bit[perm], kind[perm]
    chain = first[at]
    write_back = np.flatnonzero(kind == _WB)
    wb_read = np.searchsorted(reads, at[write_back])
    disturb = np.flatnonzero(kind == _D)
    accept0, accept1 = accept0[perm][disturb], accept1[perm][disturb]
    intended, wrong = intended[perm][disturb], wrong[perm][disturb]
    flip = (kind == _W).astype(np.int64)
    # Events before each access, in access order: a segment that
    # starts at access i (a store, or the chain's batch start) counts
    # from ``before[i]``, and a read at i up to ``before[i]``.
    before = np.zeros(index.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(at, minlength=index.size), out=before[1:])
    counted = before[reads]
    read_first = first[reads]
    positions = np.arange(n_events)

    # Guess: no read writes back, no disturb candidate meets a flip.
    writes_back = np.zeros(reads.size, dtype=bool)
    flips = np.where(intended ^ wrong, accept1, accept0)
    for passes in itertools.count(1):
        store = is_write.copy()
        store[reads[writes_back]] = True
        last = np.maximum.accumulate(np.where(store, index, -1))
        segment = last[at]
        segment[segment < chain] = -1
        flip[write_back] = writes_back[wb_read]
        flip[disturb] = flips
        start = new_cell.copy()
        start[1:] |= segment[1:] != segment[:-1]
        parity = np.cumsum(flip)
        parity -= flip
        parity -= parity[np.maximum.accumulate(
            np.where(start, positions, 0))]
        parity &= 1
        parity[disturb] ^= wrong & (segment[disturb] < 0)
        new_flips = np.where(intended ^ parity[disturb].astype(bool),
                             accept1, accept0)
        # Each flip makes its bit wrong (+1) or right again (-1); a
        # read's count sums its segment's flips before it.
        delta = np.empty(n_events, dtype=np.int64)
        delta[perm] = flip * (1 - 2 * parity)
        total = np.zeros(n_events + 1, dtype=np.int64)
        np.cumsum(delta, out=total[1:])
        prior = last[reads - 1]
        if reads.size and reads[0] == 0:
            prior[0] = -1
        fresh = prior < read_first
        n_err = total[counted] - total[before[np.where(
            fresh, read_first, prior)]]
        n_err[fresh] += wrong0[read_first[fresh]]
        new_writes_back = corrects[n_err]
        if (np.array_equal(new_flips, flips)
                and np.array_equal(new_writes_back, writes_back)):
            break
        if passes > flips.size + reads.size:
            raise RuntimeError("chain resolution did not settle")
        flips, writes_back = new_flips, new_writes_back

    starts = np.flatnonzero(first == index)
    fin = last[np.append(starts[1:], index.size) - 1]
    fin[fin < starts] = -1
    final = segment == fin[np.searchsorted(starts, chain)]
    return SimpleNamespace(at=at, bit=bit, kind=kind,
                           flip=flip.astype(bool), final=final, fin=fin,
                           reads=reads, n_err=n_err, passes=passes)
