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
with exact per-word error counters; the candidates' classes come from
bit-sliced class planes rebuilt once per batch in O(cells / 64) word
operations. Cost O(cells / 64 + candidates), which is what makes
nominal_wer <= 1e-6 scenarios reachable.

The driver owns everything else once: restore or init, the batch loop
(classify, whole-array terms, scrub, occurrence-rank rounds), ECC
bookkeeping, checkpoints and progress. Every mechanism is one flat
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
from .bitplane import BitPlane, lane_bits, pack_bits
from .controller import ArrayController
from .ecc import DecodeOutcome, NoECC, make_ecc
from .sampling import ClassPlanes, sample_class_flips, sample_thinned_flips
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

        Batches are split into *occurrence-rank rounds* — in round ``r``
        every word address appears at most once, so repeated accesses to
        the same word keep their exact sequential semantics while each
        round is a pure numpy array step. Coupling classes and
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
        the order a lone run makes it — per batch traffic, drift and
        scrub; per round write data, write flips, write-backs and
        disturb — while the RNG-free work (SEC-DED encode, placement,
        error counts, ECC classify, bookkeeping) runs once over all
        shards. So each shard's counters are byte-identical to running
        it alone, and a round's numpy dispatch is paid once, not once
        per shard.
        """
        words_per_shard = self.controller.words.n_words
        code_bits = self.controller.ecc.n_code
        n_shards = len(lanes)
        state = _PackedState.stacked(self, n_shards)
        for shard, lane in enumerate(lanes):
            lane.open(self, state, shard)
        state.build()
        tally = _Tally([lane.result for lane in lanes])
        done = total - sum(lane.remaining for lane in lanes)
        # The batches held for the rounds keep their global words as
        # int32 below 2**31 cells (half the memory); each round widens
        # its own slice back to intp for indexing.
        index = (np.int32 if n_shards * self.controller.layout.n_cells
                 < 2**31 else np.int64)
        while True:
            sizes = [min(batch_size, lane.remaining) for lane in lanes]
            if not any(sizes):
                break
            # Each shard's batch, cut into rounds by one stable sort: by
            # occurrence rank, writes before reads within a round, in
            # batch order — so every round of a shard is a contiguous
            # slice of ``ordered[shard]``.
            ordered = [_NO_WORDS] * n_shards
            per_key = [_NO_WORDS] * n_shards
            for shard, (lane, n) in enumerate(zip(lanes, sizes)):
                if n:
                    lane.remaining -= n
                    batch = lane.workload.batch(n, words_per_shard,
                                                lane.rng)
                    key = 2 * _occurrence_rank(batch.word, words_per_shard)
                    key += ~batch.is_write
                    order = np.argsort(key.astype(np.uint16)
                                       if 2 * n <= 65536 else key,
                                       kind="stable")
                    ordered[shard] = (batch.word[order] + shard
                                      * words_per_shard).astype(index)
                    per_key[shard] = np.bincount(key)
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

            # Round r stacks every shard's writes of key 2r, then every
            # shard's reads of key 2r + 1: one array, cut per shard by
            # the round's write and read bounds.
            n_keys = 2 * ((max(c.size for c in per_key) + 1) // 2)
            counts = np.zeros((n_shards, n_keys), dtype=np.int64)
            for shard, c in enumerate(per_key):
                counts[shard, :c.size] = c
            offsets = np.zeros((n_shards, n_keys + 1), dtype=np.int64)
            np.cumsum(counts, axis=1, out=offsets[:, 1:])
            bounds = np.zeros((n_keys, n_shards + 1), dtype=np.int64)
            np.cumsum(counts.T, axis=1, out=bounds[:, 1:])
            n_writes = counts[:, 0::2].sum(axis=1)
            n_reads = counts[:, 1::2].sum(axis=1)
            tally.add("n_transactions", sizes)
            tally.add("n_writes", n_writes)
            tally.add("bits_written", n_writes * code_bits)
            tally.add("n_reads", n_reads)
            tally.add("bits_read", n_reads * code_bits)
            offsets, bounds = offsets.tolist(), bounds.tolist()
            for key in range(0, n_keys, 2):
                self._apply_round_binomial(
                    np.concatenate(
                        [words[at[key]:at[key + 1]]
                         for words, at in zip(ordered, offsets)]
                        + [words[at[key + 1]:at[key + 2]]
                           for words, at in zip(ordered, offsets)],
                        dtype=np.intp),
                    bounds[key], bounds[key + 1], state, lanes, tally,
                    profiler)

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

    def _apply_round_binomial(self, words, write_bounds, read_bounds,
                              state, lanes, tally, profiler=None):
        """One occurrence-rank round of every shard.

        Every word in ``words`` is unique. The writes come first —
        shard ``s``'s are ``write_bounds[s]:write_bounds[s + 1]`` —
        then the reads, cut per shard by ``read_bounds`` alike. (The
        name predates the shared round; perfbench's trace hooks wrap
        it by name.)
        """
        ctl = self.controller
        n_writes = write_bounds[-1]
        if n_writes:
            w_words = words[:n_writes]
            words_per_shard = ctl.words.n_words
            data = [self._write_data(lanes[shard], w_words[lo:hi]
                                     - shard * words_per_shard)
                    for shard, lo, hi in _segments(write_bounds)]
            with _prof(profiler, "ecc"):
                cw = ctl.ecc.encode_lanes(
                    data[0] if len(data) == 1 else np.concatenate(data))
            tally.add("write_errors", state.write(
                w_words, write_bounds, cw, lanes, profiler))

        # Reads: sense, classify via ECC, write back correctables, then
        # apply the disturb of the read current to the stored state.
        r_words = words[n_writes:]
        if r_words.size:
            if state.wrong_bits:
                with _prof(profiler, "ecc"):
                    self._book_read_errors(r_words, read_bounds, state,
                                           lanes, tally)
            else:
                # No mismatched bit anywhere in the array: every read
                # is clean without touching any per-word array.
                tally.add("words_ok", _sizes(read_bounds))
            tally.add("disturb_flips", state.disturb(
                r_words, read_bounds, lanes, profiler))

    def _write_data(self, lane, local_words):
        """Packed data lanes stored by a shard's writes (pattern-aware:
        a stress workload's background bits, packed once here)."""
        ctl = self.controller
        if isinstance(lane.workload, StressPatternWorkload):
            return pack_bits(lane.workload.background_data(
                local_words, ctl.words, ctl.ecc.data_positions))
        return lane.workload.write_data(local_words, ctl.ecc.n_data,
                                        lane.rng)

    def _book_read_errors(self, r_words, bounds, state, lanes, tally):
        """ECC bookkeeping for a read round with live errors present:
        one error-count gather and one classify over every shard,
        booked per shard by one shard-offset bincount."""
        n_err = state.error_counts(r_words)
        outcomes = self.controller.ecc.classify_errors(n_err)
        n_shards = len(lanes)
        shard = _shard_of(bounds)
        by_outcome = np.bincount(
            outcomes if shard is None else shard * 4 + outcomes,
            minlength=4 * n_shards).reshape(-1, 4).tolist()
        # words_ok .. words_silent are consecutive counters, in
        # DecodeOutcome order.
        tally.add("words_ok", by_outcome)
        tally.add("raw_bit_errors", _shard_sums(shard, n_err, n_shards))
        if any(row[DecodeOutcome.DETECTED] or row[DecodeOutcome.SILENT]
               for row in by_outcome):
            uncorr = outcomes >= DecodeOutcome.DETECTED
            tally.add("uncorrectable_bit_errors", _shard_sums(
                None if shard is None else shard[uncorr], n_err[uncorr],
                n_shards))
        corrected = [row[DecodeOutcome.CORRECTED] for row in by_outcome]
        if self.writeback and any(corrected):
            code_bits = self.controller.ecc.n_code
            tally.add("bits_written", [n * code_bits for n in corrected])
            tally.add("write_errors", state.rewrite(
                r_words[outcomes == DecodeOutcome.CORRECTED],
                [0, *itertools.accumulate(corrected)], lanes))

    def _run_scrub(self, state, shard, lanes, tally):
        """One scrub pass over every word of ``shard``."""
        words_per_shard = self.controller.words.n_words
        words = np.arange(shard * words_per_shard,
                          (shard + 1) * words_per_shard)
        n_err = state.error_counts(words)
        outcomes = self.controller.ecc.classify_errors(n_err)
        fixable = ((outcomes == DecodeOutcome.CORRECTED)
                   | (outcomes == DecodeOutcome.OK)) & (n_err > 0)
        tally.add("n_scrubs", 1, shard)
        tally.add("scrub_corrected_words", int(fixable.sum()), shard)
        tally.add("scrub_uncorrectable_words",
                  int((outcomes >= DecodeOutcome.DETECTED).sum()), shard)
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

#: An idle shard's batch: no words.
_NO_WORDS = np.zeros(0, dtype=np.int32)


def _segments(bounds):
    """``(shard, lo, hi)`` of every non-empty shard segment of
    ``bounds`` (shard ``s`` owns ``bounds[s]:bounds[s + 1]``)."""
    return [(shard, lo, hi) for shard, (lo, hi)
            in enumerate(zip(bounds, bounds[1:])) if hi > lo]


def _sizes(bounds):
    """Per-shard segment sizes of ``bounds``."""
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def _shard_of(bounds):
    """Owning shard of every position of a ``bounds``-cut array, or
    None when one shard owns them all."""
    if len(bounds) == 2:
        return None
    return np.repeat(np.arange(len(bounds) - 1), _sizes(bounds))


def _shard_sums(shard, values, n_shards):
    """Per-shard integer sums of ``values``, ``shard`` as from
    :func:`_shard_of`."""
    if shard is None:
        return [int(values.sum())]
    return np.bincount(shard, weights=values,
                       minlength=n_shards).astype(np.int64)


class _Tally:
    """Counters of a stacked run: one row of ints per shard, one column
    per :data:`_COUNTERS` field. A round books all shards at once from
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
        # of the older class-grouped draw (no such field) is refused.
        self.identity = {
            "n_transactions": self.n_transactions,
            "batch_size": batch_size,
            "seed_state": record_digest(self.rng.bit_generator.state),
            "write_stream": "uint64-lanes",
            "drift_stream": "thinned",
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
# whole-array term from a flat (50,) class table), write, error_counts,
# rewrite and disturb. The access verbs take a round's global words
# with per-shard ``bounds``, draw each shard's flips on that shard's
# generator, place them all at once and return per-shard flip counts.


class _PackedState:
    """Packed planes + class planes + exact per-word error counters:
    the engine's Monte-Carlo state.

    Every term is an exact thinned draw
    (:func:`~repro.memsys.sampling.sample_thinned_flips`): a binomial
    candidate count at the table's largest class probability, uniform
    candidates, each kept per its class — over the whole array for the
    retention and sneak terms (:func:`sample_class_flips`), over a
    round's cells for write, rewrite and disturb. Every candidate takes
    its class from :class:`~repro.memsys.sampling.ClassPlanes`, the
    batch-start bit and neighbor-count planes that :meth:`classify`
    rebuilds once per batch.

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
    mapped cell. The class planes index shard ``s``'s row-major ``rows
    x cols`` cells from ``s * rows * cols``; a mapped cell ``c`` of
    shard ``s`` sits at ``c + s * T`` there.
    """

    def __init__(self, intended, actual, planes, controller):
        self.intended = intended
        self.actual = actual
        self.planes = planes
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
        sets up the class planes."""
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
        # class planes are a pure function of the actual plane and
        # rebuild from it.
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

    def _cells(self, words, flat):
        """Plane cells at word-major positions ``flat`` of ``words``."""
        word, bit = np.divmod(flat, self.actual.code_bits)
        return words[word] * self.actual.code_bits + bit

    def _thinned(self, words, bounds, lanes, p_class, p_max, bits_of):
        """One thinned draw over every shard's segment of ``words``,
        each shard's candidates from its own generator. Candidates map
        to plane cells arithmetically (no ``(n, code_bits)`` cell
        gather) and take their class from the class planes, their bit
        from ``bits_of(position, bit, word)`` (a candidate's word's
        position in ``words``, its codeword bit and its global word).
        Returns ``(flipped plane cells, per-shard flip counts)``, the
        counts None when nothing flipped."""
        code_bits = self.actual.code_bits
        one = len(lanes) == 1

        def class_of(flat):
            position, bit = np.divmod(flat, code_bits)
            word = words[position]
            # The candidates' cells in the class planes' stacked order.
            at = word * code_bits + bit
            if not one:
                at += word // self.shard_words * self.tail_cells
            return self.planes.classes(at, bits_of(position, bit, word))

        if one:
            flat = sample_thinned_flips(bounds[1] * code_bits, p_class,
                                        class_of, lanes[0].rng, p_max)
        else:
            flat = sample_thinned_flips(
                [size * code_bits for size in _sizes(bounds)], p_class,
                class_of, [lane.rng for lane in lanes], p_max=p_max)
        if not flat.size:
            return flat, None
        counts = [flat.size]
        if not one:
            counts = np.bincount(np.searchsorted(
                np.asarray(bounds) * code_bits, flat, side="right") - 1,
                minlength=len(lanes))
        return self._cells(words, flat), counts

    def write(self, words, bounds, cw, lanes, profiler):
        """Store the packed codewords ``cw`` at ``words``, with write
        errors."""
        with _prof(profiler, "draw"):
            flips, counts = self._thinned(
                words, bounds, lanes, self.wer_p, self.wer_pmax,
                lambda position, bit, word: lane_bits(cw, position, bit))
        with _prof(profiler, "place"):
            self.write_words(words, cw, flips)
        return counts

    def error_counts(self, words):
        return self.err_count[words]

    def rewrite(self, words, bounds, lanes, reclassify=False):
        """Restore whole words through the write path. The class planes
        refresh at batch boundaries only, so a scrub's rewrites
        (``reclassify``) reuse the batch's classes — unlike the per-cell
        test reference, a second-order difference at rare-event rates,
        where the classes differ only around the handful of freshly
        flipped cells."""
        flips, counts = self._thinned(
            words, bounds, lanes, self.wer_p, self.wer_pmax,
            lambda position, bit, word: lane_bits(self.intended.lanes,
                                                  word, bit))
        self.restore_words(words, flips)
        return counts

    def disturb(self, words, bounds, lanes, profiler):
        # Candidates are classified lazily, from the post-rewrite
        # stored bits.
        with _prof(profiler, "draw"):
            flips, counts = self._thinned(
                words, bounds, lanes, self.disturb_p, self.disturb_pmax,
                lambda position, bit, word: lane_bits(self.actual.lanes,
                                                      word, bit))
        if flips.size:
            with _prof(profiler, "place"):
                self.toggle(flips)
        return counts

    def toggle(self, flat_idx):
        """Flip ``actual`` at flat cells (duplicate-free indices)."""
        mapped = flat_idx[flat_idx < self.actual.n_mapped]
        if mapped.size:
            wrong_before = (self.actual.get_cells(mapped)
                            != self.intended.get_cells(mapped))
            delta = (1 - 2 * wrong_before.astype(np.int16))
            np.add.at(self.err_count,
                      mapped // self.actual.code_bits, delta)
            self.wrong_bits += int(delta.sum())
        self.actual.toggle_cells(flat_idx)

    def write_words(self, word_idx, cw, flip_cells):
        """``intended = actual = cw`` (packed codeword lanes), then
        inject errors at ``flip_cells`` (flat cell indices inside the
        written words)."""
        self.wrong_bits -= int(self.err_count[word_idx].sum())
        self.err_count[word_idx] = 0
        self.intended.lanes[word_idx] = cw
        self.actual.lanes[word_idx] = cw
        self._inject(flip_cells)

    def restore_words(self, word_idx, flip_cells):
        """``actual = intended`` for whole words, plus write errors."""
        self.wrong_bits -= int(self.err_count[word_idx].sum())
        self.err_count[word_idx] = 0
        self.actual.lanes[word_idx] = self.intended.lanes[word_idx]
        self._inject(flip_cells)

    def _inject(self, flip_cells):
        if not flip_cells.size:
            return
        self.actual.toggle_cells(flip_cells)
        np.add.at(self.err_count,
                  flip_cells // self.actual.code_bits,
                  np.int16(1))
        self.wrong_bits += int(flip_cells.size)


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


def _occurrence_rank(words, n_words=None):
    """Occurrence index of every element within its equal-value group.

    ``_occurrence_rank([7, 3, 7, 7, 3]) == [0, 0, 1, 2, 1]`` — the r-th
    access to each word lands in round ``r``, preserving the sequential
    semantics of repeated accesses without a per-transaction loop.

    ``n_words`` bounds the addresses (default: the largest plus one).
    Up to 65536 words the sort runs on ``uint16`` keys, where numpy's
    stable sort is a radix sort (~8x faster than on int64 keys); the
    order, and so the rank, is the same.
    """
    n = words.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
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
    return rank
