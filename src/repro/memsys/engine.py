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
  buried under Monte-Carlo noise. It draws nothing, so its output is
  bit-identical for every ``sampler``.

Monte Carlo is one driver (:meth:`ReliabilityEngine.run`) over two
state classes; ``sampler`` picks the state (see
:mod:`repro.memsys.sampling`):

* ``sampler="bernoulli"`` — the reference path, ``_DenseState``: one
  uniform per cell per mechanism against dense int8 planes. Cost
  O(cells) per batch.
* ``sampler="binomial"`` — the rare-event fast path, ``_PackedState``:
  flip *counts* are drawn per coupling class (at most 50 distinct
  probabilities) and placed by index choice; ``intended``/``actual``
  live bit-packed in uint64 lanes (:mod:`repro.memsys.bitplane`) with
  exact per-word error counters; the class maps refresh incrementally
  around the cells that actually changed. Cost O(classified + flips),
  which is what makes nominal_wer <= 1e-6 scenarios reachable.

The driver owns everything else once: restore or init, the batch loop
(classify, whole-array terms, scrub, occurrence-rank rounds), ECC
bookkeeping, checkpoints and progress. Every mechanism is one flat
(50,) per-class table from the controller — write error and read
disturb per access, retention and the cross-point half-select term as
a list of whole-array ``(counter, table)`` terms the driver walks —
and each state draws against the same tables.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict

import numpy as np

from ..device.mtj import MTJDevice
from ..errors import ParameterError
from ..experiments.base import ExperimentResult
from ..integrity.manifest import record_digest
from ..resilience.checkpoint import as_checkpointer
from ..validation import require_non_negative, require_positive
from .backends import resolve_backend
from .bitplane import BitPlane
from .controller import ArrayController
from .ecc import DecodeOutcome, NoECC, make_ecc
from .sampling import (
    IncrementalClassMaps,
    sample_class_flips,
    sample_thinned_flips,
    validate_sampler,
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
        """Ordered ``{phase: seconds}``; adds ``other``/``total`` rows
        when the run's total wall-time is known."""
        out = {name: self.seconds.get(name, 0.0)
               for name in self.PHASES if name in self.seconds}
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
    for spec in dataclass_fields(MemsysResult):
        if spec.name in ("config", "simulated_time", "extras"):
            continue
        setattr(merged, spec.name,
                sum(getattr(r, spec.name) for r in results))
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
    sampler:
        ``"bernoulli"`` (reference: one uniform per cell per mechanism)
        or ``"binomial"`` (rare-event fast path: class-grouped flip
        counts over bit-packed state). Statistically equivalent;
        ``expected_rates`` is identical under both.
    backend:
        Compute backend for the binomial fast path's hot kernels (see
        :mod:`repro.memsys.backends`): a registry name (``"numpy"`` /
        ``"numba"``), a backend instance, or ``None`` to consult
        ``REPRO_ENGINE_BACKEND`` and default to numpy. Resolved once at
        construction; a ``numba`` request degrades to numpy (warn once)
        when numba is absent. The bernoulli reference path never uses
        it.
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
                 sampler="bernoulli", backend=None,
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
        self.sampler = validate_sampler(sampler)
        self.backend = resolve_backend(backend)
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
            "sampler": self.sampler,
            "backend": self.backend.name,
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
        round is a pure numpy array step. Coupling-class maps and
        retention exposure refresh at batch boundaries (the background
        data drifts slowly relative to a batch).

        The constructor's ``sampler`` selects how flips are drawn: the
        ``bernoulli`` reference draws one uniform per cell per
        mechanism; the ``binomial`` fast path draws per-class flip
        counts over bit-packed state. Both are deterministic under a
        seeded ``rng`` and statistically equivalent; their draw
        streams (and therefore individual seeded counters) differ.

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
        ``other``/``total``), so backend wins are attributable — also
        when the answer comes from a finalized checkpoint. Timing
        never touches the draw stream: a profiled run is bit-identical
        to an unprofiled one.

        ``checkpoint`` (a directory path, a
        :class:`~repro.resilience.checkpoint.CheckpointManager`, or a
        pre-built :class:`~repro.resilience.checkpoint.RunCheckpointer`)
        arms crash tolerance: the complete dynamic state — plane
        arrays, RNG generator state, counters, workload and scrub
        stream state — is snapshotted atomically at batch boundaries,
        at most every ``checkpoint_every`` transactions (default: every
        batch). With ``resume=True`` a matching checkpoint restores the
        run mid-stream and the completed result is byte-identical to
        the uninterrupted seeded run; a corrupt, stale, or absent
        checkpoint degrades to a clean restart with a counted
        :class:`~repro.errors.ResilienceWarning`. Saving never changes
        the draw stream: a checkpointed run is bit-identical to an
        unprotected one.
        """
        require_positive(n_transactions, "n_transactions")
        require_positive(batch_size, "batch_size")
        rng = np.random.default_rng(rng)
        profiler = PhaseProfiler() if profile else None
        t0 = time.perf_counter()
        ckpt = as_checkpointer(checkpoint, every=checkpoint_every)
        key = restored = identity = None
        if ckpt is not None:
            key = record_digest((self._config(), int(n_transactions),
                                 int(batch_size)))
            # The run's identity record: every config field flattened,
            # plus the shape and a digest of the generator's *initial*
            # state (the seed's footprint — deliberately outside the
            # key, since resume restores the generator mid-stream, but
            # inside the identity so resuming with the wrong seed is a
            # named error rather than a silent seed swap).
            identity = {
                "n_transactions": int(n_transactions),
                "batch_size": int(batch_size),
                "seed_state": record_digest(rng.bit_generator.state),
                **{str(k): v for k, v in self._config().items()},
            }
            if resume:
                restored = ckpt.restore(key, identity=identity)
        if restored is not None and restored.get("complete"):
            result = restored["result"]
        else:
            result = self._drive(int(n_transactions), rng,
                                 int(batch_size), progress, profiler,
                                 ckpt, key, restored, identity)
        if profiler is not None:
            result.extras["profile"] = profiler.breakdown(
                total=time.perf_counter() - t0)
        return result

    def _drive(self, n_transactions, rng, batch_size, progress,
               profiler, ckpt, key, restored, identity):
        """The batch loop of both samplers, over the sampler's state."""
        words = self.controller.words
        state_cls = (_PackedState if self.sampler == "binomial"
                     else _DenseState)
        if restored is not None:
            # Resume mid-stream: the saved RNG state already accounts
            # for every draw up to the checkpointed boundary (including
            # initial_bits), so nothing is drawn here.
            state = state_cls.restore(self, restored)
            self.workload = restored["workload"]
            self.scrub = restored["scrub"]
            self.workload.bind(words)
            result = restored["result"]
            now = float(restored["now"])
            remaining = int(restored["remaining"])
            rng.bit_generator.state = restored["rng_state"]
        else:
            layout = self.controller.layout
            initial = self.workload.initial_bits(layout.rows, layout.cols,
                                                 rng)
            state = state_cls.fresh(self, np.asarray(
                initial, dtype=np.int8).reshape(-1))
            self.workload.bind(words)
            self.workload.reset()
            self.scrub.reset()
            result = MemsysResult(config=self._config())
            now = 0.0
            remaining = n_transactions
        while remaining > 0:
            n = min(batch_size, remaining)
            remaining -= n
            batch = self.workload.batch(n, words.n_words, rng)
            with _prof(profiler, "classify"):
                state.classify()

            # Whole-array terms accrued over this batch's window; a due
            # scrub repairs the accumulation *before* the window's
            # accesses observe it.
            now += n * self.cycle_time
            for counter, table in self._drift_terms(n):
                setattr(result, counter, getattr(result, counter)
                        + state.drift(table, rng, profiler))
            if self.scrub.due(now):
                with _prof(profiler, "scrub"):
                    self._run_scrub(state, rng, result)
                self.scrub.mark_done(now)

            rank = _occurrence_rank(batch.word)
            for r in range(int(rank.max()) + 1 if len(batch) else 0):
                sel = rank == r
                self._apply_round_binomial(
                    batch.word[sel], batch.is_write[sel], state, rng,
                    result, profiler)

            result.n_transactions += n
            if ckpt is not None and remaining > 0:
                ckpt.maybe_save(result.n_transactions, lambda: {
                    "key": key, "identity": identity,
                    "rng_state": rng.bit_generator.state,
                    **state.snapshot(),
                    "workload": self.workload, "scrub": self.scrub,
                    "result": result, "now": now,
                    "remaining": remaining})
            if progress is not None:
                progress(result.n_transactions, n_transactions)

        result.simulated_time = now
        if ckpt is not None:
            ckpt.finalize(key, result, identity=identity)
        return result

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

    def _apply_round_binomial(self, round_words, is_write, state, rng,
                              result, profiler=None):
        """One occurrence-rank round of either sampler: every word in
        ``round_words`` is unique. (The name predates the shared
        round; perfbench's trace hooks wrap it by name.)"""
        ctl = self.controller
        cells_of = ctl.words.cells

        w_words = round_words[is_write]
        result.n_writes += int(w_words.size)
        if w_words.size:
            data = self._write_data(w_words, rng)
            with _prof(profiler, "ecc"):
                cw = ctl.ecc.encode(data)
            result.bits_written += int(cw.size)
            result.write_errors += state.write(
                w_words, cells_of[w_words], cw, rng, profiler)

        # Reads: sense, classify via ECC, write back correctables, then
        # apply the disturb of the read current to the stored state.
        r_words = round_words[~is_write]
        result.n_reads += int(r_words.size)
        if r_words.size:
            cells = cells_of[r_words]
            result.bits_read += int(cells.size)
            if state.wrong_bits:
                with _prof(profiler, "ecc"):
                    self._book_read_errors(r_words, cells, state, rng,
                                           result)
            else:
                # No mismatched bit anywhere in the array: every read
                # is clean without touching any per-word array.
                result.words_ok += int(r_words.size)
            result.disturb_flips += state.disturb(cells, rng, profiler)

    def _write_data(self, w_words, rng):
        """Data stored by a batch of writes (pattern-aware)."""
        ctl = self.controller
        if isinstance(self.workload, StressPatternWorkload):
            return self.workload.background_data(
                w_words, ctl.words, ctl.ecc.data_positions)
        return self.workload.write_data(w_words, ctl.ecc.n_data, rng)

    def _book_read_errors(self, r_words, cells, state, rng, result):
        """ECC bookkeeping for a read round with live errors present."""
        n_err = state.error_counts(r_words, cells)
        outcomes = self.controller.ecc.classify_errors(n_err)
        by_outcome = np.bincount(outcomes, minlength=4)
        result.raw_bit_errors += int(n_err.sum())
        result.words_ok += int(by_outcome[DecodeOutcome.OK])
        result.words_corrected += int(
            by_outcome[DecodeOutcome.CORRECTED])
        result.words_detected += int(by_outcome[DecodeOutcome.DETECTED])
        result.words_silent += int(by_outcome[DecodeOutcome.SILENT])
        if by_outcome[DecodeOutcome.DETECTED] or by_outcome[
                DecodeOutcome.SILENT]:
            uncorr = outcomes >= DecodeOutcome.DETECTED
            result.uncorrectable_bit_errors += int(n_err[uncorr].sum())
        if self.writeback and by_outcome[DecodeOutcome.CORRECTED]:
            corrected = outcomes == DecodeOutcome.CORRECTED
            result.bits_written += int(cells[corrected].size)
            result.write_errors += state.rewrite(
                r_words[corrected], cells[corrected], rng)

    def _run_scrub(self, state, rng, result):
        """One scrub pass over every word."""
        cells = self.controller.words.cells
        n_err = state.error_counts(slice(None), cells)
        outcomes = self.controller.ecc.classify_errors(n_err)
        fixable = ((outcomes == DecodeOutcome.CORRECTED)
                   | (outcomes == DecodeOutcome.OK)) & (n_err > 0)
        result.n_scrubs += 1
        result.scrub_corrected_words += int(fixable.sum())
        result.scrub_uncorrectable_words += int(
            (outcomes >= DecodeOutcome.DETECTED).sum())
        if np.any(fixable):
            fixed = np.flatnonzero(fixable)
            result.bits_written += int(cells[fixed].size)
            result.write_errors += state.rewrite(
                fixed, cells[fixed], rng, reclassify=True)

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
        cells = ctl.words.cells
        p = np.clip(table.reshape(2, 5, 5)[bits[cells], nd[cells],
                                           ng[cells]],
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


# -- sampler states ------------------------------------------------------
#
# The driver talks to one of two state classes through the same verbs:
# fresh/restore/snapshot (lifecycle and checkpoint payload), classify
# (batch-boundary class maps), drift (a whole-array term from a flat
# (50,) class table), write, error_counts, rewrite and disturb. Each
# mutating verb draws its flips and returns how many it placed.


class _DenseState:
    """Dense int8 planes of the bernoulli reference path.

    Every mechanism draws one uniform per exposed cell against its
    class table gathered at ``(bit, nd, ng)``; ``nd``/``ng`` are the
    batch's coupling-class maps, recomputed whole at every batch
    boundary. Dense planes keep no running error total, so every read
    books its errors (``wrong_bits`` is always true).
    """

    wrong_bits = True

    def __init__(self, intended, actual, controller):
        self.intended = intended
        self.actual = actual
        self.controller = controller
        self.nd = self.ng = None
        self.wer_p = controller.wer_class_probability().reshape(2, 5, 5)
        self.disturb_p = controller.disturb_class_probability().reshape(
            2, 5, 5)

    @classmethod
    def fresh(cls, engine, bits):
        return cls(bits.copy(), bits.copy(), engine.controller)

    @classmethod
    def restore(cls, engine, saved):
        return cls(np.asarray(saved["intended"], dtype=np.int8),
                   np.asarray(saved["actual"], dtype=np.int8),
                   engine.controller)

    def snapshot(self):
        return {"intended": self.intended, "actual": self.actual}

    def classify(self):
        self.nd, self.ng = self.controller.class_maps(self.actual)

    def _draw(self, table, bits, cells, rng, profiler=None, maps=None):
        """Boolean flip mask of ``cells`` holding ``bits``."""
        nd, ng = (self.nd, self.ng) if maps is None else maps
        with _prof(profiler, "draw"):
            return rng.random(bits.shape) < table[bits, nd[cells],
                                                  ng[cells]]

    def drift(self, table, rng, profiler):
        flips = self._draw(table.reshape(2, 5, 5), self.actual,
                           slice(None), rng, profiler)
        with _prof(profiler, "place"):
            self.actual ^= flips
        return int(flips.sum())

    def write(self, word_idx, cells, cw, rng, profiler):
        errs = self._draw(self.wer_p, cw, cells, rng, profiler)
        with _prof(profiler, "place"):
            self.intended[cells] = cw
            self.actual[cells] = cw ^ errs
        return int(errs.sum())

    def error_counts(self, word_idx, cells):
        return (self.actual[cells] != self.intended[cells]).sum(axis=1)

    def rewrite(self, word_idx, cells, rng, reclassify=False):
        """Restore whole words through the write path. A scrub
        (``reclassify``) prices its rewrites against the array as it
        stands rather than the batch's maps."""
        maps = (self.controller.class_maps(self.actual) if reclassify
                else None)
        cw = self.intended[cells]
        errs = self._draw(self.wer_p, cw, cells, rng, maps=maps)
        self.actual[cells] = cw ^ errs
        return int(errs.sum())

    def disturb(self, cells, rng, profiler):
        flips = self._draw(self.disturb_p, self.actual[cells], cells, rng,
                           profiler)
        with _prof(profiler, "place"):
            self.actual[cells] ^= flips
        return int(flips.sum())


class _PackedState:
    """Packed planes + class maps + exact per-word error counters: the
    binomial fast path's state.

    Flips are drawn per coupling class (one binomial per class instead
    of one uniform per cell, :func:`sample_class_flips`) or, for the
    cells an access touches, by exact thinning
    (:func:`sample_thinned_flips`); the class maps refresh
    incrementally around the cells that actually changed.

    ``err_count[w]`` tracks, exactly, how many cells of word ``w``
    currently disagree with their intended value; ``wrong_bits`` is its
    array-wide total. Both are maintained at every mutation — O(flips)
    each — so a read books its error count with one int gather and, at
    rare-event operating points (where ``wrong_bits`` is almost always
    zero), without touching any per-word array at all. The packed
    planes stay the ground truth: ``BitPlane.diff_counts`` (XOR +
    popcount) must agree with ``err_count`` at any instant, which the
    equivalence tests assert.
    """

    def __init__(self, intended, actual, maps, controller,
                 backend=None):
        self.intended = intended
        self.actual = actual
        self.maps = maps
        self.backend = backend
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
    def fresh(cls, engine, bits):
        ctl = engine.controller
        intended = BitPlane.from_bits(bits, ctl.words.n_words,
                                      ctl.ecc.n_code)
        return cls._build(engine, intended, intended.copy())

    @classmethod
    def restore(cls, engine, saved):
        # Planes and exact error counters come from the snapshot; the
        # class maps are a pure function of the actual plane and
        # rebuild from it.
        state = cls._build(engine, saved["intended"], saved["actual"])
        state.err_count = np.asarray(saved["err_count"], dtype=np.int16)
        state.wrong_bits = int(saved["wrong_bits"])
        return state

    @classmethod
    def _build(cls, engine, intended, actual):
        ctl = engine.controller
        maps = IncrementalClassMaps(ctl.layout.rows, ctl.layout.cols,
                                    actual, backend=engine.backend)
        return cls(intended, actual, maps, ctl, backend=engine.backend)

    def snapshot(self):
        return {"intended": self.intended, "actual": self.actual,
                "err_count": self.err_count,
                "wrong_bits": self.wrong_bits}

    def classify(self):
        self.maps.refresh(self.actual)

    def drift(self, table, rng, profiler):
        with _prof(profiler, "draw"):
            flips = sample_class_flips(self.maps.class_idx, table, rng,
                                       hist=self.maps.hist,
                                       backend=self.backend)
        if flips.size:
            with _prof(profiler, "place"):
                self.toggle(flips)
        return int(flips.size)

    def write(self, word_idx, cells, cw, rng, profiler):
        cells = cells.reshape(-1)
        cw_flat = cw.reshape(-1)
        maps = self.maps
        with _prof(profiler, "draw"):
            flips = sample_thinned_flips(
                cells.size, self.wer_p,
                lambda cand: maps.cell_classes(cw_flat[cand], cells[cand]),
                rng, p_max=self.wer_pmax)
        with _prof(profiler, "place"):
            self.write_words(word_idx, cw, cells[flips])
        return int(flips.size)

    def error_counts(self, word_idx, cells):
        return self.err_count[word_idx]

    def rewrite(self, word_idx, cells, rng, reclassify=False):
        """Restore whole words through the write path. The maps refresh
        at batch boundaries only, so a scrub's rewrites (``reclassify``)
        reuse the batch's classes — unlike the dense reference, a
        second-order difference at rare-event rates, where the maps
        differ only at the handful of freshly flipped cells."""
        cells = cells.reshape(-1)
        maps, intended = self.maps, self.intended
        flips = sample_thinned_flips(
            cells.size, self.wer_p,
            lambda cand: maps.cell_classes(intended.get_cells(cells[cand]),
                                           cells[cand]),
            rng, p_max=self.wer_pmax)
        self.restore_words(word_idx, cells[flips])
        return int(flips.size)

    def disturb(self, cells, rng, profiler):
        # Candidates are classified lazily, from the post-rewrite
        # stored bits.
        cells = cells.reshape(-1)
        maps, actual = self.maps, self.actual
        with _prof(profiler, "draw"):
            flips = sample_thinned_flips(
                cells.size, self.disturb_p,
                lambda cand: maps.cell_classes(actual.get_cells(cells[cand]),
                                               cells[cand]),
                rng, p_max=self.disturb_pmax)
        if flips.size:
            with _prof(profiler, "place"):
                self.toggle(cells[flips])
        return int(flips.size)

    def toggle(self, flat_idx):
        """Flip ``actual`` at flat cells (duplicate-free indices)."""
        if self.backend is not None:
            delta = self.backend.toggle_and_count(
                self.intended, self.actual, flat_idx, self.err_count)
            if delta is not None:
                # The fused kernel performed the toggles itself.
                self.wrong_bits += int(delta)
                return
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
        """``intended = actual = cw``, then inject errors at
        ``flip_cells`` (flat cell indices inside the written words)."""
        self.wrong_bits -= int(self.err_count[word_idx].sum())
        self.err_count[word_idx] = 0
        self.intended.set_words(word_idx, cw)
        self.actual.set_words(word_idx, cw)
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
        if self.backend is not None:
            injected = self.backend.inject_and_count(
                self.actual, flip_cells, self.err_count)
            if injected is not None:
                self.wrong_bits += int(injected)
                return
        self.actual.toggle_cells(flip_cells)
        np.add.at(self.err_count,
                  flip_cells // self.actual.code_bits,
                  np.int16(1))
        self.wrong_bits += int(flip_cells.size)


def build_engine(device, pitch, rows=64, cols=64, ecc="secded",
                 workload="random", data_bits=64, scrub=None,
                 vp=0.95, nominal_wer=2e-3, read_voltage=0.15,
                 t_read=20e-9, cycle_time=50e-9, temperature=None,
                 writeback=True, sampler="bernoulli", backend=None,
                 sense=None, topology=None, banks=None, subarrays=None,
                 half_select_exposure=0.0):
    """Convenience factory: device + knobs -> a reliability engine.

    ``ecc`` and ``workload`` accept registry names (see
    :data:`repro.memsys.ecc.ECC_SCHEMES` and
    :data:`repro.memsys.traffic.WORKLOADS`); ``sampler`` selects the
    Monte-Carlo draw strategy (see :data:`repro.memsys.sampling.\
SAMPLERS` — use ``"binomial"`` for rare-event operating points);
    ``backend`` selects the fast path's compute backend (see
    :data:`repro.memsys.backends.BACKENDS`; default consults
    ``REPRO_ENGINE_BACKEND``, then numpy); ``sense`` optionally gates
    reads through a :class:`~repro.memsys.sense.SenseMarginModel`.

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
            sampler=sampler, backend=backend, sense=sense)
    layout = ArrayLayout(pitch=pitch, rows=rows, cols=cols)
    ecc_obj = make_ecc(ecc, data_bits=data_bits) if isinstance(
        ecc, str) else ecc
    controller = ArrayController(
        device, layout, ecc_obj, vp=vp, nominal_wer=nominal_wer,
        read_voltage=read_voltage, t_read=t_read,
        temperature=temperature, sense=sense)
    return ReliabilityEngine(controller, workload=workload, scrub=scrub,
                             cycle_time=cycle_time, writeback=writeback,
                             sampler=sampler, backend=backend,
                             half_select_exposure=half_select_exposure)


def _occurrence_rank(words):
    """Occurrence index of every element within its equal-value group.

    ``_occurrence_rank([7, 3, 7, 7, 3]) == [0, 0, 1, 2, 1]`` — the r-th
    access to each word lands in round ``r``, preserving the sequential
    semantics of repeated accesses without a per-transaction loop.
    """
    n = words.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(words, kind="stable")
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
