"""Query evaluation: blocking, cancellable library calls.

Each runner turns one normalized query dataclass into a JSON-safe
result payload by calling straight into the library — no CLI-lifetime
state, no printing. Runners execute in worker threads (via
``asyncio.to_thread``); they observe cancellation through the shared
run's ``abort`` event, converted into
:class:`~repro.errors.RunAborted` at every progress boundary, and
report progress through ``publish(done, total)``.
"""

from __future__ import annotations

import numpy as np

from ..apps import DESIGN_HEADERS, DesignSpaceExplorer, WriteErrorModel
from ..arrays.pattern import ALL_AP, ALL_P
from ..arrays.victim import VictimAnalysis
from ..device import PAPER_EVAL_DEVICE
from ..errors import RunAborted
from ..memsys import build_engine, uber_sweep
from ..memsys.sweeps import SWEEP_HEADERS
from ..sweep import executor_for_jobs
from ..units import nm_to_m
from .protocol import device_for


def json_safe(value):
    """Recursively coerce numpy scalars/arrays to JSON-native types."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return json_safe(value.tolist())
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    return str(value)


def _progress(abort, publish):
    """The ``progress(done, total)`` callback handed to the library.

    Doubles as the cancellation point: once the shared run is
    abandoned, the next boundary raises :class:`RunAborted` and the
    evaluation stops without finishing the grid.
    """
    def callback(done, total):
        if abort.is_set():
            raise RunAborted("query abandoned by every subscriber")
        publish(done, total)
    return callback


def run_uber(query, abort, publish):
    """UBER of one operating point (expected or Monte-Carlo)."""
    device = device_for(query)
    engine = build_engine(
        device, pitch=nm_to_m(query.pitch_nm), rows=query.rows,
        cols=query.cols, ecc=query.ecc, workload=query.pattern,
        vp=query.vp, nominal_wer=query.nominal_wer,
        topology=query.topology, banks=query.banks,
        subarrays=query.subarrays)
    if query.mode == "expected":
        rates = engine.expected_rates(rng=query.seed)
        publish(1, 1)
        return {"mode": "expected", **json_safe(rates)}
    rng = np.random.default_rng(query.seed)
    result = engine.run(query.transactions, rng=rng,
                        progress=_progress(abort, publish))
    return json_safe({
        "mode": "sampled",
        "backend": "numpy",  # kept for perfbench; ROADMAP item 1 deletes it
        "uber": result.uber,
        "raw_ber": result.raw_ber,
        "word_fail_rate": result.word_fail_rate,
        "n_transactions": result.n_transactions,
        "n_reads": result.n_reads,
        "n_writes": result.n_writes,
        "sneak_flips": result.sneak_flips,
        "raw_bit_errors": result.raw_bit_errors,
        "uncorrectable_bit_errors": result.uncorrectable_bit_errors,
        "words_corrected": result.words_corrected,
        "words_detected": result.words_detected,
        "words_silent": result.words_silent,
    })


def run_wer(query, abort, publish):
    """Worst-corner write pulse sizing plus a sampled-WER check."""
    device = device_for(query)
    model = WriteErrorModel(device)
    pitch = query.pitch_ratio * device.params.ecd
    victim = VictimAnalysis(device, pitch)
    hz_worst = victim.hz_total(ALL_P)
    pulse = model.pulse_for_wer(query.target_wer, query.vp, hz_worst)
    penalty = pulse - model.pulse_for_wer(query.target_wer, query.vp,
                                          victim.hz_total(ALL_AP))
    rng = np.random.default_rng(query.seed)
    sampled = model.sample_wer(pulse, query.vp, hz_worst,
                               n_samples=query.n_samples, rng=rng)
    publish(1, 1)
    return json_safe({
        "pulse_ns": pulse * 1e9,
        "pattern_penalty_ns": penalty * 1e9,
        "sampled_wer": sampled,
        "target_wer": query.target_wer,
        "pitch_nm": pitch * 1e9,
    })


def run_sweep(query, abort, publish):
    """Expected-UBER sweep over pitch x pattern x ECC."""
    device = device_for(query)
    result = uber_sweep(
        device, pitch_ratios=list(query.pitch_ratios),
        patterns=list(query.patterns), eccs=list(query.eccs),
        rows=query.rows, cols=query.cols, seed=query.seed,
        jobs=query.jobs, executor=query.executor,
        progress=_progress(abort, publish), vp=query.vp,
        nominal_wer=query.nominal_wer)
    comparisons = [{"metric": c.metric, "measured": c.measured,
                    "passed": c.passed} for c in result.comparisons]
    return json_safe({
        "headers": list(SWEEP_HEADERS),
        "rows": [list(row) for row in result.rows],
        "comparisons": comparisons,
        "executor": result.extras["sweep"]["executor"],
        "n_points": query.n_points,
    })


def run_design(query, abort, publish):
    """Design-space table over eCD x pitch ratio."""
    explorer = DesignSpaceExplorer(PAPER_EVAL_DEVICE,
                                   probe_voltage=query.probe_voltage)
    executor = query.executor or executor_for_jobs(
        query.jobs, n_points=query.n_points)
    points = explorer.sweep(
        [nm_to_m(e) for e in query.ecds_nm],
        list(query.pitch_ratios), jobs=query.jobs, executor=executor,
        progress=_progress(abort, publish))
    return json_safe({
        "headers": list(DESIGN_HEADERS),
        "rows": [list(p.row()) for p in points],
        "executor": executor,
        "n_points": query.n_points,
    })


#: Wire ``op`` -> blocking runner. ``stats`` is served by the server
#: itself (it owns the counters), so it does not appear here.
RUNNERS = {
    "uber": run_uber,
    "wer": run_wer,
    "sweep": run_sweep,
    "design": run_design,
}
