"""Pitch x pattern x ECC reliability sweeps — the paper's density axis
carried to the system level.

The paper's Figs. 5/6 show the device-level cost of shrinking the pitch;
these sweeps show its system-level analogue: the pitch at which SEC-DED
stops hiding the coupling-induced error inflation. Rates come from the
engine's noise-free expectation mode so the monotone coupling trend is
not buried under Monte-Carlo noise.

Both sweeps run on the generic :mod:`repro.sweep` engine: the parameter
grid is a :class:`~repro.sweep.spec.SweepSpec`, the per-point evaluation
is a module-level function (so process pools — and the spool-directory
workers of the ``distributed`` executor — can pickle it), and result
order is the spec's enumeration order for every executor — which is why
``executor="process"`` (or ``"distributed"``, fanning the dense pitch
grids of the paper's density claims out across machines) produces
byte-identical tables to the serial baseline for the same seed.

Backend contract: expectation mode draws nothing, so these sweeps are
*bit-identical* under every ``backend=`` engine kwarg (see
:mod:`repro.memsys.backends`): expectation mode never enters the
Monte-Carlo hot loop, and the backend kernels are bit-exact against the
numpy reference anyway — but the kwarg travels to every worker as a
plain registry *name*, so distributed workers resolve it (or the
``REPRO_ENGINE_BACKEND`` environment) in their own process, falling
back to numpy wherever numba is missing.

Topology contract: ``topology=``/``banks=``/``subarrays=`` ride
``engine_kwargs`` into :func:`~repro.memsys.engine.build_engine`, so a
sweep can price a banked or cross-point organization point-for-point
(each point evaluates the sharded expectation of
:meth:`~repro.memsys.topology.TopologyEngine.expected_rates`); a 1x1
banked grid is bit-identical to the flat grid.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..arrays.kernel_store import get_kernel_store
from ..errors import ParameterError
from ..experiments.base import Comparison, ExperimentResult
from ..sweep import (SweepRunner, SweepSpec, array_work_units,
                     executor_for_jobs)
from ..validation import require_positive
from .engine import build_engine

#: Default pitch multiples, densest last (paper evaluates 1.5x-3x eCD).
DEFAULT_PITCH_RATIOS = (3.0, 2.5, 2.0, 1.75, 1.5)

#: Default data patterns covering the stress corners and the mean case.
DEFAULT_PATTERNS = ("random", "checkerboard", "solid0")

SWEEP_HEADERS = ["pitch", "(nm)", "pattern", "ecc", "raw BER",
                 "word fail", "UBER"]


def _rates_point(device, rows, cols, seed, engine_kwargs, pattern, ecc,
                 ratio):
    """Expected rates of one (pattern, ecc, ratio) grid point.

    Module-level so the process executors can pickle it; each worker
    re-derives the engine from the (picklable) device and warms its own
    process-wide kernel store.
    """
    require_positive(ratio, "pitch ratio")
    engine = build_engine(
        device, pitch=ratio * device.params.ecd, rows=rows, cols=cols,
        ecc=ecc, workload=pattern, **engine_kwargs)
    rates = engine.expected_rates(rng=seed)
    return (rates["raw_ber"], rates["word_fail_rate"], rates["uber"])


def uber_sweep(device, pitch_ratios=DEFAULT_PITCH_RATIOS,
               patterns=DEFAULT_PATTERNS, eccs=("none", "secded"),
               rows=64, cols=64, seed=0, jobs=None, executor=None,
               progress=None, **engine_kwargs):
    """Expected UBER over pitch x pattern x ECC.

    Returns an :class:`~repro.experiments.base.ExperimentResult` whose
    rows are ``(ratio, pitch_nm, pattern, ecc, raw_ber, word_fail,
    uber)`` and whose comparisons assert the headline system-level
    claims: UBER rises as pitch shrinks, and SEC-DED buys orders of
    magnitude at every density.

    Runs with ``executor`` (one of :data:`repro.sweep.EXECUTORS`), else
    the :func:`~repro.sweep.runner.executor_for_jobs` pick for ``jobs``
    over the grid's :func:`~repro.sweep.runner.array_work_units`
    (``extras["sweep"]["executor"]`` names it); results are identical
    to the serial run for the same ``seed``. ``progress`` (a
    ``progress(done, total)`` callable) is
    forwarded to the :class:`~repro.sweep.runner.SweepRunner` — raise
    :class:`~repro.errors.RunAborted` from it to cancel the sweep.
    ``engine_kwargs`` pass through to
    :func:`repro.memsys.engine.build_engine` (vp, nominal_wer, ...).
    """
    pitch_ratios = [float(r)
                    for r in np.atleast_1d(np.asarray(pitch_ratios))]
    if not pitch_ratios:
        raise ParameterError("pitch_ratios must not be empty")
    for ratio in pitch_ratios:
        require_positive(ratio, "pitch ratio")
    # Bind once: these are iterated again below (table/series assembly
    # and comparisons), which would silently exhaust a generator.
    patterns = list(patterns)
    eccs = list(eccs)
    ecd = device.params.ecd
    spec = SweepSpec.product(pattern=patterns, ecc=eccs,
                             ratio=pitch_ratios)
    func = partial(_rates_point, device, rows, cols, seed,
                   engine_kwargs)
    executor = executor or executor_for_jobs(
        jobs, n_points=array_work_units(len(spec), rows, cols))
    sweep_result = SweepRunner(func, executor=executor, jobs=jobs,
                               progress=progress).run(spec)

    rows_out = []
    series = {}
    uber_by_key = {}
    # (pattern, ecc, ratio) grid, ratio fastest — matches the spec.
    grid = sweep_result.values_array(dtype=float)
    for i, pattern in enumerate(patterns):
        for j, ecc in enumerate(eccs):
            ubers = grid[i, j, :, 2]
            for r, ratio in enumerate(pitch_ratios):
                raw_ber, word_fail, uber = grid[i, j, r]
                rows_out.append((
                    f"{ratio:g}x", ratio * ecd * 1e9, pattern, ecc,
                    raw_ber, word_fail, uber))
            key = (pattern, ecc)
            uber_by_key[key] = np.array(ubers)
            series[f"UBER {pattern}/{ecc}"] = (
                np.array(pitch_ratios), uber_by_key[key])

    comparisons = _sweep_comparisons(patterns, eccs, pitch_ratios,
                                     uber_by_key)
    return ExperimentResult(
        experiment_id="memsys_sweep",
        title=("System-level UBER vs pitch (expectation mode, "
               f"{rows}x{cols} array)"),
        headers=SWEEP_HEADERS,
        rows=rows_out,
        series=series,
        comparisons=comparisons,
        extras={"pitch_ratios": list(pitch_ratios),
                "patterns": list(patterns), "eccs": list(eccs),
                "uber": {f"{p}/{e}": v.tolist()
                         for (p, e), v in uber_by_key.items()},
                "sweep": sweep_result.describe()},
    )


def _sweep_comparisons(patterns, eccs, pitch_ratios, uber_by_key):
    """The reproduction criteria of the sweep.

    The paper's coupling claims are worst-corner claims (NP8 = 0/255),
    and so are their system-level analogues: the *worst-case-pattern*
    UBER rises monotonically as pitch shrinks and the pattern envelope
    (worst / best UBER) widens. The mean (random-data) effect is a
    fraction of a percent — reported in the table, not asserted.
    """
    comparisons = []
    densest, widest = pitch_ratios[-1], pitch_ratios[0]
    for ecc in eccs:
        stack = np.array([uber_by_key[(p, ecc)] for p in patterns])
        worst = stack.max(axis=0)
        if np.all(worst > 0.0):
            rises = bool(np.all(np.diff(worst) > 0.0))
            comparisons.append(Comparison(
                metric=f"worst-pattern UBER rises as pitch shrinks "
                       f"({ecc})",
                paper=1.0,
                measured=float(rises),
                passed=rises,
                note="system-level analogue of Fig. 5/6"))
            comparisons.append(Comparison(
                metric=(f"worst-pattern UBER inflation "
                        f"{widest:g}x->{densest:g}x ({ecc})"),
                paper=None,
                measured=float(worst[-1] / worst[0]),
                passed=worst[-1] > worst[0],
                note="density cost at the system level"))
        if len(patterns) > 1 and np.all(stack > 0.0):
            envelope = worst / stack.min(axis=0)
            widens = bool(np.all(np.diff(envelope) > 0.0))
            comparisons.append(Comparison(
                metric=f"pattern envelope widens as pitch shrinks "
                       f"({ecc})",
                paper=1.0,
                measured=float(widens),
                passed=widens,
                note="worst/best-pattern UBER ratio, the Fig. 5 "
                     "spread in UBER space"))
    if "secded" in eccs and "none" in eccs:
        gains = [uber_by_key[(p, "none")] / uber_by_key[(p, "secded")]
                 for p in patterns
                 if np.all(uber_by_key[(p, "secded")] > 0.0)]
        min_gain = float(np.min(gains)) if gains else float("inf")
        comparisons.append(Comparison(
            metric="min SEC-DED gain (raw/post UBER)",
            paper=None,
            measured=min_gain,
            passed=min_gain > 1.0,
            note="ECC must help at every pitch and pattern"))
    return comparisons


def secded_margin_pitch(device, uber_target, pattern="solid0",
                        ratios=np.linspace(3.0, 1.5, 13), rows=64,
                        cols=64, seed=0, jobs=None, executor=None,
                        **engine_kwargs):
    """Densest pitch ratio where SEC-DED still meets ``uber_target``.

    Scans from the widest ratio down and returns ``(ratio, uber)`` of
    the last point meeting the target before the first miss, or
    ``(None, uber_at_widest)`` when even the widest pitch misses it —
    the quantitative form of "the pitch at which SEC-DED stops hiding
    coupling-induced WER". Raises
    :class:`~repro.errors.ParameterError` for an empty ``ratios``.

    The candidate points are evaluated through the sweep engine
    (``jobs``/``executor`` as in :func:`uber_sweep`); the scan over the
    results preserves the sequential early-stop semantics exactly.
    """
    require_positive(uber_target, "uber_target")
    ratios = [float(r) for r in np.atleast_1d(np.asarray(ratios))]
    if not ratios:
        raise ParameterError("ratios must not be empty")
    func = partial(_rates_point, device, rows, cols, seed,
                   engine_kwargs)
    executor = executor or executor_for_jobs(
        jobs, n_points=array_work_units(len(ratios), rows, cols))
    if executor == "serial":
        # Lazy scan: stop at the first miss, like the pre-engine loop.
        # This path bypasses SweepRunner, so it persists its own
        # kernels (SweepRunner.run flushes for every other path).
        first_uber = None
        last = None
        for ratio in ratios:
            uber = func(pattern=pattern, ecc="secded", ratio=ratio)[2]
            if first_uber is None:
                first_uber = uber
            if uber <= uber_target:
                last = (ratio, uber)
            else:
                break
        get_kernel_store().flush_disk()
        return last if last is not None else (None, first_uber)

    spec = SweepSpec.product(pattern=[pattern], ecc=["secded"],
                             ratio=ratios)
    result = SweepRunner(func, executor=executor, jobs=jobs).run(spec)
    ubers = [value[2] for value in result.values]
    last = None
    for ratio, uber in zip(ratios, ubers):
        if uber <= uber_target:
            last = (ratio, uber)
        else:
            break
    return last if last is not None else (None, ubers[0])
