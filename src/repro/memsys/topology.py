"""Banked array topology: banks x subarrays sharding over the engine.

Real STT-MRAM parts are not one flat mat: a chip is banks of subarrays
with shared peripherals, and — the physical fact this layer exploits —
the paper's magnetic coupling acts only over the pitch-limited 3x3
neighborhood, i.e. *within* a subarray. A banked array is therefore
exactly a set of independent flat arrays: per-subarray coupling-class
maps, per-subarray :class:`~repro.memsys.bitplane.BitPlane` shards, and
an embarrassingly parallel Monte-Carlo axis.

:class:`ArrayTopology` describes the decomposition (banks tile rows,
subarrays tile columns; shard ``bank * subarrays + subarray``).
:class:`TopologyEngine` splits a run's transactions across the
shards, gives every shard its own child RNG spawned from the run seed,
and merges the per-shard error/ECC/scrub counters with
:func:`~repro.memsys.engine.merge_results`.

In process, the shards run *stacked*: one
:meth:`~repro.memsys.engine.ReliabilityEngine.run_shards` call
advances every subarray in lockstep over one stacked state (global
word ``shard * words_per_shard + local``), so each batch pass's numpy
work is paid once for the whole chip instead of once per shard, while
every shard still draws only from its own generator. The
``"process"`` and ``"distributed"`` sweep executors instead run one
sub-run per shard across cores or hosts, on the sweep runner's one
chunk schedule.
Seeded results are byte-identical on every path, and a 1x1 banked run
passes the parent generator through unspawned so it is byte-identical
to the flat engine.

Two non-flat topology kinds:

* ``"banked"`` — 1T-1R banks x subarrays; sharding only.
* ``"cross_point"`` — the selector-less cross-point array of Zhao et
  al. (arXiv:1202.1782): every access half-selects the other cells on
  the accessed row and column at ~half the read bias. The engine prices
  that as a per-cell half-select exposure of ``1/sub_rows +
  1/sub_cols`` per transaction against the controller's half-select
  disturb table (see
  :meth:`~repro.memsys.controller.ArrayController.half_select_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import ParameterError
from ..resilience.checkpoint import CheckpointManager
from ..sweep.runner import (
    SweepRunner,
    executor_for_jobs,
    require_executor,
)
from ..sweep.spec import SweepSpec
from ..validation import require_int_in_range, require_positive
from .engine import build_engine, merge_results

#: Recognized topology kinds (the CLI also accepts ``cross-point``).
TOPOLOGIES = ("flat", "banked", "cross_point")


def normalize_topology(kind):
    """Canonical topology name; accepts the CLI's ``cross-point``."""
    canonical = str(kind).replace("-", "_")
    if canonical not in TOPOLOGIES:
        raise ParameterError(
            f"topology must be one of {TOPOLOGIES}, got {kind!r}")
    return canonical


@dataclass(frozen=True)
class ArrayTopology:
    """Banks x subarrays decomposition of a rows x cols chip.

    Banks tile the row dimension, subarrays the column dimension; both
    must divide their dimension exactly, so every shard is the same
    ``sub_rows x sub_cols`` geometry (which is what lets one template
    engine describe them all). ``"flat"`` is the degenerate 1x1 case.
    """

    kind: str = "flat"
    banks: int = 1
    subarrays: int = 1
    rows: int = 64
    cols: int = 64

    def __post_init__(self):
        object.__setattr__(self, "kind", normalize_topology(self.kind))
        require_int_in_range(self.banks, "banks", 1, 4096)
        require_int_in_range(self.subarrays, "subarrays", 1, 4096)
        require_int_in_range(self.rows, "rows", 1, 1 << 20)
        require_int_in_range(self.cols, "cols", 1, 1 << 20)
        if self.kind == "flat" and (self.banks != 1
                                    or self.subarrays != 1):
            raise ParameterError(
                "flat topology has exactly one bank and one subarray; "
                "use kind='banked' to shard")
        if self.rows % self.banks:
            raise ParameterError(
                f"rows={self.rows} is not divisible by "
                f"banks={self.banks}")
        if self.cols % self.subarrays:
            raise ParameterError(
                f"cols={self.cols} is not divisible by "
                f"subarrays={self.subarrays}")

    @property
    def n_shards(self):
        """Independent subarray shards (banks * subarrays)."""
        return self.banks * self.subarrays

    @property
    def sub_rows(self):
        """Rows per subarray shard."""
        return self.rows // self.banks

    @property
    def sub_cols(self):
        """Columns per subarray shard."""
        return self.cols // self.subarrays

    def describe(self):
        """Summary dict (merged into run configs and reports)."""
        return {
            "topology": self.kind,
            "banks": self.banks,
            "subarrays": self.subarrays,
            "rows": self.rows,
            "cols": self.cols,
            "sub_rows": self.sub_rows,
            "sub_cols": self.sub_cols,
            "n_shards": self.n_shards,
        }


def _run_shard(device, sub_rows, sub_cols, engine_kwargs, batch_size,
               profile, checkpoint_dir, checkpoint_every, resume,
               shard, n_transactions, rng):
    """One subarray sub-run; module-level so process executors can
    pickle it (the ``shard`` axis labels the sweep point and names the
    shard's checkpoint tag; the checkpoint directory travels as a
    plain path so process/distributed executors can ship it)."""
    engine = build_engine(device, rows=sub_rows, cols=sub_cols,
                          **engine_kwargs)
    (result,), breakdown = engine.run_shards(
        [(n_transactions, rng, f"shard-{int(shard)}")],
        batch_size=batch_size, profile=profile,
        checkpoint=checkpoint_dir, checkpoint_every=checkpoint_every,
        resume=resume)
    if breakdown is not None:
        result.extras["profile"] = breakdown
    return result


class TopologyEngine:
    """Reliability engine over an :class:`ArrayTopology`.

    Every shard is the same geometry at the same pitch, so one
    *template* :class:`~repro.memsys.engine.ReliabilityEngine` (built
    lazily, sized ``sub_rows x sub_cols``) describes them all; a run
    splits the transaction budget across shards, gives each shard a
    child generator spawned from the run seed, runs them all as one
    stacked run of the template (or, on the process-level executors,
    one sub-run per shard), and merges the per-shard results. With
    exactly one shard the parent generator passes through unspawned — a
    seeded 1x1 banked run is byte-identical to the flat engine, which
    the parity matrix asserts.

    Accepts the same knobs as :func:`~repro.memsys.engine.build_engine`
    (ecc/workload/scrub/sense/...); ``cross_point``
    topologies additionally arm the flat engines' half-select sneak
    term with an exposure of ``1/sub_rows + 1/sub_cols`` per cell per
    transaction.
    """

    def __init__(self, device, topology, pitch, ecc="secded",
                 workload="random", data_bits=64, scrub=None, vp=0.95,
                 nominal_wer=2e-3, read_voltage=0.15, t_read=20e-9,
                 cycle_time=50e-9, temperature=None, writeback=True,
                 sense=None):
        if not isinstance(topology, ArrayTopology):
            raise ParameterError(
                f"topology must be an ArrayTopology, got "
                f"{type(topology)!r}")
        self.device = device
        self.topology = topology
        self._engine_kwargs = dict(
            pitch=pitch, ecc=ecc, workload=workload,
            data_bits=data_bits, scrub=scrub, vp=vp,
            nominal_wer=nominal_wer, read_voltage=read_voltage,
            t_read=t_read, cycle_time=cycle_time,
            temperature=temperature, writeback=writeback, sense=sense,
            half_select_exposure=self.half_select_exposure(topology))
        self._template = None

    @staticmethod
    def half_select_exposure(topology):
        """Half-selects per cell per transaction for ``topology``.

        Cross-point only: an access at ``(r, c)`` half-selects the
        ``sub_cols - 1`` other cells of row ``r`` and the ``sub_rows -
        1`` other cells of column ``c``, so a uniformly accessed cell
        accrues ~``1/sub_rows + 1/sub_cols`` half-selects per
        transaction.
        """
        if topology.kind != "cross_point":
            return 0.0
        return 1.0 / topology.sub_rows + 1.0 / topology.sub_cols

    @property
    def template(self):
        """The shared per-shard flat engine (built on first use)."""
        if self._template is None:
            self._template = build_engine(
                self.device, rows=self.topology.sub_rows,
                cols=self.topology.sub_cols, **self._engine_kwargs)
        return self._template

    # CLI/service compatibility with the flat engine's surface.
    @property
    def controller(self):
        return self.template.controller

    @property
    def cycle_time(self):
        return self.template.cycle_time

    def transaction_shares(self, n_transactions):
        """Per-shard transaction counts: even split, remainder to the
        leading shards (some shares may be 0 for tiny runs)."""
        require_positive(n_transactions, "n_transactions")
        n = int(n_transactions)
        shards = self.topology.n_shards
        base, rem = divmod(n, shards)
        return [base + (1 if i < rem else 0) for i in range(shards)]

    def run(self, n_transactions, rng=None, batch_size=8192,
            progress=None, profile=False, executor=None, jobs=None,
            spool=None, checkpoint=None, checkpoint_every=None,
            resume=False):
        """Simulate ``n_transactions`` across the shards and merge.

        In process (``executor="serial"``) every shard advances in
        lockstep inside one stacked run of the template
        (:meth:`ReliabilityEngine.run_shards
        <repro.memsys.engine.ReliabilityEngine.run_shards>`).
        ``"process"`` and ``"distributed"`` dispatch one sub-run per
        shard through the sweep executors, with ``jobs``/``spool``;
        the default is the :func:`~repro.sweep.runner.executor_for_jobs`
        pick over the active shards (up to 32 of them stay in process
        at any ``jobs``; with ``REPRO_SWEEP_SPOOL`` set, 64 or more go
        to the spool).
        Any other name raises :class:`~repro.errors.ParameterError`
        on every topology, a 1x1 one included.
        ``extras["topology"]["executor"]`` names the path that ran.
        Seeded results are byte-identical on every path: the child
        generators are spawned before dispatch, every shard draws only
        from its own, and the merge is shard-ordered.

        ``checkpoint``/``checkpoint_every``/``resume`` arm per-shard
        crash tolerance (see :meth:`ReliabilityEngine.run
        <repro.memsys.engine.ReliabilityEngine.run>`): one checkpoint
        tag per shard in one directory (``shard-<i>``; a 1x1 topology
        keeps the flat run's ``run``), so a resumed run skips
        completed shards outright and continues interrupted ones
        mid-stream — on any executor, whichever one wrote them, since
        the directory travels as a plain path.

        ``profile=True`` attaches one phase breakdown: the stacked
        run's, or on the dispatched paths the per-shard breakdowns
        summed.
        """
        require_positive(n_transactions, "n_transactions")
        if executor is not None:
            require_executor(executor)
        n = int(n_transactions)
        gen = (rng if isinstance(rng, np.random.Generator)
               else np.random.default_rng(rng))
        topo = self.topology
        manager = None
        if checkpoint is not None:
            manager = (checkpoint
                       if isinstance(checkpoint, CheckpointManager)
                       else CheckpointManager(str(checkpoint)))
        if topo.n_shards == 1:
            # The parent generator passes through unspawned, under the
            # flat run's checkpoint tag: byte-identical to flat.
            active, tags = [(0, n, gen)], ["run"]
            executor = "serial"
        else:
            shares = self.transaction_shares(n)
            children = gen.spawn(topo.n_shards)
            active = [(shard, share, child) for shard, (share, child)
                      in enumerate(zip(shares, children)) if share > 0]
            tags = [f"shard-{shard}" for shard, _, _ in active]
            executor = executor or executor_for_jobs(
                jobs, n_points=len(active))
        if executor == "serial":
            results, breakdown = self.template.run_shards(
                [(share, child, tag)
                 for tag, (_, share, child) in zip(tags, active)],
                batch_size=batch_size, progress=progress,
                profile=profile, checkpoint=manager,
                checkpoint_every=checkpoint_every, resume=resume)
            merged = self._finalize(results, executor)
            if breakdown is not None:
                merged.extras["profile"] = breakdown
            return merged
        func = partial(_run_shard, self.device, topo.sub_rows,
                       topo.sub_cols, self._engine_kwargs,
                       int(batch_size), bool(profile),
                       manager.directory if manager is not None
                       else None, checkpoint_every, bool(resume))
        spec = SweepSpec.zipped(
            shard=[shard for shard, _, _ in active],
            n_transactions=[share for _, share, _ in active],
            rng=[child for _, _, child in active])
        sweep_progress = None
        if progress is not None:
            def sweep_progress(done_shards, total_shards):
                progress(n * done_shards // total_shards, n)
        runner = SweepRunner(func, executor=executor, jobs=jobs,
                             spool=spool, progress=sweep_progress)
        return self._finalize(list(runner.run(spec).values),
                              executor=executor)

    def _finalize(self, results, executor):
        merged = merge_results(
            results,
            config={**results[0].config, **self.topology.describe()})
        merged.extras["topology"] = {
            **self.topology.describe(),
            "executor": executor,
            "per_shard_transactions": [r.n_transactions
                                       for r in results],
        }
        return merged

    def expected_rates(self, rng=None):
        """Noise-free expected rates, averaged over the shards.

        Every shard is the same size, so the chip-level rates are the
        plain mean of the per-shard rates (each evaluated against its
        own child-seeded background). One shard passes the generator
        through unspawned — identical to the flat engine.
        """
        gen = (rng if isinstance(rng, np.random.Generator)
               else np.random.default_rng(rng))
        if self.topology.n_shards == 1:
            return self.template.expected_rates(rng=gen)
        children = gen.spawn(self.topology.n_shards)
        per_shard = [self.template.expected_rates(rng=child)
                     for child in children]
        return {key: float(np.mean([rates[key]
                                    for rates in per_shard]))
                for key in per_shard[0]}
