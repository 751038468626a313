"""Checkpoint/resume: the crash-tolerance acceptance criteria.

The load-bearing claim: a run killed mid-campaign and resumed from its
checkpoint produces counters, draws, and UBER *byte-identical* to the
uninterrupted seeded run — for flat and banked topologies. Everything
else here (corrupt/swapped/EIO fallbacks) defends the other half of the
contract: a checkpoint that cannot be trusted degrades to a clean
restart with a counted warning, never to wrong numbers, and another
run's checkpoint is refused outright.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.errors import (ParameterError, ResilienceWarning,
                          RunAborted, RunIdentityError)
from repro.integrity import (blob_digest, canonical, load_sealed,
                             record_digest, write_sealed)
from repro.memsys import build_engine
from repro.resilience import (
    CheckpointManager,
    FaultyFileSystem,
    corrupt_checkpoint,
)
from repro.units import nm_to_m

#: Small but multi-batch run shape: 6 batches of 1024 transactions.
N_TRANSACTIONS = 6 * 1024
BATCH = 1024


def _engine(device, rows=16, cols=16, **kwargs):
    return build_engine(device, pitch=nm_to_m(70.0), rows=rows,
                        cols=cols, ecc="secded", workload="random",
                        **kwargs)


class _KillAfter:
    """Progress callback that aborts the run after ``n`` batches —
    the in-process stand-in for a SIGKILL at a batch boundary."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self, done, total):
        self.calls += 1
        if self.calls >= self.n:
            raise RunAborted("injected crash")


class TestByteIdenticalResume:
    def test_killed_run_resumes_byte_identical(self, eval_device,
                                               tmp_path):
        base = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH)

        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(RunAborted):
            _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager,
                progress=_KillAfter(3))
        assert manager.saves >= 1

        resumed = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH, checkpoint=manager, resume=True)
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)

    def test_resume_of_completed_run_returns_stored_result(
            self, eval_device, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        first = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH, checkpoint=manager)
        saves_after_first = manager.saves
        again = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH, checkpoint=manager, resume=True)
        assert dataclasses.asdict(again) == dataclasses.asdict(first)
        # The finalized checkpoint answered outright: no new batches
        # ran, so no new snapshots were written.
        assert manager.saves == saves_after_first

    def test_banked_topology_resumes_byte_identical(self, eval_device,
                                                    tmp_path):
        # 32x32 tiled 2x2: each 16x16 shard still fits a codeword.
        kwargs = dict(topology="banked", banks=2, subarrays=2,
                      rows=32, cols=32)
        base = _engine(eval_device, **kwargs).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH)

        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(RunAborted):
            _engine(eval_device, **kwargs).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager,
                progress=_KillAfter(3))
        # Per-shard tags: the kill landed inside one of the 4 shards.
        assert any(tag.startswith("shard-")
                   for tag in manager.tags())

        resumed = _engine(eval_device, **kwargs).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH, checkpoint=manager, resume=True)
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)


class TestFallbacks:
    def test_corrupt_checkpoint_restarts_clean(self, eval_device,
                                               tmp_path):
        base = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH)
        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(RunAborted):
            _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager,
                progress=_KillAfter(3))
        corrupt_checkpoint(os.path.join(str(tmp_path), "run.ckpt"))

        with pytest.warns(ResilienceWarning, match="corrupt"):
            resumed = _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager, resume=True)
        assert manager.corrupt_fallbacks == 1
        # Clean restart, not wrong numbers: the full seeded run again.
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)

    def test_save_failure_warns_and_continues(self, tmp_path):
        fs = FaultyFileSystem(fail_replace_at={1})
        manager = CheckpointManager(str(tmp_path), fs=fs)
        with pytest.warns(ResilienceWarning, match="save failed"):
            assert manager.save("run", {"key": "k"}) is False
        assert manager.save("run", {"key": "k"}) is True
        assert manager.save_failures == 1
        assert manager.saves == 1
        assert fs.injected == 1

    def test_unreadable_and_truncated_blobs_are_corrupt(self,
                                                        tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save("run", {"key": "k", "state": list(range(100))})
        path = os.path.join(str(tmp_path), "run.ckpt")
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        with pytest.warns(ResilienceWarning, match="corrupt"):
            assert manager.load("run") is None
        assert manager.corrupt_fallbacks == 1


class TestRunIdentity:
    """--resume against a checkpoint from a *different* run must be a
    clear refusal naming the differing fields, not a silent clean
    restart the operator mistakes for a resume."""

    def _checkpointed(self, eval_device, tmp_path, seed=7):
        manager = CheckpointManager(str(tmp_path))
        _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(seed),
            batch_size=BATCH, checkpoint=manager)
        return manager

    def test_resume_with_different_seed_refuses(self, eval_device,
                                                tmp_path):
        manager = self._checkpointed(eval_device, tmp_path, seed=7)
        with pytest.raises(RunIdentityError) as err:
            _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(8),
                batch_size=BATCH, checkpoint=manager, resume=True)
        assert "seed_state" in str(err.value)
        assert "refusing to resume" in str(err.value)

    def test_resume_with_different_config_names_the_fields(
            self, eval_device, tmp_path):
        manager = self._checkpointed(eval_device, tmp_path)
        with pytest.raises(RunIdentityError) as err:
            _engine(eval_device, writeback=False).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager, resume=True)
        message = str(err.value)
        assert "different run" in message
        assert "writeback" in message

    def _refuses_without(self, eval_device, tmp_path, kill_after, field):
        """Resuming a checkpoint whose identity lacks ``field`` raises
        a :class:`RunIdentityError` naming it."""
        directory = str(tmp_path)
        try:
            _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=directory,
                progress=kill_after and _KillAfter(kill_after))
        except RunAborted:
            pass
        manager = CheckpointManager(directory)
        _, payload = manager.read_frame("run")
        identity = dict(payload["identity"])
        del identity[field]
        assert manager.save("run", {**payload, "identity": identity})
        with pytest.raises(RunIdentityError) as err:
            _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager, resume=True)
        assert field in str(err.value)
        assert "refusing to resume" in str(err.value)

    @pytest.mark.parametrize("kill_after", [3, None])
    def test_checkpoint_of_the_per_bit_write_stream_is_refused(
            self, eval_device, tmp_path, kill_after):
        """A checkpoint written while write data was drawn one float64
        uniform per bit (its identity has no ``write_stream``) would
        resume into a mixed stream, so it is refused by name."""
        self._refuses_without(eval_device, tmp_path, kill_after,
                              "write_stream")

    @pytest.mark.parametrize("kill_after", [3, None])
    def test_checkpoint_of_the_class_grouped_drift_stream_is_refused(
            self, eval_device, tmp_path, kill_after):
        """A checkpoint written while the whole-array terms drew one
        binomial per coupling class (its identity has no
        ``drift_stream``) would resume into a mixed stream, so it is
        refused by name."""
        self._refuses_without(eval_device, tmp_path, kill_after,
                              "drift_stream")

    @pytest.mark.parametrize("kill_after", [3, None])
    def test_checkpoint_of_the_round_access_stream_is_refused(
            self, eval_device, tmp_path, kill_after):
        """A checkpoint written while a batch's accesses drew their
        flips one occurrence-rank round at a time (its identity has no
        ``access_stream``) would resume into a mixed stream, so it is
        refused by name."""
        self._refuses_without(eval_device, tmp_path, kill_after,
                              "access_stream")

    def test_payload_without_identity_never_resumes(self, eval_device,
                                                    tmp_path):
        """A stored payload carrying no identity cannot be shown to be
        this run's, so an explicit resume refuses it."""
        manager = CheckpointManager(str(tmp_path))
        manager.save("run", {"done": 10, "complete": True,
                             "result": None})
        with pytest.raises(RunIdentityError,
                           match="predates identity records"):
            _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager, resume=True)

    def test_sidecar_disagreement_is_a_corrupt_fallback(
            self, eval_device, tmp_path):
        """A well-framed blob swapped in behind the manifest sidecar's
        back is treated as corrupt (counted, clean restart), never
        resumed."""
        base = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH)
        manager = self._checkpointed(eval_device, tmp_path)
        other_dir = str(tmp_path / "other")
        self._checkpointed(eval_device, other_dir, seed=9)
        with open(os.path.join(other_dir, "run.ckpt"), "rb") as fh:
            blob = fh.read()
        with open(os.path.join(str(tmp_path), "run.ckpt"),
                  "wb") as fh:
            fh.write(blob)
        with pytest.warns(ResilienceWarning, match="sidecar"):
            resumed = _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager, resume=True)
        assert manager.corrupt_fallbacks == 1
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)

    def test_sidecar_written_next_to_checkpoint(self, eval_device,
                                                tmp_path):
        self._checkpointed(eval_device, tmp_path)
        sidecar = os.path.join(str(tmp_path), "run.manifest.json")
        assert os.path.exists(sidecar)
        record = load_sealed(sidecar)
        with open(os.path.join(str(tmp_path), "run.ckpt"), "rb") as fh:
            blob = fh.read()
        # The latest blob's digest, nothing else.
        assert {k: record[k] for k in ("kind", "tag", "sha256")} == {
            "kind": "checkpoint", "tag": "run",
            "sha256": blob_digest(blob)}
        assert not {"snapshots", "identity", "key", "done", "complete",
                    "bytes"} & set(record)


def _rewrite_in_older_format(directory, tag="run"):
    """Rewrite ``tag``'s checkpoint the way earlier releases wrote it:
    the payload carries a configuration ``key`` and the sealed sidecar
    carries the key, identity, progress and a digest history next to
    the blob digest. None of those extras is read on resume."""
    manager = CheckpointManager(directory)
    _, payload = manager.read_frame(tag)
    payload = {"key": record_digest(("config", 1)), **payload}
    assert manager.save(tag, payload)
    blob, _ = manager.read_frame(tag)
    digest = blob_digest(blob)
    write_sealed(os.path.join(directory, f"{tag}.manifest.json"),
                 canonical({
                     "kind": "checkpoint", "tag": tag,
                     "key": payload["key"],
                     "identity": payload["identity"],
                     "complete": bool(payload.get("complete", False)),
                     "done": payload["done"], "sha256": digest,
                     "bytes": len(blob),
                     "snapshots": [{"done": 0, "sha256": "0" * 64},
                                   {"done": payload["done"],
                                    "sha256": digest}]}))


class TestFormatChange:
    """A checkpoint in the layout written before the sidecar shrank to
    one digest and the payload lost its key still resumes,
    byte-identical: those extras are never read. (Its identity must
    still match, ``write_stream``, ``drift_stream`` and
    ``access_stream`` included.)"""

    @pytest.mark.parametrize("kill_after", [3, None])
    def test_older_format_checkpoint_resumes_byte_identical(
            self, eval_device, tmp_path, kill_after):
        base = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH)
        directory = str(tmp_path)
        try:
            _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=directory,
                progress=kill_after and _KillAfter(kill_after))
        except RunAborted:
            pass
        _rewrite_in_older_format(directory)
        manager = CheckpointManager(directory)
        resumed = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH, checkpoint=manager, resume=True)
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)
        assert manager.corrupt_fallbacks == 0
        # Resumed at batch 3, not restarted: 2 more snapshots and the
        # final result, or nothing at all for the finished run.
        assert manager.saves == (3 if kill_after else 0)

    def test_save_replaces_an_unreadable_sidecar(self, eval_device,
                                                 tmp_path):
        base = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH)
        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(RunAborted):
            _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager,
                progress=_KillAfter(2))
        sidecar = os.path.join(str(tmp_path), "run.manifest.json")
        with open(sidecar, "wb") as fh:
            fh.write(b"{torn")
        with pytest.raises(RunAborted):
            _engine(eval_device).run(
                N_TRANSACTIONS, rng=np.random.default_rng(7),
                batch_size=BATCH, checkpoint=manager, resume=True,
                progress=_KillAfter(2))
        blob, _ = manager.read_frame("run")
        assert load_sealed(sidecar)["sha256"] == blob_digest(blob)
        assert manager.sidecar_agrees("run", blob) is True
        resumed = _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH, checkpoint=manager, resume=True)
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)
        assert manager.corrupt_fallbacks == 0


class TestCheckpointPlumbing:
    def test_checkpoint_key_is_stable_and_discriminating(self):
        assert record_digest(("a", 1)) == record_digest(("a", 1))
        assert record_digest(("a", 1)) != record_digest(("a", 2))
        assert len(record_digest(("a", 1))) == 32

    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        payload = {"key": "k", "state": np.arange(8), "done": 3}
        assert manager.save("run", payload)
        loaded = manager.load("run")
        assert loaded["done"] == 3
        np.testing.assert_array_equal(loaded["state"], np.arange(8))

    def test_tags_and_delete(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save("shard-0", {"key": "k"})
        manager.save("shard-1", {"key": "k"})
        assert manager.tags() == ["shard-0", "shard-1"]
        manager.delete("shard-0")
        assert manager.tags() == ["shard-1"]
        manager.delete("shard-0")  # idempotent

    def test_rejects_path_traversal_tags(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        for tag in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ParameterError):
                manager.save(tag, {"key": "k"})

    @pytest.mark.parametrize("every, saves", [
        # Six 1024-transaction batches: a snapshot at the first
        # boundary, then whenever ``every`` transactions have passed
        # since the last one, plus the finalized result.
        (None, 6), (1024, 6), (2048, 4), (3000, 3), (10**9, 2)])
    def test_cadence_gates_snapshot_frequency(self, eval_device,
                                              tmp_path, every, saves):
        manager = CheckpointManager(str(tmp_path))
        _engine(eval_device).run(
            N_TRANSACTIONS, rng=np.random.default_rng(7),
            batch_size=BATCH, checkpoint=manager,
            checkpoint_every=every)
        assert manager.saves == saves

    def test_missing_checkpoint_is_a_silent_miss(self, tmp_path):
        # Absence is the normal first-run case: no warning, no counter.
        manager = CheckpointManager(str(tmp_path))
        assert manager.load("run") is None
        assert manager.corrupt_fallbacks == 0
