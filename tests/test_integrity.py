"""The run-integrity layer: manifests, replay audit, fsck.

The contract under test is single-sentence: a flipped byte anywhere in
a run artifact — spool result, checkpoint, service memo — is detected
and counted, never served as an answer. Hypothesis drives the digest
canonicalization properties (dict ordering and JSON number spellings
must collapse exactly like ``query_fingerprint`` collapses them); the
audit and fsck tests each corrupt one concrete artifact and assert
detect → repair round-trips.
"""

import ast
import dataclasses
import functools
import glob
import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import IntegrityError, ParameterError
from repro.integrity import (
    AuditReport,
    RunManifest,
    audit_cache_dir,
    audit_checkpoint_dir,
    audit_spool_run,
    blob_digest,
    fsck_spool,
    list_quarantine,
    load_sealed,
    pack_record,
    pickle_digest,
    record_digest,
    seal_record,
    unpack_record,
    verify_sealed,
    write_sealed,
)
from repro.memsys import build_engine
from repro.resilience import CheckpointManager, FaultPlan, SpoolView
from repro.service.results_cache import ResultsCache
from repro.sweep.distributed import (
    QUARANTINE_DIR,
    DistributedBroker,
    SpoolRun,
    SpoolWorker,
)
from repro.units import nm_to_m


def square_point(x):
    """Module-level so spool tasks pickle by reference and the audit
    replay can re-import it."""
    return {"y": x * x}


def _kept_run(tmp_path, n_points=7, chunk_size=2):
    """One completed broker run preserved for audit."""
    spool = str(tmp_path / "spool")
    broker = DistributedBroker(square_point, spool=spool, jobs=1,
                               spawn=0, poll=0.02, timeout=60.0,
                               chunk_size=chunk_size, keep_run=True)
    values = broker.run([{"x": i} for i in range(n_points)])
    runs = [name for name in os.listdir(spool)
            if name.startswith("run-")]
    assert len(runs) == 1
    return spool, os.path.join(spool, runs[0]), values, broker


# ---------------------------------------------------------------------------
# digest canonicalization properties
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=12),
    st.none(),
)
_records = st.dictionaries(st.text(min_size=1, max_size=8), _scalars,
                           max_size=6)


class TestDigestProperties:
    @given(_records)
    def test_digest_invariant_to_dict_ordering(self, record):
        reversed_record = dict(reversed(list(record.items())))
        assert record_digest(record) == record_digest(reversed_record)

    @given(st.dictionaries(st.text(min_size=1, max_size=8),
                           st.integers(min_value=-10**6,
                                       max_value=10**6),
                           max_size=6))
    def test_digest_collapses_int_and_float_spellings(self, record):
        """70 and 70.0 are the same physical value; the digest must
        collapse them exactly like query_fingerprint does."""
        floated = {key: float(value) for key, value in record.items()}
        assert record_digest(record) == record_digest(floated)

    @given(_records)
    def test_digest_distinguishes_bools_from_numbers(self, record):
        """The int/float collapse must not also collapse True onto
        1.0 — booleans are flags, not measurements."""
        if any(value is True or value is False
               for value in record.values()):
            numeric = {key: (1 if value is True else
                             0 if value is False else value)
                       for key, value in record.items()}
            assert record_digest(record) != record_digest(numeric)

    def test_digest_matches_fingerprint_collapse_rule(self):
        # The shared-rule regression pin: if canonical_scalar changes,
        # both of these flip together or the import in protocol.py
        # was broken.
        from repro.integrity.manifest import canonical_scalar
        from repro.service.protocol import (UberQuery,
                                            query_fingerprint)
        assert canonical_scalar(70) == canonical_scalar(70.0)
        assert query_fingerprint(UberQuery(pitch_nm=70)) \
            == query_fingerprint(UberQuery(pitch_nm=70.0))

    def test_numpy_scalars_canonicalize(self):
        assert record_digest({"n": np.int64(3)}) \
            == record_digest({"n": 3.0})
        assert record_digest({"x": np.float64(2.5)}) \
            == record_digest({"x": 2.5})


# ---------------------------------------------------------------------------
# framed records and sealed JSON
# ---------------------------------------------------------------------------

class TestFraming:
    def test_pack_unpack_round_trip(self):
        payload = {"values": [1, 2.5, "x"], "chunk": 3}
        assert unpack_record(pack_record(payload)) == payload

    @pytest.mark.parametrize("mangle", [
        lambda blob: blob[:10],                      # truncation
        lambda blob: b"XXXXXXXX" + blob[8:],         # bad magic
        lambda blob: blob[:-3],                      # short body
        lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),  # flipped byte
    ])
    def test_mangled_frame_raises(self, mangle):
        blob = pack_record({"values": list(range(8))})
        with pytest.raises(IntegrityError):
            unpack_record(mangle(blob))

    def test_sealed_record_round_trip(self, tmp_path):
        path = str(tmp_path / "record.json")
        write_sealed(path, {"kind": "test", "n": 4})
        record = load_sealed(path)
        assert record["n"] == 4
        assert verify_sealed(record)

    def test_sealed_record_tamper_detected(self, tmp_path):
        path = str(tmp_path / "record.json")
        write_sealed(path, {"kind": "test", "n": 4})
        record = json.load(open(path))
        record["n"] = 5
        json.dump(record, open(path, "w"))
        assert not verify_sealed(record)
        with pytest.raises(IntegrityError):
            load_sealed(path)

    def test_seal_ignores_key_order(self):
        a = seal_record({"x": 1, "y": 2})
        b = seal_record({"y": 2, "x": 1})
        assert a["check"] == b["check"]


# ---------------------------------------------------------------------------
# spool-run manifest + audit
# ---------------------------------------------------------------------------

@pytest.mark.integration
class TestSpoolAudit:
    def test_clean_run_audits_green(self, tmp_path):
        spool, run_path, values, broker = _kept_run(tmp_path)
        assert values == [square_point(i) for i in range(7)]
        assert broker.stats["manifest"] == os.path.join(
            run_path, "manifest.json")
        report = audit_spool_run(run_path, sample=4, seed=0)
        assert report.passed
        counts = report.counts()
        assert counts["fail"] == 0
        assert counts["pass"] >= 5  # manifest + digests + replays

    def test_flipped_byte_in_result_fails_audit(self, tmp_path):
        spool, run_path, _, _ = _kept_run(tmp_path)
        victim = sorted(glob.glob(
            os.path.join(run_path, "results", "chunk-*.pkl")))[0]
        blob = bytearray(open(victim, "rb").read())
        blob[-5] ^= 0x01
        open(victim, "wb").write(bytes(blob))
        report = audit_spool_run(run_path, sample=4, seed=0)
        assert not report.passed
        failed = [c.name for c in report.checks if c.status == "fail"]
        assert "chunk-000000/digest" in failed

    def test_tampered_values_with_refreshed_frame_fail_digest(
            self, tmp_path):
        """Re-framing a forged payload beats the frame check but not
        the manifest digest — the audit's whole reason to exist."""
        spool, run_path, _, _ = _kept_run(tmp_path)
        victim = sorted(glob.glob(
            os.path.join(run_path, "results", "chunk-*.pkl")))[0]
        payload = unpack_record(open(victim, "rb").read())
        payload["values"] = [{"y": 10**9}] * len(payload["values"])
        open(victim, "wb").write(pack_record(payload))
        report = audit_spool_run(run_path, sample=0, seed=0)
        assert not report.passed

    def test_replay_detects_swapped_inputs(self, tmp_path):
        """Swapping two chunks' archived inputs breaks byte-for-byte
        replay even though every committed result is internally
        consistent."""
        spool, run_path, _, _ = _kept_run(tmp_path)
        a = os.path.join(run_path, "replay", "chunk-000000.pkl")
        b = os.path.join(run_path, "replay", "chunk-000001.pkl")
        blob_a, blob_b = open(a, "rb").read(), open(b, "rb").read()
        open(a, "wb").write(blob_b)
        open(b, "wb").write(blob_a)
        report = audit_spool_run(run_path, sample=4, seed=0)
        assert not report.passed
        failed = [c.name for c in report.checks if c.status == "fail"]
        assert any(name.endswith("/replay") for name in failed)

    def test_manifest_tamper_fails_immediately(self, tmp_path):
        spool, run_path, _, _ = _kept_run(tmp_path)
        path = os.path.join(run_path, "manifest.json")
        record = json.load(open(path))
        record["identity"]["n_points"] = 99
        json.dump(record, open(path, "w"))
        report = audit_spool_run(run_path)
        assert not report.passed
        assert report.checks[0].name == "manifest"
        assert report.checks[0].status == "fail"

    def test_keep_runs_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_KEEP_RUNS", "1")
        spool = str(tmp_path / "spool")
        broker = DistributedBroker(square_point, spool=spool, jobs=1,
                                   spawn=0, poll=0.02, timeout=60.0,
                                   chunk_size=2)
        assert broker.keep_run
        broker.run([{"x": i} for i in range(3)])
        assert any(name.startswith("run-")
                   for name in os.listdir(spool))


class TestManifestObject:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest("spool-run", identity={"seed": 3})
        manifest.add_entry("chunk-000000", values_sha256="ab" * 32)
        path = manifest.write(str(tmp_path / "manifest.json"))
        loaded = RunManifest.load(path)
        assert loaded.kind == "spool-run"
        assert loaded.identity == {"seed": 3.0}
        assert loaded.entry("chunk-000000")["values_sha256"] \
            == "ab" * 32
        assert loaded.fingerprint == manifest.fingerprint

    def test_load_rejects_tamper(self, tmp_path):
        manifest = RunManifest("spool-run", identity={"seed": 3})
        path = manifest.write(str(tmp_path / "manifest.json"))
        record = json.load(open(path))
        record["identity"]["seed"] = 4
        json.dump(record, open(path, "w"))
        with pytest.raises(IntegrityError):
            RunManifest.load(path)


# ---------------------------------------------------------------------------
# checkpoint + cache audits
# ---------------------------------------------------------------------------

@pytest.mark.integration
class TestCheckpointAudit:
    def _checkpointed_run(self, tmp_path, eval_device, seed=7):
        manager = CheckpointManager(str(tmp_path))
        engine = build_engine(eval_device, pitch=nm_to_m(70.0),
                              rows=16, cols=16, ecc="secded",
                              workload="random")
        engine.run(4096, rng=np.random.default_rng(seed),
                   batch_size=1024, checkpoint=manager,
                   checkpoint_every=1024)
        return manager

    def test_clean_dir_audits_green(self, tmp_path, eval_device):
        self._checkpointed_run(tmp_path, eval_device)
        assert os.path.exists(str(tmp_path / "run.manifest.json"))
        report = audit_checkpoint_dir(str(tmp_path))
        assert report.passed
        assert report.counts()["pass"] == 2  # frame + sidecar

    def test_flipped_byte_fails_audit(self, tmp_path, eval_device):
        self._checkpointed_run(tmp_path, eval_device)
        path = str(tmp_path / "run.ckpt")
        blob = bytearray(open(path, "rb").read())
        blob[25] ^= 0x40
        open(path, "wb").write(bytes(blob))
        report = audit_checkpoint_dir(str(tmp_path))
        assert not report.passed

    def test_swapped_blob_caught_by_sidecar(self, tmp_path,
                                            eval_device):
        """A well-framed but *different* checkpoint swapped into place
        passes the frame check; only the sidecar digest catches it."""
        self._checkpointed_run(tmp_path / "a", eval_device, seed=7)
        self._checkpointed_run(tmp_path / "b", eval_device, seed=8)
        blob = open(str(tmp_path / "b" / "run.ckpt"), "rb").read()
        open(str(tmp_path / "a" / "run.ckpt"), "wb").write(blob)
        report = audit_checkpoint_dir(str(tmp_path / "a"))
        assert not report.passed
        failed = {c.name for c in report.checks
                  if c.status == "fail"}
        assert failed == {"run/sidecar"}

    def test_empty_dir_is_skipped_not_failed(self, tmp_path):
        report = audit_checkpoint_dir(str(tmp_path))
        assert report.passed
        assert report.counts()["skipped"] == 1

    @pytest.mark.skipif(os.sep == "\\", reason="backslash is a separator")
    def test_tag_the_manager_rejects_fails_its_frame_check(self,
                                                           tmp_path):
        """A file name ``CheckpointManager`` refuses as a tag is a
        failed check in the report, not a traceback."""
        (tmp_path / "a\\b.ckpt").write_bytes(b"x")
        report = audit_checkpoint_dir(str(tmp_path))
        assert [(c.name, c.status) for c in report.checks] == [
            ("a\\b/frame", "fail")]


class TestCacheAudit:
    KEY = "ab" * 16

    def test_clean_dir_audits_green(self, tmp_path):
        cache = ResultsCache(directory=str(tmp_path))
        cache.put(self.KEY, {"answer": 42})
        report = audit_cache_dir(str(tmp_path))
        assert report.passed

    def test_flipped_payload_fails_audit(self, tmp_path):
        cache = ResultsCache(directory=str(tmp_path))
        cache.put(self.KEY, {"answer": 42})
        path = str(tmp_path / f"{self.KEY}.json")
        envelope = json.load(open(path))
        envelope["payload"]["answer"] = 43
        json.dump(envelope, open(path, "w"))
        report = audit_cache_dir(str(tmp_path))
        assert not report.passed

    def test_renamed_entry_fails_fingerprint_check(self, tmp_path):
        cache = ResultsCache(directory=str(tmp_path))
        cache.put(self.KEY, {"answer": 42})
        os.rename(str(tmp_path / f"{self.KEY}.json"),
                  str(tmp_path / f"{'cd' * 16}.json"))
        report = audit_cache_dir(str(tmp_path))
        assert not report.passed

    @pytest.mark.parametrize("field", ["version", "stored_at"])
    def test_envelope_the_cache_rejects_fails_audit(self, tmp_path,
                                                    field):
        """The payload digest still verifies, but the cache drops an
        envelope with a wrong version or no store time; the audit must
        fail it too — and leave the file in place."""
        ResultsCache(directory=str(tmp_path)).put(self.KEY,
                                                  {"answer": 42})
        path = str(tmp_path / f"{self.KEY}.json")
        envelope = json.load(open(path))
        if field == "version":
            envelope["v"] += 1
        else:
            del envelope["stored_at"]
        json.dump(envelope, open(path, "w"))

        report = audit_cache_dir(str(tmp_path))
        assert not report.passed
        assert [c.name for c in report.checks
                if c.status == "fail"] == [self.KEY]
        assert os.path.exists(path)

        cache = ResultsCache(directory=str(tmp_path))
        assert cache.get(self.KEY) is None
        assert cache.stats()["disk_corrupt"] == 1


# ---------------------------------------------------------------------------
# report aggregation
# ---------------------------------------------------------------------------

class TestAuditReport:
    def test_report_aggregation(self):
        report = AuditReport("subject")
        report.add("a", "pass")
        report.add("b", "skipped", "nothing to check")
        assert report.passed
        assert report.to_record()["counts"] == {
            "pass": 1, "fail": 0, "skipped": 1}
        report.add("c", "fail", "digest mismatch")
        assert not report.passed


# ---------------------------------------------------------------------------
# spool fsck: detect -> repair round-trips
# ---------------------------------------------------------------------------

@pytest.mark.integration
class TestFsck:
    def test_clean_spool_no_findings(self, tmp_path):
        spool, _, _, _ = _kept_run(tmp_path)
        assert fsck_spool(spool) == []

    def _detect_then_repair(self, spool, kind):
        findings = fsck_spool(spool)
        assert [f.kind for f in findings] == [kind]
        assert not findings[0].repaired
        repaired = fsck_spool(spool, repair=True)
        assert [f.kind for f in repaired] == [kind]
        assert repaired[0].repaired
        assert fsck_spool(spool) == []
        return repaired[0]

    def test_torn_result_round_trip(self, tmp_path):
        spool, run_path, _, _ = _kept_run(tmp_path)
        victim = os.path.join(run_path, "results",
                              "chunk-000001.pkl")
        blob = open(victim, "rb").read()
        open(victim, "wb").write(blob[:len(blob) // 2])
        finding = self._detect_then_repair(spool, "torn-result")
        assert finding.path == victim
        assert not os.path.exists(victim)

    def test_orphaned_claim_round_trip(self, tmp_path):
        spool, run_path, _, _ = _kept_run(tmp_path)
        claim = os.path.join(run_path, "claimed",
                             "chunk-000000.job@deadworker")
        open(claim, "w").close()
        self._detect_then_repair(spool, "orphaned-claim")

    def test_duplicate_commit_round_trip(self, tmp_path):
        spool, run_path, _, _ = _kept_run(tmp_path)
        job = os.path.join(run_path, "queue", "chunk-000000.job")
        with open(job, "wb") as fh:
            pickle.dump([{"x": 0}], fh)
        self._detect_then_repair(spool, "duplicate-commit")

    def test_stray_temp_round_trip(self, tmp_path):
        spool, run_path, _, _ = _kept_run(tmp_path)
        stray = os.path.join(run_path, "results",
                             ".tmp-deadbeef-chunk-000009.pkl")
        open(stray, "wb").close()
        self._detect_then_repair(spool, "stray-temp")

    def test_stray_quarantine_round_trip(self, tmp_path):
        spool, run_path, _, _ = _kept_run(tmp_path)
        qdir = os.path.join(spool, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        record = os.path.join(qdir, "chunk-000000.json")
        json.dump({"chunk": 0, "error": "x", "attempts": 3,
                   "workers": []}, open(record, "w"))
        finding = self._detect_then_repair(spool, "stray-quarantine")
        assert "superseded" in finding.detail

    def test_unparseable_quarantine_flagged(self, tmp_path):
        spool, _, _, _ = _kept_run(tmp_path)
        qdir = os.path.join(spool, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        open(os.path.join(qdir, "chunk-000099.json"),
             "w").write("{not json")
        self._detect_then_repair(spool, "stray-quarantine")

    def test_fsck_over_chaos_mangled_spool(self, tmp_path):
        """The PR's seeded fault kinds leave debris fsck names; after
        --repair the spool scans clean."""
        spool, run_path, _, _ = _kept_run(tmp_path)
        plan = FaultPlan(0, "torn-write")
        victim = os.path.join(run_path, "results",
                              "chunk-000002.pkl")
        plan.corrupt(victim)
        claim = os.path.join(run_path, "claimed",
                             "chunk-000001.job@crashed")
        open(claim, "w").close()
        kinds = sorted(f.kind for f in fsck_spool(spool))
        assert kinds == ["orphaned-claim", "torn-result"]
        assert all(f.repaired for f in fsck_spool(spool, repair=True))
        assert fsck_spool(spool) == []


@pytest.mark.integration
class TestReadersAgree:
    """fsck, the broker's collect and the fleet supervisor's scan read
    one mangled spool the same way."""

    def _mangled_spool(self, tmp_path):
        spool = str(tmp_path / "spool")
        run = SpoolRun.create(spool, square_point)
        for chunk in range(6):
            run.enqueue(chunk, [{"x": chunk}])
        run.open()
        worker = SpoolWorker(spool, worker_id="w1")
        for _ in range(4):
            assert worker.process_one(run)
        # Post-commit damage of the two result-corrupting fault kinds,
        # applied through the hook a faulty worker calls.
        torn = FaultPlan(0, "torn-write").worker_faults()
        cut = FaultPlan(1, "truncated-result").worker_faults()
        victims = {torn.corrupt_result_at_chunk,
                   cut.corrupt_result_at_chunk}
        assert len(victims) == 2
        for faults in (torn, cut):
            chunk = faults.corrupt_result_at_chunk
            faults.corrupt_result(run.result_path(chunk), chunk)
            assert faults.corruptions == 1
        # A claim orphaned by a worker that died after its commit, and
        # a live claim still in flight.
        open(os.path.join(run.claimed_dir, "chunk-000000.job@crashed"),
             "w").close()
        assert run.claim("slow")[0] == 4
        run.heartbeat("slow")
        return spool, run, victims

    def test_fsck_torn_results_are_the_chunks_collect_rejects(
            self, tmp_path):
        spool, run, victims = self._mangled_spool(tmp_path)
        findings = fsck_spool(spool)
        torn = {f.path for f in findings if f.kind == "torn-result"}
        rejected = {run.result_path(chunk)
                    for chunk, payload in run.collect()
                    if payload is None}
        assert torn == rejected == {run.result_path(c) for c in victims}
        assert sorted(f.kind for f in findings) == [
            "orphaned-claim", "torn-result", "torn-result"]

    def test_scan_counts_are_the_spool_run_listings(self, tmp_path):
        spool, run, _ = self._mangled_spool(tmp_path)
        state = SpoolView(spool).scan()
        assert state["open_runs"] == 1
        assert state["queued"] == len(run.queued_jobs()) == 1
        assert state["claimed"] == len(run.claimed_jobs()) == 2
        assert state["live_workers"] == run.live_workers(10.0)
        assert "slow" in state["live_workers"]


# ---------------------------------------------------------------------------
# layout ownership: each store's owner is the only module that knows
# its file names and formats
# ---------------------------------------------------------------------------

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src", "repro")


@functools.lru_cache(maxsize=None)
def _module_trees():
    """``{path relative to src/repro: AST}`` of every module."""
    trees = {}
    for dirpath, _, files in os.walk(_SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, _SRC).replace(os.sep, "/")
                with open(path, encoding="utf-8") as fh:
                    trees[rel] = ast.parse(fh.read(), path)
    return trees


def _modules_where(predicate):
    return {rel for rel, tree in _module_trees().items()
            if any(predicate(node) for node in ast.walk(tree))}


def _identifier(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


class TestLayoutOwnership:
    def test_only_the_sweep_module_knows_spool_names(self):
        private = {"_RUN_PREFIX", "_JOB_SUFFIX", "_CLAIM_SEP"}
        assert _modules_where(
            lambda node: _identifier(node) in private) == {
            "sweep/distributed.py"}
        # One spelling of a chunk file name, in one module.
        spellings = [
            node for node in ast.walk(
                _module_trees()["sweep/distributed.py"])
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("chunk-")]
        assert len(spellings) == 1
        assert _modules_where(
            lambda node: isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("chunk-")) == {
            "sweep/distributed.py"}

    def test_no_module_imports_the_checkpoint_suffixes(self):
        assert _modules_where(
            lambda node: isinstance(node, ast.ImportFrom)
            and any(alias.name in ("_SUFFIX", "_SIDECAR_SUFFIX")
                    for alias in node.names)) == set()

    def test_only_the_results_cache_parses_envelopes(self):
        """An envelope is a JSON file whose payload is checked with
        ``record_digest``; one module reads both."""
        loads_json = _modules_where(
            lambda node: isinstance(node, ast.Attribute)
            and node.attr == "load" and isinstance(node.value, ast.Name)
            and node.value.id == "json")
        digests = _modules_where(
            lambda node: _identifier(node) == "record_digest")
        assert loads_json & digests == {"service/results_cache.py"}


class TestQuarantineListing:
    def test_lists_json_records(self, tmp_path):
        qdir = tmp_path / QUARANTINE_DIR
        qdir.mkdir()
        json.dump({"chunk": 4, "error": "ValueError('poison')",
                   "error_type": "ValueError", "attempts": 3,
                   "workers": ["w1"]},
                  open(str(qdir / "chunk-000004.json"), "w"))
        records = list_quarantine(str(tmp_path))
        assert len(records) == 1
        assert records[0]["chunk"] == 4
        assert records[0]["error_type"] == "ValueError"

    def test_legacy_pickle_listed_without_deserializing(self,
                                                        tmp_path):
        """A hostile legacy record must be listed by size only —
        unpickling it would execute its payload."""
        qdir = tmp_path / QUARANTINE_DIR
        qdir.mkdir()

        class Bomb:
            def __reduce__(self):
                return (pytest.fail,
                        ("quarantine record was unpickled",))

        with open(str(qdir / "chunk-000001.pkl"), "wb") as fh:
            pickle.dump(Bomb(), fh)
        records = list_quarantine(str(tmp_path))
        assert len(records) == 1
        assert records[0]["legacy"]
        assert records[0]["bytes"] > 0
        assert "chunk" not in records[0]

    def test_empty_spool(self, tmp_path):
        assert list_quarantine(str(tmp_path)) == []


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------

class TestPlumbing:
    def test_blob_and_pickle_digests(self):
        assert blob_digest(b"abc") == blob_digest(b"abc")
        assert blob_digest(b"abc") != blob_digest(b"abd")
        assert pickle_digest([1, 2]) == pickle_digest([1, 2])
        assert pickle_digest([1, 2]) != pickle_digest([2, 1])

    def test_audit_check_rejects_bad_status(self):
        from repro.integrity import AuditCheck
        with pytest.raises(ValueError):
            AuditCheck("x", "maybe")

    def test_results_cache_rejects_bad_clock(self):
        with pytest.raises(ParameterError):
            ResultsCache(clock=object())
