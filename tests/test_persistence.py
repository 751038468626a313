"""One persistence primitive: frame, writer and key shared by every tier.

Checkpoints ride the ``RRECORD1`` record frame, every durable file goes
through :func:`~repro.integrity.manifest.atomic_write`, and
:func:`~repro.integrity.manifest.record_digest` keys checkpoints. These
tests pin what that sharing must not break: exact keys for 128-bit
generator states, numpy-scalar configs resuming plain-float
checkpoints, retired-frame checkpoints degrading to a clean restart,
and shared-name temp files never counted as entries.
"""

import ast
import dataclasses
import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.arrays.kernel_disk import DiskKernelCache
from repro.errors import IntegrityError, ResilienceWarning, RunAborted
from repro.integrity import audit_cache_dir, record_digest, unpack_record
from repro.memsys import build_engine
from repro.resilience import CheckpointManager
from repro.service.results_cache import ResultsCache
from repro.units import nm_to_m

N_TRANSACTIONS = 6 * 1024
BATCH = 1024
KEY_A = "ab" * 16
KEY_B = "cd" * 16


def _engine(device, pitch=nm_to_m(70.0)):
    return build_engine(device, pitch=pitch, rows=16, cols=16,
                        ecc="secded", workload="random")


def _run(device, pitch=nm_to_m(70.0), **kwargs):
    return _engine(device, pitch).run(
        N_TRANSACTIONS, rng=np.random.default_rng(7), batch_size=BATCH,
        **kwargs)


class _KillAfter:
    """Progress callback that aborts the run after ``n`` batches."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self, done, total):
        self.calls += 1
        if self.calls >= self.n:
            raise RunAborted("injected crash")


def _killed_checkpoint(device, directory, pitch=nm_to_m(70.0)):
    manager = CheckpointManager(str(directory))
    with pytest.raises(RunAborted):
        _run(device, pitch, checkpoint=manager, progress=_KillAfter(3))
    return os.path.join(str(directory), "run.ckpt")


class TestExactBigInts:
    @given(st.one_of(st.integers(min_value=2**53),
                     st.integers(max_value=-2**53)))
    def test_ints_beyond_float_precision_digest_apart(self, value):
        assert (record_digest({"s": value})
                != record_digest({"s": value + 1}))


class TestCheckpointKey:
    def test_numpy_scalar_pitch_resumes_plain_float_run(
            self, eval_device, tmp_path):
        base = _run(eval_device)
        _killed_checkpoint(eval_device, tmp_path,
                           pitch=np.float64(nm_to_m(70.0)))
        manager = CheckpointManager(str(tmp_path))
        seen = []
        resumed = _run(eval_device, checkpoint=manager, resume=True,
                       progress=lambda done, total: seen.append(done))
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)
        # Resumed mid-stream, not restarted from zero.
        assert seen[0] > BATCH
        assert manager.corrupt_fallbacks == 0


class TestVersionedBreak:
    def test_retired_checkpoint_frame_restarts_clean(self, eval_device,
                                                     tmp_path):
        base = _run(eval_device)
        path = _killed_checkpoint(eval_device, tmp_path)
        with open(path, "rb") as fh:
            body = fh.read()[struct.calcsize("<8sQ32s"):]
        with open(path, "wb") as fh:
            fh.write(struct.pack("<8sQ32s", b"RCHKPT01", len(body),
                                 hashlib.sha256(body).digest()) + body)
        manager = CheckpointManager(str(tmp_path))
        with pytest.warns(ResilienceWarning, match="magic"):
            resumed = _run(eval_device, checkpoint=manager, resume=True)
        assert manager.corrupt_fallbacks == 1
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)

    def test_unpicklable_framed_body_is_a_corrupt_fallback(self,
                                                           tmp_path):
        body = b"not a pickle"
        blob = struct.pack("<8sQ32s", b"RRECORD1", len(body),
                           hashlib.sha256(body).digest()) + body
        with pytest.raises(IntegrityError, match="undecodable"):
            unpack_record(blob)
        with open(os.path.join(str(tmp_path), "run.ckpt"), "wb") as fh:
            fh.write(blob)
        manager = CheckpointManager(str(tmp_path))
        with pytest.warns(ResilienceWarning, match="corrupt"):
            assert manager.load("run") is None
        assert manager.corrupt_fallbacks == 1

    def test_checkpoint_blob_is_a_record_frame(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save("run", {"key": "k", "done": 3})
        with open(os.path.join(str(tmp_path), "run.ckpt"), "rb") as fh:
            assert unpack_record(fh.read()) == {"key": "k", "done": 3}


class TestTempFilesAreNotEntries:
    ORPHAN = f".tmp-deadbeef-{KEY_B}.json"

    def test_results_cache_skips_orphan_temp(self, tmp_path):
        cache = ResultsCache(capacity=4, directory=str(tmp_path))
        cache.put(KEY_A, {"v": 1})
        (tmp_path / self.ORPHAN).write_text("{")
        assert cache.stats()["disk_entries"] == 1

    def test_cache_audit_skips_orphan_temp(self, tmp_path):
        ResultsCache(directory=str(tmp_path)).put(KEY_A, {"v": 1})
        (tmp_path / self.ORPHAN).write_text("{")
        report = audit_cache_dir(str(tmp_path))
        assert report.passed
        assert report.counts()["pass"] == 1

    def test_kernel_cache_clear_sweeps_orphan_temp(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        disk.write({(1, 2): 0.5})
        orphan = os.path.join(disk.directory,
                              ".tmp-deadbeef-" + os.path.basename(
                                  disk.data_path))
        with open(orphan, "wb") as fh:
            fh.write(b"partial")
        disk.clear()
        assert not os.path.exists(orphan)
        assert os.listdir(disk.directory) in ([], ["kernels.lock"])


#: The only places a raw ``os.replace`` may appear: the filesystem
#: shim, the one atomic writer, and the broker's no-clobber commit
#: fallback (link-or-rename is a different primitive).
_ALLOWED_REPLACE = {
    ("resilience/shims.py", "FileSystem.replace"),
    ("integrity/manifest.py", "atomic_write"),
    ("sweep/distributed.py", "SpoolRun.commit"),
}


def _enclosing_names(tree):
    """``{line: qualified name of the innermost def/class}``."""
    names = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                for line in range(child.lineno, child.end_lineno + 1):
                    names[line] = qualname
                visit(child, qualname + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def test_no_hand_rolled_atomic_writers():
    root = os.path.dirname(repro.__file__)
    found = set()
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            if "os.replace(" not in source:
                continue
            names = _enclosing_names(ast.parse(source))
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            for lineno, line in enumerate(source.splitlines(), 1):
                if "os.replace(" in line:
                    found.add((rel, names.get(lineno, "<module>")))
    assert ("integrity/manifest.py", "atomic_write") in found
    assert found <= _ALLOWED_REPLACE, (
        f"temp + os.replace writers outside atomic_write: "
        f"{sorted(found - _ALLOWED_REPLACE)}")
