"""Shared pieces of the benchmark: statistics, environment, processes.

Everything here is stdlib-only so run.py can load it before it has
checked that the checkout holds the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

#: Root of the checkout the benchmark runs in (its working directory).
ROOT = os.getcwd()

#: The program under test, built from source in the checkout.
SRC = os.path.join(ROOT, "src")

#: Scratch space inside the checkout: temp dirs, sockets, span files and
#: the last report of each workload. Ignored by git.
OUT = os.path.join(ROOT, ".perfbench")

#: Environment variables that would change which code path the program
#: takes. The benchmark removes them for every process it starts (the
#: query-mix server gets a fresh ``REPRO_KERNEL_CACHE`` of its own).
PINNED_UNSET = ("REPRO_SWEEP_EXECUTOR", "REPRO_SWEEP_SPOOL",
                "REPRO_ENGINE_BACKEND", "REPRO_KERNEL_CACHE")

#: Samples a percentile needs beyond it before it may be reported.
MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``, or None.

    The value at 1-based rank ``ceil(q * n)`` of the sorted samples.
    Returns None unless at least :data:`MIN_BEYOND` samples lie beyond
    that rank, so no percentile is ever reported from a tail too thin
    to hold it (p50 needs 20 samples, p95 200, p99 1000).
    """
    n = len(samples)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q!r}")
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


median = statistics.median


def digest(obj):
    """sha256 of the canonical JSON of ``obj`` (first 16 hex digits)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def derive_seed(seed, label):
    """A 63-bit seed for one purpose, fixed by ``seed`` and ``label``."""
    h = hashlib.sha256(f"{int(seed)}:{label}".encode("utf-8")).digest()
    return int.from_bytes(h[:8], "little") >> 1


def child_env(extra=None):
    """Environment of every process the benchmark starts.

    The program is imported from the checkout's ``src`` only, and the
    variables that select executors, spools, backends or cache
    directories are removed.
    """
    env = {k: v for k, v in os.environ.items() if k not in PINNED_UNSET}
    env["PYTHONPATH"] = SRC
    env.update(extra or {})
    return env


def pin_own_environment():
    """Apply :func:`child_env`'s pins to this process too."""
    for name in PINNED_UNSET:
        os.environ.pop(name, None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def source_digest():
    """sha256 over the checkout's ``src/repro`` files (path + bytes).

    Identifies the code measured even where the checkout is not a git
    repository.
    """
    h = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment_stamp(backend):
    """Where a result came from: cores, versions, backend, code."""
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MiB, or None."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def self_peak_rss_mb():
    """Peak resident set of this process, in MiB."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Child:
    """A started subprocess timed from launch to its first stdout line.

    ``ready_s`` is the wall time from just before ``Popen`` until the
    child printed its readiness line — the set-up time a user waits
    through before the first operation can be issued.
    """

    def __init__(self, argv, env):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, text=True)
        self.ready_line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if not self.ready_line:
            self.stop()
            raise RuntimeError(f"{argv[1:3]} exited before it was ready "
                               f"(code {self.proc.returncode})")

    def stop(self, timeout=30.0):
        """SIGTERM, then SIGKILL after ``timeout``; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode

    def finish(self, timeout):
        """Remaining stdout of a child that exits by itself."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        return out


def last_json_line(text):
    """The last line of ``text`` that parses as a JSON object."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in output")
