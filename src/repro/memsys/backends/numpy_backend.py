"""The numpy reference backend: identity hooks, zero behavior change.

The library's vectorized numpy code *is* the reference implementation
of every engine kernel — it lives where it always did, in
:mod:`repro.memsys.bitplane` and the engine's packed-state
bookkeeping. This backend therefore implements
the hook contract of :mod:`repro.memsys.backends` in the laziest
correct way possible: every hook returns ``None``, which the call
sites read as "run the inline reference path". Selecting
``backend="numpy"`` is guaranteed to be bit-identical to not selecting
a backend at all — it is the parity baseline the numba kernels are
tested (and benchmarked) against.
"""

from __future__ import annotations


class NumpyEngineBackend:
    """Identity backend: every hook defers to the inline numpy path."""

    name = "numpy"

    def ready(self):
        """The reference is always available."""
        return True

    def unavailable_reason(self):
        return None

    # Every kernel hook defers to the caller's reference code.

    def toggle_and_count(self, intended, actual, idx, err_count):
        return None

    def inject_and_count(self, actual, cells, err_count):
        return None
