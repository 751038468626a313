"""Pluggable engine-compute backends for the binomial hot loop.

At rare-event operating points the binomial sampler's cost is no
longer the math but per-batch numpy *dispatch* on four hot kernels:
the incremental class-map update around changed cells, the XOR +
popcount diff over packed uint64 lanes, the grouped flip placement of
:func:`~repro.memsys.sampling.sample_class_flips`, and the per-word
error-count bookkeeping that feeds the all-clean read short-circuit.
This package gives each of those a *backend*:

* ``"numpy"`` — the bit-exact parity reference: every hook returns
  ``None`` ("use the library's vectorized numpy code"), so selecting
  it changes nothing at all. This is the default.
* ``"numba"`` — JIT-compiled scalar kernels
  (:mod:`~repro.memsys.backends.numba_backend`), fidimag-style flat
  index walks instead of scattered ``np.add.at``. Requires the
  optional ``numba`` dependency (``pip install repro[fast]``).

Selection mirrors the sweep-executor convention
(:data:`repro.sweep.runner.SWEEP_EXECUTOR_ENV`): an explicit
``backend=`` argument (CLI ``--backend``) wins, then the
:data:`ENGINE_BACKEND_ENV` environment variable — which is how
distributed sweep workers and the service inherit a fleet-wide choice
— then the numpy default. Degradation is graceful and warn-once: a
``numba`` selection on a machine without numba (or where the kernels
fail their compile self-check) falls back to numpy with a single
:class:`RuntimeWarning`, never an error; a *misspelled*
``REPRO_ENGINE_BACKEND`` value is likewise ignored with one warning so
a stale environment cannot break a plain run (an invalid explicit
argument still raises, as every other registry in the library does).

Backend hook contract (every hook may return ``None`` to mean "run
the reference numpy path"; the numpy backend always does):

========================  ==============================================
``xor_popcount_rows``     per-row set-bit count of ``a ^ b`` (uint64
                          lanes) without materializing the XOR temp
``rebuild_class_maps``    full rebuild of ``maps.class_idx`` in place
                          from the packed plane; returns the histogram
``apply_class_changes``   in-place class/histogram update around
                          changed cells (+-25 own, +-5 direct, +-1
                          diagonal)
``group_class_members``   ``(order, bounds)`` grouping of cells by
                          coupling class (counting sort, no argsort)
``toggle_and_count``      fused bit toggles + per-word error-count
                          maintenance; returns the wrong-bits delta
``inject_and_count``      fused write-error injection (all cells
                          become wrong); returns the flip count
========================  ==============================================

``preferred_rebuild_fraction`` is a backend tuning knob: the churn
fraction above which :class:`~repro.memsys.sampling.\
IncrementalClassMaps` abandons incremental updates for a full rebuild.
The compiled incremental walk is so much cheaper than scattered numpy
updates that the numba backend raises the threshold (see its class
docstring), which is an algorithmic choice — the resulting maps are
identical either way.
"""

from __future__ import annotations

import os
import warnings

from ...errors import ParameterError

#: Registry names accepted by the engine, the CLI, and the env var.
BACKENDS = ("numpy", "numba")

#: Environment override of the engine backend, mirroring
#: ``REPRO_SWEEP_EXECUTOR``: consulted whenever no explicit backend is
#: passed, so sweep workers and the service pick a fleet-wide choice
#: up without new plumbing.
ENGINE_BACKEND_ENV = "REPRO_ENGINE_BACKEND"

#: One-shot warning keys already emitted (see :func:`_warn_once`).
_warned = set()

#: Singleton backend instances by registry name.
_instances = {}


def validate_backend(name):
    """Return ``name`` if it names a known backend, else raise."""
    if name not in BACKENDS:
        raise ParameterError(
            f"unknown engine backend {name!r}; choose from "
            f"{sorted(BACKENDS)}")
    return name


def numba_available():
    """True when the optional numba dependency imports."""
    from .numba_backend import NUMBA_AVAILABLE
    return NUMBA_AVAILABLE


def _warn_once(key, message):
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def get_backend(name):
    """The singleton backend instance registered under ``name``."""
    validate_backend(name)
    backend = _instances.get(name)
    if backend is None:
        if name == "numba":
            from .numba_backend import NumbaEngineBackend
            backend = NumbaEngineBackend()
        else:
            from .numpy_backend import NumpyEngineBackend
            backend = NumpyEngineBackend()
        _instances[name] = backend
    return backend


def resolve_backend(backend=None):
    """Resolve a backend selection into a backend instance.

    Precedence mirrors the sweep executors: an explicit ``backend``
    (a registry name, or an already-constructed backend object passed
    through untouched) wins; otherwise :data:`ENGINE_BACKEND_ENV` is
    consulted; otherwise the numpy reference. A ``numba`` selection
    degrades to numpy — with one :class:`RuntimeWarning`, never an
    error — when numba is absent or its kernels fail the one-time
    compile self-check.
    """
    if backend is not None and not isinstance(backend, str):
        return backend
    if backend is not None:
        name = validate_backend(backend)
    else:
        name = os.environ.get(ENGINE_BACKEND_ENV) or None
        if name is not None and name not in BACKENDS:
            _warn_once(
                ("env", name),
                f"ignoring invalid {ENGINE_BACKEND_ENV}={name!r} "
                f"(known backends: {', '.join(sorted(BACKENDS))})")
            name = None
        name = name or "numpy"
    if name == "numba":
        candidate = get_backend("numba")
        if candidate.ready():
            return candidate
        _warn_once(
            "numba-unavailable",
            "numba engine backend unavailable "
            f"({candidate.unavailable_reason()}); falling back to the "
            "numpy reference — install the [fast] extra for the "
            "compiled kernels")
        return get_backend("numpy")
    return get_backend(name)


__all__ = [
    "BACKENDS",
    "ENGINE_BACKEND_ENV",
    "get_backend",
    "numba_available",
    "resolve_backend",
    "validate_backend",
]
