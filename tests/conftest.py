"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.device import MTJDevice, PAPER_EVAL_DEVICE
from repro.stack import build_reference_stack


@pytest.fixture(autouse=True, scope="session")
def _hermetic_environment():
    """Keep the suite independent of the operator's shell.

    A developer with a persistent kernel cache or a preferred sweep
    executor configured must see the same tier-1 results as CI, so the
    opt-in environment variables are stripped for the whole session
    (tests that exercise them set them explicitly via monkeypatch).
    """
    saved = {}
    for name in ("REPRO_KERNEL_CACHE", "REPRO_SWEEP_EXECUTOR",
                 "REPRO_SWEEP_SPOOL"):
        saved[name] = os.environ.pop(name, None)
    yield
    for name, value in saved.items():
        if value is not None:
            os.environ[name] = value


@pytest.fixture
def eval_device():
    """A fresh paper evaluation device (eCD = 35 nm)."""
    return MTJDevice(PAPER_EVAL_DEVICE)


@pytest.fixture
def stack35():
    """The reference stack at eCD = 35 nm."""
    return build_reference_stack(35e-9)


@pytest.fixture
def stack55():
    """The reference stack at eCD = 55 nm."""
    return build_reference_stack(55e-9)


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(20200309)
