"""Shared fixtures for the test suite."""
import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def src_env():
    """Environment for a child ``sys.executable`` that imports ionqrm from this checkout.

    The absolute ``src`` path goes first on PYTHONPATH, so the child finds the
    package whatever the working directory or the caller's PYTHONPATH.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _dense_states(h, psi0, times):
    """exp(-i H t) psi0 at each time from one dense ``np.linalg.eigh`` of all of H."""
    w, v = np.linalg.eigh(h)
    coeffs = v.conj().T @ psi0
    return (np.exp(-1j * np.outer(times, w)) * coeffs) @ v.T


@pytest.fixture
def dense_states():
    """The dense oracle that block-wise propagation must reproduce."""
    return _dense_states
