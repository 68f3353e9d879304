"""Shared fixtures for the test suite."""
import os
from pathlib import Path

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
