import os
from pathlib import Path

import numpy as np
import pytest

import asymsqueeze


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the package under test."""
    src = str(Path(asymsqueeze.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
