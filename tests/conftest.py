import functools
import os
from pathlib import Path

import pytest

from curvcert import zoo

# pyproject's ``pythonpath`` reaches this process only; the CLI tests'
# child processes import the package through the environment
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH")]))


@functools.lru_cache(maxsize=None)
def _entry(name):
    return zoo.load(name)


@pytest.fixture
def entry():
    """Cached zoo loader (entries are immutable)."""
    return _entry


@pytest.fixture
def ball():
    return _entry("ball")


@pytest.fixture
def half_space():
    return _entry("half_space")


@pytest.fixture
def gaussian_half_space():
    return _entry("gaussian_half_space")
