"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import graphbell


@pytest.fixture
def child_env():
    """Environment for a child interpreter that must import this graphbell.

    The suite finds the package through pytest's ``pythonpath`` setting,
    which child processes do not inherit, so its directory is put first on
    their ``PYTHONPATH``.
    """
    src = str(Path(graphbell.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + rest if rest else src)
