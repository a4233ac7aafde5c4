import os
import subprocess
import sys
from pathlib import Path

import pytest

import tandemreco


@pytest.fixture
def run_optimized():
    """Run a Python script under ``python -O`` (asserts stripped) and return its stdout."""
    src = str(Path(tandemreco.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(script: str) -> str:
        return subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout

    return run
