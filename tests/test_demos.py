"""Every demo script runs to completion against the package in this tree."""

import os
import pathlib
import subprocess
import sys

import pytest

import sievelab

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
SRC = pathlib.Path(sievelab.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr[-2000:]
