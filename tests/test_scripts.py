"""Smoke runs of the demo scripts that README advertises."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pltl_learn

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name: str) -> subprocess.CompletedProcess:
    # The child imports the same pltl_learn as this process, installed or not.
    src = str(Path(pltl_learn.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("name", ["run_safety_demo.py", "run_gridworld_demo.py"])
def test_demo_script_runs(name):
    proc = _run_script(name)
    assert proc.returncode == 0, proc.stderr
    if name == "run_safety_demo.py":
        assert "[G(!h)]" in proc.stdout
