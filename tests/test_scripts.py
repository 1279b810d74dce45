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


def test_engine_digest_is_unchanged():
    # Every check_ltl vector on the script's bodies and chains, bit for bit.
    # A change that means to alter vectors updates this digest and says why.
    proc = _run_script("engine_digest.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == (
        "8c2f66ed1546a2034af7f7a88bc70f812d90f3db9d8c676ae2222b46130571dc"
    )
