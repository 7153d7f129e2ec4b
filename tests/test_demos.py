"""The demos run as shipped: each is a script a reader starts by hand, so
it is run here the same way, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import poiscoh

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(Path(poiscoh.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, env=env)


def test_m2_walkthrough_runs_cleanly_and_deterministically():
    first, second = _run_demo("m2_walkthrough.py"), _run_demo("m2_walkthrough.py")
    assert first.returncode == 0 and first.stderr == b""
    assert first.stdout and first.stdout == second.stdout
