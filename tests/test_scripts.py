"""Smoke tests: the experiment scripts under scripts/ run to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("name,args", [
    ("residual_ladders.py", ["--ladder", "8,16"]),
    ("rigidity_scan.py", ["--steps", "2"]),
    ("run_examples.py", []),
    ("run_examples.py", ["--degree", "32"]),
])
def test_script_runs(name, args):
    res = run_script(name, *args)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
