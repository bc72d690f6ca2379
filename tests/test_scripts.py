"""Smoke tests: the programs in scripts/ run against the library."""

import os
import subprocess
import sys
from pathlib import Path

from samples import TREE10_TEXT

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "scripts" / name), *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)


def test_louds_walk(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text(TREE10_TEXT)
    done = run_script("louds_walk.py", str(path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "10 nodes, 19 bits, mismatches: 0"
    done = run_script("louds_walk.py", "--super-root", str(path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "11 nodes, 21 bits, mismatches: 0"
