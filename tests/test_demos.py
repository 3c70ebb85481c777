"""Each demo script runs to completion from a scratch working directory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    """The demo's process, its stdout as UTF-8 bytes."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
           "PYTHONIOENCODING": "utf-8"}
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()


def test_demo01_stdout_matches_golden_bytes(tmp_path):
    # The group labels (Z...Z * X...X), the averaged term counts (commutes)
    # and the sector table are exact text.
    proc = run_demo(ROOT / "demos" / "01_decoupling_and_encoding.py", tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "demo01_stdout.txt").read_bytes()
