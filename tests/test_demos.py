"""Each demo script runs to completion against the library in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_cleanly(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr


def test_measure_scaling_demo_fractions():
    """The seeded sweep prints the same five fractions."""
    proc = run_demo(ROOT / "demos" / "06_measure_scaling.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert [row[1] for row in rows] == [
        "0.01188", "0.02290", "0.04572", "0.09304", "0.18682",
    ]
