"""The pytest-benchmark scripts under ``benchmarks/`` still run.

They sit outside the tier-1 ``testpaths``; running them once each with
``--benchmark-disable`` catches a script broken by a library change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_scripts_run():
    pytest.importorskip("pytest_benchmark")
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + path))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "benchmarks", "--benchmark-disable"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
