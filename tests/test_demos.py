"""Smoke test: every demo script runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# pyproject's filterwarnings, as interpreter options: a demo that leaks a
# numpy warning fails as a test would
WARNINGS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
            "-W", "error::PendingDeprecationWarning", "-W", "error::FutureWarning"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # stdout is not compared: some printed digits depend on rounding
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *WARNINGS, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
