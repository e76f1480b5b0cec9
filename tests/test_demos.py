"""Smoke test: every demo script, and the README's Quickstart, runs to completion."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# pyproject's filterwarnings, as interpreter options: a demo that leaks a
# numpy warning fails as a test would
WARNINGS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
            "-W", "error::PendingDeprecationWarning", "-W", "error::FutureWarning"]


def _run(args, cwd):
    """Run python with the suite's warning policy on args in cwd; assert a clean exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *WARNINGS, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # stdout is not compared: some printed digits depend on rounding
    _run([str(demo)], tmp_path)


def test_readme_quickstart_runs(tmp_path):
    # the python block under "## Quickstart", on a one-hexahedron mesh.json
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("\n## Quickstart\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    cube = [[x, y, z] for z in (0.0, 1.0) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))]
    cube[6] = [1.1, 0.9, 1.2]  # one vertex off the cube, so that the smoother moves it
    (tmp_path / "mesh.json").write_text(json.dumps(
        {"vertices": cube, "elements": [{"type": "hexahedron", "nodes": list(range(8))}],
         "fixed": []}))
    _run(["-c", code], tmp_path)
