import os
import pathlib

import numpy as np
import pytest
from hypothesis import strategies as st

import polyflow as pf

# Tests that start `python -m polyflow.cli` in a child process import the
# sources under test there too: pyproject's pythonpath reaches only this
# process.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(pathlib.Path(__file__).resolve().parents[1] / "src")]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def finite_points(n, lo=-5.0, hi=5.0):
    """Strategy: an (n, 3) array of bounded floats."""
    return st.lists(
        st.lists(st.floats(lo, hi, allow_nan=False, width=64), min_size=3, max_size=3),
        min_size=n, max_size=n,
    ).map(lambda rows: np.array(rows, dtype=float))


def kind_config(kind):
    return finite_points(pf.VERTEX_COUNT[kind])


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_config(rng, kind):
    return rng.uniform(-1.0, 1.0, (pf.VERTEX_COUNT[kind], 3))


# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible regardless of output capturing
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
