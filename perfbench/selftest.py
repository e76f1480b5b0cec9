"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root with either of:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They take about two minutes, most of it in the hex-smooth ops.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

run._import_program()

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7


def _workload(name, workdir=None):
    workdir = workdir or os.path.join(run.OUT, "selftest", name)
    os.makedirs(workdir, exist_ok=True)
    w = workloads.WORKLOADS[name](SEED, workdir)
    w.generate()
    return w


def _files(directory):
    out = {}
    for entry in sorted(os.listdir(directory)):
        with open(os.path.join(directory, entry), "rb") as fh:
            out[entry] = fh.read()
    return out


def test_same_seed_same_input_bytes():
    os.makedirs(run.OUT, exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        records, files = [], []
        for _ in range(2):
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                records.append(cls(SEED, tmp).generate())
                files.append(_files(tmp))
        assert records[0] == records[1], name
        assert files[0] == files[1], name
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            other = cls(SEED + 1, tmp).generate()
        assert other != records[0], f"{name}: seed does not change the inputs"


def _outputs(result, workload):
    if isinstance(result, dict):  # integrate_batch
        return {k: v.tobytes() if hasattr(v, "tobytes") else v
                for k, v in result.items()}
    if isinstance(workload, workloads.HexSmooth):
        with open(workload.out_path, "rb") as fh:
            return result, fh.read()
    return result


def test_traced_ops_print_the_same_bytes():
    for name in workloads.WORKLOADS:
        w = _workload(name)
        tracer = Tracer()
        for op in next(iter(w.rounds())):
            plain = _outputs(op.call(), w)
            tracer.install()
            try:
                traced = _outputs(op.call(), w)
            finally:
                tracer.uninstall()
            assert plain == traced, name
        assert tracer.spans, name


def _counts(w):
    tracer = Tracer()
    sample = itertools.islice(w.rounds(), w.trace_rounds)
    result = run.run_traced(sample, tracer)
    metrics, units = layers.per_layer(tracer.spans, result.stats)
    counts = {k: v for k, v in metrics.items() if units[k] in ("count", "ratio")}
    counts["spans"] = len(tracer.spans)
    counts["ops"] = len(result.latencies)
    return counts, result.verdicts


def test_layer_counts_repeat_exactly():
    for name in workloads.WORKLOADS:
        w = _workload(name)
        first, verdicts = _counts(w)
        second, _ = _counts(w)
        assert first == second, name
        assert "fail" not in verdicts, name


def test_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(declared) + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    w = _workload("spectra")
    tracer = Tracer()
    result = run.run_traced(itertools.islice(w.rounds(), 1), tracer)
    _, units = layers.per_layer(tracer.spans, result.stats)
    units.update(run.TRACE_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
