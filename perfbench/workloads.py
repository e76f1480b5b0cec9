"""The four workloads: inputs, ops, checks and work units.

A workload turns its seed into inputs (``generate``), then yields rounds
of ops; a round is one pass over the workload's input set.  Every op is
one closed-loop call into a public entry point of polyflow, with the
program's stdout captured.  ``call`` is the timed part; ``check``
verifies the output afterwards and returns one verdict per checked
output; ``stats`` returns counts the output reports (iterations,
halvings, ...), summed for the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

import checks
import inputs

VARIANT = {"gradient": "mean_volume_gradient", "y-variant": "y_variant"}


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], list]
    units: Callable[[object], int]
    stats: Callable[[object], dict] = dataclass_field(default=lambda result: {})


def run_cli(argv):
    """``polyflow.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sys.modules["polyflow.cli"].main(argv)
    return rc, out.getvalue()


def _json_stats(keys):
    def stats(result):
        rc, stdout = result
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            return {}
        return {k: out[k] for k in keys if k in out}
    return stats


class Workload:
    name = ""
    unit = ""
    min_ops = 1       # timed-phase floor on ops, so that p90 has samples
    trace_rounds = 1  # fixed sample of the traced run

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> dict:
        """Make the inputs; return their sizes and hashes."""
        raise NotImplementedError

    def rounds(self):
        raise NotImplementedError

    def warmup(self):
        """One untimed op that runs the timed ops' code paths."""
        op = next(iter(self.rounds()))[0]
        op.call()


class ElementFlow(Workload):
    """CLI ``regularize --random`` round-robin over the seven (kind, field) pairs."""

    name = "element-flow"
    unit = "element"
    min_ops = 100
    trace_rounds = 3

    def generate(self):
        self.plan = inputs.element_flow_plan(self.seed)
        return {"ops_planned": len(self.plan), "pairs": len(inputs.ELEMENT_PAIRS),
                "plan_sha256": inputs.digest(json.dumps(self.plan).encode())}

    def _op(self, kind, field, lcg_seed):
        return Op(
            call=lambda: run_cli(["regularize", "--type", kind, "--field", field,
                                  "--random", str(lcg_seed)]),
            check=lambda res: [checks.check_regularize(kind, field, *res)],
            units=lambda res: 1,
            stats=_json_stats(("iterations", "halvings", "monotone_breaks")))

    def rounds(self):
        per = len(inputs.ELEMENT_PAIRS)
        for r in itertools.count():
            start = (r * per) % len(self.plan)
            yield [self._op(*spec) for spec in self.plan[start:start + per]]


class BatchFlow(Workload):
    """``integrate_batch`` on batches of positive-f starts (see ``inputs.BATCH_MIX``)."""

    name = "batch-flow"
    unit = "config"
    trace_rounds = 1

    def generate(self):
        f_value = sys.modules["polyflow.elements"].f_value
        rounds = inputs.batch_rounds(
            self.seed, lambda kind, field, p: f_value(kind, VARIANT[field], p))
        self.batches = [[(kind, field, np.array(configs, dtype=float))
                         for kind, field, configs in batches] for batches in rounds]
        raw = b"".join(P.tobytes() for batches in self.batches for _, _, P in batches)
        return {"rounds": len(self.batches), "batch_size": inputs.BATCH_SIZE,
                "mix": [f"{k}/{f}" for k, f, _ in self.batches[0]],
                "configs_sha256": inputs.digest(raw)}

    def _op(self, kind, field, P):
        flow = sys.modules["polyflow.flow"]
        settings = flow.FlowSettings(step=0.05, max_iters=10 ** 5, tol=1e-10,
                                     normalization="psi")

        def check(out):
            return [checks.PASS if out["converged"][i]
                    and checks.shape_ok(kind, field, out["p"][i]) else checks.FAIL
                    for i in range(len(P))]

        def stats(out):
            it = out["iterations"]
            return {"config_iterations": int(it.sum()),
                    "tail_ratio": float(it.max() / np.median(it)),
                    "batches": 1,
                    "halvings": int(out["halvings"]),
                    "monotone_breaks": int(out["monotone_breaks"])}

        return Op(call=lambda: flow.integrate_batch(kind, VARIANT[field], P, settings),
                  check=check, units=lambda out: len(P), stats=stats)

    def rounds(self):
        for r in itertools.count():
            yield [self._op(*b) for b in self.batches[r % len(self.batches)]]


class HexSmooth(Workload):
    """CLI ``smooth`` of a jittered 8^3 structured hex grid, 20 sweeps."""

    name = "hex-smooth"
    unit = "element-sweep"
    sweeps = 20

    def generate(self):
        self.mesh = inputs.hex_grid_mesh(self.seed)
        self.mesh_path = os.path.join(self.workdir, "hex-in.json")
        self.out_path = os.path.join(self.workdir, "hex-out.json")
        self.report_path = os.path.join(self.workdir, "hex-report.csv")
        raw = inputs.write_json(self.mesh_path, self.mesh)
        return {"cells": inputs.HEX_CELLS ** 3, "vertices": len(self.mesh["vertices"]),
                "fixed": len(self.mesh["fixed"]), "sweeps": self.sweeps,
                "mesh_sha256": inputs.digest(raw)}

    def _argv(self, sweeps):
        # A negative quality tolerance turns the min-q stagnation stop off,
        # so every op does exactly ``sweeps`` sweeps.  With the default
        # tolerance the smoother stops after 10 sweeps on about 1 seed in
        # 12 (min_q falls), and a change to the stop rule would read as a
        # change in speed.
        return ["smooth", "--input", self.mesh_path, "--max-iters", str(sweeps),
                "--quality-tol=-1", "--output", self.out_path,
                "--report", self.report_path]

    def _check(self, res):
        with open(self.out_path) as fh:
            text = fh.read()
        return [checks.check_smooth(*res, self.mesh, text, self.sweeps)]

    def _units(self, res):
        return len(self.mesh["elements"]) * self.sweeps

    def rounds(self):
        while True:
            yield [Op(call=lambda: run_cli(self._argv(self.sweeps)),
                      check=self._check, units=self._units,
                      stats=lambda res: {"element_sweeps": self._units(res)})]

    def warmup(self):
        # One sweep runs every code path of the timed op (load, sweep,
        # quality report, save, report CSV) at a tenth of its cost.
        run_cli(self._argv(1))


class Spectra(Workload):
    """CLI ``spectrum`` at the optima, their mirrors and collinear tetrahedra."""

    name = "spectra"
    unit = "spectrum"
    min_ops = 100
    trace_rounds = 5

    def generate(self):
        shapes = inputs.spectrum_shapes(self.seed)
        self.paths = {}
        raw = b""
        for name, vertices in shapes.items():
            path = os.path.join(self.workdir, f"{name}.json")
            raw += inputs.write_json(path, {"vertices": vertices})
            self.paths[name] = path
        return {"files": len(shapes), "ops_per_round": len(self._round_specs(0)),
                "shapes_sha256": inputs.digest(raw)}

    def _round_specs(self, r):
        specs = [(k, f, "optimal", "optimal") for k, f in inputs.SPECTRUM_ROWS]
        specs += [(k, f, "mirror", f"mirror-{k}-{f}") for k, f in inputs.SPECTRUM_ROWS]
        specs.append(("tetrahedron", "gradient", "collinear", "collinear"))
        specs += [("tetrahedron", "gradient", "collinear",
                   f"collinear-{r % inputs.SPECTRUM_ROUNDS}-{j}")
                  for j in range(inputs.COLLINEAR_PER_ROUND)]
        return specs

    def _op(self, kind, field, shape, at):
        at = self.paths.get(at, at)
        return Op(call=lambda: run_cli(["spectrum", "--type", kind, "--field", field,
                                        "--at", at]),
                  check=lambda res: [checks.check_spectrum(kind, field, shape, *res)],
                  units=lambda res: 1)

    def rounds(self):
        for r in itertools.count():
            yield [self._op(*spec) for spec in self._round_specs(r)]


WORKLOADS = {w.name: w for w in (ElementFlow, BatchFlow, HexSmooth, Spectra)}
