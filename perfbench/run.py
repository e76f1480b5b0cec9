"""polyflow benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload element-flow --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up, runs closed-loop rounds of the workload for
``--seconds`` (and at least the workload's op floor) and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed sample of rounds
untraced, then the same rounds with spans around polyflow's public
functions, and prints the per-layer metrics.  The program is imported
from ``src/`` next to this directory; without it the run fails.  The
last stdout line is the JSON result; the lines before it give the
metrics by name with units, the inputs and the environment.  Outputs
and spans go to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import speed
import workloads
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
STRETCH_S = 0.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "POLYFLOW_THREADS")

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

TRACE_UNITS = {"trace.overhead_frac": "frac", "trace.ops": "count",
               "trace.spans": "count"}

_IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import polyflow.cli; print(time.perf_counter() - t)")


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "polyflow", "__init__.py")):
        raise SystemExit(f"perfbench: no polyflow sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import polyflow.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(polyflow.__file__))) != SRC:
        raise SystemExit(f"perfbench: polyflow imported from {polyflow.__file__}")
    return elapsed


def _child_import_s():
    """Cold ``import polyflow.cli`` time in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET, SRC],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip())


def _git_sha():
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def set_up(workload, gauge=None):
    """Set up ``SETUP_REPEATS`` times; return (median seconds, input record).

    One set-up is a cold import of polyflow (timed in a fresh
    interpreter), input generation and one warm-up op.  With a gauge,
    each set-up's time is normalized to the reference speed.
    """
    times, record = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_s = _child_import_s()
        t1 = time.perf_counter()
        record = workload.generate()
        workload.warmup()
        t2 = time.perf_counter()
        elapsed = import_s + t2 - t1
        times.append(elapsed * gauge.factor(t0, t2) if gauge else elapsed)
    return statistics.median(times), record


def _call(op):
    """Run one op; return (start, end, result or None if it raised)."""
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception:  # an op that raises counts as failed; keep measuring
        traceback.print_exc()
        result = None
    return t0, time.perf_counter(), result


class Run:
    """What a sequence of ops produced: times, verdicts, units and stats."""

    def __init__(self):
        self.intervals, self.rounds, self.verdicts = [], [], []
        self.units, self.stats, self.plain = 0, {}, []  # plain: untraced intervals

    @property
    def latencies(self):
        return [t1 - t0 for t0, t1 in self.intervals]

    def record(self, op, t0, t1, result, round_index):
        self.intervals.append((t0, t1))
        self.rounds.append(round_index)
        if result is None:
            self.verdicts.append("fail")
            return
        self.verdicts.extend(op.check(result))
        self.units += op.units(result)
        for key, value in op.stats(result).items():
            self.stats.setdefault(key, []).append(value)

    def normalize(self, gauge):
        """Per-op times at the reference speed, one factor per stretch of ops.

        A stretch collects consecutive ops until it spans ``STRETCH_S``.
        """
        out, stretch = [], []
        for i, (t0, t1) in enumerate(self.intervals):
            stretch.append(t1 - t0)
            start = self.intervals[i + 1 - len(stretch)][0]
            if t1 - start >= STRETCH_S or i == len(self.intervals) - 1:
                factor = gauge.factor(start, t1)
                out += [t * factor for t in stretch]
                stretch = []
        return out

    def round_s(self, times):
        """Per-round sums of ``times`` (one entry per op)."""
        sums = {}
        for r, t in zip(self.rounds, times):
            sums[r] = sums.get(r, 0.0) + t
        return list(sums.values())


def run_timed(rounds, seconds, min_ops):
    """Closed loop until ``seconds`` have passed and ``min_ops`` ops ran.

    Stops only at the end of a round.
    """
    run = Run()
    start = time.perf_counter()
    for r, ops in enumerate(rounds):
        for op in ops:
            run.record(op, *_call(op), r)
        if time.perf_counter() - start >= seconds and len(run.intervals) >= min_ops:
            break
    return run


def run_traced(rounds, tracer):
    """Each op once untraced (into ``plain``), then traced and checked."""
    run = Run()
    for r, ops in enumerate(rounds):
        for op in ops:
            t0, t1, _ = _call(op)
            run.plain.append((t0, t1))
            tracer.op_id = len(run.intervals)
            tracer.install()
            try:
                outcome = _call(op)
            finally:
                tracer.uninstall()
            run.record(op, *outcome, r)
    return run


def _p50_p90(values):
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def end_to_end(workload, seconds):
    """Set up, run the timed phase and compute the end-to-end metrics."""
    with speed.Gauge() as gauge:
        setup_s, record = set_up(workload, gauge)
        run = run_timed(workload.rounds(), seconds, workload.min_ops)
    normalized = run.normalize(gauge)
    p50, p90 = _p50_p90([1e3 * t for t in normalized])
    failed = sum(v != "pass" for v in run.verdicts)
    attempted = len(run.verdicts)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(run.round_s(normalized)),
        "throughput_per_s": run.units / sum(normalized),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (attempted - failed) / attempted,
    }
    notes = {"ops": len(run.latencies), "rounds": len(set(run.rounds)),
             "latency_samples": len(run.latencies), "unit": workload.unit,
             "units": run.units, "failed_frac": failed / attempted,
             "known_red": run.verdicts.count("known_red"),
             "measured": {"wall_s": statistics.median(run.round_s(run.latencies)),
                          "throughput_per_s": run.units / sum(run.latencies)},
             "speed_vs_reference": sum(normalized) / sum(run.latencies),
             "pinned_cpu": gauge.cpu, "bursts": len(gauge.starts)}
    return metrics, END_TO_END, run.verdicts, record, notes


def traced(workload, seconds):
    """Per-layer metrics of a fixed sample of rounds (``seconds`` is unused).

    Span times are scaled to the reference speed with each traced op's
    gauge factor, and the tracing overhead compares normalized times.
    """
    _, record = set_up(workload)
    tracer = Tracer()
    with speed.Gauge() as gauge:
        run = run_traced(itertools.islice(workload.rounds(), workload.trace_rounds),
                         tracer)
    factors = [gauge.factor(t0, t1) for t0, t1 in run.intervals]
    plain = sum((t1 - t0) * gauge.factor(t0, t1) for t0, t1 in run.plain)
    traced_s = sum((t1 - t0) * f for (t0, t1), f in zip(run.intervals, factors))
    tracer.write(os.path.join(OUT, f"spans-{workload.name}-seed{workload.seed}.jsonl.gz"))
    metrics, units = layers.per_layer(tracer.spans, run.stats, factors)
    metrics["trace.overhead_frac"] = traced_s / plain - 1.0
    metrics["trace.ops"] = float(len(run.latencies))
    metrics["trace.spans"] = float(len(tracer.spans))
    units.update(TRACE_UNITS)
    notes = {"sample_rounds": workload.trace_rounds, "ops": len(run.latencies),
             "pinned_cpu": gauge.cpu}
    return metrics, units, run.verdicts, record, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

    measure = traced if args.trace else end_to_end
    metrics, units, verdicts, record, notes = measure(workload, args.seconds)

    failed = sum(v != "pass" for v in verdicts)
    correct = "fail" not in verdicts
    for name, value in metrics.items():
        print(f"{args.workload:>13} {name:<58} {value:>16.6g} {units[name]}")
    print(f"{args.workload:>13} {'failed_frac (failed / attempted)':<58} "
          f"{failed / len(verdicts):>16.6g} frac")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "import_s": import_s, "inputs": record, "run": notes,
                      "environment": environment()}))
    print(json.dumps({"correct": correct, "attempted": len(verdicts),
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
