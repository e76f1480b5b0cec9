"""Spans around the public functions of polyflow, recorded from outside.

``Tracer.install`` wraps every public function of the traced modules at
every module attribute that holds it.  ``from .sphere import pi`` copies
the function into the importing module, so ``polyflow.flow.pi`` and
``polyflow.mesh.pi`` are wrapped as well as ``polyflow.sphere.pi``.  The
program looks these names up at call time, so calls between its own
modules are traced too.  Each span records its name, start, end, parent
span, op id and, for batched calls, the batch size.  Spans stay in
memory until ``write``.  The tracer assumes one calling thread (the
program's thread pool is off while ``POLYFLOW_THREADS`` is unset).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

TRACED_MODULES = ("cli", "flow", "elements", "sphere", "mesh", "spectral",
                  "sampling")


def _batch_size(args, kwargs):
    P = kwargs.get("P", kwargs.get("P0", args[2] if len(args) > 2 else None))
    return len(P) if P is not None else 0


# Span name -> function of the call's arguments giving its batch size.
SIZERS = {
    "elements.field_batch": _batch_size,
    "flow.integrate_batch": _batch_size,
}


class Tracer:
    """In-memory span recorder that patches polyflow's public functions.

    The wrappers are built once; ``install`` and ``uninstall`` only swap
    module attributes, so tracing can be switched per op.
    """

    def __init__(self, package="polyflow"):
        # (name, start_ns, end_ns, parent index or -1, op id, size)
        self.spans: list = []
        self.op_id = -1
        self._stack: list[int] = []
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        self._bindings = []  # (module, attribute, original, wrapper)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value, hit[1]))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                size = sizer(args, kwargs) if sizer else 0
                spans[idx] = (name, start, end, parent, self.op_id, size)

        return traced

    def install(self):
        """Bind every wrapper wherever its function is bound."""
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def write(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, op, size) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op,
                                     "size": size}) + "\n")


class SpanStats:
    """Per-name aggregates of a span list: calls, total and self time, sizes.

    With ``op_factors``, each span's time is multiplied by its op's factor.
    """

    def __init__(self, spans, op_factors=None):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(float)
        self.self_ns = defaultdict(float)
        self.size = defaultdict(int)
        durations = [(end - start) * (op_factors[op] if op_factors else 1.0)
                     for _, start, end, _, op, _ in spans]
        child_ns = [0.0] * len(spans)
        for (name, _, _, parent, _, size), dur in zip(spans, durations):
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.size[name] += size
            if parent >= 0:
                child_ns[parent] += dur
        for (name, *_), dur, children in zip(spans, durations, child_ns):
            self.self_ns[name] += dur - children
        self._spans = spans

    def self_mean(self, name, unit_ns):
        calls = self.calls.get(name, 0)
        return self.self_ns[name] / calls / unit_ns if calls else 0.0

    def total_mean(self, name, unit_ns):
        calls = self.calls.get(name, 0)
        return self.total_ns[name] / calls / unit_ns if calls else 0.0

    def below(self, name, ancestor):
        """(calls, summed batch size) of ``name`` spans under an ``ancestor`` span."""
        spans = self._spans
        calls = rows = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    calls += 1
                    rows += span[5]
                    break
                parent = spans[parent][3]
        return calls, rows
