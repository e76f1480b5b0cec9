"""Polyhedral meshes, quality reporting, and field-averaged smoothing.

A mesh couples a shared vertex pool with typed elements (canonical
vertex numbering per kind) and a set of fixed vertices.  Smoothing
evaluates every element's gradient field, scatter-averages the
per-vertex contributions, and displaces the free vertices; element
shapes drift toward their optimal forms while fixed boundaries stay
put.  Meshes live in ambient space: there is no whole-mesh projection,
and scale control comes from the per-element square-root rescaling.

An element's quality is its centered quality q_c = <X, c> / |c|^3 (X
its gradient field, c its vertices minus their centroid) over the
kind's value at the optimal shape: the mean volume of the shape modulo
translation and scaling, independent of the vertex numbering.

A sweep evaluates each element's field once, for its quality and its
step, through the mesh's sweep operator (:func:`_sweep_plan` describes
it).  ``smooth``, ``smooth_step`` and ``quality_report`` run one loop
of sweeps, which reports every state it reaches and steps one vertex
array in place; ``mesh_mean_volume`` reads the operator's measure.  A
:class:`SmoothSettings` holds a run's step, sweep budget and stop rule.

A Mesh is held as arrays: its vertices and, per kind, its node indices
and element positions.  Mesh JSON is read and written per kind, through
those arrays; the (kind, nodes) tuples of ``Mesh.elements`` are built
only when a caller reads them.
"""

from __future__ import annotations

import copy
import csv
import gc
import json
import warnings
from dataclasses import dataclass, field as dataclass_field, fields, replace
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from . import elements as el
from .elements import _measure_buffers, _measure_plan
from .flow import (FlowDivergenceError, FlowSettings, _integer_at_least, _positive_finite,
                   _real, _set_fields)
from .jsontext import json_list
from .sphere import DegenerateConfigurationError, _divisor


class MeshFormatError(ValueError):
    """Malformed mesh JSON; carries position diagnostics when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def _index(i, what: str, n: int) -> None:
    """Raise MeshFormatError unless i is an int or numpy integer (not a bool) in 0..n-1."""
    if type(i) is not int and not isinstance(i, np.integer):
        raise MeshFormatError(f"{what} {i!r} is not an integer")
    if not 0 <= i < n:
        raise MeshFormatError(f"{what} {i} out of range")


def _int_indices(values: list, n: int):
    """``values`` as an index array if all pass :func:`_index`, else None.

    One set difference passes the common case, Python ints; on None the
    caller checks each value with :func:`_index`, which names the first.
    """
    odd = set(map(type, values)) - {int}
    if odd and not all(issubclass(t, np.integer) for t in odd):
        return None
    try:
        a = np.fromiter(values, np.intp, len(values))
    except OverflowError:  # an int beyond the index type
        return None
    return None if np.count_nonzero((a < 0) | (a >= n)) else a


def _groups(kinds: list, nodes: list, n: int):
    """Per kind present, in order of first use: (kind, (E, k) node indices, (E,) positions).

    ``kinds[e]`` and ``nodes[e]`` describe element e.  None unless every
    kind is a known name, every node list has its kind's length and every
    index passes :func:`_index`.  The checks are set operations over all
    elements at once, so they name no element; :func:`_raise_first_bad` does.
    """
    try:
        order = list(dict.fromkeys(kinds))
    except TypeError:  # an unhashable kind
        return None
    if not set(order).issubset(el.KINDS):
        return None
    if len(order) == 1:
        split = [(order[0], nodes, np.arange(len(nodes)))]
    else:
        code = np.fromiter(map({kind: i for i, kind in enumerate(order)}.__getitem__, kinds),
                           np.intp, len(kinds))
        split = []
        for i, kind in enumerate(order):
            pos = np.flatnonzero(code == i)
            split.append((kind, [nodes[k] for k in pos.tolist()], pos))
    groups = []
    for kind, rows, pos in split:
        if set(map(len, rows)) != {el.VERTEX_COUNT[kind]}:
            return None
        a = _int_indices(list(chain.from_iterable(rows)), n)
        if a is None:
            return None
        groups.append((kind, a.reshape(len(pos), -1), pos))
    return tuple(groups)


def _raise_first_bad(kinds: list, nodes: list, n: int) -> None:
    """Raise MeshFormatError naming the first ``elements[k]`` that :func:`_groups` refuses.

    Per element: its kind, then each index by :func:`_index`, then its length.
    """
    for k, (kind, row) in enumerate(zip(kinds, nodes)):
        if kind not in el.KINDS:
            raise MeshFormatError(f"elements[{k}]: unknown type {kind!r}")
        for i in row:
            _index(i, f"elements[{k}]: node index", n)
        if len(row) != el.VERTEX_COUNT[kind]:
            raise MeshFormatError(
                f"elements[{k}]: {kind} needs {el.VERTEX_COUNT[kind]} nodes, got {len(row)}")


def _size(groups: tuple) -> int:
    """The number of elements in ``groups`` (see :class:`Mesh`)."""
    return sum(len(pos) for _, _, pos in groups)


def _element_rows(groups: tuple):
    """Each element's kind and node indices, in element order.

    The node indices are the rows of an (E, 8) array, padded with -1.
    """
    kinds = np.empty(_size(groups), dtype=object)
    rows = np.full((len(kinds), max(el.VERTEX_COUNT.values())), -1)
    for kind, nodes, pos in groups:
        kinds[pos] = kind
        rows[pos, :nodes.shape[1]] = nodes
    return kinds.tolist(), rows


# Component c of vertex i sits at 3 i + c of the flat (n, 3) vertex array.
_XYZ = np.arange(3)[:, None]


def _plan(groups: tuple, fixed: np.ndarray, n: int) -> tuple:
    """The sweep plan of :class:`Mesh` for the fixed index array: (offsets, free mask, count)."""
    free = np.ones((n, 1), dtype=bool)
    free[fixed] = False
    count = np.zeros(n)
    for _, nodes, _ in groups:
        count += np.bincount(nodes.ravel(), minlength=n)
    return (tuple(3 * nodes[:, None, :] + _XYZ for _, nodes, _ in groups), free,
            np.maximum(count, 1.0)[:, None])


@dataclass(frozen=True, eq=False, init=False)
class Mesh:
    """Vertex pool, typed elements (at least one), and immobile vertex set.

    The mesh is held as arrays.  ``vertices`` is the (n, 3) float array;
    ``groups`` holds, per kind present in order of first use, the (E, n)
    node-index array of its elements (canonical order, 0-based) and their
    (E,) positions in the element order; ``fixed`` is a frozenset of
    0-based vertex indices.  ``plan`` holds what a sweep needs of the
    topology: per group the (E, 3, n) offsets 3 node + c of the
    component-major element rows in ``vertices.ravel()``, an (n, 1) mask
    of the free vertices, and every vertex's element count as an (n, 1)
    column (at least 1).  All of it carries over to :meth:`with_vertices`.

    ``elements``, the (kind, nodes) pairs in element order with the nodes
    a tuple of ints, is built from ``groups`` when first read, and kept.
    """

    vertices: np.ndarray
    groups: tuple = dataclass_field(repr=False)
    fixed: frozenset
    plan: tuple = dataclass_field(repr=False)

    def __init__(self, vertices, elements, fixed):
        elements = [(kind, tuple(nodes)) for kind, nodes in elements]
        self._build(vertices, [kind for kind, _ in elements],
                    [nodes for _, nodes in elements], fixed)

    def _build(self, vertices, kinds: list, nodes: list, fixed) -> None:
        """Check the vertices, the elements ``zip(kinds, nodes)`` and ``fixed``; set the arrays."""
        if not kinds:
            raise MeshFormatError("elements is empty; a mesh needs at least one element")
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshFormatError("vertices must be an (n, 3) array")
        groups = _groups(kinds, nodes, len(v))
        if groups is None:
            _raise_first_bad(kinds, nodes, len(v))
        fixed = list(fixed)
        index = _int_indices(fixed, len(v))
        if index is None:
            for i in fixed:
                _index(i, "fixed vertex index", len(v))
        for name, value in (("vertices", v), ("groups", groups),
                            ("fixed", frozenset(index.tolist())),
                            ("plan", _plan(groups, index, len(v)))):
            object.__setattr__(self, name, value)

    @cached_property
    def elements(self) -> tuple:
        kinds, rows = _element_rows(self.groups)
        return tuple((kind, tuple(row[:el.VERTEX_COUNT[kind]]))
                     for kind, row in zip(kinds, rows.tolist()))

    def with_vertices(self, vertices) -> "Mesh":
        """The same elements and fixed set over new positions of the same vertices."""
        v = np.asarray(vertices, dtype=float)
        if v.shape != self.vertices.shape:
            raise MeshFormatError(
                f"vertices must keep shape {self.vertices.shape}, got {v.shape}")
        out = copy.copy(self)
        object.__setattr__(out, "vertices", v)
        return out


@dataclass(frozen=True, eq=False)
class QualityReport:
    """Per-element normalized quality and mesh-level summary.

    ``per_element_q``, a read-only float array in element order, is None
    in :func:`smooth`'s middle states.  Reports with equal fields are equal.
    """

    per_element_q: np.ndarray | None
    mesh_mean_volume: float
    min_q: float
    mean_q: float
    max_q: float
    inverted_count: int

    def __eq__(self, other):
        if not isinstance(other, QualityReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


# smooth stops when min_q has not risen by quality_tol over this many sweeps
_WINDOW = 10


@dataclass(frozen=True)
class SmoothSettings:
    """A smoothing run's step, sweep budget and stop rule.

    A sweep moves each free vertex by ``step`` times the average of its
    elements' fields, each divided by psi's divisor.  A run makes at
    most ``max_iters`` sweeps (an integer of at least 0) and stops when
    min_q has not risen by ``quality_tol`` over ``_WINDOW`` sweeps: a
    real number (not a bool) other than NaN; a negative one never stops
    a run.  The fields are checked in order, a bad one raising
    ValueError, and stored as Python floats and ints.
    """

    step: float = 0.05
    max_iters: int = 10 ** 4
    quality_tol: float = 1e-10

    def __post_init__(self):
        _set_fields(self, step=_positive_finite("step", self.step),
                    max_iters=_integer_at_least("max_iters", self.max_iters, 0))
        if not _real(self.quality_tol) or self.quality_tol != self.quality_tol:
            raise ValueError(f"quality_tol must be a number, got {self.quality_tol}")
        _set_fields(self, quality_tol=float(self.quality_tol))


# numpy's warnings, muted in a sweep: a quality that is not finite raises in _summary
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


def _sweep_plan(m: Mesh):
    """The sweep operator of ``m``, built once per run: the calls (measure, direction).

    Per kind, a sweep works on the flow's component-major rows (E, 3, n):
    row e lists the x, then y, then z coordinates of element e's
    vertices.  ``measure(flat)`` reads them from the flat vertex array
    with one ``take`` of ``Mesh.plan``'s offsets, into the rows of the
    kind's measure plan (``elements._measure_plan``, as the flow's).  It
    centers them and evaluates their field X at the centered rows, so q
    and the step stay exact far from the origin; every sum runs along an
    element's own row, so no q depends on the batch.  ``measure`` returns
    per-element <X, c> and q = q_c / (18 Q_MAX[kind]) in element order.
    ``direction(step)`` reads the last measure: per kind, X over psi's
    divisor sqrt|X| is added into the flat array by one ``bincount`` over
    the same offsets.  It returns ``step`` times each vertex's sum over
    its element count, (n, 3).  Callers mute numpy's warnings (``_QUIET``).
    """
    offsets, _, count = m.plan
    size, length, plans = _size(m.groups), count.size * 3, []
    for (kind, _, pos), index in zip(m.groups, offsets):  # per kind: its rows, plan and measure
        rows, out = np.empty(index.shape), _measure_buffers(len(index), index.shape[2])
        plans.append((kind, pos, index, rows, _measure_plan(kind, el.GRADIENT, rows, out), out))

    def measure(flat):
        xc, q = np.empty(size), np.empty(size)
        for kind, pos, index, rows, run, out in plans:
            # the offsets are in range; take(out=) is buffered in the default mode
            np.take(flat, index, out=rows, mode="clip")
            run()
            xc[pos], q[pos] = out.xc, out.q / (18.0 * el.Q_MAX[kind])
        return xc, q

    def direction(step):
        acc = np.zeros(length)
        for _, _, index, _, _, out in plans:
            X = out.X / _divisor(out.norms[1])[:, None, None]
            acc += np.bincount(index.ravel(), weights=X.ravel(), minlength=length)
        return step * acc.reshape(-1, 3) / count

    return measure, direction


def _sweeps(m: Mesh, settings: SmoothSettings):
    """The vertices of ``m`` after the sweeps of ``settings``, and the reports of its states.

    The state after i sweeps is one vertex array; its report reads the
    measure of the sweep operator (:func:`_sweep_plan`), and a step that
    is taken adds its direction to the free vertices in place.  A state
    whose quality is not finite raises: the input with
    DegenerateConfigurationError, a later one with FlowDivergenceError.
    """
    measure, direction = _sweep_plan(m)
    v = m.vertices.copy()
    flat, free, reports = v.ravel(), m.plan[1], []
    with np.errstate(**_QUIET):
        for it in range(settings.max_iters + 1):  # state it, after it sweeps
            try:
                reports.append(_summary(m, v, *measure(flat)))
            except DegenerateConfigurationError as exc:
                if not it:
                    raise  # the input mesh
                # an element collapsed to a point; the sweep cannot continue
                raise FlowDivergenceError(it) from exc
            if it > 1:
                reports[-2] = replace(reports[-2], per_element_q=None)
            if (it >= _WINDOW
                    and reports[-1].min_q - reports[-1 - _WINDOW].min_q < settings.quality_tol):
                break
            if it < settings.max_iters:
                np.add(v, direction(settings.step), out=v, where=free)
    return v, reports


def _summary(m: Mesh, v: np.ndarray, xc, q) -> QualityReport:
    """The QualityReport of per-element <X, c> and q at vertices ``v`` (see quality_report)."""
    total = q.sum()
    if not np.isfinite(total):  # q is bounded, so its sum overflows only through a bad q
        k = int(np.flatnonzero(~np.isfinite(q))[0])
        p = v[list(m.elements[k][1])]
        coincide = np.isfinite(p).all() and not np.ptp(p, axis=0).any()
        reason = "all vertices coincide" if coincide else "non-finite coordinates or volume"
        raise DegenerateConfigurationError(f"element {k}: {reason}")
    q.flags.writeable = False
    return QualityReport(
        per_element_q=q,
        mesh_mean_volume=float(xc.sum()) / 18.0,
        min_q=float(q.min()),
        mean_q=float(total / q.size),
        max_q=float(q.max()),
        inverted_count=int(np.count_nonzero(q < 0)),
    )


def mesh_mean_volume(m: Mesh) -> float:
    """Sum of element mean volumes (signed; additive over elements).

    The sum of the sweep operator's <X, c> (:func:`_sweep_plan`) in
    element order, over 18: the quality report's ``mesh_mean_volume`` to
    the bit, and 0 for an element whose vertices coincide.
    """
    with np.errstate(**_QUIET):
        xc = _sweep_plan(m)[0](m.vertices.ravel())[0]
    return float(xc.sum()) / 18.0


def quality_report(m: Mesh) -> QualityReport:
    """Per-element centered quality over the kind's ceiling, and mesh summary.

    An element's quality is q = q_c / (18 Q_MAX[kind]), where
    q_c = <X, c> / |c|^3 is the centered quality of the flow: X is the
    element's gradient field and c its vertices minus their centroid.
    As <X, c> = 18 V (Euler's identity; the gradient rows sum to zero),
    q is the mean volume of c / |c| over that of the centered, unit-norm
    reference shape.  It is invariant under translation, scaling and
    the kind's vertex relabellings; q = 1 at the optimal shape, q <= 1
    elsewhere, and q < 0 for inverted elements (``inverted_count``).
    ``mesh_mean_volume`` is the sum of the elements' V = <X, c> / 18.

    Raises
    ------
    DegenerateConfigurationError
        Naming the first element whose q is not finite: its vertices all
        coincide, or its coordinates or volume are not finite.
    """
    return _sweeps(m, SmoothSettings(max_iters=0))[1][0]


def smooth_step(m: Mesh, settings: SmoothSettings = SmoothSettings()) -> Mesh:
    """One smoothing sweep: scatter-average element fields, displace free vertices.

    Only ``step`` is read, of a :class:`FlowSettings` too if its
    normalization is ``psi``: ``none`` raises ValueError, any other type
    TypeError, before any field pass.  Fixed vertices are returned
    bitwise unchanged.  As one reported sweep of ``smooth``'s loop, it
    raises as :func:`smooth` does on a degenerate input or a diverging step.
    """
    if isinstance(settings, FlowSettings) and settings.normalization == "none":
        raise ValueError("smooth_step steps by psi, got normalization 'none'")
    if not isinstance(settings, (SmoothSettings, FlowSettings)):
        raise TypeError("smooth_step takes a SmoothSettings or a FlowSettings, "
                        f"got {type(settings).__name__}")
    return m.with_vertices(_sweeps(m, SmoothSettings(step=settings.step, max_iters=1))[0])


def smooth(m: Mesh, settings: SmoothSettings = SmoothSettings()):
    """Repeat smooth_step until min-quality stagnates over a 10-iteration window.

    Returns ``(mesh, reports)`` where ``reports[i]`` is the
    :class:`QualityReport` (centered quality, see :func:`quality_report`)
    after i steps; ``reports[0]`` is the input state.  Only the first and
    the last carry ``per_element_q`` (None between).  Each state's fields
    are evaluated once, for its report and the step that leaves it, so
    n sweeps cost n + 1 field passes.  A mesh with every vertex fixed is
    returned unchanged with a warning.
    A step that leaves an element's quality non-finite raises
    :class:`FlowDivergenceError` with the iteration of the state it leads to.
    All three fields of ``settings`` are read: the step, the sweep budget
    ``max_iters`` and the stop rule ``quality_tol``.  Settings of any
    other type raise TypeError before any sweep.
    """
    if not isinstance(settings, SmoothSettings):
        raise TypeError(f"smooth takes a SmoothSettings, got {type(settings).__name__}")
    if len(m.fixed) >= len(m.vertices):
        reports = [quality_report(m)]
        warnings.warn("all vertices fixed; smoothing is the identity", stacklevel=2)
        return m, reports
    v, reports = _sweeps(m, settings)
    return m.with_vertices(v), reports


def _coordinates(verts) -> np.ndarray:
    """The float array of a JSON list of [x, y, z] number triples.

    Set-based type checks pass the common case; only a failing one looks
    for the first bad row or coordinate, to name it.
    """
    if not (isinstance(verts, list) and set(map(type, verts)) <= {list}
            and set(map(len, verts)) <= {3}):
        if (not isinstance(verts, list)
                or any(not isinstance(v, list) or len(v) != 3 for v in verts)):
            raise MeshFormatError("vertices must be a list of [x, y, z] triples")
    flat = list(chain.from_iterable(verts))
    # JSON numbers only: a bool, a string or null is no coordinate
    if set(map(type, flat)) - {float, int}:
        odd = next(x for x in flat if type(x) is not float and type(x) is not int)
        raise MeshFormatError(f"vertex coordinate {odd!r} is not a number")
    try:
        a = np.fromiter(flat, float, len(flat))
    except OverflowError as exc:  # an integer beyond the float range
        raise MeshFormatError(f"vertex coordinate out of range: {exc}") from exc
    return a.reshape(-1, 3) if verts else a


def _finite(v: np.ndarray, groups: tuple = ()) -> np.ndarray:
    """``v`` if every coordinate is finite.

    Else MeshFormatError naming the first element of ``groups`` (see
    :class:`Mesh`) that uses a vertex with a NaN or infinite coordinate,
    or the first such vertex if no element uses one.
    """
    if not np.isfinite(v).all():
        bad = ~np.isfinite(v).all(axis=-1)
        used = np.concatenate([pos[bad[nodes].any(axis=1)] for _, nodes, pos in groups]
                              or [np.empty(0, dtype=np.intp)])
        where = f"element {used.min()}" if used.size else f"vertex {np.flatnonzero(bad)[0]}"
        raise MeshFormatError(f"{where}: vertex coordinates must be finite")
    return v


def _entry_fields(entries: list):
    """The lists of the 'type' and of the 'nodes' of the JSON element entries.

    Set-based type checks pass the common case; else each entry is
    checked in order, and the first bad one is named.
    """
    if set(map(type, entries)) == {dict}:
        try:
            kinds = list(map(itemgetter("type"), entries))
            nodes = list(map(itemgetter("nodes"), entries))
        except KeyError:
            pass
        else:
            if set(map(type, nodes)) == {list}:
                return kinds, nodes
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "type" not in entry or "nodes" not in entry:
            raise MeshFormatError(f"elements[{k}] must have 'type' and 'nodes'")
        if not isinstance(entry["nodes"], list):
            raise MeshFormatError(
                f"elements[{k}]: nodes must be a list of vertex indices")
    return [entry["type"] for entry in entries], [entry["nodes"] for entry in entries]


def mesh_from_dict(data) -> Mesh:
    """Build a Mesh from the parsed JSON structure, validating the schema."""
    if not isinstance(data, dict):
        raise MeshFormatError("top level must be an object")
    for key in ("vertices", "elements"):
        if key not in data:
            raise MeshFormatError(f"missing required key {key!r}")
    verts = _coordinates(data["vertices"])
    if not isinstance(data["elements"], list):
        raise MeshFormatError("elements must be a list")
    kinds, nodes = _entry_fields(data["elements"])
    fixed = data.get("fixed", [])
    if not isinstance(fixed, list):
        raise MeshFormatError("fixed must be a list of vertex indices")
    # Mesh checks each kind and index (JSON integers only) before building arrays.
    m = Mesh.__new__(Mesh)
    m._build(verts, kinds, nodes, fixed)
    _finite(m.vertices, m.groups)  # on unused vertices too
    return m


def _read_json(path):
    """The parsed JSON file; malformed JSON raises MeshFormatError with its position.

    The file must be UTF-8 text, as JSON requires.  Nesting too deep for
    the parser, and an integer beyond Python's digit limit, are
    malformed input too.  The parse runs with the cyclic garbage
    collector off: the parsed lists and dicts hold no reference cycles,
    and the collector's passes over them took a third of the parse of a
    large mesh.  The caller's collector state is restored afterwards.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        enabled = gc.isenabled()
        gc.disable()
        try:
            return json.loads(text)
        finally:
            if enabled:
                gc.enable()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise MeshFormatError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise MeshFormatError("JSON nested too deeply") from exc
    except ValueError as exc:  # an integer with more digits than int() converts
        raise MeshFormatError(str(exc).partition(";")[0]) from exc


def load_mesh(path) -> Mesh:
    """Read a mesh from its JSON schema; malformed input raises MeshFormatError."""
    return mesh_from_dict(_read_json(path))


def mesh_to_dict(m: Mesh) -> dict:
    return {
        "vertices": [[float(x) for x in row] for row in m.vertices],
        "elements": [{"type": kind, "nodes": list(nodes)}
                     for kind, nodes in m.elements],
        "fixed": sorted(m.fixed),
    }


# The indent=2 text of one vertex row, and of one element per kind, as
# %-templates of its coordinates (repr is the float text of json) and nodes.
_VERTEX_TEXT = json_list(["%r"] * 3, 2)
_ELEMENT_TEXT = {kind: '{\n      "type": "%s",\n      "nodes": %s\n    }'
                       % (kind, json_list(["%d"] * n, 3))
                 for kind, n in el.VERTEX_COUNT.items()}


def save_mesh(m: Mesh, path) -> None:
    """Write the JSON schema; floats use shortest round-trip representation.

    The bytes are those of ``json.dump(mesh_to_dict(m), fh, indent=2)``
    plus a newline, formed without the pure-Python encoder that
    ``indent`` selects.  Non-finite coordinates go through ``json``.
    """
    if not np.isfinite(m.vertices).all():
        text = json.dumps(mesh_to_dict(m), indent=2)
    else:
        vertices = (json_list([_VERTEX_TEXT] * len(m.vertices), 1)
                    % tuple(m.vertices.ravel().tolist()))
        kinds, rows = _element_rows(m.groups)
        elements = (json_list([_ELEMENT_TEXT[kind] for kind in kinds], 1)
                    % tuple(rows[rows >= 0].tolist()))
        text = ('{\n  "vertices": %s,\n  "elements": %s,\n  "fixed": %s\n}'
                % (vertices, elements, json_list(list(map(str, sorted(m.fixed))), 1)))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def quality_to_csv(report: QualityReport, m: Mesh, path) -> None:
    """One CSV row per element: index, type, q (17 significant digits), if the report has q."""
    if report.per_element_q is None:
        raise ValueError("no per_element_q: pass quality_report(m), reports[0] or reports[-1]")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "type", "q"])
        kinds = _element_rows(m.groups)[0]
        writer.writerows(zip(range(len(kinds)), kinds,
                             [format(q, ".17g") for q in report.per_element_q.tolist()]))
