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
translation and scaling, independent of the vertex numbering.  As it
is read from the field, a sweep evaluates each element's field once,
for its quality and for its step.
"""

from __future__ import annotations

import copy
import csv
import json
import warnings
from dataclasses import dataclass, field as dataclass_field
from itertools import chain

import numpy as np

from . import elements as el
from .flow import FlowDivergenceError, FlowSettings, _centered_quality
from .sphere import DegenerateConfigurationError, psi, tau


class MeshFormatError(ValueError):
    """Malformed mesh JSON; carries position diagnostics when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def _index(i, what: str, n: int) -> int:
    """Validate one vertex index: an int or numpy integer (not a bool) in 0..n-1."""
    if type(i) is not int:  # the common case skips the slower isinstance test
        if not isinstance(i, np.integer):
            raise MeshFormatError(f"{what} {i!r} is not an integer")
        i = int(i)
    if not 0 <= i < n:
        raise MeshFormatError(f"{what} {i} out of range")
    return i


def _int_indices(values: list, n: int):
    """``values`` as an index array if all are Python ints in 0..n-1, else None.

    One pass over the common case.  On None the caller checks each value
    with :func:`_index`, which accepts numpy integers and names the first
    bad value.
    """
    if set(map(type, values)) - {int}:  # a bool or numpy integer is not an int here
        return None
    try:
        a = np.array(values, dtype=np.intp)
    except OverflowError:  # an int beyond the index type
        return None
    return None if np.count_nonzero((a < 0) | (a >= n)) else a


def _groups(elements: tuple, n: int):
    """Per kind present: its (E, n) node-index array and (E,) positions.

    None if an element has an unknown kind, the wrong node count, or an
    index that is not a Python int in 0..n-1.
    """
    by_kind = {}
    for k, (kind, nodes) in enumerate(elements):
        if kind not in el.KINDS or len(nodes) != el.VERTEX_COUNT[kind]:
            return None
        by_kind.setdefault(kind, []).append(k)
    groups = []
    for kind, pos in by_kind.items():
        nodes = _int_indices(list(chain.from_iterable(elements[k][1] for k in pos)), n)
        if nodes is None:
            return None
        groups.append((kind, nodes.reshape(len(pos), -1), np.array(pos, dtype=np.intp)))
    return tuple(groups)


def _checked(elements: tuple, n: int) -> tuple:
    """The elements with every index checked by :func:`_index`, in order.

    Raises MeshFormatError naming the first bad ``elements[k]``.
    """
    out = []
    for k, (kind, nodes) in enumerate(elements):
        if kind not in el.KINDS:
            raise MeshFormatError(f"elements[{k}]: unknown type {kind!r}")
        label = f"elements[{k}]: node index"
        nodes = tuple([_index(i, label, n) for i in nodes])
        if len(nodes) != el.VERTEX_COUNT[kind]:
            raise MeshFormatError(
                f"elements[{k}]: {kind} needs {el.VERTEX_COUNT[kind]} nodes, "
                f"got {len(nodes)}")
        out.append((kind, nodes))
    return tuple(out)


@dataclass(frozen=True)
class Mesh:
    """Vertex pool, typed elements, and immobile vertex set.

    ``elements`` holds (kind, nodes) pairs with 0-based node indices in
    canonical order; ``fixed`` is a frozenset of 0-based vertex indices.
    ``groups`` holds, per kind present, the (E, n) node-index array of
    its elements and their (E,) positions in ``elements``; the batched
    smoother and quality report run one pass per group.
    """

    vertices: np.ndarray
    elements: tuple
    fixed: frozenset
    groups: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshFormatError("vertices must be an (n, 3) array")
        object.__setattr__(self, "vertices", v)
        elems = tuple((kind, tuple(nodes)) for kind, nodes in self.elements)
        groups = _groups(elems, len(v))
        if groups is None:
            elems = _checked(elems, len(v))
            groups = _groups(elems, len(v))
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "groups", groups)
        fixed = list(self.fixed)
        if _int_indices(fixed, len(v)) is None:
            fixed = [_index(i, "fixed vertex index", len(v)) for i in fixed]
        object.__setattr__(self, "fixed", frozenset(fixed))

    def with_vertices(self, vertices) -> "Mesh":
        """The same elements and fixed set over new positions of the same vertices."""
        v = np.asarray(vertices, dtype=float)
        if v.shape != self.vertices.shape:
            raise MeshFormatError(
                f"vertices must keep shape {self.vertices.shape}, got {v.shape}")
        out = copy.copy(self)
        object.__setattr__(out, "vertices", v)
        return out


@dataclass(frozen=True)
class QualityReport:
    """Per-element normalized quality and mesh-level summary."""

    per_element_q: tuple
    mesh_mean_volume: float
    min_q: float
    mean_q: float
    max_q: float
    inverted_count: int


def _fields(m: Mesh) -> list:
    """Per group of ``m.groups``: the gradient field of its elements, (E, n, 3).

    A field that overflows is not finite, and so is the quality that
    ``_report`` reads from it, which raises; numpy's warning is muted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return [el.field_batch(kind, el.GRADIENT, m.vertices[nodes])
                for kind, nodes, _ in m.groups]


def _report(m: Mesh, fields) -> QualityReport:
    """The quality report of ``m`` from its element fields (see quality_report)."""
    xc = np.empty(len(m.elements))
    q = np.empty(len(m.elements))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for (kind, nodes, pos), X in zip(m.groups, fields):
            q_c, xc[pos] = _centered_quality(X.swapaxes(1, 2),
                                             m.vertices[nodes].swapaxes(1, 2))
            q[pos] = q_c / (18.0 * el.Q_MAX[kind])
    bad = np.flatnonzero(~np.isfinite(q))
    if bad.size:
        k = int(bad[0])
        p = m.vertices[list(m.elements[k][1])]
        coincide = np.isfinite(p).all() and not np.ptp(p, axis=0).any()
        reason = "all vertices coincide" if coincide else "non-finite coordinates or volume"
        raise DegenerateConfigurationError(f"element {k}: {reason}")
    return QualityReport(
        per_element_q=tuple(q.tolist()),
        mesh_mean_volume=float(xc.sum()) / 18.0,
        min_q=float(q.min()),
        mean_q=float(np.mean(q)),
        max_q=float(q.max()),
        inverted_count=int((q < 0).sum()),
    )


def _step(m: Mesh, fields, settings: FlowSettings) -> Mesh:
    """Scatter-average the element fields and displace the free vertices (smooth_step)."""
    acc = np.zeros_like(m.vertices)
    count = np.zeros(len(m.vertices))
    for (_, nodes, _), F in zip(m.groups, fields):
        if settings.normalization == "psi":
            F = psi(F)
        flat = nodes.ravel()
        for c in range(3):
            acc[:, c] += np.bincount(flat, weights=F[..., c].ravel(),
                                     minlength=len(acc))
        count += np.bincount(flat, minlength=len(count))
    count[count == 0] = 1.0
    shift = settings.step * acc / count[:, None]
    out = m.vertices.copy()
    free = np.ones(len(out), dtype=bool)
    free[list(m.fixed)] = False
    out[free] += shift[free]
    return m.with_vertices(out)


def mesh_mean_volume(m: Mesh) -> float:
    """Sum of element mean volumes (signed; additive over elements).

    The triangulation sum: one batched volume evaluation per kind, on the
    pinned configurations tau(p), as the volume is translation invariant.
    """
    volume = np.empty(len(m.elements))
    for kind, nodes, pos in m.groups:
        volume[pos] = el.mean_volume_batch(kind, tau(m.vertices[nodes]))
    return float(volume.sum())


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
    return _report(m, _fields(m))


def smooth_step(m: Mesh, settings: FlowSettings = FlowSettings()) -> Mesh:
    """One smoothing sweep: scatter-average element fields, displace free vertices.

    Every element's gradient field is evaluated (square-root rescaled
    per element under the ``psi`` normalization); each vertex averages
    the contributions of the elements containing it; free vertices move
    by step times that average.  Fixed vertices are returned bitwise
    unchanged.
    """
    return _step(m, _fields(m), settings)


def smooth(m: Mesh, settings: FlowSettings = FlowSettings(),
           max_iters: int = 10 ** 4, quality_tol: float = 1e-10):
    """Repeat smooth_step until min-quality stagnates over a 10-iteration window.

    Returns ``(mesh, reports)`` where ``reports[i]`` is the
    :class:`QualityReport` (centered quality, see :func:`quality_report`)
    after i steps; ``reports[0]`` is the input state.  Each state's
    element fields are evaluated once and serve both its report and the
    step that leaves it, so n sweeps cost n + 1 field passes.  A mesh
    with every vertex fixed is returned unchanged with a warning.
    Non-finite vertices raise :class:`FlowDivergenceError` with the
    failing iteration.
    """
    fields = _fields(m)
    reports = [_report(m, fields)]
    if len(m.fixed) >= len(m.vertices):
        warnings.warn("all vertices fixed; smoothing is the identity", stacklevel=2)
        return m, reports
    window = 10
    for it in range(1, max_iters + 1):
        m = _step(m, fields, settings)
        if not np.all(np.isfinite(m.vertices)):
            raise FlowDivergenceError(it)
        fields = _fields(m)
        try:
            reports.append(_report(m, fields))
        except DegenerateConfigurationError as exc:
            # an element collapsed to a point; the sweep cannot continue
            raise FlowDivergenceError(it) from exc
        if it >= window:
            if reports[-1].min_q - reports[-1 - window].min_q < quality_tol:
                break
    return m, reports


def _parse_vertices(verts) -> np.ndarray:
    """The (n, 3) float array of a JSON list of [x, y, z] number triples."""
    if (not isinstance(verts, list)
            or any(not isinstance(v, list) or len(v) != 3 for v in verts)):
        raise MeshFormatError("vertices must be a list of [x, y, z] triples")
    # JSON numbers only: a bool, a string or null is no coordinate
    odd = [x for v in verts for x in v if type(x) is not float and type(x) is not int]
    if odd:
        raise MeshFormatError(f"vertex coordinate {odd[0]!r} is not a number")
    try:
        return np.array(verts, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise MeshFormatError(f"vertex coordinate out of range: {exc}") from exc


def mesh_from_dict(data) -> Mesh:
    """Build a Mesh from the parsed JSON structure, validating the schema."""
    if not isinstance(data, dict):
        raise MeshFormatError("top level must be an object")
    for key in ("vertices", "elements"):
        if key not in data:
            raise MeshFormatError(f"missing required key {key!r}")
    verts = _parse_vertices(data["vertices"])
    elems = []
    if not isinstance(data["elements"], list):
        raise MeshFormatError("elements must be a list")
    if not data["elements"]:
        raise MeshFormatError("elements is empty; a mesh needs at least one element")
    for k, entry in enumerate(data["elements"]):
        if not isinstance(entry, dict) or "type" not in entry or "nodes" not in entry:
            raise MeshFormatError(f"elements[{k}] must have 'type' and 'nodes'")
        if not isinstance(entry["nodes"], list):
            raise MeshFormatError(
                f"elements[{k}]: nodes must be a list of vertex indices")
        elems.append((entry["type"], tuple(entry["nodes"])))
    fixed = data.get("fixed", [])
    if not isinstance(fixed, list):
        raise MeshFormatError("fixed must be a list of vertex indices")
    # Mesh validates each index (JSON integers only) before building the set.
    return Mesh(vertices=verts, elements=tuple(elems), fixed=tuple(fixed))


def _read_json(path):
    """The parsed JSON file; malformed JSON raises MeshFormatError with its position."""
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeshFormatError(exc.msg, line=exc.lineno, column=exc.colno) from exc


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


def _json_list(items, depth: int) -> str:
    """Encoded items as a list at nesting ``depth``, in the ``indent=2`` layout."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def save_mesh(m: Mesh, path) -> None:
    """Write the JSON schema; floats use shortest round-trip representation.

    The bytes are those of ``json.dump(mesh_to_dict(m), fh, indent=2)``
    plus a newline, formed without the pure-Python encoder that
    ``indent`` selects.  Non-finite coordinates go through ``json``.
    """
    if not np.isfinite(m.vertices).all():
        text = json.dumps(mesh_to_dict(m), indent=2)
    else:
        row = "[\n      %r,\n      %r,\n      %r\n    ]"
        vertices = [row % tuple(xyz) for xyz in m.vertices.tolist()]
        elements = ['{\n      "type": "%s",\n      "nodes": %s\n    }'
                    % (kind, _json_list(list(map(str, nodes)), 3))
                    for kind, nodes in m.elements]
        text = ('{\n  "vertices": %s,\n  "elements": %s,\n  "fixed": %s\n}'
                % (_json_list(vertices, 1), _json_list(elements, 1),
                   _json_list(list(map(str, sorted(m.fixed))), 1)))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def quality_to_csv(report: QualityReport, m: Mesh, path) -> None:
    """One CSV row per element: index, type, q (17 significant digits)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "type", "q"])
        for k, ((kind, _), q) in enumerate(zip(m.elements, report.per_element_q)):
            writer.writerow([k, kind, format(q, ".17g")])
