"""Element kinds, canonical numbering, triangulations, volume, and fields.

Five polyhedral element kinds are supported, each with a fixed canonical
vertex numbering:

* tetrahedron: vertices 1-4, positively oriented
* pyramid: base cycle (1,2,3,4), apex 5
* prism: bottom triangle (1,2,3), top (4,5,6), vertex i+3 above i
* hexahedron: bottom face (1,2,3,4), top face (5,6,7,8), vertex i+4 above i
* octahedron: poles 1 and 6, equator cycle (2,3,4,5), opposite
  pairs (1,6), (2,4), (3,5)

One table, ``TRIANGULATIONS``, compiled once, here, defines the mean
volume and its field: the tetrahedron's field (cyclic cross-product
chains) lifted onto every tet of a kind's triangulations and divided by
their number is the gradient of 6 x mean volume.  Hexahedron y lifts
the central tets (1, 3, 8, 6) and (2, 4, 5, 7) once more: it is the
gradient of 6 x (mean volume + (V_1386 + V_2457) / 2).  Prism y has
hand-written loops and is not a gradient.

One kernel, :func:`field_batch`, evaluates every field.  It gathers the
cross-product factors from batch-minor rows (3n, B), one row per vertex
component, component-major (row c n + i holds component c of vertex i),
and contracts them with the batch on the M axis of one matrix product,
so that a configuration's value does not depend on the batch it is
evaluated in.  The flow and the mesh read the one measure of a
configuration from here (``_measure``: the centered rows, the field at
them, q_c, <X, c> and <X, X>), and every volume is <X, c> / 18 of the
gradient field at the centered rows (Euler's identity).  The measure
writes into buffers that the caller may keep (the flow's workspace) and
returns them, and the kernel writes the field into them through ``out=``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .chains import nu
from .sphere import DegenerateConfigurationError, _center, pi as _pi

KINDS = ("tetrahedron", "pyramid", "prism", "hexahedron", "octahedron")

VERTEX_COUNT = {
    "tetrahedron": 4,
    "pyramid": 5,
    "prism": 6,
    "hexahedron": 8,
    "octahedron": 6,
}

GRADIENT = "mean_volume_gradient"
Y_VARIANT = "y_variant"
VARIANTS_BY_KIND = {
    "tetrahedron": (GRADIENT,),
    "pyramid": (GRADIENT,),
    "prism": (GRADIENT, Y_VARIANT),
    "hexahedron": (GRADIENT, Y_VARIANT),
    "octahedron": (GRADIENT,),
}

def _check_kind(kind: str, variant: str = GRADIENT) -> None:
    """Raise ValueError unless ``kind`` is one of ``KINDS`` and ``variant`` one of its fields."""
    if kind not in KINDS:
        raise ValueError(f"unknown element kind {kind!r}")
    if variant not in VARIANTS_BY_KIND[kind]:
        raise ValueError(f"variant {variant!r} not defined for {kind}")


def _check(kind: str, variant: str, p) -> np.ndarray:
    """p as floats if its kind, variant, shape and finite coordinates pass: every entry's rule."""
    _check_kind(kind, variant)
    p = np.asarray(p, dtype=float)
    if p.shape != (VERTEX_COUNT[kind], 3):
        raise ValueError(f"{kind} expects shape ({VERTEX_COUNT[kind]}, 3), got {p.shape}")
    if np.count_nonzero(np.isfinite(p)) < p.size:
        raise DegenerateConfigurationError(
            "cannot measure a configuration with non-finite coordinates")
    return p


def _check_batch(kind: str, variant: str, P, name: str) -> np.ndarray:
    """P as floats if it is a non-empty batch (B, n, 3) whose rows :func:`_check` takes."""
    _check_kind(kind, variant)
    P = np.asarray(P, dtype=float)
    if P.ndim != 3 or not len(P):
        raise ValueError(f"{name} must be a non-empty batch of shape (B, n, 3), got {P.shape}")
    _check(kind, variant, P[np.isfinite(P).all(axis=(1, 2)).argmin()])  # first bad row, or row 0
    return P


def _overflowed(error, flag):
    """Handle an overflow, or a NaN it leads to, in an entry that measures p, not pi(p)."""
    raise DegenerateConfigurationError("cannot measure a configuration whose arithmetic overflows")


_overflow_raised = np.errstate(over="call", invalid="call", call=_overflowed)  # such entries


@_overflow_raised
def field(kind: str, variant: str, p) -> np.ndarray:
    """Evaluate the closed-form per-vertex field.

    Parameters
    ----------
    kind : str
        One of ``KINDS``.
    variant : str
        ``"mean_volume_gradient"`` or, for prism/hexahedron, ``"y_variant"``.
    p : (n, 3) array_like
        Configuration in canonical numbering.

    Returns
    -------
    (n, 3) ndarray
        Per-vertex tangent vectors.  The field is translation invariant
        and scales quadratically.  The rows of a gradient field sum to
        zero, so <X, p> = <X, p - centroid> there; the prism y rows do not.
    """
    return field_batch(kind, variant, _check(kind, variant, p)[None])[0]


def field_batch(kind: str, variant: str, P, out=None) -> np.ndarray:
    """Evaluate the field on a batch of configurations, shape (B, n, 3).

    The kernel works on batch-minor rows Q (3n, B): row c n + i holds
    component c of vertex i for every configuration, which is
    ``P.transpose(2, 1, 0)``.  The flows and the mesh sweep hold
    component-major rows (B, 3, n) and pass their (B, n, 3) view, so Q is
    the transposed view of their flat (B, 3n) rows.  At B = 1 it is read
    without a copy; at B > 1 the row gather copies the strided rows once
    (a column gather from the (B, 3n) rows measured 2.7x slower).  A
    vertex-major P, such as ``field``'s, is copied once.
    One row gather (``take(axis=0)``) reads the factors of both products
    of every folded pair's cross product.  One matrix product of those
    products prod (2K, 3B) with W = [S | -S] subtracts and contracts
    them.  The batch sits on the M axis of that product, ``prod.T @ W.T``
    (numpy hands the transposed view to gemm without a copy): each
    configuration is three rows of one gemm, and its value does not
    depend on B.  The result is a (B, n, 3) view of (3, B, n) memory: at
    B = 1 a view of component-major rows.

    ``out``, a (B, n, 3) view of component-major rows (B, 3, n), receives
    the result instead: at B = 1 the gemm writes the rows in place, at
    B > 1 its (3, B, n) result is copied in.  The bits are the same.
    A kind or variant miss raises ValueError as :func:`field` does; the
    shape of P is not checked (the flows call this once per iteration).
    """
    try:
        factors, WT = _COMPILED[kind, variant]
    except (KeyError, TypeError):  # a TypeError: an unhashable kind or variant
        _check_kind(kind, variant)  # raises: every defined pair is compiled
        raise
    P = np.asarray(P, dtype=float)
    B, n, _ = P.shape
    Q = P.transpose(2, 1, 0).reshape(3 * n, B)
    # One gather for both factors, multiplied in place: glibc returns the
    # top of the heap to the system once more than twice its largest
    # recent allocation is free there, which two gathers of half the size
    # reached on every call (256 minor faults per call at B = 512 hexahedra).
    F = Q.take(factors, axis=0)  # (2, 2, K, 3, B)
    prod = F[0]
    prod *= F[1]
    A = prod.reshape(-1, 3 * B).T
    if out is None:
        return (A @ WT).reshape(3, B, n).transpose(1, 2, 0)
    if B == 1:
        np.matmul(A, WT, out=out[0].T)
    else:
        out.transpose(2, 0, 1)[...] = (A @ WT).reshape(3, B, n)
    return out


@_overflow_raised
def f_value(kind: str, variant: str, p) -> float:
    """Inner product of the field with the configuration over all 3n coordinates.

    For the gradient variant this equals 18 x mean_volume (cubic
    homogeneity of volume plus the gradient relation), up to rounding:
    ``mean_volume`` forms <X, c> at the centered configuration.
    """
    p = _check(kind, variant, p)
    return float(np.vecdot(field_batch(kind, variant, p[None])[0].ravel(), p.ravel()))


# Triangulation tables: per kind, a tuple of triangulations, each a tuple
# of positively oriented 4-tuples of 1-based vertex indices.
TRIANGULATIONS = {
    "tetrahedron": (((1, 2, 3, 4),),),
    "pyramid": (
        ((1, 2, 3, 5), (1, 3, 4, 5)),
        ((1, 2, 4, 5), (2, 3, 4, 5)),
    ),
    "prism": (
        ((1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6)),
        ((1, 2, 3, 4), (2, 3, 4, 6), (2, 4, 5, 6)),
        ((1, 2, 3, 5), (1, 3, 4, 5), (3, 4, 5, 6)),
        ((1, 2, 3, 5), (1, 3, 6, 5), (1, 4, 5, 6)),
        ((1, 2, 3, 6), (1, 2, 6, 4), (2, 4, 5, 6)),
        ((1, 2, 3, 6), (1, 2, 6, 5), (1, 4, 5, 6)),
    ),
    "hexahedron": (
        ((1, 2, 3, 6), (1, 3, 4, 8), (1, 3, 8, 6), (1, 5, 6, 8), (3, 6, 7, 8)),
        ((1, 2, 4, 5), (2, 3, 4, 7), (2, 4, 5, 7), (2, 5, 6, 7), (4, 5, 7, 8)),
    ),
    "octahedron": (
        ((1, 2, 4, 3), (1, 2, 5, 4), (2, 3, 6, 4), (2, 4, 6, 5)),
        ((1, 2, 5, 3), (1, 3, 5, 4), (2, 3, 6, 5), (3, 4, 6, 5)),
        ((1, 2, 5, 6), (1, 2, 6, 3), (1, 3, 6, 4), (1, 4, 6, 5)),
    ),
}


def triangulations(kind: str):
    """Triangulation table for a kind: a tuple of triangulations."""
    _check_kind(kind)
    return TRIANGULATIONS[kind]


# The tetrahedron's field, the gradient of 6 x its volume: per vertex, one
# 1-based index loop contributing nu(p, loop).
_TET_ROWS = [(4, 3, 2), (4, 1, 3), (4, 2, 1), (1, 2, 3)]


def _lift(kind, extra=()):
    """(divisor, per-vertex loops) of ``_TET_ROWS`` lifted onto a kind's tets.

    The tets are those of every triangulation, then ``extra``; the divisor
    is the number of triangulations.
    """
    tables = TRIANGULATIONS[kind]
    rows = [[] for _ in range(VERTEX_COUNT[kind])]
    for tet in [tet for table in tables for tet in table] + list(extra):
        for slot, loop in zip(tet, _TET_ROWS):
            rows[slot - 1].append(tuple(tet[i - 1] for i in loop))
    return len(tables), rows


def _compile(divisor, rows):
    """Fold a field table onto distinct vertex pairs, as the kernel reads it.

    Each loop's term ``nu(p, loop)`` expands to the cross products of
    consecutive loop vertices.  With a x b = -(b x a) and a x a = 0 these
    fold onto K pairs i < j with integer counts, and
    ``field(p)[v] = sum_k S[v, k] (p_i x p_j)`` for S = counts / divisor, a
    true division: exact wherever the quotient is, which multiplying by
    an inexact 1/divisor (1/6) does not promise.
    Component c of p_i x p_j is p_i[c+1] p_j[c+2] - p_i[c+2] p_j[c+1]
    (indices mod 3).  Returns the (2, 2, K, 3) indices of these factors,
    left ones first, into component-major rows (component c of vertex i
    is row c n + i), and W.T for W = [S | -S], which folds the
    subtraction into the contraction.
    """
    coeffs = {}  # (i, j), 0-based with i < j -> integer coefficient per vertex
    for vi, loops in enumerate(rows):
        for loop in loops:
            for a, b in zip(loop, loop[1:] + loop[:1]):
                if a != b:
                    row = coeffs.setdefault((min(a, b) - 1, max(a, b) - 1),
                                            [0] * len(rows))
                    row[vi] += 1 if a < b else -1
    pairs = sorted(pair for pair, row in coeffs.items() if any(row))
    S = np.array([coeffs[pair] for pair in pairs], dtype=float).T / divisor
    I, J = (np.array(side)[:, None] for side in zip(*pairs))
    n = len(rows)
    yzx, zxy = n * np.array([1, 2, 0]), n * np.array([2, 0, 1])
    return (np.array([[I + yzx, I + zxy], [J + zxy, J + yzx]]),
            np.hstack([S, -S]).T.copy())


# Per (kind, variant); prism y is not a gradient and keeps hand-written loops.
_COMPILED = {(kind, GRADIENT): _compile(*_lift(kind)) for kind in KINDS}
_COMPILED["hexahedron", Y_VARIANT] = _compile(*_lift("hexahedron",
                                                     ((1, 3, 8, 6), (2, 4, 5, 7))))
_COMPILED["prism", Y_VARIANT] = _compile(1, [
    [(3, 2, 5, 4, 6)],
    [(1, 3, 6, 5, 4)],
    [(2, 1, 4, 6, 5)],
    [(5, 6, 3, 1, 2)],
    [(6, 4, 1, 2, 3)],
    [(4, 5, 2, 3, 1)],
])


class _MeasureBuffers(NamedTuple):
    """The arrays :func:`_measure` writes, and the views it writes them by.

    C and X (B, 3, n) are the halves of one stack S (2, B, 3, n), and Cv
    and Xv their (B, n, 3) views for :func:`field_batch`; centroid (B, 3)
    holds the centroids; left and right are S's flat rows (2, B, 3n) as the
    operands of dots, the (2, 2, B) inner products [[<c, c>, <c, X>],
    [<X, c>, <X, X>]] of every pair; cc, xc and xx are three of them; q is q_c (B,).
    """

    C: np.ndarray
    X: np.ndarray
    Cv: np.ndarray
    Xv: np.ndarray
    centroid: np.ndarray
    left: np.ndarray
    right: np.ndarray
    dots: np.ndarray
    cc: np.ndarray
    xc: np.ndarray
    xx: np.ndarray
    q: np.ndarray


def _measure_buffers(B, n):
    """The :class:`_MeasureBuffers` of B configurations of n vertices."""
    S, dots = np.empty((2, B, 3, n)), np.empty((2, 2, B))
    s = S.reshape(2, B, 3 * n)
    return _MeasureBuffers(S[0], S[1], S[0].swapaxes(1, 2), S[1].swapaxes(1, 2),
                           np.empty((B, 3)), s[:, None], s[None], dots, dots[0, 0],
                           dots[1, 0], dots[1, 1], np.empty(B))


def _measure(kind, variant, P, out=None) -> _MeasureBuffers:
    """The :class:`_MeasureBuffers` of the component-major rows P (B, 3, n), read by name.

    C is P centered by ``sphere._center``, row by row, so its rounding does
    not depend on the batch; X is the field at C, which keeps it exact far
    from the origin; q = <X, c> / |c|^3 is q_c, xc is <X, c> and xx is
    <X, X>, from which psi's divisor is read.  The one measure of a
    configuration: the flow, the sweep, the mesh's quality and every volume
    (<X, c> / 18 of the gradient field) read it, and the spectrum's field
    is X to the bit.  ``out``, from :func:`_measure_buffers`, is written in
    place and returned; without it the buffers are allocated.
    """
    if out is None:
        out = _measure_buffers(len(P), P.shape[2])
    C, X, Cv, Xv, centroid, left, right, dots, cc, xc, xx, q = out
    _center(P, C, centroid)
    field_batch(kind, variant, Cv, out=Xv)
    np.vecdot(left, right, out=dots)  # one call forms every dot, a spare <c, X> too
    np.sqrt(cc, out=q)
    np.multiply(cc, q, out=q)
    np.divide(xc, q, out=q)
    return out


@_overflow_raised
def mean_volume_batch(kind: str, P) -> np.ndarray:
    """Signed mean volume of a batch of configurations, (B, n, 3) -> (B,).

    <X, c> / 18 on the centered component-major rows c, X their gradient
    field: the volume the mesh report and the flow's q_c read.  A P other
    than a non-empty batch of the kind's (n, 3) rows raises ValueError.
    """
    P = np.ascontiguousarray(_check_batch(kind, GRADIENT, P, "P").swapaxes(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # q_c of coincident vertices
        return _measure(kind, GRADIENT, P).xc / 18.0


def mean_volume(kind: str, p) -> float:
    """Signed mean volume: a batch of one of :func:`mean_volume_batch`.

    ``field(kind, mean_volume_gradient, p)`` is exactly the gradient of
    ``6 * mean_volume(kind, p)`` for every kind.
    """
    return float(mean_volume_batch(kind, _check(kind, GRADIENT, p)[None])[0])


def field_from_triangulations(kind: str, p) -> np.ndarray:
    """Assemble the gradient field by scattering lifted tetrahedron fields.

    For each triangulation, each 4-tuple contributes the tetrahedron
    field of its four vertices, scattered to their element slots; the
    result is averaged over the triangulation set.  Cross-validates the
    closed forms.
    """
    p = _check(kind, GRADIENT, p)
    tables = TRIANGULATIONS[kind]
    acc = np.zeros_like(p)
    for table in tables:
        for tet in table:
            q = p[[i - 1 for i in tet]]
            for slot, loop in zip(tet, _TET_ROWS):
                acc[slot - 1] += nu(q, loop)
    return acc / len(tables)


_S3 = np.sqrt(3.0)
_PRISM_H = np.sqrt(8.0 / 3.0)

# The vertices of each kind's reference optimal shape, in canonical numbering.
_OPTIMAL = {
    "tetrahedron": ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, _S3 / 2, 0.0),
                    (0.5, _S3 / 6, np.sqrt(2.0 / 3.0))),
    "pyramid": ((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 2.0, 0.0), (0.0, 2.0, 0.0),
                (1.0, 1.0, np.sqrt(5.0))),
    "prism": ((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, _S3, 0.0),
              (0.0, 0.0, _PRISM_H), (2.0, 0.0, _PRISM_H), (1.0, _S3, _PRISM_H)),
    "hexahedron": ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
                   (0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0)),
    "octahedron": ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0),
                   (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)),
}


def reference_optimal(kind: str) -> np.ndarray:
    """The reference optimal shape for a kind, in canonical numbering.

    Regular tetrahedron (edge 1); the optimal pyramid with base edge 2
    and apex edge sqrt(7); the optimal prism with base edge 2 and height
    2*sqrt(2/3); the unit cube; the regular octahedron with poles
    (0,0,+-1) and unit equator.  All are positively oriented.  Each call
    returns a new (n, 3) float array; an unknown kind raises ValueError.
    """
    _check_kind(kind)
    return np.array(_OPTIMAL[kind])


# The per-kind quality ceiling: the mean volume of c / |c|, where c is
# reference_optimal(kind) minus its centroid.  The centered quality
# V / |c|^3 is largest at the reference shape, where the field is parallel to c.
Q_MAX = {
    "tetrahedron": _S3 / 27.0,
    "pyramid": np.sqrt(15.0) / 54.0,
    "prism": np.sqrt(6.0) / 36.0,
    "hexahedron": np.sqrt(6.0) / 36.0,
    "octahedron": np.sqrt(6.0) / 27.0,
}

# Canonical edges (1-based vertex pairs) per kind, used by shape metrics.
EDGES = {
    "tetrahedron": ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
    "pyramid": ((1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (2, 5), (3, 5), (4, 5)),
    "prism": ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 4), (2, 5), (3, 6)),
    "hexahedron": ((1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5),
                   (1, 5), (2, 6), (3, 7), (4, 8)),
    "octahedron": ((1, 2), (1, 3), (1, 4), (1, 5), (6, 2), (6, 3), (6, 4), (6, 5),
                   (2, 3), (3, 4), (4, 5), (5, 2)),
}

# Planar faces with 4 or more vertices (1-based cycles) per kind.
QUAD_FACES = {
    "tetrahedron": (),
    "pyramid": ((1, 2, 3, 4),),
    "prism": ((1, 2, 5, 4), (2, 3, 6, 5), (3, 1, 4, 6)),
    "hexahedron": ((1, 2, 3, 4), (5, 6, 7, 8), (1, 2, 6, 5), (2, 3, 7, 6),
                   (3, 4, 8, 7), (4, 1, 5, 8)),
    "octahedron": (),
}


def level0_pyramid(span: float = 2.0, apex_x: float = 0.7, apex_y: float = 0.4,
                   corner_x: float = 1.3) -> np.ndarray:
    """A planar pyramid constellation where the field vanishes identically.

    Vertices 2 and 4 coincide in the plane of vertices 1, 3, 5; the
    triangle over the doubled corner (1, 4, 3) has twice the height of
    the apex triangle (1, 5, 3).  Both triangulations then produce
    volumes of equal magnitude and opposite sign, the mean volume is
    zero, and the configuration is a zero-level singular point.

    Parameters
    ----------
    span : float
        Distance from vertex 1 to vertex 3 along the x axis.
    apex_x, apex_y : float
        Position of vertex 5; ``apex_y`` must be nonzero.
    corner_x : float
        x position of the doubled corner (vertices 2 and 4), which sits
        at height ``2 * apex_y``.
    """
    p4 = [corner_x, 2.0 * apex_y, 0.0]
    return np.array([
        [0.0, 0.0, 0.0],
        p4,
        [span, 0.0, 0.0],
        p4,
        [apex_x, apex_y, 0.0],
    ])


def collinear_tetrahedron(spacings=(1.0, 2.0, 3.0), direction=(1.0, 0.0, 0.0)) -> np.ndarray:
    """Four distinct points on a line, as a tetrahedron configuration on N."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    t = np.concatenate([[0.0], np.cumsum(np.asarray(spacings, dtype=float))])
    return _pi(np.outer(t, d))
