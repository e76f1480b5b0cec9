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
them, q_c, <X, c>, <X, X> and the roots |c| and |X|), and every volume
is <X, c> / 18 of the gradient field at the centered rows (Euler's
identity).  The measure writes into buffers that the caller may keep
(the flow's workspace) and returns them, and the kernel writes the
field into them through ``out=``.  Both are built once on their views and run as zero-argument calls
(``_measure_plan``, ``_field_plan``): ``_measure`` and ``field_batch``
build and run once, and the flow and the sweep keep their plans.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .chains import nu
from .sphere import DegenerateConfigurationError, _center, _center_plan, pi as _pi

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


_OVERFLOWS = "cannot measure a configuration whose arithmetic overflows"


def _overflowed(error, flag):
    """Handle an overflow, or a NaN it leads to, in an entry that measures p, not pi(p)."""
    raise DegenerateConfigurationError(_OVERFLOWS)


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

    :func:`_field_plan`, built and run once: the result is a (B, n, 3)
    view of (3, B, n) memory, or ``out``.  A kind or variant miss raises
    ValueError as :func:`field` does; the shape of P is not checked.
    """
    return _field_plan(kind, variant, np.asarray(P, dtype=float), out)()


def _field_plan(kind, variant, P, out=None):
    """The field kernel on the batch P (B, n, 3), built once: a zero-argument call.

    The kernel works on batch-minor rows Q (3n, B): row c n + i holds
    component c of vertex i for every configuration, which is
    ``P.transpose(2, 1, 0)``.  The flows and the mesh sweep hold
    component-major rows (B, 3, n) and pass their (B, n, 3) view, so Q is
    the transposed view of their flat (B, 3n) rows, and each run reads P
    as it is then.  At B = 1 it is read without a copy; at B > 1 the row
    gather copies the strided rows once (a column gather from the
    (B, 3n) rows measured 2.7x slower).  A vertex-major P, such as
    ``field``'s, is copied once, here, so its plan reads P as built.
    One row gather (``take(axis=0)``) reads the factors of both products
    of every folded pair's cross product.  One matrix product of those
    products prod (2K, 3B) with W = [S | -S] subtracts and contracts
    them.  The batch sits on the M axis of that product, ``prod.T @ W.T``
    (numpy hands the transposed view to gemm without a copy): each
    configuration is three rows of one gemm, and its value does not
    depend on B.

    Each run returns ``out``, a (B, n, 3) view of component-major rows
    (B, 3, n), with the field written in: at B = 1 the gemm writes the
    rows in place, at B > 1 its (3, B, n) result, a buffer of the plan,
    is copied in, with the same bits.  Without out a run returns a
    (B, n, 3) view of that buffer.
    """
    try:
        factors, WT = _COMPILED[kind, variant]
    except (KeyError, TypeError):  # a TypeError: an unhashable kind or variant
        _check_kind(kind, variant)  # raises: every defined pair is compiled
        raise
    B, n, _ = P.shape
    Q, flat = P.transpose(2, 1, 0).reshape(3 * n, B), (-1, 3 * B)
    target = out[0].T if out is not None and B == 1 else np.empty((3 * B, n))
    result = target.reshape(3, B, n)
    copy_to = None if out is None or B == 1 else out.transpose(2, 0, 1)
    if out is None:
        out = result.transpose(1, 2, 0)

    def run():
        # One gather for both factors, multiplied in place: glibc returns the
        # top of the heap to the system once more than twice its largest
        # recent allocation is free there, which two gathers of half the size
        # reached on every call (256 minor faults per call at B = 512
        # hexahedra).  Not into a buffer of the plan: take(out=) is buffered
        # in its default mode, and a product buffer left the cache at large B.
        F = Q.take(factors, axis=0)  # (2, 2, K, 3, B)
        prod = F[0]
        prod *= F[1]
        np.matmul(prod.reshape(flat).T, WT, out=target)
        if copy_to is not None:
            copy_to[...] = result
        return out

    return run


# Per vertex count n: the rows [0, e_1, ..., e_3n] of the basis batch of _field_jvp.
_BASIS = {n: np.eye(3 * n + 1, 3 * n, -1).reshape(-1, n, 3) for n in set(VERTEX_COUNT.values())}


def _power_above(A, axes):
    """The powers of two above max|A| over ``axes``, kept as axes of length 1: 1 where A = 0."""
    return np.ldexp(1.0, np.frexp(np.abs(A).max(axis=axes, keepdims=True))[1])


def _field_jvp(kind, variant, C, V=None):
    """(X, JV, scale): the field and its exact products J V at the rows C (B, n, 3), scaled.

    The field is translation invariant and X(c) = F(c, c) for a symmetric
    bilinear F of the centered rows c (``sphere._center``, the measure's
    rule), so J(c) v = 2 F(c, v).  Each c is first divided by its scale,
    the power of two above max|c| ((B, 1, 1), 1 where c = 0); by
    homogeneity the field at C is scale^2 X and J(C) V = scale JV,
    exactly.  The caller scales back where it needs to: X may overflow
    where J V does not.  One :func:`field_batch` call evaluates every row.

    Without V the directions are the 3n basis vectors e_j, and F(e, e) = 0
    when e moves one coordinate, so the 3n + 1 rows [c, c + e_1, ...,
    c + e_3n] give X(c + e_j) - X(c) = J e_j exactly: JV (B, 3n, n, 3)
    holds J's columns.  Any other V (B, k, n, 3) is divided by the power
    of two above each max|v|, and X(c + v) - X(c - v) = 2 J v on the
    2k + 1 rows [c, c + V, c - V] gives JV (B, k, n, 3), with only the
    subtraction rounding.
    """
    n = C.shape[1]
    c = _center(np.ascontiguousarray(C.swapaxes(1, 2))).swapaxes(1, 2)
    scale = _power_above(c, (1, 2))
    c = (c / scale)[:, None]
    if V is None:
        rows = c + _BASIS[n]
    else:
        h = _power_above(V, (2, 3))
        V = V / h
        rows = np.concatenate((c, c + V, c - V), axis=1)
    Y = field_batch(kind, variant, rows.reshape(-1, n, 3)).reshape(rows.shape)
    if V is None:
        return Y[:, 0], Y[:, 1:] - Y[:, :1], scale
    k = V.shape[1]
    return Y[:, 0], (Y[:, 1:k + 1] - Y[:, k + 1:]) * (h / 2.0), scale


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
    """The arrays :func:`_measure` writes.

    C and X (B, 3, n) are the halves of one stack S (2, B, 3, n); centroid
    (B, 3) holds the centroids; left and right are S's flat rows
    (2, B, 3n) as the operands of dots, the (2, 2, B) inner products
    [[<c, c>, <c, X>], [<X, c>, <X, X>]] of every pair; cc and xc are two
    of them; norms (2, B) holds the roots [|c|, |X|] of the diagonal
    [<c, c>, <X, X>], from one ``np.sqrt``; q is q_c (B,).
    """

    C: np.ndarray
    X: np.ndarray
    centroid: np.ndarray
    left: np.ndarray
    right: np.ndarray
    dots: np.ndarray
    cc: np.ndarray
    xc: np.ndarray
    norms: np.ndarray
    q: np.ndarray


def _measure_buffers(B, n):
    """The :class:`_MeasureBuffers` of B configurations of n vertices."""
    S, dots = np.empty((2, B, 3, n)), np.empty((2, 2, B))
    s = S.reshape(2, B, 3 * n)
    return _MeasureBuffers(S[0], S[1], np.empty((B, 3)), s[:, None], s[None], dots,
                           dots[0, 0], dots[1, 0], np.empty((2, B)), np.empty(B))


def _measure_plan(kind, variant, P, out):
    """:func:`_measure` of the component-major rows P (B, 3, n), built once: a zero-argument call.

    Each run measures P as it is then into out, from
    :func:`_measure_buffers`, and returns out.  The centering
    (``sphere._center_plan``) and the field kernel (:func:`_field_plan`,
    on the (B, n, 3) views of C and X) are built here, on out's views,
    and so is the strided (2, B) view of dots' diagonal [<c, c>, <X, X>],
    whose one ``np.sqrt`` gives norms [|c|, |X|]: sqrt is elementwise, so
    each root has the bits of a call of its own.
    """
    C, X, centroid, left, right, dots, cc, xc, norms, q = out
    center = _center_plan(P, C, centroid)
    field = _field_plan(kind, variant, C.swapaxes(1, 2), X.swapaxes(1, 2))
    diagonal, c_norm = dots.diagonal().T, norms[0]

    def run():
        center()
        field()
        np.vecdot(left, right, out=dots)  # one call forms every dot, a spare <c, X> too
        np.sqrt(diagonal, out=norms)
        np.multiply(cc, c_norm, out=q)
        np.divide(xc, q, out=q)
        return out

    return run


def _measure(kind, variant, P, out=None) -> _MeasureBuffers:
    """The :class:`_MeasureBuffers` of the component-major rows P (B, 3, n), read by name.

    C is P centered by ``sphere._center_plan``, row by row, so its
    rounding does not depend on the batch; X is the field at C, which
    keeps it exact far from the origin; q = <X, c> / |c|^3 is q_c, xc is
    <X, c> and norms[1] is |X|, from which psi's divisor sqrt|X| is read.
    The one measure of a configuration: the flow, the sweep, the mesh's
    quality and every volume (<X, c> / 18 of the gradient field) read it,
    and the spectrum's field is X to the bit.  :func:`_measure_plan`, built and
    run once; the flow builds its plans once per workspace.  ``out``,
    from :func:`_measure_buffers`, is written in place and returned;
    without it the buffers are allocated.
    """
    if out is None:
        out = _measure_buffers(len(P), P.shape[2])
    return _measure_plan(kind, variant, P, out)()


@_overflow_raised
def mean_volume_batch(kind: str, P) -> np.ndarray:
    """Signed mean volume of a batch of configurations, (B, n, 3) -> (B,).

    <X, c> / 18 on the centered component-major rows c, X their gradient
    field: the volume the mesh report and the flow's q_c read.  A P other
    than a non-empty batch of the kind's (n, 3) rows raises ValueError.
    The volume reads <X, c> alone: the rest of the measure may overflow
    (q_c's |c|^3 does from coordinates of about 1e103) or divide by zero
    (q_c of coincident vertices), and only a <X, c> that is not finite
    raises as an overflow.
    """
    P = np.ascontiguousarray(_check_batch(kind, GRADIENT, P, "P").swapaxes(1, 2))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xc = _measure(kind, GRADIENT, P).xc
    if np.count_nonzero(np.isfinite(xc)) < len(xc):
        raise DegenerateConfigurationError(_OVERFLOWS)
    return xc / 18.0


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
