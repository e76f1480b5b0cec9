"""Spectral diagnostics of the flow at critical configurations.

The second-order structure of the restricted volume at a singularity is
read off the Jacobian of the pinned-and-projected field.  The raw field
is a symmetric bilinear form of the centered configuration, so one batch
of the field kernel gives its Jacobian exactly, and the projected
Jacobian follows in closed form, with tau applied as the operator it is
rather than as a (3n, 3n) matrix.  At a representative on N the ambient
Jacobian has real spectrum at the optimal shapes; its nonzero
eigenvalues and their multiplicities identify the critical manifold, and
six eigenvalues vanish (three translations, three rotations).  The
pinned last vertex makes three rows of the Jacobian exactly zero, so the
eigen-solve runs on the leading (3n - 3) block and the three translation
zeros are exact.

Whether a field variant is a gradient is a property of the raw field,
not of the projection: the raw field Jacobian is symmetric exactly for
gradient fields, so the asymmetry ratio reported here is computed from
the unprojected field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import elements
from .jsontext import json_list
from .sphere import _push, pi, tau, is_collinear

GROUPING_TOL = 1e-4
ZERO_TOL = 1e-6

# Per vertex count n: the rows [0, e_1, ..., e_3n] of the Jacobian batch.
_BASIS = {n: np.eye(3 * n + 1, 3 * n, -1) for n in set(elements.VERTEX_COUNT.values())}

# The eigenvalues of J_G's three zero rows, those of the pinned last vertex.
_PINNED_ZEROS = np.zeros(3)

# The indent=2 text of a spectrum and of one eigenvalue group, as
# %-templates (repr is the float text of json).
_SPECTRUM_TEXT = '{\n  "eigenvalues": %s,\n  "zero_count": %d,\n  "asymmetry_ratio": %r\n}'
_GROUP_TEXT = '{\n      "value": %r,\n      "multiplicity": %d\n    }'


def pushed_field(kind: str, variant: str, p) -> np.ndarray:
    """The field pushed onto the tangent space of N at pi(p).

    Vanishes exactly at critical configurations; always orthogonal to
    pi(p) with last vertex zero.  p is checked (:func:`field`) before pi.
    """
    P = np.ascontiguousarray(pi(elements._check(kind, variant, p)).T[None])
    return _push(P, elements._measure(kind, variant, P).X)[0].reshape(3, -1).T


def _raw_jacobian(kind, variant, p):
    """The raw field at the checked (n, 3) float array p and its exact (3n, 3n) Jacobian.

    The field is translation invariant and X(c) = B(c, c) for a symmetric
    bilinear B of the centered c, with B(e, e) = 0 when e moves one
    coordinate.  So X(c + h e_j) - X(c) = h J e_j exactly, and one
    ``field_batch`` call on [c, c + h e_1, ..., c + h e_3n] gives X and J.
    The step h is the power of two above max|c|: both terms have the
    magnitude of X, and the division by h is exact.
    """
    c = (p - p.sum(axis=0) / len(p)).ravel()  # the bits of p.mean(axis=0)
    h = np.ldexp(1.0, np.frexp(np.abs(c).max())[1])  # 1 when c = 0
    P = h * _BASIS[len(p)]
    P += c
    X = elements.field_batch(kind, variant, P.reshape(-1, *p.shape))
    return X[0], ((X[1:] - X[0]).reshape(c.size, c.size) / h).T


def field_jacobian(kind: str, variant: str, p) -> np.ndarray:
    """Exact (3n, 3n) Jacobian of the raw field at p, from one centered kernel batch."""
    return _raw_jacobian(kind, variant, elements._check(kind, variant, p))[1]


def _asymmetry(J) -> float:
    nj = np.linalg.norm(J)
    return float(np.linalg.norm(J - J.T) / nj) if nj else 0.0


def asymmetry_ratio(kind: str, variant: str, p) -> float:
    """Frobenius ratio |J - J^T| / |J| of the raw field Jacobian.

    Zero to rounding for gradient fields; order one for the prism y variant.
    """
    return _asymmetry(field_jacobian(kind, variant, p))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of the projected-field Jacobian at a point of N."""

    eigenvalues: np.ndarray  # sorted ascending, real parts
    groups: tuple  # ((value, multiplicity), ...) grouped at GROUPING_TOL
    zero_count: int  # |eigenvalue| < ZERO_TOL
    asymmetry_ratio: float  # of the raw field Jacobian at the same point
    max_imag: float  # largest imaginary part magnitude before discarding

    def signature(self) -> tuple[int, int]:
        """Counts of eigenvalues above ``ZERO_TOL`` and below ``-ZERO_TOL``."""
        return (int(np.count_nonzero(self.eigenvalues > ZERO_TOL)),
                int(np.count_nonzero(self.eigenvalues < -ZERO_TOL)))

    def to_json(self) -> str:
        """The bytes of ``json.dumps(doc, indent=2)`` of the spectrum's document.

        Formed without the pure-Python encoder that ``indent`` selects; a
        value that is not finite goes through ``json``.
        """
        groups = [(float(v), int(m)) for v, m in self.groups]
        ratio = float(self.asymmetry_ratio)
        if all(map(math.isfinite, [v for v, _ in groups] + [ratio])):
            return _SPECTRUM_TEXT % (json_list([_GROUP_TEXT % g for g in groups], 1),
                                     self.zero_count, ratio)
        return json.dumps({"eigenvalues": [{"value": v, "multiplicity": m} for v, m in groups],
                           "zero_count": int(self.zero_count), "asymmetry_ratio": ratio},
                          indent=2)


def _group(values, tol):
    """((value, multiplicity), ...) of the sorted floats ``values``, grouped at ``tol``."""
    groups = []
    for v in values:
        if groups and abs(v - groups[-1][0]) < tol:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    return tuple((v, m) for v, m in groups)


def _projected_jacobian(kind, variant, q):
    """Exact Jacobians of the projected field and of the raw field at q.

    Precondition: q is on N, as ``pi`` returns it, so its last vertex is
    exactly zero and tau(q) = q bitwise.  The pushed field is extended off
    N as G = t - <t, u> u, with t = tau(X(q)) and u = q not re-normalized;
    re-normalizing would change the normal block and scramble the
    spectrum.  With T the constant matrix of tau, over all 3n ambient
    coordinates

        J_G = T J_X - u (u^T T J_X + t^T T) - <t, u> T
            = T A - u (u^T T A + w^T T),  A = J_X - <t, u> I,  w = t + <t, u> u.

    T is never formed: T A is tau applied to each column of A, and w^T T
    is w with its last vertex row replaced by minus the sum of the others.
    The last vertex's three rows of J_G are exactly zero: tau zeroes them
    in T A, and u is zero there.
    """
    X, JX = _raw_jacobian(kind, variant, q)
    m = JX.shape[0]
    t, u = tau(X), q
    s = np.vdot(t, u)
    At = JX.T.copy()  # row k: column k of A = J_X - <t, u> I
    At.flat[::m + 1] -= s
    TA = tau(At.reshape(m, len(X), 3)).reshape(m, m).T
    w = t + s * u
    w[-1] = -w[:-1].sum(axis=0)
    return TA - np.outer(u, u.ravel() @ TA + w.ravel()), JX


def hessian_spectrum(kind: str, variant: str, p) -> Spectrum:
    """Spectrum of the exact ambient Jacobian of the projected field at pi(p).

    The raw Jacobian is one field-kernel batch at the centered q, with a
    power-of-two step (``_raw_jacobian``).  The eigenvalues are taken as
    computed, without symmetrization; at the singular shapes the
    spectrum is real to rounding and symmetrizing would mix the normal
    block into it.  The last three rows of J_G are exactly zero, so
    J_G = [[M, b], [0, 0]] and its spectrum is that of the leading
    (3n - 3) block M plus three exact zeros, the translations.  At a
    critical point the three rotation zeros come from M, zero to rounding.
    Eigenvalues are sorted ascending and grouped at ``GROUPING_TOL``.
    p is checked once, as in :func:`field`, before pi runs on it.
    """
    JG, JX = _projected_jacobian(kind, variant, pi(elements._check(kind, variant, p)))
    m = len(JG) - 3
    ev = np.concatenate((np.linalg.eigvals(JG[:m, :m]), _PINNED_ZEROS))
    ev = ev[np.argsort(ev.real)]
    values = ev.real.copy()
    return Spectrum(
        eigenvalues=values,
        groups=_group(values.tolist(), GROUPING_TOL),
        zero_count=int(np.count_nonzero(np.abs(values) < ZERO_TOL)),
        asymmetry_ratio=_asymmetry(JX),
        max_imag=float(np.abs(ev.imag).max()) if ev.size else 0.0,
    )


def collinear_signature(p) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues at a collinear tetrahedron.

    Precondition: p is a collinear 4-vertex configuration; raises
    ValueError otherwise.
    """
    p = elements._check("tetrahedron", elements.GRADIENT, p)
    if not is_collinear(p):
        raise ValueError("configuration is not collinear")
    return hessian_spectrum("tetrahedron", elements.GRADIENT, p).signature()
