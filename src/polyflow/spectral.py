"""Spectral diagnostics of the flow at critical configurations.

The second-order structure of the restricted volume at a singularity is
read off the Jacobian of the pinned-and-projected field.  The raw field
is a symmetric bilinear form of the centered configuration, so one batch
of the field kernel gives its Jacobian exactly, and the projected
Jacobian follows in closed form.  At a representative on N the ambient
Jacobian has real spectrum at the optimal shapes; its nonzero
eigenvalues and their multiplicities identify the critical manifold, and
exactly six eigenvalues vanish (three translations, three rotations).

Whether a field variant is a gradient is a property of the raw field,
not of the projection: the raw field Jacobian is symmetric exactly for
gradient fields, so the asymmetry ratio reported here is computed from
the unprojected field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import elements
from .sphere import pi, tau, is_collinear

GROUPING_TOL = 1e-4
ZERO_TOL = 1e-6


def pushed_field(kind: str, variant: str, p) -> np.ndarray:
    """The field pushed onto the tangent space of N at pi(p).

    Vanishes exactly at critical configurations; always orthogonal to
    pi(p) with last vertex zero.
    """
    q = pi(p)
    t = tau(elements.field(kind, variant, q))
    return t - np.vdot(t, q) * q


def _raw_jacobian(kind, variant, p):
    """The raw field at p and its exact (3n, 3n) Jacobian, from one kernel batch.

    The field is translation invariant and X(c) = B(c, c) for a symmetric
    bilinear B of the centered c, with B(e, e) = 0 when e moves one
    coordinate.  So X(c + h e_j) - X(c) = h J e_j exactly, and one
    ``field_batch`` call on [c, c + h e_1, ..., c + h e_3n] gives X and J.
    The step h is the power of two above max|c|: both terms have the
    magnitude of X, and the division by h is exact.
    """
    p = elements._check(kind, variant, p)  # validates kind, variant and shape
    c = (p - p.mean(axis=0)).ravel()
    h = np.ldexp(1.0, np.frexp(np.abs(c).max())[1])  # 1 when c = 0
    P = np.vstack([c, c + h * np.eye(c.size)]).reshape(-1, *p.shape)
    X = elements.field_batch(kind, variant, P)
    return X[0], ((X[1:] - X[0]).reshape(c.size, c.size) / h).T


def field_jacobian(kind: str, variant: str, p) -> np.ndarray:
    """Exact (3n, 3n) Jacobian of the raw field at p, from one centered kernel batch."""
    return _raw_jacobian(kind, variant, p)[1]


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

    def signature(self, tol: float = ZERO_TOL) -> tuple[int, int]:
        """Counts of eigenvalues above ``tol`` and below ``-tol``."""
        return (int(np.count_nonzero(self.eigenvalues > tol)),
                int(np.count_nonzero(self.eigenvalues < -tol)))

    def to_json(self) -> str:
        return json.dumps({
            "eigenvalues": [{"value": float(v), "multiplicity": int(m)}
                            for v, m in self.groups],
            "zero_count": int(self.zero_count),
            "asymmetry_ratio": float(self.asymmetry_ratio),
        }, indent=2)


def _group(values, tol):
    groups = []
    for v in values:
        if groups and abs(v - groups[-1][0]) < tol:
            groups[-1][1] += 1
        else:
            groups.append([float(v), 1])
    return tuple((v, m) for v, m in groups)


def _projected_jacobian(kind, variant, q):
    """Exact Jacobians of the projected field and of the raw field at q.

    The pushed field is extended off N as G = t - <t, u> u, with
    t = tau(X(q)) and u = tau(q) not re-normalized; re-normalizing would
    change the normal block and scramble the spectrum.  With T the
    constant matrix of tau, over all 3n ambient coordinates

        J_G = T J_X - u (u^T T J_X + t^T T) - <t, u> T.
    """
    X, JX = _raw_jacobian(kind, variant, q)
    n = len(X)
    T = np.kron(np.eye(n) - np.eye(n)[-1], np.eye(3))
    t, u = tau(X).ravel(), tau(q).ravel()
    TJ = T @ JX
    return TJ - np.outer(u, u @ TJ + t @ T) - np.vdot(t, u) * T, JX


def hessian_spectrum(kind: str, variant: str, p,
                     grouping_tol: float = GROUPING_TOL,
                     zero_tol: float = ZERO_TOL) -> Spectrum:
    """Spectrum of the exact ambient Jacobian of the projected field at pi(p).

    The raw Jacobian is one field-kernel batch at the centered q, with a
    power-of-two step (``_raw_jacobian``).  The eigenvalues are taken as
    computed, without symmetrization; at the singular shapes the
    spectrum is real to rounding and symmetrizing would mix the normal
    block into it.  Eigenvalues are sorted ascending and grouped at
    ``grouping_tol``.
    """
    JG, JX = _projected_jacobian(kind, variant, pi(p))
    ev = np.linalg.eigvals(JG)
    ev = ev[np.argsort(ev.real)]
    values = ev.real.copy()
    return Spectrum(
        eigenvalues=values,
        groups=_group(values, grouping_tol),
        zero_count=int(np.count_nonzero(np.abs(values) < zero_tol)),
        asymmetry_ratio=_asymmetry(JX),
        max_imag=float(np.abs(ev.imag).max()) if ev.size else 0.0,
    )


def collinear_signature(p, tol: float = ZERO_TOL) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues at a collinear tetrahedron.

    Precondition: p is a collinear 4-vertex configuration; raises
    ValueError otherwise.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (4, 3):
        raise ValueError("collinear signature is defined for tetrahedra")
    if not is_collinear(p):
        raise ValueError("configuration is not collinear")
    return hessian_spectrum("tetrahedron", elements.GRADIENT, p).signature(tol)
