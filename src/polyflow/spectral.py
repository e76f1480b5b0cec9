"""Spectral diagnostics of the flow at critical configurations.

The second-order structure of the restricted volume at a singularity is
read off the Jacobian of the pinned-and-projected field, measured as the
flow measures it.  The raw field is a symmetric bilinear form of the rows
centered by ``sphere._center``, so one kernel batch gives its Jacobian
exactly (``elements._field_jvp``, the package's one derivative of the
field, formed at the rows divided by a power of two and exact at every
scale), ``sphere._push`` gives t and lambda, and the projected Jacobian
is closed-form, with tau an operator.  At a representative on N the ambient
Jacobian has real spectrum at the optimal shapes; its nonzero
eigenvalues and their multiplicities identify the critical manifold, and
six eigenvalues vanish (three translations, three rotations).  The
pinned last vertex makes three rows of the Jacobian exactly zero, so the
eigen-solve runs on the leading (3n - 3) block and the three translation
zeros are exact.

Every step runs over a leading batch axis: ``hessian_spectrum_batch``
takes a batch of configurations, and ``hessian_spectrum``,
``field_jacobian`` and ``asymmetry_ratio`` are batches of one.
``_field_jvp`` returns J's columns contiguous, row k holding J e_k: they
are the rows of A^T for the shifted Jacobian A below, so the projected
Jacobian is formed on one plain copy of them, and they are scaled back
in place by an exact ``np.ldexp``.  A single spectrum costs mostly calls,
not arithmetic: pi, the eigvals wrapper and a few dozen numpy calls on
(1, ...) arrays; in a batch a row costs the kernel, LAPACK and the
per-row Python of its ``Spectrum``.

Whether a field variant is a gradient is a property of the raw field,
not of the projection: the raw field Jacobian is symmetric exactly for
gradient fields, so the asymmetry ratio reported here is computed from
the unprojected field.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import elements
from .jsontext import json_list
from .sphere import _push, _push_buffers, pi, tau, is_collinear

GROUPING_TOL = 1e-4
ZERO_TOL = 1e-6

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


def _raw_jacobian(kind, variant, Q):
    """(X, J, e): the basis case of ``elements._field_jvp``, J as (B, 3n, 3n) matrices.

    At the rows Q themselves the field is 2^2e X and the Jacobian 2^e J,
    exactly.
    """
    X, JE, e = elements._field_jvp(kind, variant, Q)
    return X, JE.reshape(len(Q), -1, X[0].size).swapaxes(1, 2), e


@elements._overflow_raised
def field_jacobian(kind: str, variant: str, p) -> np.ndarray:
    """Exact (3n, 3n) Jacobian of the raw field at p, from one centered kernel batch.

    Exact at every scale: J is formed at p divided by a power of two and
    scaled back, so J(2^k p) = 2^k J(p) bit for bit.
    """
    _, J, e = _raw_jacobian(kind, variant, elements._check(kind, variant, p)[None])
    return np.ldexp(J[0], e[0])


def _asymmetry(J) -> list:
    """The Frobenius ratios |J - J^T| / |J| of the Jacobians J (B, m, m), 0 where J = 0.

    Each sum of squares runs in the order ``np.linalg.norm`` takes on one
    of them, a transposed view: J - J^T row by row, J column by column.
    Both are rows of one stack, so one vecdot and one sqrt form every norm.
    """
    S = np.empty((2,) + J.shape)
    np.subtract(J, J.swapaxes(1, 2), out=S[0])
    S[1] = J.swapaxes(1, 2)
    S = S.reshape(2, len(J), -1)
    d, j = np.sqrt(np.vecdot(S, S)).tolist()
    return [a / b if b else 0.0 for a, b in zip(d, j)]


@elements._overflow_raised
def asymmetry_ratio(kind: str, variant: str, p) -> float:
    """Frobenius ratio |J - J^T| / |J| of the raw field Jacobian.

    Zero to rounding for gradient fields; order one for the prism y
    variant.  Taken on the Jacobian at p divided by the power of two
    above max|c|, so that no square in the norms underflows or
    overflows: the ratio does not depend on the scale of p.
    """
    J = _raw_jacobian(kind, variant, elements._check(kind, variant, p)[None])[1]
    return _asymmetry(J)[0]


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


def _projected_jacobian(kind, variant, Q):
    """Exact Jacobians (B, 3n, 3n) of the projected field and of the raw field at the rows Q.

    Precondition: each row q of Q is on N, as ``pi`` returns it, so its
    last vertex is exactly zero and tau(q) = q bitwise.  The pushed field
    is extended off N as G = t - <t, u> u, with t = tau(X(q)) and u = q
    not re-normalized; re-normalizing would change the normal block and
    scramble the spectrum; ``sphere._push`` forms t and <t, u>.  With T
    the constant matrix of tau, over all 3n ambient coordinates

        J_G = T J_X - u (u^T T J_X + t^T T) - <t, u> T
            = T A - u (u^T T A + w^T T),  A = J_X - <t, u> I,  w = t + <t, u> u.

    T is never formed: T A is tau applied to each column of A, and w^T T
    is w with its last vertex row replaced by minus the sum of the others.
    The columns are ``_field_jvp``'s rows J e_k: one copy of them takes
    the diagonal shift, and tau subtracts each one's last vertex block.
    The last vertex's three rows of J_G are exactly zero: tau zeroes them
    in T A, and u is zero there.  J_X is returned as the transposed view
    of the columns.
    """
    (B, n, _), m = Q.shape, 3 * Q.shape[1]
    P = np.ascontiguousarray(Q.swapaxes(1, 2))  # component-major rows, as the flow's
    X, JE, e = elements._field_jvp(kind, variant, P.swapaxes(1, 2))
    JXt = JE.reshape(B, m, m)  # row k: J e_k, column k of J_X
    np.ldexp(X, 2 * e, out=X)  # exact: e <= 1 on N
    np.ldexp(JXt, e, out=JXt)
    push = _push_buffers(B, n)
    s = _push(P, X.swapaxes(1, 2), push)[1][:, None]
    At = JXt.copy()  # row k: column k of A = J_X - <t, u> I
    At.reshape(B, -1)[:, ::m + 1] -= s
    TA = tau(At.reshape(B, m, n, 3)).reshape(B, m, m).swapaxes(1, 2)
    w = push.t.reshape(B, 3, n).swapaxes(1, 2) + s[..., None] * Q  # t + <t, u> u
    w[:, -1] = -w[:, :-1].sum(axis=1)
    q = Q.reshape(B, 1, m)
    return TA - q.swapaxes(1, 2) * (q @ TA + w.reshape(B, 1, m)), JXt.swapaxes(1, 2)


def _spectra(kind, variant, Q) -> list:
    """The :class:`Spectrum` of each row of Q (B, n, 3) on N: one batch through every step.

    Every step of a row reads that row alone, so a row's spectrum is the
    same alone and in any batch.
    """
    JG, JX = _projected_jacobian(kind, variant, Q)
    B, m = len(Q), JG.shape[1] - 3
    ev = np.linalg.eigvals(JG[:, :m, :m])
    real = np.zeros((B, m + 3))  # the last three: the pinned vertex's exact zeros
    real[:, :m] = ev.real
    # argsort, not real.sort(): the two order -0.0 and 0.0 differently
    values = real[np.arange(B)[:, None], real.argsort(axis=1)]
    # zero_count: the sorted values in (-ZERO_TOL, ZERO_TOL), all finite (eigvals
    # refuses a matrix that is not)
    return [Spectrum(eigenvalues=v, groups=_group(vs, GROUPING_TOL),
                     zero_count=bisect_left(vs, ZERO_TOL) - bisect_right(vs, -ZERO_TOL),
                     asymmetry_ratio=r, max_imag=i)
            for v, vs, r, i in zip(values, values.tolist(), _asymmetry(JX),
                                   np.abs(ev.imag).max(axis=1).tolist())]


def hessian_spectrum_batch(kind: str, variant: str, P) -> list:
    """The :func:`hessian_spectrum` of each configuration of P (B, n, 3), in one batch.

    A list of B spectra; each equals the spectrum of its row alone, bit
    for bit.  A P other than a non-empty batch of the kind's (n, 3) rows,
    or a row with a non-finite coordinate, raises as ``integrate_batch``
    does, before pi runs.
    """
    return _spectra(kind, variant, pi(elements._check_batch(kind, variant, P, "P")))


def hessian_spectrum(kind: str, variant: str, p) -> Spectrum:
    """Spectrum of the exact ambient Jacobian of the projected field at pi(p).

    A batch of one of :func:`hessian_spectrum_batch`.  The raw Jacobian
    is one field-kernel batch at the centered q, scaled by a power of two
    (``elements._field_jvp``).  The eigenvalues are taken as computed,
    without symmetrization; at the singular shapes the spectrum is real
    to rounding and symmetrizing would mix the normal block into it.  The
    last three rows of J_G are exactly zero, so J_G = [[M, b], [0, 0]] and
    its spectrum is that of the leading (3n - 3) block M plus three exact
    zeros, the translations.  At a critical point the three rotation zeros
    come from M, zero to rounding.  Eigenvalues are sorted ascending and
    grouped at ``GROUPING_TOL``.  p is checked once, as in :func:`field`,
    before pi runs on it.
    """
    return _spectra(kind, variant, pi(elements._check(kind, variant, p))[None])[0]


def collinear_signature(p) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues at a collinear tetrahedron.

    Precondition: p is a collinear 4-vertex configuration; raises
    ValueError otherwise.
    """
    p = elements._check("tetrahedron", elements.GRADIENT, p)
    if not is_collinear(p):
        raise ValueError("configuration is not collinear")
    return hessian_spectrum("tetrahedron", elements.GRADIENT, p).signature()
