"""Configurations modulo translation and scaling.

A configuration is an ordered (n, 3) array of vertex positions.  Two
configurations are equivalent when they differ by a common translation
and a positive scaling.  The canonical representative pins the last
vertex at the origin and normalizes the full 3n-vector to unit length;
the set of such representatives is the configuration sphere N.  Every
operation acts on the trailing (n, 3) axes, so configurations may carry
leading batch axes.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_mean = functools.cache(lambda n: np.full(n, 1.0 / n))  # the weights 1/n of a mean, per n


class DegenerateConfigurationError(ValueError):
    """No representative on N, or no measure: the vertices coincide, are not finite or overflow."""


def tau(p) -> np.ndarray:
    """Translate so the last vertex sits exactly at the origin.

    Returns ``(p_1 - p_n, ..., p_{n-1} - p_n, 0)``.
    """
    p = np.asarray(p, dtype=float)
    out = p - p[..., -1:, :]
    out[..., -1, :] = 0.0
    return out


def _center_plan(P, out, centroid):
    """The one centering rule, built once: a zero-argument call that centers the rows P.

    Each run writes the rows P (..., 3, n), as they are then, minus their
    centroids into out and returns out; the centroids, one vecdot per
    row, go into centroid (...).
    """
    mean, column = _mean(P.shape[-1]), centroid[..., None]

    def run():
        np.vecdot(P, mean, out=centroid)
        return np.subtract(P, column, out=out)

    return run


def _center(P) -> np.ndarray:
    """The rows P (..., 3, n) minus their centroids: :func:`_center_plan`, built and run once."""
    return _center_plan(P, np.empty(P.shape), np.empty(P.shape[:-1]))()


def _divisor(norm) -> np.ndarray:
    """The divisor of :func:`psi` from the norms |x| of rows x: sqrt|x|, and inf where x = 0.

    The mesh sweep passes the measure's root |X| (``elements._measure``),
    :func:`psi` the root of its own <x, x>.
    """
    return np.where(norm == 0.0, np.inf, np.sqrt(norm))


def sigma(p) -> np.ndarray:
    """Scale each configuration to unit norm over its 3n coordinates.

    A finite configuration whose squared norm overflows, or underflows to
    zero, is first divided by its largest ``|entry|``.  A zero or
    non-finite configuration raises :class:`DegenerateConfigurationError`.
    """
    with np.errstate(over="ignore"):  # an overflowing norm is rescued
        return _sigma(np.asarray(p, dtype=float))


def _sigma(p) -> np.ndarray:
    """:func:`sigma` of a float array, run under ``np.errstate(over="ignore")``."""
    flat = p.reshape(p.shape[:-2] + (-1,))
    norm = np.sqrt(np.vecdot(flat, flat))[..., None, None]
    # the common path: every norm is nonzero and finite
    if np.count_nonzero(norm) + np.count_nonzero(np.isfinite(norm)) < 2 * norm.size:
        bad = ~((norm > 0.0) & (norm < np.inf))
        scale = np.abs(p).max(axis=(-2, -1), keepdims=True)
        if not np.isfinite(scale[bad]).all():
            raise DegenerateConfigurationError(
                "cannot normalize a configuration with non-finite coordinates")
        if not scale[bad].all():
            raise DegenerateConfigurationError(
                "cannot normalize a zero configuration: all vertices coincide")
        p = np.where(bad, p / scale, p)
        flat = p.reshape(flat.shape)
        norm = np.sqrt(np.vecdot(flat, flat))[..., None, None]
    return p / norm


def pi(p) -> np.ndarray:
    """Canonical representative on N: last vertex zero, unit norm.

    A finite configuration whose pinned differences overflow is first
    divided by its largest ``|entry|``, as in :func:`sigma`.

    Raises
    ------
    DegenerateConfigurationError
        If all vertices coincide (tau(p) = 0), or a coordinate is not finite.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        t = tau(p)
        if not np.isfinite(t).all():
            scale = np.abs(p).max(axis=(-2, -1), keepdims=True)
            big = np.isfinite(scale) & ~np.isfinite(t).all(axis=(-2, -1), keepdims=True)
            t = np.where(big, tau(p / np.where(big, scale, 1.0)), t)
        return _sigma(t)


def push_tangent(p, v) -> np.ndarray:
    """Project an ambient per-vertex displacement onto the tangent space of N at p.

    Applies the last-vertex pinning differential (subtract the last
    component from every row, zero the last row), then removes the
    radial part along the unit direction of p, then divides by ``|p|``.
    On N itself ``|p| = 1`` and the division is a no-op.  The result w
    satisfies ``<w, p> = 0`` and ``w_n = 0``.
    """
    p = np.asarray(p, dtype=float)
    flat = p.reshape(p.shape[:-2] + (-1,))
    pp = np.vecdot(flat, flat)[..., None, None]
    if np.count_nonzero(pp) < pp.size:
        raise DegenerateConfigurationError("tangent projection at zero configuration")
    w = tau(v)
    wp = np.vecdot(w.reshape(flat.shape), flat)[..., None, None]
    return (w - wp / pp * p) / np.sqrt(pp)


def _column(B):
    """The shape of a per-row value (B,) that broadcasts over rows (B, m).

    (B, 1), or () at B = 1: numpy runs a 0-d operand on its scalar loop,
    about twice as fast as a (1, 1) broadcast.
    """
    return (B, 1) if B > 1 else ()


class _PushBuffers(NamedTuple):
    """The arrays :func:`_push` writes: t and r (B, 3n) and lam (B,)."""

    t: np.ndarray
    r: np.ndarray
    lam: np.ndarray


def _push_buffers(B, n):
    """The :class:`_PushBuffers` of B configurations of n vertices."""
    return _PushBuffers(np.empty((B, 3 * n)), np.empty((B, 3 * n)), np.empty(B))


def _push_plan(P, X, out):
    """:func:`_push` of the field rows X at the rows P (B, 3, n), built once: a zero-argument call.

    Each run reads P and X as they are then, writes into out, from
    :func:`_push_buffers`, and returns (r, lam).  The plan binds the views
    it writes by: t as rows (B, 3, n), and lam as a :func:`_column`.
    """
    B, _, n = P.shape
    p, last = P.reshape(B, 3 * n), X[:, :, -1:]
    t, r, lam = out
    T, column = t.reshape(B, 3, n), lam.reshape(_column(B))

    def run():
        np.subtract(X, last, out=T)  # the last column is exactly 0
        np.vecdot(t, p, out=lam)
        np.multiply(column, p, out=r)
        np.subtract(t, r, out=r)
        return r, lam

    return run


def _push(P, X, out=None):
    """(r, lam) of the field rows X at the component-major rows P (B, 3, n) on N.

    t = tau(X) is X minus its last column, lam = <t, p>, and
    r = t - lam p, flat (B, 3n), is :func:`push_tangent` of X at p, as
    |p| = 1; the residual is |r|.  The one rule of the fixed-point
    equation, of the flow kernel, ``flow.singularity_residual``, and
    ``spectral``'s pushed field and t and lam: :func:`_push_plan`, built
    and run once.  ``out``, from :func:`_push_buffers`, is written in
    place; without it the buffers are allocated.
    """
    return _push_plan(P, X, _push_buffers(len(P), P.shape[2]) if out is None else out)()


def psi(v) -> np.ndarray:
    """Square-root norm rescaling: v / sqrt(|v|), with 0 mapped to 0.

    Preserves direction; makes homogeneous-quadratic fields scale
    linearly so that flow speed is uniform across representative scale.
    """
    v = np.asarray(v, dtype=float)
    flat = v.reshape(v.shape[:-2] + (-1,))
    return (flat / _divisor(np.sqrt(np.vecdot(flat, flat)))[..., None]).reshape(v.shape)


def is_collinear(p, tol: float = 1e-9) -> bool:
    """True when the centered points span (numerically) at most a line.

    Checks the second-largest singular value of the point matrix,
    centered by :func:`_center`, against ``tol`` times the largest.
    """
    s = np.linalg.svd(_center(np.asarray(p, dtype=float).T), compute_uv=False)
    return bool(s[0] == 0.0 or s[1] <= tol * s[0])
