"""Configurations modulo translation and scaling.

A configuration is an ordered (n, 3) array of vertex positions.  Two
configurations are equivalent when they differ by a common translation
and a positive scaling.  The canonical representative pins the last
vertex at the origin and normalizes the full 3n-vector to unit length;
the set of such representatives is the configuration sphere N.
"""

from __future__ import annotations

import numpy as np


class DegenerateConfigurationError(ValueError):
    """All vertices coincide; no sphere representative exists."""


def tau(p) -> np.ndarray:
    """Translate so the last vertex sits exactly at the origin.

    Returns ``(p_1 - p_n, ..., p_{n-1} - p_n, 0)``.  Acts on the trailing
    ``(n, 3)`` axes, so ``p`` may carry leading batch axes.
    """
    p = np.asarray(p, dtype=float)
    out = p - p[..., -1:, :]
    out[..., -1, :] = 0.0
    return out


def sigma(p) -> np.ndarray:
    """Scale a nonzero configuration to unit norm over all 3n coordinates."""
    p = np.asarray(p, dtype=float)
    n = np.linalg.norm(p)
    if n == 0.0 or not np.isfinite(n):
        raise DegenerateConfigurationError("cannot normalize a zero configuration")
    return p / n


def pi(p) -> np.ndarray:
    """Canonical representative on N: last vertex zero, unit norm.

    Raises
    ------
    DegenerateConfigurationError
        If all vertices coincide (tau(p) = 0).
    """
    return sigma(tau(p))


def push_tangent(p, v) -> np.ndarray:
    """Project an ambient per-vertex displacement onto the tangent space of N at p.

    Applies the last-vertex pinning differential (subtract the last
    component from every row, zero the last row), then removes the
    radial part along the unit direction of p, then divides by ``|p|``.
    On N itself ``|p| = 1`` and the division is a no-op.  The result w
    satisfies ``<w, p> = 0`` and ``w_n = 0``.
    """
    p = np.asarray(p, dtype=float)
    norm_p = np.linalg.norm(p)
    if norm_p == 0.0:
        raise DegenerateConfigurationError("tangent projection at zero configuration")
    w = np.asarray(v, dtype=float) - np.asarray(v, dtype=float)[-1]
    w[-1] = 0.0
    phat = p / norm_p
    w = (w - np.vdot(w, phat) * phat) / norm_p
    return w


def psi(v) -> np.ndarray:
    """Square-root norm rescaling: v / sqrt(|v|), with 0 mapped to 0.

    Preserves direction; makes homogeneous-quadratic fields scale
    linearly so that flow speed is uniform across representative scale.
    The norm is taken over the trailing ``(n, 3)`` axes, so each entry
    of a leading batch shape is rescaled by its own norm.
    """
    v = np.asarray(v, dtype=float)
    root = np.sqrt(np.sqrt((v * v).sum(axis=(-2, -1), keepdims=True)))
    return np.divide(v, root, out=np.zeros_like(v), where=root != 0.0)


def is_collinear(p, tol: float = 1e-9) -> bool:
    """True when the centered points span (numerically) at most a line.

    Checks the second-largest singular value of the centered point
    matrix against ``tol`` times the largest.
    """
    p = np.asarray(p, dtype=float)
    c = p - p.mean(axis=0)
    s = np.linalg.svd(c, compute_uv=False)
    if s[0] == 0.0:
        return True
    return bool(s[1] <= tol * s[0])
