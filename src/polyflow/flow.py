"""Ascent flow on the configuration sphere and singularity classification.

The discrete flow repeats: evaluate the element field, optionally apply
the square-root rescaling, project onto the tangent space of N, take an
explicit Euler step, and re-project onto N.  Fixed points of this
iteration are exactly the configurations where the pinned field is
radial, i.e. tau(X_p) = lambda p.  One batched kernel runs the flow;
:func:`integrate` is a batch of one that records every iteration.

Each candidate step is measured once and taken.  A monitor watches the
centered quality q_c = <X, c> / |c|^3, c = p minus its centroid, which
the flow ascends: modulo translations a step is X - lambda' c, and
<grad q_c, X - lambda' c> ~ |X|^2 |c|^2 - <X, c>^2 >= 0.  Steps that
lower q_c all the same (prism y is not a gradient; a step may overshoot)
are counted in ``monotone_breaks``.  The pinned f = <X, p> is recorded
but not monitored: it depends on the gauge and is not monotone.

The kernel holds its batch as component-major rows (B, 3, n): row b
lists the x, then y, then z coordinates of configuration b.  Every
inner product is one ``np.vecdot`` over the flat (B, 3n) view, and tau
is one subtraction of the last column (``sphere._push``, which
:func:`singularity_residual` and ``spectral.pushed_field`` apply too).
A step is normalized by one norm; a zero, overflowing or non-finite
norm leaves a NaN q_c, which the monitor's one test catches before
:func:`sphere.sigma`'s rescue runs.  The state and every candidate step
are measured by ``elements._measure``, as the mesh smoother measures its
elements: the rows are centered, each by its own mean, so a row's
rounding, and with it the run, does not depend on the batch; the field
is evaluated at the centered rows by :func:`elements.field_batch`, the
one field kernel, and q_c is read from both.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import elements
from .elements import _measure
from .sphere import DegenerateConfigurationError, _push, _root, _sigma, is_collinear, pi

# The relative slack of the q_c monitor: a step that lowers q_c by more
# than ACCEPT_SLACK * max(1, |q_c|) is counted as a monotone break.
ACCEPT_SLACK = 1e-13
LAMBDA_TOL = 1e-8


class FlowDivergenceError(RuntimeError):
    """Non-finite values appeared during integration (step too large)."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite configuration at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class FlowSettings:
    """Parameters of the discrete flow."""

    step: float = 0.05
    max_iters: int = 10 ** 5
    tol: float = 1e-10
    normalization: str = "psi"

    def __post_init__(self):
        if not 0 < self.step < float("inf"):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.normalization not in ("psi", "none"):
            raise ValueError("normalization must be 'psi' or 'none'")


@dataclass(frozen=True)
class SingularityClass:
    """Outcome of classifying a configuration on N."""

    tag: str  # optimal_positive | optimal_negative | level0_singular | nonsingular
    lam: float
    residual: float


def singularity_residual(kind: str, variant: str, p) -> tuple[float, float]:
    """Residual and radial multiplier of the fixed-point equation at p on N.

    Returns ``(residual, lam)`` with ``lam = <tau(X_p), p>`` and
    ``residual = |tau(X_p) - lam p|``.  The residual vanishes exactly at
    the singularities of the quotient field.  X is evaluated at p's
    centered rows and both come from the flow kernel's own arithmetic,
    so at a flow's final p they are its ``residual`` and ``lam`` to the bit.
    A non-finite coordinate raises :class:`DegenerateConfigurationError`.
    """
    P = np.ascontiguousarray(elements._check(kind, variant, p).T[None])
    if not np.isfinite(P).all():
        raise DegenerateConfigurationError(
            "cannot measure a configuration with non-finite coordinates")
    with np.errstate(divide="ignore", invalid="ignore"):  # q_c of coincident vertices
        _, lam, residual = _push(P, _measure(kind, variant, P)[1])
    return float(residual[0]), float(lam[0])


def classify(kind: str, variant: str, p, tol: float = 1e-10) -> SingularityClass:
    """Classify a configuration on N by its fixed-point residual and lambda.

    ``optimal_positive`` / ``optimal_negative`` require the residual
    below ``tol`` and ``|lam|`` above ``LAMBDA_TOL``; a small residual
    with small ``|lam|`` is ``level0_singular``.  Collinear
    configurations are never classified optimal.  ``tol`` must be
    positive, as in :class:`FlowSettings`; a non-finite coordinate raises
    :class:`DegenerateConfigurationError`, as in :func:`singularity_residual`.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    residual, lam = singularity_residual(kind, variant, p)
    if residual >= tol:
        return SingularityClass("nonsingular", lam, residual)
    if abs(lam) < LAMBDA_TOL or is_collinear(p):
        return SingularityClass("level0_singular", lam, residual)
    tag = "optimal_positive" if lam > 0 else "optimal_negative"
    return SingularityClass(tag, lam, residual)


@dataclass
class Trajectory:
    """Recorded discrete flow: per-iteration rows plus terminal summary."""

    kind: str
    variant: str
    points: list = dataclass_field(default_factory=list)  # (iter, p, f, residual, lam)
    converged: bool = False
    iterations: int = 0
    halvings: int = 0  # always 0: the flow takes every step at full length
    monotone_breaks: int = 0

    @property
    def p_final(self) -> np.ndarray:
        return self.points[-1][1]

    @property
    def residual_final(self) -> float:
        return self.points[-1][3]


def _flow(kind, variant, P, settings, record=None):
    """The flow kernel: run each configuration of P (B, n, 3) on N to its end.

    ``record(it, P, F, residual, lam)`` is called once per iteration with
    the still running rows, P as component-major rows (B, 3, n).  Returns
    the dict of :func:`integrate_batch`.  f is formed only for the rows
    recorded and for the rows that stop.
    """
    elements._check(kind, variant, P[0])
    P = np.ascontiguousarray(P.swapaxes(1, 2))
    _, X, Q, _ = _measure(kind, variant, P)
    x = X.reshape(len(X), -1)
    bound = 3.0 * float(np.sqrt(np.vecdot(x, x)).max())
    if settings.step * bound >= 2.0:
        warnings.warn(
            f"step {settings.step} times field scale estimate {bound:.3g} "
            "exceeds 2; the iteration may overshoot", stacklevel=3)
    B, _, n = P.shape
    out = dict(p=np.empty((B, n, 3)), residual=np.empty(B), lam=np.empty(B),
               f=np.empty(B), iterations=np.empty(B, dtype=int),
               converged=np.zeros(B, dtype=bool), halvings=0, monotone_breaks=0)
    rows = np.arange(B)  # the output row of each running configuration
    step, tol, last = settings.step, settings.tol, settings.max_iters
    psi = settings.normalization == "psi"
    # A step whose norm is zero, overflows or is not finite gives a NaN q_c,
    # which the monitor catches; numpy's warnings about it are muted.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(last + 1):
            # flat (B, 3n) views of the rows, for every inner product
            p, x = P.reshape(len(P), -1), X.reshape(len(X), -1)
            r, lam, residual = _push(P, X)
            if record is not None:
                record(it, P, np.vecdot(x, p), residual, lam)
            converged = residual < tol
            if np.count_nonzero(converged) or it == last:
                stop = converged | (it == last)
                out["p"][rows[stop]] = P[stop].swapaxes(1, 2)
                out["f"][rows[stop]] = np.vecdot(x[stop], p[stop])
                for key, value in zip(("residual", "lam", "converged"),
                                      (residual, lam, converged)):
                    out[key][rows[stop]] = value[stop]
                out["iterations"][rows[stop]] = it
                if np.count_nonzero(stop) == len(stop):
                    break
                rows, P, Q, p, x, r = (a[~stop] for a in (rows, P, Q, p, x, r))
            if psi:
                # push_tangent is linear and psi(X) = X / sqrt|X|, so the step
                # push_tangent(P, psi(X)) is R / sqrt|X|; X != 0 as |R| >= tol.
                r = r / _root(x)[:, None]
            w = p + step * r  # pinned already
            P = (w / np.sqrt(np.vecdot(w, w))[:, None]).reshape(P.shape)
            _, X, Qn, _ = _measure(kind, variant, P)
            # One test catches a q_c drop and the NaN q_c of a bad norm.
            if np.count_nonzero(Qn >= Q) < len(Q):
                if np.count_nonzero(np.isnan(Qn)):
                    # A zero, overflowing or non-finite norm: _sigma rescues the
                    # step (the other rows keep their bits) or raises if not finite.
                    try:
                        P = _sigma(w.reshape(P.shape))
                    except DegenerateConfigurationError as exc:
                        raise FlowDivergenceError(it) from exc
                    _, X, Qn, _ = _measure(kind, variant, P)
                out["monotone_breaks"] += int(np.count_nonzero(
                    Q - Qn > ACCEPT_SLACK * np.maximum(1.0, np.abs(Q))))
            Q = Qn
    return out


def integrate(kind: str, variant: str, p0,
              settings: FlowSettings = FlowSettings()) -> Trajectory:
    """Run the discrete ascent flow from pi(p0) until the residual drops below tol.

    A batch of one through the flow kernel, recording one row per
    iteration: (iteration, p on N, f value, residual, lam).  Terminates
    at convergence or after ``settings.max_iters`` steps; raises
    :class:`FlowDivergenceError` when a step overflows.
    """
    traj = Trajectory(kind=kind, variant=variant)
    out = _flow(kind, variant, pi(p0)[None], settings,
                lambda it, P, F, res, lam: traj.points.append(
                    (it, P[0].T.copy(), float(F[0]), float(res[0]), float(lam[0]))))
    traj.iterations, traj.converged = int(out["iterations"][0]), bool(out["converged"][0])
    traj.halvings, traj.monotone_breaks = out["halvings"], out["monotone_breaks"]
    return traj


def integrate_batch(kind: str, variant: str, P0,
                    settings: FlowSettings = FlowSettings()):
    """Run many independent trajectories of the same kind at once.

    The kernel of :func:`integrate` without the per-iteration record.
    Returns a dict of terminal arrays: ``p`` (B, n, 3), ``residual``,
    ``lam``, ``f`` (B,), ``iterations`` (B,), ``converged`` (B,) bool,
    plus the totals ``monotone_breaks`` and ``halvings``, which is
    always 0 (no step is halved) and stays for the callers that read it.
    """
    return _flow(kind, variant, pi(P0), settings)


def shape_metrics(kind: str, p) -> dict:
    """Edge-length statistics, face planarity defect, and orientation sign.

    ``edge_length_spread`` is relative: (max - min) / max.  The
    planarity defect of a quadrilateral face is the distance of the
    fourth vertex from the plane of the first three, divided by the mean
    edge length of that face; the maximum over faces is reported (0 for
    kinds with only triangular faces).
    """
    p = elements._check(kind, elements.GRADIENT, p)
    lengths = _edge_lengths(kind, p[None])
    planarity = 0.0
    for cycle in elements.QUAD_FACES[kind]:
        a, b, c, d = (p[i - 1] for i in cycle)
        nrm = np.cross(b - a, c - a)
        nn = np.linalg.norm(nrm)
        if nn == 0.0:
            continue
        edges = [np.linalg.norm(b - a), np.linalg.norm(c - b),
                 np.linalg.norm(d - c), np.linalg.norm(a - d)]
        planarity = max(planarity, abs(np.dot(d - a, nrm / nn)) / np.mean(edges))
    vol = elements.mean_volume(kind, p)
    return {
        "edge_length_min": float(lengths.min()),
        "edge_length_max": float(lengths.max()),
        "edge_length_spread": float(_spread(lengths)[0]),
        "face_planarity_max_deviation": float(planarity),
        "orientation_sign": int(np.sign(vol)),
    }


# Per kind: the 0-based end vertices of the canonical edges, as index arrays.
_EDGE_ENDS = {kind: tuple(np.array(edges).T - 1) for kind, edges in elements.EDGES.items()}


def _edge_lengths(kind, P) -> np.ndarray:
    """The canonical edge lengths of each configuration of P (R, n, 3), shape (R, E).

    Each edge vector is dotted with itself as ``np.linalg.norm`` does it
    (a vector-vector matmul is a dot), so a length has the bits of
    ``np.linalg.norm(p[a] - p[b])``.
    """
    a, b = _EDGE_ENDS[kind]
    D = P[:, a] - P[:, b]
    return np.sqrt((D[..., None, :] @ D[..., :, None])[..., 0, 0])


def _spread(lengths) -> np.ndarray:
    """The relative spread (max - min) / max of each row of lengths, 0 where max is 0."""
    top = lengths.max(axis=1)
    return np.divide(top - lengths.min(axis=1), top, out=np.zeros_like(top),
                     where=top > 0)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write one CSV row per recorded iteration.

    Columns: iteration, f, residual, lambda, edge_spread.  Floats are
    printed with 17 significant digits, '.' decimal separator.
    """
    spread = _spread(_edge_lengths(traj.kind, np.array([row[1] for row in traj.points])))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "f", "residual", "lambda", "edge_spread"])
        for (it, _, f, residual, lam), s in zip(traj.points, spread.tolist()):
            writer.writerow([it] + [format(x, ".17g") for x in (f, residual, lam, s)])
