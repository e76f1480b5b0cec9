"""Ascent flow on the configuration sphere and singularity classification.

The discrete flow repeats: evaluate the element field, optionally apply
the square-root rescaling, project onto the tangent space of N, take an
explicit Euler step, and re-project onto N.  Fixed points of this
iteration are exactly the configurations where the pinned field is
radial, i.e. tau(X_p) = lambda p.

The f value (field dotted with configuration, 18 x mean volume for
gradient variants) usually increases along the flow, but the pinned
representative is a gauge choice and its drift can produce genuine
short dips far from the fixed points.  A decrease therefore triggers
step halving and is counted; if halving cannot restore monotonicity the
full step is taken anyway so trajectories can cross such stretches.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import elements
from .sphere import pi, psi, push_tangent, tau, is_collinear

# Monotone guard: relative acceptance slack, the halving budget per
# iteration, and the drop ratio separating curvature overshoot (halving
# shrinks the decrease quadratically) from a genuine negative slope
# (the decrease shrinks only linearly, so halving cannot cure it).
ACCEPT_SLACK = 1e-13
MAX_HALVINGS_PER_STEP = 8
DIP_DROP_RATIO = 0.3
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
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
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
    the singularities of the quotient field.
    """
    p = np.asarray(p, dtype=float)
    t = tau(elements.field(kind, variant, p))
    lam = float(np.vdot(t, p))
    return float(np.linalg.norm(t - lam * p)), lam


def classify(kind: str, variant: str, p, tol: float = 1e-10,
             lambda_tol: float = LAMBDA_TOL) -> SingularityClass:
    """Classify a configuration on N by its fixed-point residual and lambda.

    ``optimal_positive`` / ``optimal_negative`` require the residual
    below ``tol`` and ``|lam|`` above ``lambda_tol``; a small residual
    with small ``|lam|`` is ``level0_singular``.  Collinear
    configurations are never classified optimal.
    """
    residual, lam = singularity_residual(kind, variant, p)
    if residual >= tol:
        return SingularityClass("nonsingular", lam, residual)
    if abs(lam) < lambda_tol or is_collinear(p):
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
    halvings: int = 0
    monotone_breaks: int = 0

    @property
    def p_final(self) -> np.ndarray:
        return self.points[-1][1]

    @property
    def residual_final(self) -> float:
        return self.points[-1][3]


def _step_direction(kind, variant, p, X, normalization):
    w = psi(X) if normalization == "psi" else X
    return push_tangent(p, w)


def integrate(kind: str, variant: str, p0,
              settings: FlowSettings = FlowSettings()) -> Trajectory:
    """Run the discrete ascent flow from pi(p0) until the residual drops below tol.

    Records one row per iteration: (iteration, p on N, f value, residual,
    lam).  Terminates at convergence or after ``settings.max_iters``
    steps; raises :class:`FlowDivergenceError` on non-finite values.
    """
    p = pi(p0)
    X = elements.field(kind, variant, p)
    bound = 3.0 * float(np.linalg.norm(X))
    if settings.step * bound >= 2.0:
        warnings.warn(
            f"step {settings.step} times field scale estimate {bound:.3g} "
            "exceeds 2; the iteration may overshoot", stacklevel=2)
    f = float(np.vdot(X, p))
    traj = Trajectory(kind=kind, variant=variant)
    for it in range(settings.max_iters + 1):
        t = tau(X)
        lam = float(np.vdot(t, p))
        residual = float(np.linalg.norm(t - lam * p))
        traj.points.append((it, p.copy(), f, residual, lam))
        traj.iterations = it
        if not np.isfinite(residual) or not np.isfinite(f):
            raise FlowDivergenceError(it)
        if residual < settings.tol:
            traj.converged = True
            return traj
        if it == settings.max_iters:
            return traj
        v = _step_direction(kind, variant, p, X, settings.normalization)
        s = settings.step
        accepted = None
        first = None
        prev_drop = None
        for _ in range(MAX_HALVINGS_PER_STEP + 1):
            q = pi(p + s * v)
            Xq = elements.field(kind, variant, q)
            fq = float(np.vdot(Xq, q))
            if first is None:
                first = (q, Xq, fq)
            drop = f - fq
            if drop <= ACCEPT_SLACK * max(1.0, abs(f)):
                accepted = (q, Xq, fq)
                break
            if prev_drop is not None and drop > DIP_DROP_RATIO * prev_drop:
                # Halving barely shrank the decrease: the f slope along v
                # is genuinely negative (a gauge dip, not an overshoot).
                # Cross it at the configured step instead of creeping.
                break
            traj.halvings += 1
            prev_drop = drop
            s *= 0.5
        if accepted is None:
            traj.monotone_breaks += 1
            accepted = first
        p, X, f = accepted
    return traj


def integrate_batch(kind: str, variant: str, P0,
                    settings: FlowSettings = FlowSettings()):
    """Run many independent trajectories of the same kind at once.

    Identical update rule to :func:`integrate`, vectorized across a
    batch; trajectories are not recorded.  Returns a dict of terminal
    arrays: ``p`` (B, n, 3), ``residual``, ``lam``, ``f`` (B,),
    ``iterations`` (B,), ``converged`` (B,) bool, plus total ``halvings``
    and ``monotone_breaks`` counts.
    """
    P = np.stack([pi(p) for p in np.asarray(P0, dtype=float)])
    B, n, _ = P.shape
    X = elements.field_batch(kind, variant, P)
    F = np.einsum("bvc,bvc->b", X, P)
    done = np.zeros(B, dtype=bool)
    iters = np.zeros(B, dtype=int)
    res_out = np.zeros(B)
    lam_out = np.zeros(B)
    halvings = 0
    breaks = 0

    for it in range(settings.max_iters + 1):
        T = tau(X)
        lam = np.einsum("bvc,bvc->b", T, P)
        R = T - lam[:, None, None] * P
        residual = np.sqrt(np.einsum("bvc,bvc->b", R, R))
        if not np.all(np.isfinite(residual)):
            raise FlowDivergenceError(it)
        newly = (~done) & (residual < settings.tol)
        iters[newly] = it
        res_out[~done] = residual[~done]
        lam_out[~done] = lam[~done]
        done |= newly
        if done.all() or it == settings.max_iters:
            iters[~done] = it
            break
        act = np.flatnonzero(~done)
        W = psi(X[act]) if settings.normalization == "psi" else X[act]
        TW = tau(W)
        Pa = P[act]
        V = TW - np.einsum("bvc,bvc->b", TW, Pa)[:, None, None] * Pa
        s = np.full(act.size, settings.step)
        Fa = F[act]
        pend = np.arange(act.size)
        Q = np.empty_like(Pa)
        XQ = np.empty_like(Pa)
        FQ = np.empty(act.size)
        prev_drop = np.full(act.size, np.inf)
        giveup = []
        firstQ = firstX = firstF = None
        for h in range(MAX_HALVINGS_PER_STEP + 1):
            cand = tau(Pa[pend] + s[pend, None, None] * V[pend])
            cand /= np.sqrt(np.einsum("bvc,bvc->b", cand, cand))[:, None, None]
            Xc = elements.field_batch(kind, variant, cand)
            Fc = np.einsum("bvc,bvc->b", Xc, cand)
            Q[pend], XQ[pend], FQ[pend] = cand, Xc, Fc
            if h == 0:
                firstQ, firstX, firstF = Q.copy(), XQ.copy(), FQ.copy()
            drop = Fa[pend] - FQ[pend]
            bad = drop > ACCEPT_SLACK * np.maximum(1.0, np.abs(Fa[pend]))
            # Same dip test as the scalar path: halving that barely
            # shrinks the decrease signals a true negative slope.
            slope = bad & (drop > DIP_DROP_RATIO * prev_drop[pend])
            giveup.append(pend[slope])
            retry = pend[bad & ~slope]
            if retry.size == 0:
                break
            halvings += retry.size
            prev_drop[retry] = (Fa - FQ)[retry]
            s[retry] *= 0.5
            pend = retry
        else:
            giveup.append(pend)
        gv = np.concatenate(giveup) if giveup else np.array([], dtype=int)
        if gv.size:
            breaks += gv.size
            Q[gv], XQ[gv], FQ[gv] = firstQ[gv], firstX[gv], firstF[gv]
        P[act], X[act], F[act] = Q, XQ, FQ
    return {
        "p": P, "residual": res_out, "lam": lam_out, "f": F,
        "iterations": iters, "converged": done.copy(),
        "halvings": halvings, "monotone_breaks": breaks,
    }


def shape_metrics(kind: str, p) -> dict:
    """Edge-length statistics, face planarity defect, and orientation sign.

    ``edge_length_spread`` is relative: (max - min) / max.  The
    planarity defect of a quadrilateral face is the distance of the
    fourth vertex from the plane of the first three, divided by the mean
    edge length of that face; the maximum over faces is reported (0 for
    kinds with only triangular faces).
    """
    p = np.asarray(p, dtype=float)
    lengths = np.array([np.linalg.norm(p[a - 1] - p[b - 1])
                        for a, b in elements.EDGES[kind]])
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
        "edge_length_spread": float((lengths.max() - lengths.min()) / lengths.max())
        if lengths.max() > 0 else 0.0,
        "face_planarity_max_deviation": float(planarity),
        "orientation_sign": int(np.sign(vol)),
    }


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write one CSV row per recorded iteration.

    Columns: iteration, f, residual, lambda, edge_spread.  Floats are
    printed with 17 significant digits, '.' decimal separator.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "f", "residual", "lambda", "edge_spread"])
        for it, p, f, residual, lam in traj.points:
            spread = shape_metrics(traj.kind, p)["edge_length_spread"]
            writer.writerow([it] + [format(x, ".17g")
                                    for x in (f, residual, lam, spread)])
