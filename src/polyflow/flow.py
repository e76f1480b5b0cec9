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
are counted in ``monotone_breaks``.  The pinned f = <X, p> depends on
the gauge and is not monotone: it is formed only for the rows recorded.

The kernel holds its batch as component-major rows (B, 3, n): row b
lists the x, then y, then z coordinates of configuration b.  Every
inner product is one ``np.vecdot`` over the flat (B, 3n) view, and tau
is one subtraction of the last column (``sphere._push``, which
:func:`singularity_residual` and ``spectral.pushed_field`` apply too).
A step is normalized by one norm; a zero, overflowing or non-finite
norm leaves a NaN q_c, which the monitor's one test catches: the step
is then normalized anew by :func:`sphere.sigma`, at the power of two
above its largest entry.  The state and every candidate step
are measured by ``elements._measure``'s arithmetic, as the mesh smoother
measures its elements: the rows are centered, each by its own mean, so a
row's rounding, and with it the run, does not depend on the batch; the
field is evaluated at the centered rows by the kernel of
:func:`elements.field_batch`, the one field kernel, and q_c is read from
both; psi's divisor sqrt|X| is one ``np.sqrt`` (``_psi_divisor``) of the
measure's root |X|.

The kernel steps its batch in place, in one workspace per set of
running rows (:func:`_workspace`), built at the start and again only
when rows stop.  It holds the buffers and three plans, zero-argument
calls built once on its views: the state's and the candidate's measure
(``elements._measure_plan``) and the push (``sphere._push_plan``).  An
iteration runs them and builds no view.  Every step writes into the
workspace through ufunc ``out`` arguments, with the same operations as
on fresh arrays, so the runs are bit for bit the same; ``record``
receives workspace views, valid only during the call.  The step w is
formed before the convergence test, so that one ``vecdot`` of the
stack [r, w] gives <r, r> and <w, w>, and one ``np.sqrt`` of those the
residual |r| and the step's norm |w|; sqrt is elementwise, so a root
taken in a stack has the bits of a root taken alone.  The workspace
lives here alone: it adapts the general buffers and plans of
``elements._measure`` and ``sphere._push``.

At B = 1 an iteration is about two dozen numpy calls on arrays of a few
dozen entries, and their fixed cost, not their arithmetic, is its time.
So the loop binds its calls to locals once, passes each ``out`` by
position, and writes both of its tests, |r| < tol and q_c not falling,
into bool buffers of the workspace; the plans pass their ``out`` by
position too, the field kernel gathers into its plan's buffer and
contracts by ``np.dot``, and the measure's ``np.sqrt`` reads a contiguous
diagonal.  No operation changes, so no bit does.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field as dataclass_field
from numbers import Integral, Real

import numpy as np

from . import elements
from .elements import _measure, _measure_buffers, _measure_plan, _overflow_raised
from .sphere import (DegenerateConfigurationError, _column, _exponent, _push, _push_buffers,
                     _push_plan, is_collinear, pi, sigma)

# psi's divisor sqrt|X| from the measure's root |X|: the loop's one named
# call for it, looked up once per run (tests replace it to inject a zero).
_psi_divisor = np.sqrt

# The relative slack of the q_c monitor: a step that lowers q_c by more
# than ACCEPT_SLACK * max(1, |q_c|) is counted as a monotone break.
ACCEPT_SLACK = 1e-13
LAMBDA_TOL = 1e-8


class FlowDivergenceError(RuntimeError):
    """Non-finite values appeared during integration (step too large)."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite configuration at iteration {iteration}")
        self.iteration = iteration


def _real(value) -> bool:
    """Whether value is a real number, not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _positive_finite(name: str, value) -> float:
    """value as a float; ValueError unless it is :func:`_real` and 0 < value < inf."""
    if not (_real(value) and 0 < value < float("inf")):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def _integer_at_least(name: str, value, least: int) -> int:
    """value as an int; ValueError unless it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _normalization(value) -> str:
    """value as a str; ValueError unless it is a string naming 'psi' or 'none'."""
    if not (isinstance(value, str) and value in ("psi", "none")):
        raise ValueError("normalization must be 'psi' or 'none'")
    return str(value)


def _set_fields(settings, **values) -> None:
    """Set the fields of the frozen dataclass ``settings`` to their checked ``values``."""
    for name, value in values.items():
        object.__setattr__(settings, name, value)


@dataclass(frozen=True)
class FlowSettings:
    """Parameters of the discrete flow, checked in order and stored as Python floats and ints."""

    step: float = 0.05
    max_iters: int = 10 ** 5
    tol: float = 1e-10
    normalization: str = "psi"

    def __post_init__(self):
        _set_fields(self, step=_positive_finite("step", self.step),
                    max_iters=_integer_at_least("max_iters", self.max_iters, 1),
                    tol=_positive_finite("tol", self.tol),
                    normalization=_normalization(self.normalization))


@dataclass(frozen=True)
class SingularityClass:
    """Outcome of classifying a configuration on N."""

    tag: str  # optimal_positive | optimal_negative | level0_singular | nonsingular
    lam: float
    residual: float


@_overflow_raised
def singularity_residual(kind: str, variant: str, p) -> tuple[float, float]:
    """Residual and radial multiplier of the fixed-point equation at p on N.

    Returns ``(residual, lam)`` with ``lam = <tau(X_p), p>`` and
    ``residual = |tau(X_p) - lam p|``.  The residual vanishes exactly at
    the singularities of the quotient field.  X is evaluated at p's
    centered rows and both come from the flow kernel's own arithmetic,
    so at a flow's final p they are its ``residual`` and ``lam`` to the bit.
    ``elements._check`` refuses a non-finite coordinate; an overflow raises.

    Precondition: p is on N, as ``pi`` returns it.  p is measured as
    given, and both values scale as |p|^2, so off N they depend on the
    scale: at 1e-170 times the reference tetrahedron the field's squares
    underflow and both read 0.0.
    """
    P = np.ascontiguousarray(elements._check(kind, variant, p).T[None])
    with np.errstate(divide="ignore", invalid="ignore"):  # q_c of coincident vertices
        r, lam = _push(P, _measure(kind, variant, P).X)
    return float(np.sqrt(np.vecdot(r, r))[0]), float(lam[0])


def classify(kind: str, variant: str, p, tol: float = FlowSettings.tol) -> SingularityClass:
    """Classify a configuration on N by its fixed-point residual and lambda.

    ``optimal_positive`` / ``optimal_negative`` require the residual
    below ``tol`` and ``|lam|`` above ``LAMBDA_TOL``; a small residual
    with small ``|lam|`` is ``level0_singular``.  Collinear
    configurations are never classified optimal.  ``tol`` must be
    positive and finite, as in :class:`FlowSettings`: an infinite tol
    would call any start a fixed point.  p raises as in :func:`singularity_residual`.

    Precondition: p is on N, as ``pi`` returns it; the tolerances are
    absolute.  Off N the tag depends on the scale: the reference
    tetrahedron is ``nonsingular`` as given and ``level0_singular`` at
    1e-170 times it.
    """
    _positive_finite("tol", tol)
    residual, lam = singularity_residual(kind, variant, p)
    return SingularityClass(_tag(p, residual, lam, tol), lam, residual)


def _tag(p, residual: float, lam: float, tol: float) -> str:
    """The :func:`classify` tag of p from its residual and lambda, as the flow ends with them."""
    if residual >= tol:
        return "nonsingular"
    if abs(lam) < LAMBDA_TOL or is_collinear(p):
        return "level0_singular"
    return "optimal_positive" if lam > 0 else "optimal_negative"


@dataclass
class Trajectory:
    """Recorded discrete flow: per-iteration rows plus terminal summary."""

    kind: str
    variant: str
    points: list = dataclass_field(default_factory=list)  # (iter, p, f, residual, lam)
    converged: bool = False
    iterations: int = 0
    monotone_breaks: int = 0

    @property
    def p_final(self) -> np.ndarray:
        return self.points[-1][1]

    @property
    def residual_final(self) -> float:
        return self.points[-1][3]

    @property
    def lam_final(self) -> float:
        return self.points[-1][4]


def _workspace(kind, variant, B, n):
    """The buffers and plans of :func:`_flow` for B running configurations of n vertices.

    In order: P (B, 3, n) and its flat rows p (B, 3n); the measure plans
    of the state and of the candidate step on P, whose buffers share all
    but q_c, and their two q_c (plans and q_c swap roles each step); the
    shared X and its root |X| (the measure's ``norms[1]``); the push plan
    of X at P, whose r (B, 3n) is stacked with the step w in
    rw (2, B, 3n); w; dots [<r, r>, <w, w>] (2, B) and their roots
    [|r|, |w|] (2, B); the residual |r| and the step's norm |w| (B,),
    with the norm's column view; psi's divisor (B,) with its column
    view; and the bool (B,) results of the loop's two tests, |r| < tol
    and q_c not falling.
    """
    P, rw, roots = np.empty((B, 3, n)), np.empty((2, B, 3 * n)), np.empty((2, B))
    divisor, column = np.empty(B), _column(B)
    state = _measure_buffers(B, n)
    candidate = state._replace(q=np.empty(B))
    return (P, P.reshape(B, 3 * n), _measure_plan(kind, variant, P, state),
            _measure_plan(kind, variant, P, candidate), state.q, candidate.q, state.X,
            state.norms[1], _push_plan(P, state.X, _push_buffers(B, n)._replace(r=rw[0])), rw,
            rw[1], np.empty((2, B)), roots, roots[0], roots[1], roots[1].reshape(column),
            divisor, divisor.reshape(column), np.empty(B, dtype=bool), np.empty(B, dtype=bool))


def _flow(kind, variant, P0, settings, record=None):
    """The flow kernel: run each configuration of P0 (B, n, 3) on N to its end.

    ``record(it, P, F, residual, lam)`` is called once per iteration with
    the still running rows, P as component-major rows (B, 3, n), and F,
    their pinned f, formed for it alone; the arrays are workspace views,
    valid only during the call.  Returns the dict of :func:`integrate_batch`.
    """
    B, n, _ = P0.shape
    (P, p, measure, measure_candidate, Q, Qn, X, x_norm, push, rw, w, dots, roots, residual,
     norm, norm_column, divisor, divisor_column, converged,
     monotone) = _workspace(kind, variant, B, n)
    P[...] = P0.swapaxes(1, 2)
    measure()  # the start's X, q_c in Q and |X|, psi's divisor's source
    bound = 3.0 * float(x_norm.max())
    if settings.step * bound >= 2.0:
        warnings.warn(
            f"step {settings.step} times field scale estimate {bound:.3g} "
            "exceeds 2; the iteration may overshoot", stacklevel=3)
    out = dict(p=np.empty((B, n, 3)), residual=np.empty(B), lam=np.empty(B),
               iterations=np.empty(B, dtype=int), converged=np.zeros(B, dtype=bool),
               halvings=0, monotone_breaks=0)
    rows = np.arange(B)  # the output row of each running configuration
    # 0-d operands: numpy converts a Python float operand on every call
    step, tol, last = np.array(settings.step), np.array(settings.tol), settings.max_iters
    psi, psi_divisor = settings.normalization == "psi", _psi_divisor
    # The loop's calls, bound once, each with its out by position (the last
    # operand): at B = 1 a numpy call costs about as much as its arithmetic,
    # and a global lookup or an out= keyword adds to that.
    add, divide, multiply, sqrt, vecdot = np.add, np.divide, np.multiply, np.sqrt, np.vecdot
    less, greater_equal, count_nonzero = np.less, np.greater_equal, np.count_nonzero
    # A step whose norm is zero, overflows or is not finite gives a NaN q_c,
    # which the monitor catches; numpy's warnings about it are muted.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(last + 1):
            r, lam = push()
            # The step is formed before the rows that stop are known, so that
            # one vecdot forms <r, r> and <w, w>, and one sqrt their roots
            # |r| and |w|; a stopping row's step is dropped (X = 0 gives
            # r = 0, which stops).
            if psi:
                # push_tangent is linear and psi(X) = X / sqrt|X|, so the step
                # push_tangent(P, psi(X)) is r / sqrt|X|.
                psi_divisor(x_norm, out=divisor)
                divide(r, divisor_column, w)
                multiply(step, w, w)
            else:
                multiply(step, r, w)
            add(p, w, w)  # pinned already
            vecdot(rw, rw, dots)
            sqrt(dots, roots)
            if record is not None:
                record(it, P, vecdot(X.reshape(p.shape), p), residual, lam)
            if count_nonzero(less(residual, tol, converged)) or it == last:
                stop = converged | (it == last)
                out["p"][rows[stop]] = P[stop].swapaxes(1, 2)
                for key, value in zip(("residual", "lam", "converged"),
                                      (residual, lam, converged)):
                    out[key][rows[stop]] = value[stop]
                out["iterations"][rows[stop]] = it
                if count_nonzero(stop) == len(stop):
                    break
                # The running rows move to a workspace of their size, with
                # q_c, w and |w|: the normalized step and its measure write
                # P, X and |X| before they are read.
                keep, running = ~stop, (Q, w, norm)
                rows = rows[keep]
                (P, p, measure, measure_candidate, Q, Qn, X, x_norm, push, rw, w, dots, roots,
                 residual, norm, norm_column, divisor, divisor_column, converged,
                 monotone) = _workspace(kind, variant, len(rows), n)
                for a, b in zip(running, (Q, w, norm)):
                    np.compress(keep, a, axis=0, out=b)
            divide(w, norm_column, p)
            measure_candidate()
            # One test catches a q_c drop and the NaN q_c of a bad norm.
            if count_nonzero(greater_equal(Qn, Q, monotone)) < len(Q):
                if count_nonzero(np.isnan(Qn)):
                    # A zero, overflowing or non-finite norm: sigma normalizes
                    # every step at the power of two above its largest entry
                    # (the other rows keep their bits), or raises.
                    try:
                        P[...] = sigma(w.reshape(P.shape))
                    except DegenerateConfigurationError as exc:
                        raise FlowDivergenceError(it) from exc
                    measure_candidate()
                out["monotone_breaks"] += int(count_nonzero(
                    Q - Qn > ACCEPT_SLACK * np.maximum(1.0, np.abs(Q))))
            measure, measure_candidate, Q, Qn = measure_candidate, measure, Qn, Q
    return out


def integrate(kind: str, variant: str, p0,
              settings: FlowSettings = FlowSettings()) -> Trajectory:
    """Run the discrete ascent flow from pi(p0) until the residual drops below tol.

    A batch of one through the flow kernel, recording one row per
    iteration: (iteration, p on N, f value, residual, lam).  Terminates
    at convergence or after ``settings.max_iters`` steps; raises
    :class:`FlowDivergenceError` when a step overflows.  A p0 of another
    shape than the kind's (n, 3) raises ValueError before ``pi`` runs.
    """
    traj = Trajectory(kind=kind, variant=variant)
    out = _flow(kind, variant, pi(elements._check(kind, variant, p0))[None], settings,
                lambda it, P, F, res, lam: traj.points.append(
                    (it, P[0].T.copy(), float(F[0]), float(res[0]), float(lam[0]))))
    traj.iterations, traj.converged = int(out["iterations"][0]), bool(out["converged"][0])
    traj.monotone_breaks = out["monotone_breaks"]
    return traj


def integrate_batch(kind: str, variant: str, P0,
                    settings: FlowSettings = FlowSettings()):
    """Run many independent trajectories of the same kind at once.

    The kernel of :func:`integrate` without the per-iteration record.
    Returns a dict of terminal arrays: ``p`` (B, n, 3), ``residual``,
    ``lam``, ``iterations`` (B,), ``converged`` (B,) bool (not f, which
    depends on the gauge), plus the totals ``monotone_breaks`` and
    ``halvings``, always 0, read only by the benchmark until ROADMAP item 1 Part A.
    A P0 other than a non-empty batch of the kind's (n, 3) starts raises ValueError.
    """
    return _flow(kind, variant, pi(elements._check_batch(kind, variant, P0, "P0")), settings)


@_overflow_raised
def shape_metrics(kind: str, p) -> dict:
    """Edge-length statistics, face planarity defect, and orientation sign.

    ``edge_length_spread`` is relative: (max - min) / max.  The
    planarity defect of a quadrilateral face is the distance of the
    fourth vertex from the plane of the first three, divided by the mean
    edge length of that face; the maximum over faces is reported (0 for
    kinds with only triangular faces).

    Every quantity follows the package's one scaling rule
    (``sphere._exponent``): each edge length is taken at its edge vector
    divided by a power of two and scaled back, the planarity defect at p
    so divided, and the orientation, the sign of the volume, at the
    divided p times 2^``_VOLUME_EXPONENT``, where the volume is as far
    from underflow as its arithmetic is from overflow.  So the lengths
    scale exactly with p and the rest does not depend on the scale, and
    the orientation reads 0 only where |volume| / max|p|^3 is below
    about 2^-2000: a far vertex at 1e200 beside unit edges keeps the
    sign of its volume.  An edge length that is not a float raises as an
    overflow does.
    """
    p = elements._check(kind, elements.GRADIENT, p)
    lengths = _edge_lengths(kind, p[None])
    p = np.ldexp(p, -_exponent(p))
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
    vol = elements.mean_volume(kind, np.ldexp(p, _VOLUME_EXPONENT))
    return {
        "edge_length_min": float(lengths.min()),
        "edge_length_max": float(lengths.max()),
        "edge_length_spread": float(_spread(lengths)[0]),
        "face_planarity_max_deviation": float(planarity),
        "orientation_sign": int(np.sign(vol)),
    }


# shape_metrics' orientation is the sign of the volume at p scaled to a
# max|entry| in [2^329, 2^330): a product of three centered coordinates is
# below 2^993 there, and the volume's sums of them stay below 2^1010.
_VOLUME_EXPONENT = 330

# Per kind: the 0-based end vertices of the canonical edges, as index arrays.
_EDGE_ENDS = {kind: tuple(np.array(edges).T - 1) for kind, edges in elements.EDGES.items()}


def _edge_lengths(kind, P) -> np.ndarray:
    """The canonical edge lengths of each configuration of P (R, n, 3), shape (R, E).

    Each edge vector d is divided by the power of two 2^e above max|d|
    (``sphere._exponent``, the package's one scaling rule, with d as a
    configuration of one vertex), dotted with itself as ``np.linalg.norm``
    does it (a vector-vector matmul is a dot), and its root multiplied by
    2^e.  So a length has the bits of ``np.linalg.norm(p[a] - p[b])``
    wherever that forms no square beyond the float range, and no square
    underflows or overflows at any scale or spread of scales.
    """
    a, b = _EDGE_ENDS[kind]
    D = (P[:, a] - P[:, b])[..., None, :]
    e = _exponent(D)
    D = np.ldexp(D, -e)
    return np.ldexp(np.sqrt((D @ D.swapaxes(-1, -2))[..., 0, 0]), e[..., 0, 0])


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
