"""Tests for singularity classification and the discrete regularizing flow."""

import dataclasses
import inspect
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import polyflow as pf
from polyflow import flow
from polyflow.elements import _measure, _measure_buffers, _measure_plan
from polyflow.flow import ACCEPT_SLACK, _edge_lengths
from polyflow.sphere import _push, _push_buffers, _push_plan


ALL_PAIRS = [(kind, variant) for kind in pf.KINDS
             for variant in pf.VARIANTS_BY_KIND[kind]]
# Every (kind, variant) pair whose field is a gradient: all but prism y.
GRADIENT_PAIRS = [(kind, pf.GRADIENT) for kind in pf.KINDS] + [
    ("hexahedron", pf.Y_VARIANT)]


def _centered_quality(kind, variant, p):
    """Oracle for q_c = <X, c> / |c|^3, c = p minus its centroid."""
    c = p - p.mean(axis=0)
    return float(np.vdot(pf.field(kind, variant, p), c)) / np.linalg.norm(c) ** 3


def _measured(kind, variant, P):
    """(C, X, q_c, <X, c>) of ``elements._measure`` on a batch P (B, n, 3) on N, plus f = <X, p>."""
    R = np.ascontiguousarray(P.swapaxes(1, 2))
    m = _measure(kind, variant, R)
    return m.C, m.X, m.q, m.xc, np.vecdot(m.X.reshape(len(R), -1), R.reshape(len(R), -1))


def _zero_root(x_norm, out):
    """A psi divisor of 0 in place of ``flow._psi_divisor``'s sqrt|X|, written into out."""
    out[...] = 0.0
    return out


def _prism(a: float, h: float) -> np.ndarray:
    """Equilateral-triangle prism, side a, height h, canonical numbering."""
    s = a / 2.0
    base = np.array([[0.0, 0.0, 0.0], [a, 0.0, 0.0],
                     [s, s * np.sqrt(3.0), 0.0]])
    return np.vstack([base, base + [0.0, 0.0, h]])


class TestSingularityResidual:
    def test_reference_tetrahedron(self):
        p = pf.pi(pf.reference_optimal("tetrahedron"))
        res, lam = pf.singularity_residual("tetrahedron", pf.GRADIENT, p)
        assert res < 1e-10
        assert lam == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_reference_pyramid(self):
        # apex height sqrt(5) over a 2 x 2 base
        p = pf.reference_optimal("pyramid")
        base = p[:4]
        assert np.allclose(base[:, 2], base[0, 2])
        assert p[4, 2] - base[0, 2] == pytest.approx(np.sqrt(5.0))
        res, lam = pf.singularity_residual("pyramid", pf.GRADIENT, pf.pi(p))
        assert res < 1e-10
        assert lam > 0

    def test_reference_octahedron(self):
        res, lam = pf.singularity_residual(
            "octahedron", pf.GRADIENT, pf.pi(pf.reference_optimal("octahedron")))
        assert res < 1e-10
        assert lam > 0

    def test_cube_under_hexahedron_y(self):
        res, lam = pf.singularity_residual(
            "hexahedron", pf.Y_VARIANT, pf.pi(pf.reference_optimal("hexahedron")))
        assert res < 1e-10
        assert lam > 0

    def test_prism_gradient_height(self):
        # the gradient field pins height / side = sqrt(2/3)
        p = _prism(2.0, 2.0 * np.sqrt(2.0 / 3.0))
        res, lam = pf.singularity_residual("prism", pf.GRADIENT, pf.pi(p))
        assert res < 1e-10
        assert lam == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)

    def test_prism_y_height(self):
        # the y field pins a strictly lower height / side = 1/sqrt(2)
        p = _prism(2.0, 2.0 / np.sqrt(2.0))
        res, lam = pf.singularity_residual("prism", pf.Y_VARIANT, pf.pi(p))
        assert res < 1e-10
        assert lam > 0

    def test_prism_fields_disagree_on_height(self):
        # neither field is stationary at the other's preferred height
        grad_shape = pf.pi(_prism(2.0, 2.0 * np.sqrt(2.0 / 3.0)))
        y_shape = pf.pi(_prism(2.0, 2.0 / np.sqrt(2.0)))
        assert pf.singularity_residual("prism", pf.Y_VARIANT, grad_shape)[0] > 0.1
        assert pf.singularity_residual("prism", pf.GRADIENT, y_shape)[0] > 0.1

    def test_generic_configuration_not_singular(self, rng):
        p = pf.pi(rng.normal(size=(4, 3)))
        res, _ = pf.singularity_residual("tetrahedron", pf.GRADIENT, p)
        assert res > 1e-4

    def test_coincident_vertices_are_zero_without_warning(self):
        # the field is measured with q_c, which is 0/0 here; numpy stays quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pf.singularity_residual("tetrahedron", pf.GRADIENT,
                                           np.ones((4, 3))) == (0.0, 0.0)


class TestClassify:
    def test_reference_positive(self):
        cls = pf.classify("tetrahedron", pf.GRADIENT,
                          pf.pi(pf.reference_optimal("tetrahedron")))
        assert cls.tag == "optimal_positive"
        assert cls.lam > 0

    def test_mirrored_negative(self):
        p = pf.reference_optimal("tetrahedron") * np.array([1.0, 1.0, -1.0])
        cls = pf.classify("tetrahedron", pf.GRADIENT, pf.pi(p))
        assert cls.tag == "optimal_negative"
        assert cls.lam < 0

    def test_level0_pyramid(self):
        cls = pf.classify("pyramid", pf.GRADIENT, pf.pi(pf.level0_pyramid()))
        assert cls.tag == "level0_singular"
        assert abs(cls.lam) < 1e-8

    def test_collinear_never_optimal(self):
        cls = pf.classify("tetrahedron", pf.GRADIENT,
                          pf.collinear_tetrahedron())
        assert cls.tag == "level0_singular"

    def test_generic_nonsingular(self, rng):
        cls = pf.classify("tetrahedron", pf.GRADIENT,
                          pf.pi(rng.normal(size=(4, 3))))
        assert cls.tag == "nonsingular"

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            pf.classify("tetrahedron", pf.GRADIENT,
                        pf.pi(pf.reference_optimal("tetrahedron")), tol=tol)

    @pytest.mark.parametrize("measure", [pf.classify, pf.singularity_residual])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_configuration_is_degenerate(self, measure, bad):
        # as pi does: no residual of NaN and no SVD of a non-finite
        # configuration is returned or attempted
        p = pf.pi(pf.reference_optimal("tetrahedron"))
        p[1, 2] = bad
        with pytest.raises(pf.DegenerateConfigurationError, match="non-finite"):
            measure("tetrahedron", pf.GRADIENT, p)


class TestFlowSettings:
    def test_defaults(self):
        s = pf.FlowSettings()
        assert s.step == 0.05
        assert s.max_iters == 10 ** 5
        assert s.tol == 1e-10
        assert s.normalization == "psi"

    def test_validation(self):
        with pytest.raises(ValueError):
            pf.FlowSettings(step=0.0)
        with pytest.raises(ValueError):
            pf.FlowSettings(max_iters=0)
        with pytest.raises(ValueError):
            pf.FlowSettings(tol=-1.0)
        # an infinite tol would stop every flow at once as converged, and a
        # max_iters that is not an integer would fail inside the flow
        for bad in (dict(tol=float("inf")), dict(tol=float("nan")),
                    dict(max_iters=2.5), dict(max_iters=True), dict(max_iters="3")):
            with pytest.raises(ValueError, match=next(iter(bad))):
                pf.FlowSettings(**bad)
        assert pf.FlowSettings(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("value", ["sqrt", np.array(["psi", "none"]), np.array("psi"),
                                       None, 1, b"psi"],
                             ids=["sqrt", "array", "0-d", "None", "int", "bytes"])
    def test_normalization_message(self, value):
        # one message for any value that is no 'psi' or 'none' string,
        # an array included: never numpy's truth-value error
        with pytest.raises(ValueError, match=r"^normalization must be 'psi' or 'none'$"):
            pf.FlowSettings(normalization=value)

    def test_normalization_is_stored_as_a_str(self):
        s = pf.FlowSettings(normalization=np.str_("none"))
        assert s.normalization == "none" and type(s.normalization) is str

    def test_classify_takes_its_default_tol_from_the_flow(self):
        assert inspect.signature(pf.classify).parameters["tol"].default == pf.FlowSettings.tol

    def test_trajectory_reports_no_halvings(self):
        # every step is taken at full length; only integrate_batch keeps the 0 key
        assert "halvings" not in {f.name for f in dataclasses.fields(pf.Trajectory)}
        t = pf.integrate("tetrahedron", pf.GRADIENT, pf.random_configuration("tetrahedron", 0),
                         pf.FlowSettings(max_iters=3))
        assert not hasattr(t, "halvings")


_TET = pf.reference_optimal("tetrahedron")

# Each number rule as a function of the value it checks: its message, and a
# real number that is no Python float, which it takes.
_NUMBER_RULES = {
    "step": (lambda v: pf.FlowSettings(step=v), "step must be positive and finite",
             np.float32(0.5)),
    "tol": (lambda v: pf.FlowSettings(tol=v), "tol must be positive and finite",
            np.int64(1)),
    "classify": (lambda v: pf.classify("tetrahedron", pf.GRADIENT, _TET, tol=v),
                 "tol must be positive and finite", np.float32(1e-3)),
    "quality_tol": (lambda v: pf.SmoothSettings(quality_tol=v),
                    "quality_tol must be a number", np.int64(-1)),
}


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", "x", None, 1j, [0.5]],
                         ids=["True", "False", "np.True_", "one", "x", "None", "1j", "list"])
@pytest.mark.parametrize("rule", _NUMBER_RULES.values(), ids=_NUMBER_RULES)
def test_number_rules_take_a_real_number_not_a_bool(rule, value):
    # as the integer rule refuses a bool: each refusal is the rule's one
    # ValueError, never a TypeError from a comparison
    call, message, good = rule
    call(good)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {re.escape(str(value))}$"):
        call(value)


def test_a_fraction_step_runs_as_its_float():
    # the settings store a real step as a float, so a Fraction runs the
    # flow and the smoother to the same bits as the float it equals
    assert pf.FlowSettings(step=Fraction(1, 20)).step == 0.05
    assert type(pf.SmoothSettings(step=Fraction(1, 20)).step) is float
    batch = np.stack([pf.pi(pf.random_configuration("tetrahedron", s)) for s in range(4)])
    runs = [pf.integrate_batch("tetrahedron", pf.GRADIENT, batch,
                               pf.FlowSettings(step=step, max_iters=50))
            for step in (Fraction(1, 20), 0.05)]
    for key in ("p", "residual", "iterations", "converged"):
        assert runs[0][key].tobytes() == runs[1][key].tobytes(), key
    m = pf.Mesh(vertices=pf.reference_optimal("hexahedron")
                + np.random.default_rng(2).uniform(-0.1, 0.1, (8, 3)),
                elements=[("hexahedron", range(8))], fixed=[0])
    smoothed = [pf.smooth(m, pf.SmoothSettings(step=step, max_iters=20, quality_tol=-1))
                for step in (Fraction(1, 20), 0.05)]
    assert smoothed[0][0].vertices.tobytes() == smoothed[1][0].vertices.tobytes()
    assert smoothed[0][1] == smoothed[1][1]


class TestIntegrate:
    def test_fixed_point_stops_immediately(self):
        p = pf.pi(pf.reference_optimal("tetrahedron"))
        t = pf.integrate("tetrahedron", pf.GRADIENT, p, pf.FlowSettings())
        assert t.converged
        assert t.iterations == 0
        assert t.residual_final < 1e-10

    def test_random_tetrahedron_regularizes(self):
        p = pf.pi(pf.random_configuration("tetrahedron", 42))
        assert pf.f_value("tetrahedron", pf.GRADIENT, p) > 0
        t = pf.integrate("tetrahedron", pf.GRADIENT, p, pf.FlowSettings())
        assert t.converged
        cls = pf.classify("tetrahedron", pf.GRADIENT, t.p_final)
        assert cls.tag == "optimal_positive"
        m = pf.shape_metrics("tetrahedron", t.p_final)
        assert m["edge_length_spread"] < 1e-4

    def test_negative_seed_ascends_through_level_zero(self):
        # the flow ascends f: a negatively oriented seed crosses the
        # level-0 set and still regularizes, ending positively oriented
        for seed in range(20):
            p = pf.pi(pf.random_configuration("tetrahedron", seed))
            if pf.f_value("tetrahedron", pf.GRADIENT, p) < 0:
                break
        else:
            pytest.fail("no negative seed found")
        t = pf.integrate("tetrahedron", pf.GRADIENT, p, pf.FlowSettings())
        assert t.converged
        assert pf.classify("tetrahedron", pf.GRADIENT,
                           t.p_final).tag == "optimal_positive"
        assert pf.shape_metrics("tetrahedron", t.p_final)[
            "edge_length_spread"] < 1e-4

    def test_hexahedron_y_reaches_cube(self):
        for seed in range(40):
            p = pf.pi(pf.random_configuration("hexahedron", seed,
                                              pf.Y_VARIANT))
            if pf.f_value("hexahedron", pf.Y_VARIANT, p) > 0:
                break
        else:
            pytest.fail("no positive seed found")
        t = pf.integrate("hexahedron", pf.Y_VARIANT, p, pf.FlowSettings())
        assert t.converged
        m = pf.shape_metrics("hexahedron", t.p_final)
        assert m["edge_length_spread"] < 1e-4
        assert m["face_planarity_max_deviation"] < 1e-6

    def test_orientation_barrier(self):
        # a positively oriented seed never crosses to negative f
        for seed in range(10):
            p = pf.pi(pf.random_configuration("tetrahedron", seed))
            if pf.f_value("tetrahedron", pf.GRADIENT, p) <= 0:
                continue
            t = pf.integrate("tetrahedron", pf.GRADIENT, p, pf.FlowSettings())
            assert min(row[2] for row in t.points) > 0.0

    @pytest.mark.parametrize("kind,variant", GRADIENT_PAIRS)
    def test_gradient_flows_never_lower_centered_quality(self, kind, variant):
        # q_c = <X, c> / |c|^3 is the flow's Lyapunov function: along a
        # gradient field the guard never fires and q_c never falls
        for seed in range(10):
            p = pf.random_configuration(kind, seed, variant)
            t = pf.integrate(kind, variant, p, pf.FlowSettings())
            assert t.monotone_breaks == 0, seed
            q = [_centered_quality(kind, variant, row[1]) for row in t.points]
            assert all(b >= a - ACCEPT_SLACK * max(1.0, abs(a))
                       for a, b in zip(q, q[1:])), seed

    def test_monotone_break_bookkeeping(self):
        # prism y is not a gradient: every step taken although q_c fell by
        # more than the slack is counted, and only those.  The count uses
        # the kernel's own q_c arithmetic, so that a drop within rounding
        # of the slack is judged the same way; the oracle pins its value.
        kind, variant = "prism", pf.Y_VARIANT
        total = 0
        for seed in range(10):
            t = pf.integrate(kind, variant,
                             pf.random_configuration(kind, seed, variant))
            P = np.stack([row[1] for row in t.points])
            q = _measured(kind, variant, P)[2]
            oracle = [_centered_quality(kind, variant, p) for p in P]
            assert np.abs(q - oracle).max() < 1e-12
            falls = q[:-1] - q[1:] > ACCEPT_SLACK * np.maximum(1.0, np.abs(q[:-1]))
            assert t.monotone_breaks == np.count_nonzero(falls), seed
            assert type(t.monotone_breaks) is int
            total += t.monotone_breaks
        assert total > 0

    @pytest.mark.parametrize("normalization", ["psi", "none"])
    @pytest.mark.parametrize("kind,variant", GRADIENT_PAIRS)
    def test_matches_sphere_operation_reference(self, kind, variant, normalization):
        # the kernel's step is pi(p + step * push_tangent(p, psi(X))),
        # written here with the sphere operations themselves
        settings = pf.FlowSettings(max_iters=30, normalization=normalization)
        p = pf.pi(pf.random_configuration(kind, 4, variant))
        t = pf.integrate(kind, variant, p, settings)
        assert len(t.points) == 31
        for it, q, f, residual, lam in t.points:
            assert np.abs(q - p).max() < 1e-12, it
            assert f == pytest.approx(pf.f_value(kind, variant, p), abs=1e-12)
            assert (residual, lam) == pytest.approx(
                pf.singularity_residual(kind, variant, p), abs=1e-12)
            X = pf.field(kind, variant, p)
            w = pf.psi(X) if normalization == "psi" else X
            p = pf.pi(p + settings.step * pf.push_tangent(p, w))

    @pytest.mark.filterwarnings("ignore:.*overshoot")
    @pytest.mark.parametrize("normalization", ["psi", "none"])
    @pytest.mark.parametrize("step", [1e200, 1.7e308])
    @pytest.mark.parametrize("kind,variant", [("tetrahedron", pf.GRADIENT),
                                              ("hexahedron", pf.GRADIENT),
                                              ("prism", pf.Y_VARIANT)])
    def test_overflowing_norm_matches_sphere_operation_reference(
            self, kind, variant, step, normalization):
        # |P + s V|^2 overflows although every entry is finite: the monitor
        # sees the NaN q_c of that norm and sigma normalizes the step anew;
        # it is taken at full length although q_c falls.
        settings = pf.FlowSettings(step=step, max_iters=5, normalization=normalization)
        p = pf.pi(pf.random_configuration(kind, 2, variant))
        t = pf.integrate(kind, variant, p, settings)
        assert len(t.points) == 6
        assert t.monotone_breaks > 0
        for it, q, *_ in t.points:
            assert np.abs(q - p).max() < 1e-13, it
            X = pf.field(kind, variant, p)
            w = pf.psi(X) if normalization == "psi" else X
            p = pf.pi(p + step * pf.push_tangent(p, w))

    def test_each_step_is_measured_once(self, monkeypatch):
        # the flow takes every candidate step: one measure of the start and
        # one per iteration, even on prism y, whose steps lower q_c; the
        # measures are the runs of the plans its workspace builds
        calls = []

        def counted_plan(*args):
            run = _measure_plan(*args)

            def counted():
                calls.append(1)
                return run()

            return counted

        monkeypatch.setattr(flow, "_measure_plan", counted_plan)
        breaks = 0
        for seed in range(5):
            calls.clear()
            t = pf.integrate("prism", pf.Y_VARIANT,
                             pf.random_configuration("prism", seed, pf.Y_VARIANT))
            assert len(calls) == t.iterations + 1, seed
            breaks += t.monotone_breaks
        assert breaks > 0

    def test_non_finite_step_diverges(self, monkeypatch):
        # a zero psi divisor makes P + s V non-finite: sigma refuses it,
        # and the flow reports the iteration
        monkeypatch.setattr(flow, "_psi_divisor", _zero_root)
        p = pf.pi(pf.random_configuration("tetrahedron", 2))
        with pytest.raises(pf.FlowDivergenceError) as info:
            pf.integrate("tetrahedron", pf.GRADIENT, p)
        assert info.value.iteration == 0
        assert isinstance(info.value.__cause__, pf.DegenerateConfigurationError)

    def test_representative_invariance(self, rng):
        # integrating any representative of the class gives the same path
        p = rng.normal(size=(4, 3))
        t1 = pf.integrate("tetrahedron", pf.GRADIENT, p,
                          pf.FlowSettings(max_iters=50))
        t2 = pf.integrate("tetrahedron", pf.GRADIENT, 3.0 * p + 1.5,
                          pf.FlowSettings(max_iters=50))
        assert t1.iterations == t2.iterations
        for r1, r2 in zip(t1.points, t2.points):
            assert np.allclose(r1[1], r2[1], atol=1e-12)

    def test_normalization_none_same_endpoint(self):
        # psi only rescales the step; endpoints agree up to a rotation
        p = pf.pi(pf.random_configuration("tetrahedron", 3))
        a = pf.integrate("tetrahedron", pf.GRADIENT, p,
                         pf.FlowSettings(step=0.02)).p_final
        b = pf.integrate("tetrahedron", pf.GRADIENT, p,
                         pf.FlowSettings(step=0.02,
                                         normalization="none")).p_final
        u, _, vt = np.linalg.svd(b.T @ a)
        assert np.abs(b @ (u @ vt) - a).max() < 1e-6

    def test_step_scale_warning(self):
        p = pf.pi(pf.random_configuration("tetrahedron", 5))
        with pytest.warns(UserWarning, match="overshoot"):
            pf.integrate("tetrahedron", pf.GRADIENT, p,
                         pf.FlowSettings(step=5.0, max_iters=3))

    @pytest.mark.parametrize("fill", ["ones", "random"])
    @pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 4, 3)], ids=["empty", "flat", "batch"])
    def test_rejects_a_start_that_is_no_configuration(self, shape, fill):
        # named by its shape before pi runs: pi would index past an empty or
        # flat start, and call a batch of ones coincident
        p0 = np.ones(shape) if fill == "ones" else np.random.default_rng(1).random(shape)
        with pytest.raises(ValueError, match=re.escape(
                f"tetrahedron expects shape (4, 3), got {shape}")):
            pf.integrate("tetrahedron", pf.GRADIENT, p0)

    def test_max_iters_exhaustion(self):
        p = pf.pi(pf.random_configuration("tetrahedron", 7))
        t = pf.integrate("tetrahedron", pf.GRADIENT, p,
                         pf.FlowSettings(max_iters=3))
        assert not t.converged
        assert t.iterations == 3


class TestIntegrateBatch:
    def test_matches_scalar_runs(self):
        # the scalar flow is a batch of one: each row of a batch runs as
        # it runs alone, so the batch's counters are the scalar sums
        seeds = range(11, 19)
        for kind, variant in ALL_PAIRS:
            batch = np.stack([pf.pi(pf.random_configuration(kind, s, variant))
                              for s in seeds])
            out = pf.integrate_batch(kind, variant, batch, pf.FlowSettings())
            breaks = 0
            for i in range(len(seeds)):
                t = pf.integrate(kind, variant, batch[i], pf.FlowSettings())
                assert out["converged"][i] == t.converged
                assert out["iterations"][i] == t.iterations, (kind, variant, i)
                assert np.abs(out["p"][i] - t.p_final).max() < 1e-12
                assert abs(out["residual"][i] - t.residual_final) < 1e-12
                breaks += t.monotone_breaks
            assert (out["halvings"], out["monotone_breaks"]) == (0, breaks), (kind, variant)

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_rows_run_as_alone(self, kind, variant):
        # rows stop at different iterations, and the running rows move to a
        # smaller workspace each time: every row still ends bit for bit as
        # it ends in a batch of one
        P = np.stack([pf.random_configuration(kind, s, variant) for s in range(100)])
        out = pf.integrate_batch(kind, variant, P)
        assert len(set(out["iterations"].tolist())) > 10
        for i in range(len(P)):
            alone = pf.integrate_batch(kind, variant, P[i:i + 1])
            for key in ("p", "residual", "lam", "iterations", "converged"):
                assert out[key][i].tobytes() == alone[key][0].tobytes(), (i, key)

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_rows_evaluate_as_alone(self, kind, variant):
        # the kernel's arithmetic is per row: a row's centered rows, field,
        # q_c, <X, c> and f are bitwise the same in a batch of 100 as in a
        # batch of one
        P = np.stack([pf.pi(pf.random_configuration(kind, s, variant))
                      for s in range(100)])
        batch = _measured(kind, variant, P)
        for i in range(len(P)):
            for a, b in zip(batch, _measured(kind, variant, P[i:i + 1])):
                assert np.array_equal(a[i], b[0]), i

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_classify_reads_the_kernels_residual_and_lambda(self, kind, variant):
        # one rule for lambda and the residual, on the field at the centered
        # rows: classify at the final p repeats the kernel's numbers bit for bit
        P0 = np.stack([pf.random_configuration(kind, s, variant) for s in range(10)])
        out = pf.integrate_batch(kind, variant, P0)
        for i, p in enumerate(out["p"]):
            cls = pf.classify(kind, variant, p)
            assert (cls.residual, cls.lam) == (out["residual"][i], out["lam"][i]), i

    @pytest.mark.parametrize("k", [700, -700])
    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_runs_do_not_depend_on_the_scale(self, kind, variant, k):
        # pi(2^k p) = pi(p) bit for bit, so a batch scaled by a power of two
        # runs as the batch itself does, to the byte
        P0 = np.stack([pf.random_configuration(kind, s, variant) for s in range(10)])
        want = pf.integrate_batch(kind, variant, P0)
        got = pf.integrate_batch(kind, variant, np.ldexp(P0, k))
        for key, value in want.items():
            assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key

    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_final_quality_is_the_mesh_quality(self, kind):
        # the flow's q_c at its final state, over the kind's ceiling, is the
        # quality_report q of a one-element mesh of that shape, bit for bit
        P0 = np.stack([pf.random_configuration(kind, s) for s in range(20)])
        out = pf.integrate_batch(kind, pf.GRADIENT, P0)
        qc = _measure(kind, pf.GRADIENT, np.ascontiguousarray(out["p"].swapaxes(1, 2))).q
        for i, p in enumerate(out["p"]):
            m = pf.Mesh(p, [(kind, tuple(range(len(p))))], [])
            assert qc[i] / (18.0 * pf.Q_MAX[kind]) == pf.quality_report(m).per_element_q[0], i

    @pytest.mark.parametrize("shape", [(4, 3), (0, 4, 3)], ids=["one-config", "empty"])
    def test_rejects_a_start_that_is_no_batch(self, shape):
        # one configuration, or none, is named by its shape before pi runs
        P0 = pf.reference_optimal("tetrahedron") if len(shape) == 2 else np.empty(shape)
        with pytest.raises(ValueError, match=r"non-empty batch of shape \(B, n, 3\), got "
                           + re.escape(str(shape))):
            pf.integrate_batch("tetrahedron", pf.GRADIENT, P0)

    def test_all_converge(self):
        batch = np.stack([pf.pi(pf.random_configuration("octahedron", s))
                          for s in range(8)])
        out = pf.integrate_batch("octahedron", pf.GRADIENT, batch,
                                 pf.FlowSettings())
        assert out["converged"].all()
        assert (out["residual"] < 1e-10).all()


def _unfused_flow(kind, variant, P0, settings=pf.FlowSettings()):
    """Oracle for ``integrate_batch``: the flow step unfused, on fresh arrays.

    Every state and candidate is measured by the allocating ``_measure``
    and pushed by the allocating ``_push``; psi's divisor is
    sqrt(sqrt(<X, X>)), and the residual and the step's norm are square
    roots of their own.  The monitor, the sigma call and the counters
    are the kernel's; rows that stop are dropped by boolean indexing.
    """
    B, n, _ = P0.shape
    P = np.ascontiguousarray(pf.pi(P0).swapaxes(1, 2))
    out = dict(p=np.empty((B, n, 3)), residual=np.empty(B), lam=np.empty(B),
               iterations=np.empty(B, dtype=int), converged=np.zeros(B, dtype=bool),
               halvings=0, monotone_breaks=0)
    rows, last, psi = np.arange(B), settings.max_iters, settings.normalization == "psi"
    state = _measure(kind, variant, P)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(last + 1):
            p = P.reshape(len(rows), 3 * n)
            r, lam = _push(P, state.X)
            v = r / np.sqrt(np.sqrt(state.dots[1, 1]))[:, None] if psi else r
            w = p + settings.step * v
            rw = np.stack([r, w])
            rr, ww = np.vecdot(rw, rw)
            residual = np.sqrt(rr)
            Q, converged = state.q, residual < settings.tol
            stop = converged | (it == last)
            if stop.any():
                for key, value in (("p", P.swapaxes(1, 2)), ("residual", residual),
                                   ("lam", lam), ("converged", converged)):
                    out[key][rows[stop]] = value[stop]
                out["iterations"][rows[stop]] = it
                if stop.all():
                    break
                keep = ~stop
                rows, w, ww, Q = rows[keep], w[keep], ww[keep], Q[keep]
            P = (w / np.sqrt(ww)[:, None]).reshape(len(rows), 3, n)
            candidate = _measure(kind, variant, P)
            if np.count_nonzero(candidate.q >= Q) < len(Q):
                if np.isnan(candidate.q).any():
                    try:
                        P = pf.sigma(w.reshape(P.shape))
                    except pf.DegenerateConfigurationError as exc:
                        raise pf.FlowDivergenceError(it) from exc
                    candidate = _measure(kind, variant, P)
                out["monotone_breaks"] += int(np.count_nonzero(
                    Q - candidate.q > ACCEPT_SLACK * np.maximum(1.0, np.abs(Q))))
            state = candidate
    return out


@pytest.mark.parametrize("kind,variant,normalization", [
    pytest.param(kind, variant, normalization,
                 id=f"{kind}-{variant}" + ("-none" if normalization == "none" else ""))
    for normalization in ("psi", "none") for kind, variant in ALL_PAIRS])
def test_fused_roots_keep_every_bit(kind, variant, normalization):
    # the measure's one sqrt of [<c, c>, <X, X>], psi's divisor as the root
    # of |X|, and one sqrt of [<r, r>, <w, w>] (with |w| carried over when
    # rows stop) end every flow as the unfused step does, bit for bit: in
    # a batch whose rows stop at different iterations, and alone, with
    # psi and without it
    settings = pf.FlowSettings(normalization=normalization)
    P0 = np.stack([pf.random_configuration(kind, s, variant) for s in range(10)])
    runs = [(P0, pf.integrate_batch(kind, variant, P0, settings))]
    assert len(set(runs[0][1]["iterations"].tolist())) > 5
    runs += [(P0[i:i + 1], pf.integrate_batch(kind, variant, P0[i:i + 1], settings))
             for i in range(len(P0))]
    for start, got in runs:
        want = _unfused_flow(kind, variant, start, settings)
        for key in ("p", "residual", "lam", "iterations", "converged"):
            assert got[key].tobytes() == want[key].tobytes(), key
        assert (got["halvings"], got["monotone_breaks"]) == (0, want["monotone_breaks"])


@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_recorded_flow_ends_as_the_batch_does(kind, variant):
    # integrate runs the kernel with a record call on every iteration; its
    # final row is integrate_batch's end of the same start, bit for bit
    for seed in range(3):
        p0 = pf.random_configuration(kind, seed, variant)
        t = pf.integrate(kind, variant, p0)
        out = pf.integrate_batch(kind, variant, p0[None])
        assert len(t.points) == t.iterations + 1 == out["iterations"][0] + 1
        assert t.p_final.tobytes() == out["p"][0].tobytes()
        assert (np.float64(t.residual_final).tobytes(), np.float64(t.lam_final).tobytes()) == (
            out["residual"][0].tobytes(), out["lam"][0].tobytes())
        assert (t.converged, t.monotone_breaks) == (bool(out["converged"][0]),
                                                     out["monotone_breaks"])


def _rows(kind, variant, seeds):
    """The component-major rows (B, 3, n) of the starts of ``seeds`` on N."""
    P = np.stack([pf.pi(pf.random_configuration(kind, s, variant)) for s in seeds])
    return np.ascontiguousarray(P.swapaxes(1, 2))


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
class TestBufferContract:
    """What the flow's workspace relies on in the buffers and plans of _measure and _push."""

    def test_plans_read_their_rows_as_they_are_when_they_run(self, kind, variant, B):
        # the workspace builds its plans once and runs them once per step: a
        # run after P is overwritten in place is the allocating measure and
        # push of the new rows, bit for bit
        P = _rows(kind, variant, range(B))
        n = P.shape[2]
        buffers = _measure_buffers(B, n)
        measure = _measure_plan(kind, variant, P, buffers)
        push = _push_plan(P, buffers.X, _push_buffers(B, n))
        measure()
        push()
        P[...] = _rows(kind, variant, range(B, 2 * B))
        measured, (r, lam) = measure(), push()
        alone = _measure(kind, variant, P.copy())
        assert measured is buffers
        for name in alone._fields:
            assert getattr(measured, name).tobytes() == getattr(alone, name).tobytes(), name
        ra, lama = _push(P.copy(), alone.X)
        assert (r.tobytes(), lam.tobytes()) == (ra.tobytes(), lama.tobytes())

    def test_plans_are_built_once_per_set_of_running_rows(self, kind, variant, B,
                                                          monkeypatch):
        # no view is built per iteration: one workspace at the start, and one
        # more each time some rows stop and others run on (a batch of one
        # builds one), each with two measure plans and one push plan
        built = []

        def counted(name, build):
            def call(*args):
                built.append(name)
                return build(*args)
            return call

        for name in ("_workspace", "_measure_plan", "_push_plan"):
            monkeypatch.setattr(flow, name, counted(name, getattr(flow, name)))
        P0 = np.stack([pf.random_configuration(kind, s, variant) for s in range(B)])
        out = pf.integrate_batch(kind, variant, P0)
        workspaces = len(set(out["iterations"].tolist()))
        assert out["iterations"].min() > 0
        assert built.count("_workspace") == workspaces
        assert built.count("_measure_plan") == 2 * workspaces
        assert built.count("_push_plan") == workspaces

    def test_measure_into_buffers_is_the_allocating_measure(self, kind, variant, B):
        P = _rows(kind, variant, range(B))
        buffers = _measure_buffers(B, P.shape[2])
        into = _measure(kind, variant, P, buffers)
        alone = _measure(kind, variant, P)
        for name in ("C", "X", "q", "xc", "dots", "norms"):
            assert getattr(into, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_norms_are_the_roots_of_the_diagonal(self, kind, variant, B):
        # one sqrt of the strided [<c, c>, <X, X>] rounds as a sqrt of each,
        # and q_c reads |c| from it: q_c = <X, c> / (<c, c> |c|)
        m = _measure(kind, variant, _rows(kind, variant, range(B)))
        assert m.norms.shape == (2, B)
        assert m.norms[0].tobytes() == np.sqrt(m.cc).tobytes()
        assert m.norms[1].tobytes() == np.sqrt(m.dots[1, 1]).tobytes()
        assert m.q.tobytes() == (m.xc / (m.cc * np.sqrt(m.cc))).tobytes()

    def test_the_diagonal_of_dots_is_one_contiguous_block(self, kind, variant, B):
        # dots[i, j] is <s_i, s_j> of the stack s = [c, X], as a (2, 2, B)
        # array reads it, and its diagonal [<c, c>, <X, X>] is one
        # contiguous (2, B) block of dots' memory, whose roots are norms
        P = _rows(kind, variant, range(B))
        buffers = _measure_buffers(B, P.shape[2])
        diagonal = buffers.dots.diagonal().T
        assert diagonal.flags.c_contiguous and np.shares_memory(diagonal, buffers.dots)
        m = _measure(kind, variant, P, buffers)
        s = np.stack([m.C, m.X]).reshape(2, B, -1)
        for i, j in np.ndindex(2, 2):
            assert m.dots[i, j].tobytes() == np.vecdot(s[i], s[j]).tobytes(), (i, j)
        assert (m.cc.tobytes(), m.xc.tobytes()) == (m.dots[0, 0].tobytes(),
                                                    m.dots[1, 0].tobytes())
        assert m.norms.tobytes() == np.sqrt(diagonal).tobytes()

    def test_measure_returns_its_buffers(self, kind, variant, B):
        # callers read the measure by name from the record it returns: the
        # buffers it was given, or fresh ones
        P = _rows(kind, variant, range(B))
        buffers = _measure_buffers(B, P.shape[2])
        assert _measure(kind, variant, P, buffers) is buffers
        fresh = _measure(kind, variant, P)
        assert type(fresh) is type(buffers) and fresh.X.shape == (B, 3, P.shape[2])

    def test_candidate_shares_all_but_q(self, kind, variant, B):
        # the candidate's measure overwrites the state's X, dots and roots,
        # and the state's q_c outlives it
        P, Pn = _rows(kind, variant, range(B)), _rows(kind, variant, range(B, 2 * B))
        state = _measure_buffers(B, P.shape[2])
        q = _measure(kind, variant, P, state).q.tobytes()
        candidate = state._replace(q=np.empty(B))
        measured = _measure(kind, variant, Pn, candidate)
        assert measured.X is state.X and measured.dots is state.dots
        assert measured.norms is state.norms
        assert measured.q is candidate.q
        assert state.q.tobytes() == q
        alone = _measure(kind, variant, Pn)
        for name in ("X", "q", "xc", "norms"):
            assert getattr(measured, name).tobytes() == getattr(alone, name).tobytes(), name
        x = alone.X.reshape(B, -1)
        assert np.array_equal(state.dots[1, 1], np.vecdot(x, x))

    def test_push_writes_r_into_a_given_row(self, kind, variant, B):
        P = _rows(kind, variant, range(B))
        n = P.shape[2]
        X = _measure(kind, variant, P).X
        rw = np.zeros((2, B, 3 * n))
        row = rw[0]
        r, lam = _push(P, X, _push_buffers(B, n)._replace(r=row))
        assert r is row and not rw[1].any()
        ra, lama = _push(P, X)
        assert (rw[0].tobytes(), lam.tobytes()) == (ra.tobytes(), lama.tobytes())


class TestShapeMetrics:
    def test_regular_tetrahedron(self):
        m = pf.shape_metrics("tetrahedron",
                             pf.reference_optimal("tetrahedron"))
        assert m["edge_length_spread"] < 1e-12
        assert m["orientation_sign"] == 1

    def test_reference_pyramid(self):
        # base edge 2, apex edge sqrt(7): an intended, fixed spread
        m = pf.shape_metrics("pyramid", pf.reference_optimal("pyramid"))
        assert m["edge_length_min"] == pytest.approx(2.0)
        assert m["edge_length_max"] == pytest.approx(np.sqrt(7.0))
        assert m["face_planarity_max_deviation"] < 1e-12

    def test_cube(self):
        m = pf.shape_metrics("hexahedron", pf.reference_optimal("hexahedron"))
        assert m["edge_length_spread"] < 1e-12
        assert m["face_planarity_max_deviation"] < 1e-12

    def test_mirrored_sign(self):
        p = pf.reference_optimal("tetrahedron") * np.array([1.0, 1.0, -1.0])
        assert pf.shape_metrics("tetrahedron", p)["orientation_sign"] == -1

    def test_checks_kind_and_shape(self):
        # the same messages as every other entry point
        with pytest.raises(ValueError, match="unknown element kind 'cube'"):
            pf.shape_metrics("cube", pf.reference_optimal("hexahedron"))
        with pytest.raises(ValueError, match=r"expects shape \(4, 3\)"):
            pf.shape_metrics("tetrahedron", pf.reference_optimal("hexahedron"))

    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_edge_lengths_are_norms(self, rng, kind):
        # the batched lengths have the bits of np.linalg.norm, edge by edge
        P = rng.uniform(-1.0, 1.0, (300, pf.VERTEX_COUNT[kind], 3))
        P *= 10.0 ** rng.uniform(-3.0, 3.0, (300, 1, 1))
        loop = [[np.linalg.norm(p[a - 1] - p[b - 1]) for a, b in pf.EDGES[kind]]
                for p in P]
        assert _edge_lengths(kind, P).tobytes() == np.array(loop).tobytes()


def test_trajectory_csv(tmp_path):
    p = pf.pi(pf.random_configuration("tetrahedron", 2))
    t = pf.integrate("tetrahedron", pf.GRADIENT, p,
                     pf.FlowSettings(max_iters=40))
    path = tmp_path / "traj.csv"
    pf.trajectory_to_csv(t, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,f,residual,lambda,edge_spread"
    assert len(lines) == len(t.points) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(t.points[0][2])
    # rewriting produces identical bytes
    path2 = tmp_path / "traj2.csv"
    pf.trajectory_to_csv(t, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("kind", pf.KINDS)
def test_trajectory_csv_edge_spread_matches_shape_metrics(tmp_path, kind):
    # the batched edge spread prints the bytes of shape_metrics, row by row
    t = pf.integrate(kind, pf.GRADIENT, pf.random_configuration(kind, 3),
                     pf.FlowSettings(max_iters=60))
    path = tmp_path / "traj.csv"
    pf.trajectory_to_csv(t, path)
    column = [line.split(",")[4] for line in path.read_text().splitlines()[1:]]
    assert column == [format(pf.shape_metrics(kind, p)["edge_length_spread"], ".17g")
                      for _, p, _, _, _ in t.points]
