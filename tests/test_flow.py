"""Tests for singularity classification and the discrete regularizing flow."""

import warnings

import numpy as np
import pytest

import polyflow as pf
from polyflow import flow
from polyflow.elements import _measure
from polyflow.flow import ACCEPT_SLACK, _edge_lengths


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
    C, X, q, xc = _measure(kind, variant, R)
    return C, X, q, xc, np.vecdot(X.reshape(len(X), -1), R.reshape(len(R), -1))


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

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
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
        with pytest.raises(ValueError):
            pf.FlowSettings(normalization="sqrt")


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
            assert t.halvings == t.monotone_breaks == 0, seed
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
            assert type(t.halvings) is int and type(t.monotone_breaks) is int
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
        # sees the NaN q_c of that norm and sigma's rescue normalizes the
        # step, which is taken at full length although q_c falls.
        settings = pf.FlowSettings(step=step, max_iters=5, normalization=normalization)
        p = pf.pi(pf.random_configuration(kind, 2, variant))
        t = pf.integrate(kind, variant, p, settings)
        assert len(t.points) == 6
        assert t.halvings == 0 < t.monotone_breaks
        for it, q, *_ in t.points:
            assert np.abs(q - p).max() < 1e-13, it
            X = pf.field(kind, variant, p)
            w = pf.psi(X) if normalization == "psi" else X
            p = pf.pi(p + step * pf.push_tangent(p, w))

    def test_each_step_is_measured_once(self, monkeypatch):
        # the flow takes every candidate step: one measure of the start and
        # one per iteration, even on prism y, whose steps lower q_c
        calls = []

        def counted(*args):
            calls.append(1)
            return _measure(*args)

        monkeypatch.setattr(flow, "_measure", counted)
        breaks = 0
        for seed in range(5):
            calls.clear()
            t = pf.integrate("prism", pf.Y_VARIANT,
                             pf.random_configuration("prism", seed, pf.Y_VARIANT))
            assert len(calls) == t.iterations + 1, seed
            assert t.halvings == 0, seed
            breaks += t.monotone_breaks
        assert breaks > 0

    def test_non_finite_step_diverges(self, monkeypatch):
        # a zero psi divisor makes P + s V non-finite: sigma's rescue
        # refuses it, and the flow reports the iteration
        monkeypatch.setattr(flow, "_root", lambda x: np.zeros(len(x)))
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
            halvings = breaks = 0
            for i in range(len(seeds)):
                t = pf.integrate(kind, variant, batch[i], pf.FlowSettings())
                assert out["converged"][i] == t.converged
                assert out["iterations"][i] == t.iterations, (kind, variant, i)
                assert np.abs(out["p"][i] - t.p_final).max() < 1e-12
                assert abs(out["residual"][i] - t.residual_final) < 1e-12
                halvings += t.halvings
                breaks += t.monotone_breaks
            assert (out["halvings"], out["monotone_breaks"]) == (halvings, breaks), \
                (kind, variant)

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

    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_final_quality_is_the_mesh_quality(self, kind):
        # the flow's q_c at its final state, over the kind's ceiling, is the
        # quality_report q of a one-element mesh of that shape, bit for bit
        P0 = np.stack([pf.random_configuration(kind, s) for s in range(20)])
        out = pf.integrate_batch(kind, pf.GRADIENT, P0)
        qc = _measure(kind, pf.GRADIENT, np.ascontiguousarray(out["p"].swapaxes(1, 2)))[2]
        for i, p in enumerate(out["p"]):
            m = pf.Mesh(p, [(kind, tuple(range(len(p))))], [])
            assert qc[i] / (18.0 * pf.Q_MAX[kind]) == pf.quality_report(m).per_element_q[0], i

    def test_all_converge(self):
        batch = np.stack([pf.pi(pf.random_configuration("octahedron", s))
                          for s in range(8)])
        out = pf.integrate_batch("octahedron", pf.GRADIENT, batch,
                                 pf.FlowSettings())
        assert out["converged"].all()
        assert (out["residual"] < 1e-10).all()


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
