"""Tests for linearization spectra at singular configurations."""

import json

import numpy as np
import pytest

import polyflow as pf
from polyflow import elements, spectral, sphere

SQ = np.sqrt

ALL_PAIRS = [(k, v) for k in pf.KINDS for v in pf.VARIANTS_BY_KIND[k]]
GRADIENT_PAIRS = [(k, v) for k, v in ALL_PAIRS
                  if (k, v) != ("prism", pf.Y_VARIANT)]


def _central_differences(fun, q, h=1e-5):
    """Oracle: central-difference Jacobian of fun over all 3n coordinates."""
    flat = q.ravel()
    cols = []
    for k in range(flat.size):
        d = np.zeros_like(flat)
        d[k] = h
        hi = fun((flat + d).reshape(q.shape)).ravel()
        lo = fun((flat - d).reshape(q.shape)).ravel()
        cols.append((hi - lo) / (2.0 * h))
    return np.column_stack(cols)


def _projected(kind, variant, q):
    """The pinned-and-projected field, built from the public operators."""
    t, u = pf.tau(pf.field(kind, variant, q)), pf.tau(q)
    return t - np.vdot(t, u) * u


def _raw(kind, variant, p):
    """The raw field and its Jacobian at p, a batch of one scaled back to p."""
    X, J, e = spectral._raw_jacobian(kind, variant, p[None])
    return np.ldexp(X[0], 2 * e[0]), np.ldexp(J[0], e[0])


def _jacobians(kind, variant, q):
    """(J_G, J_X) at q on N, a batch of one."""
    JG, JX = spectral._projected_jacobian(kind, variant, q[None])
    return JG[0], JX[0]


def _dense_projected_jacobian(kind, variant, q):
    """Reference: J_G = T J_X - u (u^T T J_X + t^T T) - <t, u> T with T built densely."""
    X, JX = _raw(kind, variant, q)
    n = len(X)
    T = np.kron(np.eye(n) - np.eye(n)[-1], np.eye(3))
    t, u = pf.tau(X).ravel(), pf.tau(q).ravel()
    TJ = T @ JX
    return TJ - np.outer(u, u @ TJ + t @ T) - np.vdot(t, u) * T


def _grouped(spec):
    return [(round(v, 6), m) for v, m in spec.groups]


def _assert_groups(spec, expected, tol=1e-4):
    """Every expected (value, multiplicity) pair appears in the spectrum."""
    got = list(spec.groups)
    for value, mult in expected:
        match = [m for v, m in got if abs(v - value) < tol]
        assert match, f"missing eigenvalue {value}: got {got}"
        assert match[0] == mult, (value, match[0], mult, got)


class TestPushedField:
    def test_vanishes_at_reference(self):
        q = pf.pi(pf.reference_optimal("tetrahedron"))
        v = pf.pushed_field("tetrahedron", pf.GRADIENT, q)
        assert np.abs(v).max() < 1e-10

    def test_tangent_at_generic_point(self, rng):
        q = pf.pi(rng.normal(size=(4, 3)))
        v = pf.pushed_field("tetrahedron", pf.GRADIENT, q)
        assert np.abs(v).max() > 1e-3
        assert abs(np.vdot(v, q)) < 1e-10
        assert np.allclose(v[-1], 0.0)  # pinned last vertex


class TestReferenceSpectra:
    def test_tetrahedron(self):
        spec = pf.hessian_spectrum("tetrahedron", pf.GRADIENT,
                                   pf.reference_optimal("tetrahedron"))
        _assert_groups(spec, [(-SQ(8.0 / 3.0), 6)])
        assert spec.zero_count == 6
        assert spec.max_imag < 1e-9

    def test_pyramid(self):
        spec = pf.hessian_spectrum("pyramid", pf.GRADIENT,
                                   pf.reference_optimal("pyramid"))
        _assert_groups(spec, [(-SQ(20.0 / 7.0), 6), (-SQ(5.0 / 7.0), 3)])
        assert spec.zero_count == 6

    def test_prism(self):
        spec = pf.hessian_spectrum("prism", pf.GRADIENT,
                                   pf.reference_optimal("prism"))
        _assert_groups(spec, [(-SQ(3.0), 6), (-2.0 / SQ(3.0), 2),
                              (-SQ(3.0) / 2.0, 2), (-1.0 / SQ(3.0), 2)])
        assert spec.zero_count == 6

    def test_hexahedron_gradient(self):
        spec = pf.hessian_spectrum("hexahedron", pf.GRADIENT,
                                   pf.reference_optimal("hexahedron"))
        _assert_groups(spec, [(-SQ(3.0), 6), (-5.0 / SQ(12.0), 1),
                              (-2.0 / SQ(3.0), 3), (-SQ(3.0) / 2.0, 3),
                              (-1.0 / SQ(3.0), 5)])
        assert spec.zero_count == 6

    def test_hexahedron_y(self):
        spec = pf.hessian_spectrum("hexahedron", pf.Y_VARIANT,
                                   pf.reference_optimal("hexahedron"))
        _assert_groups(spec, [(-4.0 / SQ(3.0), 6), (-2.0 / SQ(3.0), 12)])
        assert spec.zero_count == 6

    def test_octahedron_internal_normalization(self):
        # the triangulation average carries no extra normalization, so
        # the regular octahedron gives the criterion's values
        spec = pf.hessian_spectrum("octahedron", pf.GRADIENT,
                                   pf.reference_optimal("octahedron"))
        _assert_groups(spec, [(-4.0 / SQ(3.0), 6), (-2.0 / SQ(3.0), 6)])
        assert spec.zero_count == 6

    def test_mirrored_tetrahedron_negates(self):
        p = pf.reference_optimal("tetrahedron") * np.array([1.0, 1.0, -1.0])
        spec = pf.hessian_spectrum("tetrahedron", pf.GRADIENT, p)
        _assert_groups(spec, [(SQ(8.0 / 3.0), 6)])
        assert spec.zero_count == 6

    def test_mirrored_pyramid_negates(self):
        p = pf.reference_optimal("pyramid") * np.array([1.0, 1.0, -1.0])
        spec = pf.hessian_spectrum("pyramid", pf.GRADIENT, p)
        _assert_groups(spec, [(SQ(20.0 / 7.0), 6), (SQ(5.0 / 7.0), 3)])

    def test_rotation_invariance(self):
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                      [np.sin(theta), np.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        a = pf.hessian_spectrum("pyramid", pf.GRADIENT,
                                pf.reference_optimal("pyramid"))
        b = pf.hessian_spectrum("pyramid", pf.GRADIENT,
                                pf.reference_optimal("pyramid") @ R.T)
        assert np.abs(a.eigenvalues - b.eigenvalues).max() < 1e-8

    def test_representative_invariance(self):
        a = pf.hessian_spectrum("tetrahedron", pf.GRADIENT,
                                pf.reference_optimal("tetrahedron"))
        b = pf.hessian_spectrum("tetrahedron", pf.GRADIENT,
                                2.0 * pf.reference_optimal("tetrahedron") + 3.0)
        assert np.abs(a.eigenvalues - b.eigenvalues).max() < 1e-6


class TestExactJacobians:
    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_raw_matches_central_differences(self, rng, kind, variant):
        for _ in range(5):
            p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
            J = pf.field_jacobian(kind, variant, p)
            fd = _central_differences(lambda x: pf.field(kind, variant, x), p)
            assert np.abs(J - fd).max() < 1e-9 * np.abs(fd).max()

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_projected_matches_central_differences(self, rng, kind, variant):
        for _ in range(5):
            q = pf.pi(rng.normal(size=(pf.VERTEX_COUNT[kind], 3)))
            JG, JX = _jacobians(kind, variant, q)
            fd = _central_differences(lambda x: _projected(kind, variant, x), q)
            assert np.abs(JG - fd).max() < 1e-9 * np.abs(fd).max()
            assert np.array_equal(JX, pf.field_jacobian(kind, variant, q))

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_projected_matches_dense_formula(self, rng, kind, variant):
        # tau applied as an operator gives the matrix of the dense formula
        qs = [pf.pi(rng.normal(size=(pf.VERTEX_COUNT[kind], 3))) for _ in range(5)]
        if (kind, variant) in GRADIENT_PAIRS:
            qs.append(pf.pi(pf.reference_optimal(kind)))
        for q in qs:
            JG, _ = _jacobians(kind, variant, q)
            dense = _dense_projected_jacobian(kind, variant, q)
            assert np.abs(JG - dense).max() <= 1e-14 * np.abs(dense).max()

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_pinned_rows_solved_apart(self, monkeypatch, rng, kind, variant):
        # the pinned vertex's rows of J_G are exactly zero, so only the
        # (3n - 3) free block is solved and three exact zeros are added: the
        # spectrum matches the full solve in values, zero count and
        # multiplicities
        eigvals, solved = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: solved.append(np.shape(a)) or eigvals(a))
        p = pf.reference_optimal(kind)
        points = [p, p * np.array([1.0, 1.0, -1.0])]
        points += [rng.normal(size=(pf.VERTEX_COUNT[kind], 3)) for _ in range(3)]
        for point in points:
            JG, _ = _jacobians(kind, variant, pf.pi(point))
            assert np.all(JG[-3:] == 0.0)
            full = np.sort(eigvals(JG).real)
            spec = pf.hessian_spectrum(kind, variant, point)
            m = JG.shape[0] - 3
            assert solved.pop() == (1, m, m)
            assert np.abs(spec.eigenvalues - full).max() <= 1e-12 * np.abs(JG).max()
            assert spec.zero_count == np.count_nonzero(np.abs(full) < spectral.ZERO_TOL)
            assert ([mult for _, mult in spec.groups]
                    == [mult for _, mult in spectral._group(full.tolist(),
                                                             spectral.GROUPING_TOL)])
            assert np.count_nonzero(spec.eigenvalues == 0.0) >= 3

    def test_no_dense_matrix_per_call(self, monkeypatch):
        # tau is applied as an operator and the batch basis is built once
        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix built per call")
        for name in ("kron", "eye", "identity", "vstack"):
            monkeypatch.setattr(np, name, refuse)
        for kind, variant in ALL_PAIRS:
            pf.hessian_spectrum(kind, variant, pf.reference_optimal(kind))

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_raw_field_is_the_measures_field(self, rng, kind, variant):
        # one centering rule, sphere._center: the spectrum's X is the X the
        # flow measures at q, bit for bit
        for _ in range(20):
            q = pf.pi(rng.normal(size=(pf.VERTEX_COUNT[kind], 3)))
            X = _raw(kind, variant, q)[0]
            measured = elements._measure(kind, variant, np.ascontiguousarray(q.T[None])).X
            assert X.tobytes() == measured[0].T.tobytes()

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_lambda_is_the_flows(self, monkeypatch, rng, kind, variant):
        # t and lambda come from sphere._push, the flow's rule, so the
        # spectrum's lambda is singularity_residual's to the bit
        seen = []

        def push(*args):
            r, lam = sphere._push(*args)
            seen.append(float(lam[0]))
            return r, lam
        monkeypatch.setattr(spectral, "_push", push)
        for _ in range(20):
            q = pf.pi(rng.normal(size=(pf.VERTEX_COUNT[kind], 3)))
            _jacobians(kind, variant, q)
            assert seen.pop() == pf.singularity_residual(kind, variant, q)[1]

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_euler_identity(self, rng, kind, variant):
        # the field is homogeneous quadratic, so J(p) p = 2 X(p) exactly
        p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
        lhs = pf.field_jacobian(kind, variant, p) @ p.ravel()
        rhs = 2.0 * pf.field(kind, variant, p).ravel()
        assert np.linalg.norm(lhs - rhs) < 1e-13 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_far_from_origin(self, rng, kind, variant):
        # J(s p) = s J(p) and J(p + t) = J(p): the step follows the scale
        # of the centered configuration, at which the field is evaluated
        p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
        X, J = _raw(kind, variant, p)
        scaled = pf.field_jacobian(kind, variant, p * 1e6)
        assert np.abs(scaled - 1e6 * J).max() < 1e-13 * np.abs(1e6 * J).max()
        X_shifted, J_shifted = _raw(kind, variant, p + 1e6)
        assert np.abs(J_shifted - J).max() < 1e-8
        assert np.abs(X_shifted - X).max() < 1e-8

    @pytest.mark.parametrize("kind,variant", GRADIENT_PAIRS)
    def test_gradient_jacobians_exactly_symmetric(self, rng, kind, variant):
        p = pf.pi(rng.normal(size=(pf.VERTEX_COUNT[kind], 3)))
        assert pf.asymmetry_ratio(kind, variant, p) < 1e-13

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pf.field_jacobian("tetrahedron", pf.GRADIENT, np.zeros((5, 3)))


class TestFieldJvp:
    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_products_are_the_jacobians(self, rng, kind, variant):
        # central differences at the scaled rows, scaled back: J(c) v for
        # directions of any size, with the field of the basis case
        n = pf.VERTEX_COUNT[kind]
        for _ in range(5):
            c = rng.normal(size=(n, 3))
            V = rng.normal(size=(7, n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(7, 1, 1))
            X, JV, e = elements._field_jvp(kind, variant, c[None], V[None])
            J = pf.field_jacobian(kind, variant, c)
            for v, got in zip(V, np.ldexp(JV[0], e[0])):
                want = J @ v.ravel()
                assert np.abs(got.ravel() - want).max() <= 1e-13 * np.abs(want).max()
            basis = elements._field_jvp(kind, variant, c[None])
            assert (X.tobytes(), e.tobytes()) == (basis[0].tobytes(), basis[2].tobytes())

    @pytest.mark.parametrize("k", [600, -600])
    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_jacobian_scales_exactly(self, rng, kind, variant, k):
        # J(2^k p) = 2^k J(p) bit for bit: J is formed at p divided by a
        # power of two, so no product underflows or overflows
        p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
        J = pf.field_jacobian(kind, variant, p)
        scaled = pf.field_jacobian(kind, variant, np.ldexp(p, k))
        assert scaled.tobytes() == np.ldexp(J, k).tobytes()

    @pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e155, 1e200])
    def test_asymmetry_does_not_depend_on_the_scale(self, rng, scale):
        # the prism y field is not a gradient at any scale (0.0 at 1e-170,
        # and an overflow at 1e155, when the norms squared J at p's scale)
        p = pf.pi(rng.normal(size=(6, 3)))
        ratio = pf.asymmetry_ratio("prism", pf.Y_VARIANT, p)
        assert ratio > 1e-2
        scaled = pf.asymmetry_ratio("prism", pf.Y_VARIANT, scale * p)
        assert scaled == pytest.approx(ratio, rel=1e-13)
        # and bit for bit at a power of two, up to the top of the float
        # range: the centered optimum with max|c| = 1, scaled by 2^1023,
        # whose power of two above max|c|, 2^1024, is not a float
        c = _optimum("prism", pf.Y_VARIANT)
        c -= c.mean(axis=0)
        c /= np.abs(c).max()
        top = pf.asymmetry_ratio("prism", pf.Y_VARIANT, np.ldexp(c, 1023))
        assert top == pf.asymmetry_ratio("prism", pf.Y_VARIANT, c)


def _optimum(kind, variant):
    """The pair's optimal shape: prism y pins height / side = 1/sqrt(2)."""
    p = pf.reference_optimal(kind)
    if (kind, variant) == ("prism", pf.Y_VARIANT):
        p[3:, 2] = np.sqrt(2.0)
    return p


class TestSpectrumBatch:
    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_rows_are_their_single_calls(self, rng, kind, variant):
        # one batch per pair, each row bit for bit its hessian_spectrum
        p = _optimum(kind, variant)
        P = [p, p * np.array([1.0, 1.0, -1.0]), rng.normal(size=p.shape)]
        if kind == "tetrahedron":
            P += [pf.collinear_tetrahedron(spacings, direction)
                  for spacings in [(1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (0.3, 2.9, 0.5)]
                  for direction in [(1.0, 0.0, 0.0), (0.3, -0.5, 0.8)]]
        batch = pf.hessian_spectrum_batch(kind, variant, np.stack(P))
        assert len(batch) == len(P)
        for got, point in zip(batch, P):
            alone = pf.hessian_spectrum(kind, variant, point)
            assert got.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            assert got.to_json() == alone.to_json()
            assert (got.groups, got.zero_count, got.max_imag) == (
                alone.groups, alone.zero_count, alone.max_imag)

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_one_derivative_one_push_one_solve(self, monkeypatch, rng, kind, variant):
        # a batch runs the one derivative, the one push and one eigen-solve
        # of shape (B, m, m) over all of its rows: no call per row
        calls = []

        def counted(name, fun, rows):  # rows: the position of the argument of rows
            return lambda *args: calls.append((name, np.shape(args[rows]))) or fun(*args)
        monkeypatch.setattr(elements, "_field_jvp", counted("jvp", elements._field_jvp, 2))
        monkeypatch.setattr(spectral, "_push", counted("push", spectral._push, 0))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals, 0))
        n = pf.VERTEX_COUNT[kind]
        pf.hessian_spectrum_batch(kind, variant, rng.normal(size=(5, n, 3)))
        m = 3 * n - 3
        assert calls == [("jvp", (5, n, 3)), ("push", (5, 3, n)), ("eigvals", (5, m, m))]


# The Euler step bounds per pair, from the spectrum at the optimum: s*, the
# step of fastest contraction, and s_max, the largest stable step.
_STEPS = {
    ("tetrahedron", pf.GRADIENT): (0.465, 0.931),
    ("pyramid", pf.GRADIENT): (0.587, 0.880),
    ("prism", pf.GRADIENT): (0.678, 0.904),
    ("prism", pf.Y_VARIANT): (0.549, 0.823),
    ("hexahedron", pf.GRADIENT): (0.678, 0.904),
    ("hexahedron", pf.Y_VARIANT): (0.522, 0.783),
    ("octahedron", pf.GRADIENT): (0.522, 0.783),
}


def _projected_jvp(kind, variant, q, v):
    """J_G v at q on N from one J_X v of elements._field_jvp (v's last vertex is zero)."""
    X, JV, e = elements._field_jvp(kind, variant, q[None], v[None, None])
    t = pf.tau(np.ldexp(X[0], 2 * e[0]))
    a = pf.tau(np.ldexp(JV[0, 0], e[0]))
    return a - (np.vdot(a, q) + np.vdot(t, v)) * q - np.vdot(t, q) * v


@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_step_table_from_the_spectrum(rng, kind, variant):
    # s* = 2 sqrt|X*| / (|mu|min + |mu|max) and s_max = 2 sqrt|X*| / |mu|max
    # over the nonzero eigenvalues at the optimum and its mirror
    p = _optimum(kind, variant)
    P = np.stack([p, p * np.array([1.0, 1.0, -1.0])])
    for point, spec in zip(P, pf.hessian_spectrum_batch(kind, variant, P)):
        q = pf.pi(point)
        root = np.sqrt(np.linalg.norm(pf.field(kind, variant, q)))
        mu = np.abs(spec.eigenvalues[np.abs(spec.eigenvalues) > spectral.ZERO_TOL])
        s_star, s_max = _STEPS[kind, variant]
        assert 2.0 * root / (mu.min() + mu.max()) == pytest.approx(s_star, abs=1e-3)
        assert 2.0 * root / mu.max() == pytest.approx(s_max, abs=1e-3)
        # a power iteration of J_G v on the free block finds |mu|max
        w = rng.normal(size=q.shape)
        w[-1] = 0.0
        for _ in range(200):
            w = _projected_jvp(kind, variant, q, w / np.linalg.norm(w))
        assert np.linalg.norm(w) == pytest.approx(mu.max(), abs=1e-6)


class TestAsymmetry:
    @pytest.mark.parametrize("kind", pf.KINDS)
    def test_gradient_fields_symmetric(self, rng, kind):
        p = pf.pi(rng.normal(size=(pf.VERTEX_COUNT[kind], 3)))
        assert pf.asymmetry_ratio(kind, pf.GRADIENT, p) < 1e-5

    def test_prism_y_asymmetric(self, rng):
        p = pf.pi(rng.normal(size=(6, 3)))
        assert pf.asymmetry_ratio("prism", pf.Y_VARIANT, p) > 1e-2

    def test_hexahedron_y_symmetric(self, rng):
        p = pf.pi(rng.normal(size=(8, 3)))
        assert pf.asymmetry_ratio("hexahedron", pf.Y_VARIANT, p) < 1e-5

    def test_reported_in_spectrum(self):
        spec = pf.hessian_spectrum("prism", pf.Y_VARIANT,
                                   pf.reference_optimal("prism"))
        assert spec.asymmetry_ratio > 1e-2


class TestSpectrumJson:
    def test_schema(self):
        spec = pf.hessian_spectrum("tetrahedron", pf.GRADIENT,
                                   pf.reference_optimal("tetrahedron"))
        doc = json.loads(spec.to_json())
        assert set(doc) == {"eigenvalues", "zero_count", "asymmetry_ratio"}
        assert doc["zero_count"] == 6
        for entry in doc["eigenvalues"]:
            assert set(entry) == {"value", "multiplicity"}
        total = sum(e["multiplicity"] for e in doc["eigenvalues"])
        assert total == 12  # 3n ambient directions

    @staticmethod
    def _assert_json_bytes(spec):
        doc = {"eigenvalues": [{"value": float(v), "multiplicity": int(m)}
                               for v, m in spec.groups],
               "zero_count": int(spec.zero_count),
               "asymmetry_ratio": float(spec.asymmetry_ratio)}
        assert spec.to_json() == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("kind,variant", ALL_PAIRS)
    def test_bytes_of_json_dumps(self, rng, kind, variant):
        p = pf.reference_optimal(kind)
        for point in (p, p * np.array([1.0, 1.0, -1.0]),
                      rng.normal(size=(pf.VERTEX_COUNT[kind], 3))):
            self._assert_json_bytes(pf.hessian_spectrum(kind, variant, point))

    def test_bytes_of_json_dumps_collinear(self):
        self._assert_json_bytes(pf.hessian_spectrum(
            "tetrahedron", pf.GRADIENT, pf.collinear_tetrahedron()))

    @pytest.mark.parametrize("groups,ratio", [
        (((-1.5, 2), (0.0, 6)), float("nan")),
        (((-1.5, 2), (0.0, 6)), float("inf")),
        (((2.0, 3),), -float("inf")),
        (((float("nan"), 1), (0.25, 1)), 0.0),
        (((-0.0, 6), (1e-300, 1)), 0.0),
        (((-0.0, 1),), -0.0),
        ((), 0.5),
    ])
    def test_bytes_of_hand_built(self, groups, ratio):
        # non-finite values go through json (NaN, Infinity); -0.0 keeps its sign
        values = np.array([v for v, m in groups for _ in range(m)])
        spec = spectral.Spectrum(eigenvalues=values, groups=groups,
                                 zero_count=int(np.count_nonzero(values == 0.0)),
                                 asymmetry_ratio=ratio, max_imag=0.0)
        self._assert_json_bytes(spec)


def _nullity_and_gap(p):
    """(zero_count, largest |zero|, smallest |nonzero|) of the tetrahedron's spectrum at p."""
    spec = pf.hessian_spectrum("tetrahedron", pf.GRADIENT, p)
    size = np.abs(spec.eigenvalues)
    zero = size < spectral.ZERO_TOL
    return spec.zero_count, size[zero].max(), size[~zero].min()


class TestMorseBottNullity:
    # The critical sets of the tetrahedron are Morse-Bott: the kernel of
    # the Jacobian is the pinned translations (3), plus the radial
    # direction where lambda = 0, plus the tangent space of the critical
    # set, and a gap separates it from the rest of the spectrum.
    def test_regular_tetrahedron(self):
        # 3 pinned translations and the 3 rotations, the tangent of the
        # critical set: nullity 3 on the tangent space of N
        count, zero, gap = _nullity_and_gap(pf.reference_optimal("tetrahedron"))
        assert count == 6, f"zero_count {count}, gap {gap}"
        assert zero <= 1e-15, f"largest zero {zero}, gap {gap}"
        assert gap >= 1.5, f"gap {gap}"

    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.3, -0.5, 0.8)])
    @pytest.mark.parametrize("spacings", [(1.0, 2.0, 3.0), (1.0, 1.0, 1.0),
                                          (0.3, 2.9, 0.5), (3.0, 0.3, 3.0)])
    def test_collinear_set(self, spacings, direction):
        # 3 pinned translations, the radial direction (lambda = 0 there)
        # and the 4 dimensions of the collinear set on N
        p = pf.collinear_tetrahedron(spacings=spacings, direction=direction)
        count, zero, gap = _nullity_and_gap(p)
        assert count == 8, f"zero_count {count}, gap {gap}"
        assert zero <= 1e-15, f"largest zero {zero}, gap {gap}"
        assert gap >= 1.0, f"gap {gap}"


class TestCollinearSignature:
    def test_factory_configuration(self):
        assert pf.collinear_signature(pf.collinear_tetrahedron()) == (2, 2)

    def test_rotated(self):
        theta = 1.1
        R = np.array([[np.cos(theta), 0.0, np.sin(theta)],
                      [0.0, 1.0, 0.0],
                      [-np.sin(theta), 0.0, np.cos(theta)]])
        p = pf.collinear_tetrahedron() @ R.T
        assert pf.collinear_signature(p) == (2, 2)

    def test_random_spacings(self, rng):
        spac = tuple(rng.uniform(0.5, 3.0, size=3))
        d = rng.normal(size=3)
        p = pf.collinear_tetrahedron(spacings=spac, direction=d)
        assert pf.collinear_signature(p) == (2, 2)

    def test_rejects_generic(self, rng):
        with pytest.raises(ValueError):
            pf.collinear_signature(pf.pi(rng.normal(size=(4, 3))))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pf.collinear_signature(np.zeros((5, 3)))
