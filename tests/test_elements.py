"""Tests for the per-kind vertex fields, volumes and reference shapes."""

import numpy as np
import pytest
from hypothesis import given, settings

import polyflow as pf
from polyflow.flow import _field

from conftest import finite_points

ALL_PAIRS = [(k, v) for k in pf.KINDS for v in pf.VARIANTS_BY_KIND[k]]


def test_kind_metadata():
    assert pf.KINDS == ("tetrahedron", "pyramid", "prism", "hexahedron",
                        "octahedron")
    assert pf.VERTEX_COUNT == {"tetrahedron": 4, "pyramid": 5, "prism": 6,
                               "hexahedron": 8, "octahedron": 6}
    for kind in pf.KINDS:
        assert pf.VARIANTS_BY_KIND[kind][0] == pf.GRADIENT
    assert pf.Y_VARIANT in pf.VARIANTS_BY_KIND["prism"]
    assert pf.Y_VARIANT in pf.VARIANTS_BY_KIND["hexahedron"]
    assert len(pf.EDGES["tetrahedron"]) == 6
    assert len(pf.EDGES["hexahedron"]) == 12
    assert len(pf.QUAD_FACES["pyramid"]) == 1
    assert len(pf.QUAD_FACES["hexahedron"]) == 6
    assert len(pf.QUAD_FACES["tetrahedron"]) == 0


def test_field_rejects_bad_input():
    p = np.zeros((4, 3))
    with pytest.raises(ValueError):
        pf.field("heptahedron", pf.GRADIENT, p)
    with pytest.raises(ValueError):
        pf.field("tetrahedron", pf.Y_VARIANT, p)
    with pytest.raises(ValueError):
        pf.field("tetrahedron", pf.GRADIENT, np.zeros((5, 3)))


def test_field_corner_tetrahedron():
    # one vertex at the origin, three unit edges along the axes
    p = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    X = pf.field("tetrahedron", pf.GRADIENT, p)
    expected = np.array([[-1, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                        float)
    assert np.allclose(X, expected, atol=1e-15)
    assert pf.f_value("tetrahedron", pf.GRADIENT, p) == pytest.approx(3.0)


@pytest.mark.parametrize("kind", pf.KINDS)
def test_field_is_volume_gradient(rng, kind):
    # central differences of 6 * mean volume reproduce the field
    p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
    X = pf.field(kind, pf.GRADIENT, p)
    h = 1e-6
    fd = np.zeros_like(p)
    for i in range(p.shape[0]):
        for c in range(3):
            q = p.copy()
            q[i, c] += h
            up = pf.mean_volume(kind, q)
            q[i, c] -= 2 * h
            dn = pf.mean_volume(kind, q)
            fd[i, c] = 6.0 * (up - dn) / (2 * h)
    assert np.allclose(X, fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("kind", pf.KINDS)
def test_f_value_scales_mean_volume(rng, kind):
    # Euler relation for a cubic potential: <X, p> = 3 * (6 V)
    p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
    f = pf.f_value(kind, pf.GRADIENT, p)
    assert f == pytest.approx(18.0 * pf.mean_volume(kind, p), rel=1e-12,
                              abs=1e-12)


@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_field_batch_matches_single(rng, kind, variant):
    batch = rng.normal(size=(7, pf.VERTEX_COUNT[kind], 3))
    out = pf.field_batch(kind, variant, batch)
    for b in range(batch.shape[0]):
        assert np.allclose(out[b], pf.field(kind, variant, batch[b]),
                           atol=1e-14)


@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_field_batch_rows_evaluate_as_alone(rng, kind, variant):
    # a batch of 1000 rows is one gather and one matrix product; each
    # row of the batch is bitwise its field alone
    P = rng.normal(size=(1000, pf.VERTEX_COUNT[kind], 3))
    F = pf.field_batch(kind, variant, P)
    assert F.shape == P.shape
    for b in range(len(P)):
        assert F[b].tobytes() == pf.field_batch(kind, variant, P[b:b + 1])[0].tobytes()


@pytest.mark.parametrize("size", [2, 3, 7, 63, 64, 65, 129])
@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_field_batch_rows_evaluate_as_alone_at_small_sizes(rng, kind, variant, size):
    # the batch is the M axis of one matrix product, so a row's value does
    # not depend on B, also where B is small or next to a multiple of 64
    P = rng.normal(size=(size, pf.VERTEX_COUNT[kind], 3))
    F = pf.field_batch(kind, variant, P)
    for b in range(size):
        assert F[b].tobytes() == pf.field_batch(kind, variant, P[b:b + 1])[0].tobytes()


@pytest.mark.parametrize("size", [1, 2, 100])
@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_field_batch_layouts_agree(rng, kind, variant, size):
    # the kernel reads vertex-major (B, n, 3) input through a copy, and the
    # flows' component-major (B, 3, n) rows as a view: the same bits
    P = rng.normal(size=(size, pf.VERTEX_COUNT[kind], 3))
    X = _field(kind, variant, np.ascontiguousarray(P.swapaxes(1, 2)))
    assert X.flags.c_contiguous
    assert X.swapaxes(1, 2).tobytes() == pf.field_batch(kind, variant, P).tobytes()


@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_batch_kernels_match_oracles(rng, kind, variant):
    # the pair-folded kernels against the independent per-configuration
    # oracles: triangulation assembly for gradient fields, and a
    # tet_signed_volume loop over the triangulation tables for volumes
    P = rng.normal(size=(64, pf.VERTEX_COUNT[kind], 3))
    F = pf.field_batch(kind, variant, P)
    V = pf.mean_volume_batch(kind, P)
    tables = pf.TRIANGULATIONS[kind]
    for b, p in enumerate(P):
        atol = 1e-12 * max(1.0, float(np.abs(F[b]).max()))
        assert np.allclose(F[b], pf.field(kind, variant, p), rtol=0.0, atol=atol)
        if variant == pf.GRADIENT:
            assert np.allclose(F[b], pf.field_from_triangulations(kind, p),
                               rtol=0.0, atol=atol)
        loop = sum(pf.tet_signed_volume(*(p[i - 1] for i in tet))
                   for table in tables for tet in table) / len(tables)
        assert V[b] == pytest.approx(loop, rel=1e-12, abs=1e-14)
        assert pf.mean_volume(kind, p) == pytest.approx(V[b], rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_field_translation_invariant(rng, kind, variant):
    p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
    c = rng.normal(size=3)
    assert np.allclose(pf.field(kind, variant, p + c),
                       pf.field(kind, variant, p), atol=1e-10)


@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_field_homogeneous_quadratic(rng, kind, variant):
    p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
    lam = 1.7
    assert np.allclose(pf.field(kind, variant, lam * p),
                       lam ** 2 * pf.field(kind, variant, p), atol=1e-10)


GRADIENT_LIKE = [(k, pf.GRADIENT) for k in pf.KINDS] + [
    ("hexahedron", pf.Y_VARIANT)]


@pytest.mark.parametrize("kind,variant", GRADIENT_LIKE)
def test_field_rows_sum_to_zero(rng, kind, variant):
    p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
    assert np.allclose(pf.field(kind, variant, p).sum(axis=0), 0.0,
                       atol=1e-12)


def test_prism_y_rows_do_not_sum_to_zero(rng):
    # the prism y field is not a gradient; its rows carry a net drift
    p = rng.normal(size=(6, 3))
    assert np.abs(pf.field("prism", pf.Y_VARIANT, p).sum(axis=0)).max() > 0.1


def _fd_grad_f(kind, variant, p, h=1e-6):
    g = np.zeros_like(p)
    for i in range(p.shape[0]):
        for c in range(3):
            q = p.copy()
            q[i, c] += h
            up = pf.f_value(kind, variant, q)
            q[i, c] -= 2 * h
            dn = pf.f_value(kind, variant, q)
            g[i, c] = (up - dn) / (2 * h)
    return g


@pytest.mark.parametrize("kind,variant", GRADIENT_LIKE)
def test_radial_function_gradient_is_three_field(rng, kind, variant):
    # lifted identity for gradient-type fields: grad <X, p> = 3 X
    p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
    X = pf.field(kind, variant, p)
    g = _fd_grad_f(kind, variant, p)
    assert np.abs(g - 3.0 * X).max() <= 1e-5 * np.abs(3.0 * X).max()


def test_prism_y_field_is_not_gradient_of_its_radial_function(rng):
    p = rng.normal(size=(6, 3))
    X = pf.field("prism", pf.Y_VARIANT, p)
    g = _fd_grad_f("prism", pf.Y_VARIANT, p)
    assert np.abs(g - 3.0 * X).max() > 1e-2 * np.abs(3.0 * X).max()


@given(finite_points(6))
@settings(max_examples=60, deadline=None)
def test_prism_field_invariants_property(p):
    X = pf.field("prism", pf.GRADIENT, p)
    assert np.allclose(pf.field("prism", pf.GRADIENT, p + 1.25), X,
                       atol=1e-8 * max(1.0, float(np.abs(X).max())))
    assert np.allclose(X.sum(axis=0), 0.0,
                       atol=1e-10 * max(1.0, float(np.abs(X).max())))


def test_mean_volume_examples():
    cube = pf.reference_optimal("hexahedron")
    assert pf.mean_volume("hexahedron", cube) == pytest.approx(1.0)
    pyr = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                    [0.5, 0.5, 1]], float)
    assert pf.mean_volume("pyramid", pyr) == pytest.approx(1.0 / 3.0)
    tet = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    assert pf.mean_volume("tetrahedron", tet) == pytest.approx(1.0 / 6.0)
    octa = pf.reference_optimal("octahedron")
    assert pf.mean_volume("octahedron", octa) == pytest.approx(4.0 / 3.0)


@pytest.mark.parametrize("kind", pf.KINDS)
def test_triangulation_tables(kind):
    tables = pf.triangulations(kind)
    expected_tables = {"tetrahedron": 1, "pyramid": 2, "prism": 6,
                       "hexahedron": 2, "octahedron": 3}
    expected_tets = {"tetrahedron": 1, "pyramid": 2, "prism": 3,
                     "hexahedron": 5, "octahedron": 4}
    assert len(tables) == expected_tables[kind]
    ref = pf.reference_optimal(kind)
    n = pf.VERTEX_COUNT[kind]
    for table in tables:
        assert len(table) == expected_tets[kind]
        seen = set()
        for tet in table:
            assert len(tet) == 4
            assert all(1 <= i <= n for i in tet)
            seen.update(tet)
            vol = pf.tet_signed_volume(*(ref[i - 1] for i in tet))
            assert vol > 0.0
        assert seen == set(range(1, n + 1))


@pytest.mark.parametrize("kind", pf.KINDS)
def test_field_matches_triangulation_assembly(rng, kind):
    p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
    a = pf.field(kind, pf.GRADIENT, p)
    b = pf.field_from_triangulations(kind, p)
    assert np.allclose(a, b, atol=1e-12 * max(1.0, float(np.abs(a).max())))


@pytest.mark.parametrize("kind", pf.KINDS)
def test_reference_quality_is_maximal(kind):
    # the stored normalizer equals the mean volume of the centered,
    # unit-norm reference shape, so reference quality is exactly one; the
    # field is parallel to c there, so V / |c|^3 is critical at the reference
    ref = pf.reference_optimal(kind)
    c = ref - ref.mean(axis=0)
    mv = pf.mean_volume(kind, c / np.linalg.norm(c))
    assert mv == pytest.approx(pf.Q_MAX[kind], rel=1e-12)
    X = pf.field(kind, pf.GRADIENT, ref)
    lam = np.vdot(X, c) / np.vdot(c, c)
    assert np.abs(X - lam * c).max() <= 1e-14 * np.abs(X).max()


def test_y_variant_positive_on_cube():
    cube = pf.reference_optimal("hexahedron")
    assert pf.f_value("hexahedron", pf.Y_VARIANT, pf.pi(cube)) > 0.0


def test_level0_pyramid_is_flat_singular():
    p = pf.level0_pyramid()
    assert np.allclose(p[:, 2], 0.0)
    assert pf.f_value("pyramid", pf.GRADIENT, p) == 0.0
    cls = pf.classify("pyramid", pf.GRADIENT, pf.pi(p))
    assert cls.tag == "level0_singular"
    tables = pf.triangulations("pyramid")
    for table in tables:
        for tet in table:
            assert pf.tet_signed_volume(*(p[i - 1] for i in tet)) == 0.0


def test_collinear_tetrahedron_factory():
    p = pf.collinear_tetrahedron()
    assert pf.is_collinear(p)
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12
    assert pf.f_value("tetrahedron", pf.GRADIENT, p) == pytest.approx(0.0,
                                                                      abs=1e-15)
