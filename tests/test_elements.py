"""Tests for the per-kind vertex fields, volumes and reference shapes."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import polyflow as pf
from polyflow import elements, sphere

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
    with pytest.raises(ValueError):
        pf.reference_optimal("cube")
    with pytest.raises(ValueError):
        pf.triangulations("cube")


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
    # flows' component-major (B, 3, n) rows as a view, and writes into
    # component-major rows through out=: the same bits
    P = rng.normal(size=(size, pf.VERTEX_COUNT[kind], 3))
    X = np.empty((size, 3, pf.VERTEX_COUNT[kind]))
    got = pf.field_batch(kind, variant, np.ascontiguousarray(P.swapaxes(1, 2)).swapaxes(1, 2),
                         out=X.swapaxes(1, 2))
    assert got.base is X
    assert X.swapaxes(1, 2).tobytes() == pf.field_batch(kind, variant, P).tobytes()


def _matmul_field(kind, variant, P):
    """The kernel's gather and products on P (B, n, 3), contracted by ``np.matmul``: (B, n, 3)."""
    factors, WT = elements._COMPILED[kind, variant]
    B, n, _ = P.shape
    F = P.transpose(2, 1, 0).reshape(3 * n, B).take(factors, axis=0)
    prod = F[0] * F[1]
    return np.matmul(prod.reshape(-1, 3 * B).T, WT).reshape(3, B, n).transpose(1, 2, 0)


@pytest.mark.parametrize("kind,variant", sorted(elements._COMPILED))
def test_the_kernels_dot_is_matmuls_gemm(rng, kind, variant):
    # The kernel contracts with np.dot, which costs about half of np.matmul
    # at B = 1, on the assumption that both run the same gemm on these
    # operands and round alike.  This holds it on every compiled pair: at
    # batch sizes about a gemm's blocking, into the kernel's own buffer,
    # into component-major rows in place (B = 1) or through a copy
    # (B > 1), and on _field_jvp's 3n + 1 and 2k + 1 rows, which it hands
    # over as the transposed view of batch-minor rows.  A numpy or BLAS
    # update that breaks it fails here, by name, before any flow does.
    n = pf.VERTEX_COUNT[kind]
    for B in (1, 2, 3, 100, 512):
        P = rng.normal(size=(B, n, 3))
        want = _matmul_field(kind, variant, P).tobytes()
        assert pf.field_batch(kind, variant, P).tobytes() == want, B
        X = np.empty((B, 3, n))
        pf.field_batch(kind, variant, P, out=X.swapaxes(1, 2))
        assert X.swapaxes(1, 2).tobytes() == want, B
    for B, k in ((1, None), (3, None), (1, 2), (7, 4)):
        size = B * (3 * n + 1 if k is None else 2 * k + 1)
        P = rng.normal(size=(3, n, size)).T  # the (B r, n, 3) view of batch-minor rows
        assert (pf.field_batch(kind, variant, P).tobytes()
                == _matmul_field(kind, variant, P).tobytes()), (B, k)


@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("kind,variant", ALL_PAIRS)
def test_field_jvp_rows_are_the_kernels(rng, kind, variant, B):
    # _field_jvp builds its rows as the kernel's batch-minor rows; they are
    # the vertex-major rows [c, c + e_j] and [c, c + v, c - v] at the
    # centered rows divided by 2^e, and field_batch on those gives its
    # field, its basis columns and its products, bit for bit, at any scale
    n = pf.VERTEX_COUNT[kind]
    basis = np.eye(3 * n + 1, 3 * n, -1).reshape(-1, n, 3)  # [0, e_1, ..., e_3n]
    for k in range(-600, 601, 200):
        C = np.ldexp(rng.normal(size=(B, n, 3)), k)
        c = sphere._center(np.ascontiguousarray(C.swapaxes(1, 2))).swapaxes(1, 2)
        e = sphere._exponent(c)
        c = np.ldexp(c, -e)[:, None]
        rows = c + basis
        Y = pf.field_batch(kind, variant, rows.reshape(-1, n, 3)).reshape(rows.shape)
        X, JE, f = elements._field_jvp(kind, variant, C)
        assert JE.flags.c_contiguous and JE.shape == (B, 3 * n, n, 3)
        assert (X.tobytes(), JE.tobytes(), f.tobytes()) == (
            Y[:, 0].tobytes(), (Y[:, 1:] - Y[:, :1]).tobytes(), e.tobytes())
        V = rng.normal(size=(B, 4, n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(B, 4, 1, 1))
        g = sphere._exponent(V)
        v = np.ldexp(V, -g)
        rows = np.concatenate((c, c + v, c - v), axis=1)
        Y = pf.field_batch(kind, variant, rows.reshape(-1, n, 3)).reshape(rows.shape)
        X, JV, f = elements._field_jvp(kind, variant, C, V)
        assert (X.tobytes(), JV.tobytes(), f.tobytes()) == (
            Y[:, 0].tobytes(), np.ldexp(Y[:, 1:5] - Y[:, 5:], g - 1).tobytes(), e.tobytes())


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


@pytest.mark.parametrize("shape,message", [
    ((2, 5, 3), "tetrahedron expects shape (4, 3), got (5, 3)"),
    ((0, 4, 3), "must be a non-empty batch of shape (B, n, 3), got (0, 4, 3)"),
    ((4, 3), "must be a non-empty batch of shape (B, n, 3), got (4, 3)"),
], ids=["five-vertex", "empty", "unbatched"])
@pytest.mark.parametrize("entry", [
    lambda P: pf.mean_volume_batch("tetrahedron", P),
    lambda P: pf.integrate_batch("tetrahedron", pf.GRADIENT, P),
    lambda P: pf.hessian_spectrum_batch("tetrahedron", pf.GRADIENT, P),
], ids=["mean_volume_batch", "integrate_batch", "hessian_spectrum_batch"])
def test_batch_entries_share_one_rule(entry, shape, message):
    # a batch of ones of another vertex count is named before any reshape,
    # and before pi calls its vertices coincident
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(np.ones(shape))


@pytest.mark.parametrize("shape", [(4, 3), (0, 4, 3)], ids=["unbatched", "empty"])
@pytest.mark.parametrize("entry", [
    lambda kind, P: pf.mean_volume_batch(kind, P),
    lambda kind, P: pf.integrate_batch(kind, pf.GRADIENT, P),
    lambda kind, P: pf.hessian_spectrum_batch(kind, pf.GRADIENT, P),
], ids=["mean_volume_batch", "integrate_batch", "hessian_spectrum_batch"])
def test_batch_entries_name_a_bad_kind_before_a_bad_shape(entry, shape):
    # the kind rule runs first here too, as at every single-configuration entry
    with pytest.raises(ValueError, match=r"^unknown element kind 'cube'$"):
        entry("cube", np.ones(shape))


_ONES = np.ones((4, 3))

# Every public entry that takes a kind, called with kind k and otherwise
# valid tetrahedron arguments.
_KIND_ENTRIES = {
    "field": lambda k: pf.field(k, pf.GRADIENT, _ONES),
    "field_batch": lambda k: pf.field_batch(k, pf.GRADIENT, _ONES[None]),
    "f_value": lambda k: pf.f_value(k, pf.GRADIENT, _ONES),
    "mean_volume": lambda k: pf.mean_volume(k, _ONES),
    "mean_volume_batch": lambda k: pf.mean_volume_batch(k, _ONES[None]),
    "field_from_triangulations": lambda k: pf.field_from_triangulations(k, _ONES),
    "triangulations": lambda k: pf.triangulations(k),
    "reference_optimal": lambda k: pf.reference_optimal(k),
    "singularity_residual": lambda k: pf.singularity_residual(k, pf.GRADIENT, _ONES),
    "classify": lambda k: pf.classify(k, pf.GRADIENT, _ONES),
    "integrate": lambda k: pf.integrate(k, pf.GRADIENT, _ONES),
    "integrate_batch": lambda k: pf.integrate_batch(k, pf.GRADIENT, _ONES[None]),
    "shape_metrics": lambda k: pf.shape_metrics(k, _ONES),
    "pushed_field": lambda k: pf.pushed_field(k, pf.GRADIENT, _ONES),
    "field_jacobian": lambda k: pf.field_jacobian(k, pf.GRADIENT, _ONES),
    "asymmetry_ratio": lambda k: pf.asymmetry_ratio(k, pf.GRADIENT, _ONES),
    "hessian_spectrum": lambda k: pf.hessian_spectrum(k, pf.GRADIENT, _ONES),
    "hessian_spectrum_batch": lambda k: pf.hessian_spectrum_batch(k, pf.GRADIENT, _ONES[None]),
    "random_configuration": lambda k: pf.random_configuration(k, 1),
}


@pytest.mark.parametrize("entry", _KIND_ENTRIES.values(), ids=_KIND_ENTRIES)
def test_every_entry_names_an_unknown_kind(entry):
    # one rule, checked first: before a table lookup, a draw or pi, whose
    # vertices would all coincide here
    with pytest.raises(ValueError, match=r"^unknown element kind 'cube'$"):
        entry("cube")


# Every entry that takes one configuration p, as a function of p.
_CONFIGURATION_ENTRIES = {
    "field": lambda p: pf.field("tetrahedron", pf.GRADIENT, p),
    "f_value": lambda p: pf.f_value("tetrahedron", pf.GRADIENT, p),
    "mean_volume": lambda p: pf.mean_volume("tetrahedron", p),
    "singularity_residual": lambda p: pf.singularity_residual("tetrahedron", pf.GRADIENT, p),
    "classify": lambda p: pf.classify("tetrahedron", pf.GRADIENT, p),
    "integrate": lambda p: pf.integrate("tetrahedron", pf.GRADIENT, p),
    "shape_metrics": lambda p: pf.shape_metrics("tetrahedron", p),
    "pushed_field": lambda p: pf.pushed_field("tetrahedron", pf.GRADIENT, p),
    "field_jacobian": lambda p: pf.field_jacobian("tetrahedron", pf.GRADIENT, p),
    "asymmetry_ratio": lambda p: pf.asymmetry_ratio("tetrahedron", pf.GRADIENT, p),
    "hessian_spectrum": lambda p: pf.hessian_spectrum("tetrahedron", pf.GRADIENT, p),
}


@pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 4, 3)],
                         ids=["empty", "flat", "batch"])
@pytest.mark.parametrize("entry", _CONFIGURATION_ENTRIES.values(),
                         ids=_CONFIGURATION_ENTRIES)
def test_every_entry_names_a_bad_shape(entry, shape):
    # the shape is named before pi or any arithmetic runs on p
    message = f"tetrahedron expects shape (4, 3), got {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(np.ones(shape))


# The batch entries, with a good first row: the whole batch is checked.
_BATCH_ENTRIES = {
    "mean_volume_batch": lambda p: pf.mean_volume_batch(
        "tetrahedron", np.stack([pf.reference_optimal("tetrahedron"), p])),
    "integrate_batch": lambda p: pf.integrate_batch(
        "tetrahedron", pf.GRADIENT, np.stack([pf.reference_optimal("tetrahedron"), p])),
    "hessian_spectrum_batch": lambda p: pf.hessian_spectrum_batch(
        "tetrahedron", pf.GRADIENT, np.stack([pf.reference_optimal("tetrahedron"), p])),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", [*_CONFIGURATION_ENTRIES.values(), *_BATCH_ENTRIES.values()],
                         ids=[*_CONFIGURATION_ENTRIES, *_BATCH_ENTRIES])
def test_every_entry_refuses_a_non_finite_coordinate(entry, bad):
    # one rule, in elements._check and _check_batch: before pi or any
    # arithmetic, so no NaN is returned and no numpy warning leaks
    p = pf.reference_optimal("tetrahedron")
    p[1, 2] = bad
    with pytest.raises(pf.DegenerateConfigurationError,
                       match="^cannot measure a configuration with non-finite coordinates$"):
        entry(p)


# Every entry that measures p as given, without pi.
_UNPROJECTED_ENTRIES = {name: _CONFIGURATION_ENTRIES[name] for name in (
    "field", "f_value", "mean_volume", "singularity_residual", "classify",
    "shape_metrics", "field_jacobian", "asymmetry_ratio")}
_UNPROJECTED_ENTRIES["mean_volume_batch"] = lambda p: pf.mean_volume_batch("tetrahedron", p[None])


# The entries that return the volume <X, c> / 18 alone.
_VOLUME_ENTRIES = ("mean_volume", "mean_volume_batch")

# The entries that form the Jacobian at p divided by a power of two.
_JACOBIAN_ENTRIES = ("field_jacobian", "asymmetry_ratio")

# Every entry that measures p divided by a power of two and scales back.
_SCALED_ENTRIES = _JACOBIAN_ENTRIES + ("shape_metrics",)


@pytest.mark.parametrize("name,case", [
    *[(name, "scaled") for name in _UNPROJECTED_ENTRIES if name not in _SCALED_ENTRIES],
    *[(name, "one coordinate") for name in _UNPROJECTED_ENTRIES
      if name not in ("field", "f_value") and name not in _VOLUME_ENTRIES + _SCALED_ENTRIES]])
def test_an_overflow_is_one_error(name, case):
    # finite coordinates whose arithmetic overflows: every product of two
    # coordinates when scaled by 1e200; at one coordinate of 1e200, <c, c>
    # (field and f_value form none), though the volume, about 1e200, does
    # not, and the volume entries read only that.  One line, not a numpy
    # RuntimeWarning; the entries that apply pi first never overflow.
    p = pf.reference_optimal("tetrahedron")
    if case == "scaled":
        p *= 1e200
    else:
        p[1, 2] = 1e200
    with pytest.raises(pf.DegenerateConfigurationError,
                       match="^cannot measure a configuration whose arithmetic overflows$"):
        _UNPROJECTED_ENTRIES[name](p)


@pytest.mark.parametrize("case", ["scaled", "one coordinate"])
def test_the_jacobian_entries_do_not_overflow(case):
    # the same inputs: J is about 1e200 and finite, and it is formed at p
    # divided by a power of two, so neither X (about 1e400 when scaled) nor
    # a square in the ratio's norms is formed at p's scale
    p = pf.reference_optimal("tetrahedron")
    if case == "scaled":
        p *= 1e200
    else:
        p[1, 2] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = pf.field_jacobian("tetrahedron", pf.GRADIENT, p)
        ratio = pf.asymmetry_ratio("tetrahedron", pf.GRADIENT, p)
    assert np.isfinite(J).all() and np.abs(J).max() > 1e199
    assert 0.0 <= ratio < 1e-13  # a gradient field: J is symmetric


def _scaled_lengths(metrics, k):
    """The metrics with both edge lengths multiplied by 2^k."""
    return {**metrics, "edge_length_min": np.ldexp(metrics["edge_length_min"], k),
            "edge_length_max": np.ldexp(metrics["edge_length_max"], k)}


@pytest.mark.parametrize("kind", pf.KINDS)
def test_shape_metrics_do_not_depend_on_the_scale(rng, kind):
    # measured at p, and each edge, divided by a power of two: at 2^k p the
    # edge lengths are 2^k times p's and the rest is p's, bit for bit; at
    # 1e+-160 and 1e-170 (where p's squares underflow) no square overflows
    # or underflows, and the values are those of the configuration brought
    # into range by an exact power of two
    p = rng.normal(size=(pf.VERTEX_COUNT[kind], 3))
    metrics = pf.shape_metrics(kind, p)
    for k in (560, -560):
        assert pf.shape_metrics(kind, np.ldexp(p, k)) == _scaled_lengths(metrics, k)
    for scale in (1e160, 1e-160, 1e-170):
        far = scale * p
        k = int(np.frexp(np.abs(far).max())[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pf.shape_metrics(kind, far)
        assert got == _scaled_lengths(pf.shape_metrics(kind, np.ldexp(far, -k)), k)
        assert got["edge_length_max"] == pytest.approx(scale * metrics["edge_length_max"],
                                                       rel=1e-15)
        assert got["orientation_sign"] == metrics["orientation_sign"] != 0


def test_shape_metrics_of_a_far_vertex():
    # one coordinate of 1e200: each edge is measured at its own power of
    # two, so the unit edges keep their length beside the far ones
    p = pf.reference_optimal("tetrahedron")
    p[1, 2] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pf.shape_metrics("tetrahedron", p)
    assert got["edge_length_min"] == pytest.approx(1.0, rel=1e-15)
    assert got["edge_length_max"] == pytest.approx(1e200, rel=1e-15)
    assert got["edge_length_spread"] == 1.0
    assert got["orientation_sign"] == -1 == np.sign(pf.mean_volume("tetrahedron", p))


@pytest.mark.parametrize("far", [1e100, 1e200])
@pytest.mark.parametrize("kind", pf.KINDS)
def test_shape_metrics_orientation_of_a_far_vertex(kind, far):
    # with vertex 1 at z = far beside unit edges, the volume underflows at
    # p divided by the power of two above its largest entry, though it is
    # a float at p; the orientation is its sign all the same
    p = pf.reference_optimal(kind)
    p[0, 2] = far
    volume = pf.mean_volume(kind, p)
    assert volume != 0.0
    assert pf.shape_metrics(kind, p)["orientation_sign"] == np.sign(volume)


@pytest.mark.parametrize("big", [1e90, 1e120, 1e200])
@pytest.mark.parametrize("name", _VOLUME_ENTRIES)
def test_the_volume_ignores_an_overflowing_q_c(name, big):
    # q_c's |c|^3 overflows from a coordinate of about 1e103, <c, c> from
    # 1e155; the volume, about big / 20, is finite and returned
    p = pf.reference_optimal("tetrahedron")
    p[1, 2] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        volume = _UNPROJECTED_ENTRIES[name](p)
    assert volume == pytest.approx(pf.tet_signed_volume(*p), rel=1e-12)
    assert volume == pytest.approx(-4.811252243246881e-2 * big, rel=1e-12)


@pytest.mark.parametrize("name", _VOLUME_ENTRIES)
def test_the_volume_raises_where_x_c_overflows(name):
    # scaled by 1e104, X is finite (about 1e208) and <X, c> = 18 V is not
    p = 1e104 * pf.reference_optimal("tetrahedron")
    assert np.isfinite(pf.field("tetrahedron", pf.GRADIENT, p)).all()
    with pytest.raises(pf.DegenerateConfigurationError,
                       match="^cannot measure a configuration whose arithmetic overflows$"):
        _UNPROJECTED_ENTRIES[name](p)


def test_field_batch_names_an_undefined_variant():
    with pytest.raises(ValueError, match=r"^variant 'y_variant' not defined for tetrahedron$"):
        pf.field_batch("tetrahedron", pf.Y_VARIANT, _ONES[None])


def _hexahedron_y_potential(p):
    # 6 x (mean volume + (V_1386 + V_2457) / 2): the two central tets of
    # the hexahedron triangulations counted once more
    central = sum(pf.tet_signed_volume(*(p[i - 1] for i in tet))
                  for tet in ((1, 3, 8, 6), (2, 4, 5, 7)))
    return 6.0 * (pf.mean_volume("hexahedron", p) + 0.5 * central)


def test_hexahedron_y_field_is_a_gradient(rng):
    h = 1e-6
    for _ in range(20):
        p = rng.normal(size=(8, 3))
        X = pf.field("hexahedron", pf.Y_VARIANT, p)
        fd = np.zeros_like(p)
        for i in range(8):
            for c in range(3):
                q = p.copy()
                q[i, c] += h
                up = _hexahedron_y_potential(q)
                q[i, c] -= 2 * h
                fd[i, c] = (up - _hexahedron_y_potential(q)) / (2 * h)
        assert np.abs(X - fd).max() <= 1e-6 * max(np.abs(X).max(), 1e-12)


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


def test_mean_volume_exactly_zero_where_flat_or_coincident():
    # <X, c> / 18 is 0.0 exactly where the field vanishes, and raises no
    # numpy warning where every vertex coincides
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pf.mean_volume("pyramid", pf.level0_pyramid()) == 0.0
        for kind in pf.KINDS:
            p = np.full((pf.VERTEX_COUNT[kind], 3), 3.7)
            assert pf.mean_volume(kind, p) == 0.0
            assert pf.mean_volume_batch(kind, np.stack([p, 0.0 * p])).tolist() == [0.0, 0.0]


# Per kind: the largest relative error of the volume of 200 normal random
# shapes shifted by 1e6 (rng seed 1), as a per-tet determinant sum gives
# it.  The rounding of the shifted input dominates it.
_SHIFTED_VOLUME_ERROR = {"tetrahedron": 2.7e-9, "pyramid": 7.5e-9, "prism": 3.3e-9,
                         "hexahedron": 6.2e-9, "octahedron": 2.2e-8}


def test_mean_volume_far_from_origin():
    rng = np.random.default_rng(1)
    for kind in pf.KINDS:
        P = rng.normal(size=(200, pf.VERTEX_COUNT[kind], 3))
        tables = pf.TRIANGULATIONS[kind]
        loop = np.array([sum(pf.tet_signed_volume(*(p[i - 1] for i in tet))
                             for table in tables for tet in table) / len(tables)
                         for p in P])
        V = pf.mean_volume_batch(kind, P + 1e6)
        worst = float((np.abs(V - loop) / np.abs(loop)).max())
        assert worst <= _SHIFTED_VOLUME_ERROR[kind], (kind, worst)


def test_collinear_tetrahedron_factory():
    p = pf.collinear_tetrahedron()
    assert pf.is_collinear(p)
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12
    assert pf.f_value("tetrahedron", pf.GRADIENT, p) == pytest.approx(0.0,
                                                                      abs=1e-15)
