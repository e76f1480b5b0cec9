import numpy as np
import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st

import polyflow as pf

from conftest import finite_points


def test_tau_pins_last_vertex():
    p = np.array([[1.0, 1, 1], [2, 2, 2]])
    assert np.allclose(pf.tau(p), [[-1, -1, -1], [0, 0, 0]])
    q = np.array([[1.0, 2, 3], [0, 0, 0]])
    assert np.array_equal(pf.tau(q), q)
    batch = np.stack([p, q, 2.0 * p])
    assert np.array_equal(pf.tau(batch), [pf.tau(b) for b in batch])


def test_sigma_normalizes():
    p = np.array([[3.0, 0, 0], [0, 4, 0]])
    assert np.allclose(pf.sigma(p), [[0.6, 0, 0], [0, 0.8, 0]])
    assert np.allclose(pf.sigma(pf.sigma(p)), pf.sigma(p))
    with pytest.raises(pf.DegenerateConfigurationError):
        pf.sigma(np.zeros((2, 3)))


def test_pi_degenerate():
    with pytest.raises(pf.DegenerateConfigurationError):
        pf.pi(np.ones((4, 3)))


def test_sigma_rescales_only_rows_out_of_range(rng):
    # a finite configuration whose squared norm overflows or underflows
    # still normalizes; rows in range are untouched
    p = rng.normal(size=(4, 3))
    batch = np.stack([p, 1e300 * p, 1e-300 * p, np.ldexp(p, 1000), np.ldexp(p, -1000)])
    out = pf.sigma(batch)
    assert np.array_equal(out[0], pf.sigma(p))
    assert np.allclose(out[1:3], pf.sigma(p), rtol=0.0, atol=1e-15)
    # a power of two scales out exactly: those rows keep sigma(p)'s bits
    assert out[3].tobytes() == out[4].tobytes() == pf.sigma(p).tobytes()
    huge = np.array([[1e308, 0, 0], [-1e308, 0, 0], [0, 1, 0], [0, 0, 1]])
    s = np.sqrt(0.5)
    assert np.allclose(pf.pi(huge), [[s, 0, 0], [-s, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_pi_and_sigma_do_not_depend_on_the_scale(rng):
    # both divide by the power of two above max|p|, exactly: pi(2^k p) and
    # sigma(2^k p) keep the bits of pi(p) and sigma(p) over the float range
    p = rng.normal(size=(5, 3))
    for k in range(-1000, 1001, 50):
        q = np.ldexp(p, k)
        assert pf.pi(q).tobytes() == pf.pi(p).tobytes(), k
        assert pf.sigma(q).tobytes() == pf.sigma(p).tobytes(), k


@pytest.mark.parametrize("k", [-500, -301, -1, 1, 300, 500])
def test_psi_scales_exactly(rng, k):
    # psi(4^k v) = 2^k psi(v) bit for bit: psi is formed at v divided by
    # an even power of two, so sqrt|v| scales exactly
    v = rng.normal(size=(2, 6, 3))
    assert pf.psi(np.ldexp(v, 2 * k)).tobytes() == np.ldexp(pf.psi(v), k).tobytes()


@pytest.mark.parametrize("k", [600, -600])
def test_push_tangent_scales_exactly(rng, k):
    # push_tangent(2^k p, v) = 2^-k push_tangent(p, v) bit for bit
    p, v = rng.normal(size=(2, 3, 5, 3))
    got = pf.push_tangent(np.ldexp(p, k), v)
    assert got.tobytes() == np.ldexp(pf.push_tangent(p, v), -k).tobytes()


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_psi_and_push_tangent_at_extreme_scales(rng, scale):
    # <v, v> and <p, p> overflow or underflow at these scales: both are
    # formed at the input divided by a power of two, with no warning
    p, v = rng.normal(size=(2, 4, 3))
    assert np.allclose(pf.psi(scale * v), np.sqrt(scale) * pf.psi(v),
                       rtol=1e-14, atol=0.0)
    assert np.allclose(pf.push_tangent(scale * p, v), pf.push_tangent(p, v) / scale,
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad,needle", [
    (np.zeros((4, 3)), "zero configuration"),
    (np.full((4, 3), np.nan), "non-finite"),
    (np.full((4, 3), np.inf), "non-finite"),
])
def test_sigma_names_the_cause(rng, bad, needle):
    batch = np.stack([rng.normal(size=(4, 3)), bad])
    with pytest.raises(pf.DegenerateConfigurationError, match=needle):
        pf.sigma(batch)


def test_sphere_ops_take_batch_axes(rng):
    P = rng.normal(size=(2, 3, 4, 3))
    V = rng.normal(size=P.shape)
    for op, args in ((pf.sigma, (P,)), (pf.pi, (P,)), (pf.push_tangent, (P, V))):
        out = op(*args)
        assert out.shape == P.shape
        for idx in np.ndindex(P.shape[:2]):
            assert np.allclose(out[idx], op(*(a[idx] for a in args)),
                               rtol=0.0, atol=1e-15)


@settings(max_examples=150)
@given(finite_points(5), st.floats(0.1, 10.0), finite_points(1))
def test_pi_invariance(p, lam, c):
    assume(np.linalg.norm(pf.tau(p)) > 1e-6)
    a = pf.pi(p)
    b = pf.pi(lam * p + c[0])
    assert np.allclose(a, b, atol=1e-12)
    # p already on N is untouched
    assert np.allclose(pf.pi(a), a, atol=1e-12)


def test_push_tangent_kills_radial_and_translation(rng):
    p = pf.pi(rng.normal(size=(4, 3)))
    assert np.allclose(pf.push_tangent(p, 3.7 * p), 0.0, atol=1e-12)
    const = np.tile(rng.normal(size=3), (4, 1))
    assert np.allclose(pf.push_tangent(p, const), 0.0, atol=1e-12)


def test_push_tangent_orthogonal(rng):
    p = pf.pi(rng.normal(size=(5, 3)))
    v = rng.normal(size=(5, 3))
    w = pf.push_tangent(p, v)
    assert abs(np.vdot(w, p)) < 1e-12
    assert np.allclose(w[-1], 0.0)


def test_push_tangent_projector(rng):
    # idempotent linear map of the 3n ambient space; oblique, not
    # orthogonal: pinning kills translations along non-orthogonal
    # directions, so no symmetry assertion here
    p = pf.pi(rng.normal(size=(4, 3)))
    m = 12
    basis = np.eye(m)
    P = np.column_stack([
        pf.push_tangent(p, basis[:, k].reshape(4, 3)).ravel() for k in range(m)])
    assert np.allclose(P @ P, P, atol=1e-12)
    # translations lie in the kernel, the image is tangent at p
    for c in np.eye(3):
        assert np.allclose(P @ np.tile(c, 4), 0.0, atol=1e-12)
    v = rng.normal(size=m)
    assert abs(np.dot(P @ v, p.ravel())) < 1e-12


def test_psi_cases(rng):
    v = rng.normal(size=(4, 3))
    v *= 4.0 / np.linalg.norm(v)
    assert np.allclose(pf.psi(v), v / 2.0)
    assert np.allclose(pf.psi(np.zeros((4, 3))), 0.0)
    t = 1.7
    assert np.allclose(pf.psi(t * t * v), t * pf.psi(v), atol=1e-12)
    # each entry of a leading batch shape is rescaled by its own norm
    batch = np.stack([v, np.zeros((4, 3)), 9.0 * v]).reshape(3, 1, 4, 3)
    assert np.allclose(pf.psi(batch)[:, 0], [v / 2.0, np.zeros((4, 3)), 1.5 * v])


def test_is_collinear():
    line = np.outer([0.0, 1.0, 2.0, 5.0], [1.0, 2.0, -1.0])
    assert pf.is_collinear(line)
    assert not pf.is_collinear(pf.reference_optimal("tetrahedron"))
    wiggled = line + 1e-12 * np.arange(12).reshape(4, 3)
    assert pf.is_collinear(wiggled, tol=1e-9)
    assert pf.is_collinear(np.ones((4, 3)))  # four coincident points


def test_push_tangent_at_zero_configuration():
    with pytest.raises(pf.DegenerateConfigurationError, match="zero configuration"):
        pf.push_tangent(np.zeros((4, 3)), np.ones((4, 3)))


def test_quotient_field_well_defined(rng):
    # pushing the rescaled field at the pinned (unnormalized)
    # representative is representative independent: the square-root
    # rescaling contributes one factor of scale, the division by the
    # representative norm inside push_tangent removes it
    kind = "prism"
    p = rng.normal(size=(6, 3))
    q = 2.5 * p + rng.normal(size=3)
    a = pf.push_tangent(pf.tau(p), pf.psi(pf.field(kind, pf.GRADIENT, p)))
    b = pf.push_tangent(pf.tau(q), pf.psi(pf.field(kind, pf.GRADIENT, q)))
    assert np.allclose(a, b, atol=1e-10)
