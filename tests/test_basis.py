from math import comb

import numpy as np
import pytest

from pyhho.basis import Basis, face_basis, scaled_monomial_basis
from pyhho.mesh import build_interval_mesh, build_structured_mesh
from pyhho.quadrature import face_quadrature
from pyhho.projection import l2_project

from support import basis_gradients, pointwise_gradients


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", range(7))
def test_basis_count_law(dim, k):
    if dim == 1:
        mesh = build_interval_mesh(0.0, 1.0, 1)
    else:
        mesh = build_structured_mesh("quad", 1, 1)
    b = scaled_monomial_basis(mesh.cell_geometry(0), k)
    assert b.size == comb(k + dim, dim)
    assert (b.exponents.sum(axis=1) <= k).all()
    # graded ordering: constant first, degrees nondecreasing
    degs = b.exponents.sum(axis=1)
    assert degs[0] == 0
    assert (np.diff(degs) >= 0).all()


def test_degree_cap():
    mesh = build_structured_mesh("quad", 1, 1)
    assert scaled_monomial_basis(mesh.cell_geometry(0), 6).size == 28
    with pytest.raises(ValueError, match="degree 7 above cap 6"):
        scaled_monomial_basis(mesh.cell_geometry(0), 7)
    with pytest.raises(ValueError, match="degree 7 above cap 6"):
        face_basis(mesh, 0, 7)


@pytest.mark.parametrize("k", range(7))
def test_values_are_products_of_powers_bit_for_bit(k):
    # the in-place evaluation equals the product over components of each
    # coordinate's repeated-multiplication power, exactly
    rng = np.random.default_rng(k)
    b = Basis(entity_dim=2, degree=k, center=rng.random((3, 2)), map=rng.random((3, 2, 2)) + 0.5)
    pts = rng.random((3, 5, 2))
    vals = b.eval(pts)
    xt = (pts - b.center[:, None]) @ b.map.mT
    for i, (a, c) in enumerate(b.exponents):
        xa, yc = np.ones(pts.shape[:-1]), np.ones(pts.shape[:-1])
        for _ in range(a):
            xa = xa * xt[..., 0]
        for _ in range(c):
            yc = yc * xt[..., 1]
        np.testing.assert_array_equal(vals[..., i], xa * yc)
    np.testing.assert_array_equal(b.eval(pts), vals)


def test_values_at_center():
    mesh = build_structured_mesh("tri", 1, 1)
    g = mesh.cell_geometry(0)
    b = scaled_monomial_basis(g, 3)
    vals = b.eval(g.barycenter[None, :])
    expect = np.zeros(b.size)
    expect[0] = 1.0
    np.testing.assert_allclose(vals[0], expect, atol=1e-15)


def test_1d_hand_example():
    # center 0, map [[1]], k = 2, evaluated at x = 1: x_tilde = 1
    b = Basis(entity_dim=1, degree=2, center=np.zeros(1), map=np.eye(1))
    x = np.array([[1.0]])
    vals, grads = b.eval(x), basis_gradients(b, x)
    np.testing.assert_allclose(vals[0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(grads[0, :, 0], [0.0, 1.0, 2.0])


def test_2d_hand_example():
    # center (0,0), map I: x_tilde = x; the function x~ y~ at (1,1)
    b = Basis(entity_dim=2, degree=2, center=np.zeros(2), map=np.eye(2))
    idx = [i for i, e in enumerate(b.exponents) if tuple(e) == (1, 1)][0]
    x = np.array([[1.0, 1.0]])
    vals, grads = b.eval(x), basis_gradients(b, x)
    assert vals[0, idx] == pytest.approx(1.0)
    np.testing.assert_allclose(grads[0, idx], [1.0, 1.0])


@pytest.mark.parametrize("k", range(5))
def test_gradients_match_finite_differences(k):
    mesh = build_structured_mesh("tri", 1, 1)
    b = scaled_monomial_basis(mesh.cell_geometry(0), k)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.1, 0.9, size=(5, 2))
    grads = basis_gradients(b, pts)
    eps = 1e-6
    for c in range(2):
        d = np.zeros(2)
        d[c] = eps
        vp = b.eval(pts + d)
        vm = b.eval(pts - d)
        fd = (vp - vm) / (2 * eps)
        np.testing.assert_allclose(grads[:, :, c], fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("entity_dim, dim", [(1, 1), (1, 2), (2, 2)],
                         ids=["interval", "face", "cell"])
@pytest.mark.parametrize("k", range(7))
def test_derivatives_match_pointwise_gradients(entity_dim, dim, k):
    # stacked bases with random turned maps; a face basis differentiates tangentially
    rng = np.random.default_rng(k)
    b = Basis(entity_dim=entity_dim, degree=k, center=rng.random((3, dim)),
              map=rng.random((3, entity_dim, dim)) + 0.5)
    pts = rng.random((3, 5, dim))
    assert b.derivatives().shape == (3, dim, b.size, b.size)
    ref = pointwise_gradients(b, pts)
    np.testing.assert_allclose(basis_gradients(b, pts), ref, rtol=0, atol=1e-14 * abs(ref).max())


def test_constant_gradient_zero():
    mesh = build_structured_mesh("quad", 1, 1)
    b = scaled_monomial_basis(mesh.cell_geometry(0), 4)
    x = np.array([[5.0, -3.0]])  # extrapolation allowed
    vals, grads = b.eval(x), basis_gradients(b, x)
    assert vals[0, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(grads[0, 0], 0.0)
    assert np.isfinite(vals).all()


def test_face_basis_orientation_invariance():
    mesh = build_structured_mesh("tri", 1, 1)
    fi = int(np.flatnonzero(~mesh.boundary_faces)[0])
    fb = face_basis(mesh, fi, 2)
    flipped = Basis(entity_dim=1, degree=2, center=fb.center, map=-fb.map)
    rule = face_quadrature(mesh, fi, 8)
    f = lambda x: np.sin(x[:, 0] + 2 * x[:, 1])
    ca = l2_project(fb, rule, f)
    cb = l2_project(flipped, rule, f)
    pa = fb.eval(rule.points)
    pb = flipped.eval(rule.points)
    np.testing.assert_allclose(pa @ ca, pb @ cb, atol=1e-12)
