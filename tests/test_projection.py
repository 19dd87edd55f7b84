import numpy as np
import pytest

from pyhho import elasticity, local_ops
from pyhho.basis import scaled_monomial_basis
from pyhho.local_ops import build_cell_context
from pyhho.mesh import build_interval_mesh, build_structured_mesh
from pyhho.projection import (HhoDegrees, dof_layout, equal_order, gather_local,
                              l2_project, mixed_order,
                              reduce_global, reduce_local, spd_inverse)
from pyhho.quadrature import cell_quadrature

from support import jittered_mesh


def interval_cell(a=-1.0, b=1.0):
    return build_interval_mesh(a, b, 1).cell_geometry(0)


def test_mass_matrix_hand_example():
    # cell (-1, 1): h = 2, x_tilde = x, so the degree-1 basis (the
    # reconstruction basis at k = 0) has M = diag(2, 2/3)
    mesh = build_interval_mesh(-1.0, 1.0, 1)
    M = build_cell_context(mesh, 0, equal_order(0)).mass_full[0]
    np.testing.assert_allclose(M, [[2.0, 0.0], [0.0, 2.0 / 3.0]], atol=1e-14)


def test_project_polynomial_reproduction():
    g = interval_cell(0.3, 1.7)
    basis = scaled_monomial_basis(g, 3)
    rule = cell_quadrature(g, 8)
    coef = l2_project(basis, rule, lambda x: x[:, 0] ** 3)
    pts = np.linspace(0.3, 1.7, 7)[:, None]
    vals = basis.eval(pts)
    np.testing.assert_allclose(vals @ coef, pts[:, 0] ** 3, atol=1e-12)


def test_project_sin_onto_constants():
    g = interval_cell(0.0, 1.0)
    basis = scaled_monomial_basis(g, 0)
    rule = cell_quadrature(g, 12)
    coef = l2_project(basis, rule, lambda x: np.sin(np.pi * x[:, 0]))
    assert coef[0] == pytest.approx(2.0 / np.pi, rel=1e-12)


def test_project_idempotent():
    mesh = build_structured_mesh("quad", 1, 1)
    g = mesh.cell_geometry(0)
    basis = scaled_monomial_basis(g, 2)
    rule = cell_quadrature(g, 10)
    f = lambda x: np.cos(x[:, 0]) * np.exp(x[:, 1])
    c1 = l2_project(basis, rule, f)
    vals = basis.eval(rule.points)
    c2 = l2_project(basis, rule, lambda x: basis.eval(x) @ c1)
    np.testing.assert_allclose(c1, c2, atol=1e-12)


def test_project_orthogonality():
    mesh = build_structured_mesh("tri", 1, 1)
    g = mesh.cell_geometry(1)
    basis = scaled_monomial_basis(g, 2)
    rule = cell_quadrature(g, 10)
    f = lambda x: np.sin(x[:, 0] + x[:, 1])
    coef = l2_project(basis, rule, f)
    vals = basis.eval(rule.points)
    resid = f(rule.points) - vals @ coef
    rng = np.random.default_rng(4)
    for _ in range(5):
        q = vals @ rng.standard_normal(basis.size)
        assert abs(np.sum(rule.weights * resid * q)) < 1e-10


def test_best_approximation_monotone():
    g = interval_cell(0.0, 1.0)
    rule = cell_quadrature(g, 14)
    f = lambda x: np.exp(np.sin(3 * x[:, 0]))
    errs = []
    for k in range(4):
        basis = scaled_monomial_basis(g, k)
        coef = l2_project(basis, rule, f)
        vals = basis.eval(rule.points)
        errs.append(np.sqrt(np.sum(rule.weights * (f(rule.points) - vals @ coef) ** 2)))
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))


def test_degrees_validation():
    with pytest.raises(ValueError):
        HhoDegrees(k_face=-1)
    with pytest.raises(ValueError):
        HhoDegrees(k_face=1, k_cell=3)
    assert mixed_order(1).mixed and not equal_order(1).mixed


def test_layout_blocks():
    mesh = build_structured_mesh("quad", 1, 1)
    layout = dof_layout(mesh, equal_order(1), 4)
    assert layout.cell_width == 3
    assert layout.face_width == 2
    assert layout.size == 3 + 4 * 2
    assert layout.face(0) == slice(3, 5)
    layout_v = dof_layout(mesh, HhoDegrees(1, 2, rank=2), 4)
    assert layout_v.cell_width == 2 * 6
    assert layout_v.face_width == 4


def test_full_dof_count_law():
    # dim(HHO space) = C(k+d,d) #cells + C(k+d-1,d-1) #faces
    for k in (0, 1, 2):
        mesh = build_structured_mesh("tri", 2, 2)
        layout = dof_layout(mesh, equal_order(k), 1)
        total = layout.cell_width * mesh.n_cells + layout.face_width * mesh.n_faces
        from math import comb
        assert total == comb(k + 2, 2) * mesh.n_cells + comb(k + 1, 1) * mesh.n_faces


@pytest.mark.parametrize("degrees", [equal_order(1), mixed_order(1)])
def test_reduce_reproduces_polynomials(degrees):
    mesh = build_structured_mesh("quad", 1, 1)
    kc = degrees.k_cell
    v = lambda x: (x[:, 0] + 0.7 * x[:, 1]) ** kc
    red = reduce_local(mesh, 0, degrees, v)
    layout = dof_layout(mesh, degrees, 4)
    g = mesh.cell_geometry(0)
    basis = scaled_monomial_basis(g, kc)
    pts = np.array([[0.1, 0.2], [0.9, 0.8], [0.4, 0.6]])
    vals = basis.eval(pts)
    np.testing.assert_allclose(vals @ red[layout.cell], v(pts), atol=1e-12)


def test_reduce_1d_point_values():
    mesh = build_interval_mesh(0.0, 1.0, 1)
    red = reduce_local(mesh, 0, equal_order(1), lambda x: x[:, 0])
    layout = dof_layout(mesh, equal_order(1), 2)
    assert red[layout.face(0)][0] == pytest.approx(0.0, abs=1e-14)
    assert red[layout.face(1)][0] == pytest.approx(1.0)


def test_reduce_global_constant():
    mesh = build_structured_mesh("tri", 2, 1)
    cells, faces = reduce_global(mesh, equal_order(1), lambda x: np.ones(len(x)))
    np.testing.assert_allclose(cells[:, 0], 1.0, atol=1e-13)
    np.testing.assert_allclose(cells[:, 1:], 0.0, atol=1e-13)
    np.testing.assert_allclose(faces[:, 0], 1.0, atol=1e-13)
    np.testing.assert_allclose(faces[:, 1:], 0.0, atol=1e-13)


def test_reduce_global_interface_shared():
    mesh = build_structured_mesh("quad", 2, 1)
    v = lambda x: 2.0 * x[:, 0] - x[:, 1]
    cells, faces = reduce_global(mesh, equal_order(1), v)
    local = reduce_local(mesh, 1, equal_order(1), v)
    gathered = gather_local(mesh, 1, equal_order(1), cells, faces)
    np.testing.assert_allclose(gathered, local, atol=1e-12)


def test_reduce_vector_componentwise():
    mesh = build_structured_mesh("quad", 1, 1)
    deg = HhoDegrees(1, 1, rank=2)
    v = lambda x: np.column_stack([x[:, 0], -x[:, 1]])
    red = reduce_local(mesh, 0, deg, v)
    red0 = reduce_local(mesh, 0, equal_order(1), lambda x: x[:, 0])
    red1 = reduce_local(mesh, 0, equal_order(1), lambda x: -x[:, 1])
    layout = dof_layout(mesh, deg, 4)
    np.testing.assert_allclose(red[layout.cell][0::2], red0[:3], atol=1e-13)
    np.testing.assert_allclose(red[layout.cell][1::2], red1[:3], atol=1e-13)


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=["single", "stack", "stack2"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 24, 32])
def test_spd_inverse_matches_inv(n, lead):
    rng = np.random.default_rng(n)
    B = rng.standard_normal(lead + (n, n))
    M = B @ B.mT + 0.1 * np.eye(n)
    expect = np.linalg.inv(M)
    F = spd_inverse(M, np.arange(5), what="unused")
    assert F.shape == M.shape
    assert not np.triu(F, 1).any()                      # the inverse factor L^-1
    assert np.abs(F @ M @ F.mT - np.eye(n)).max() <= 1e-12
    assert np.abs(F.mT @ F - expect).max() <= 1e-12 * np.abs(expect).max()


def test_spd_inverse_names_the_indefinite_entry():
    M = np.broadcast_to(np.eye(4), (5, 4, 4)).copy()
    M[2, 1, 1] = M[4, 0, 0] = -1.0           # the first of two is named
    with pytest.raises(ValueError, match="^face 12: not positive definite$"):
        spd_inverse(M, np.arange(10, 15), what="not positive definite", entity="face")


def zeroed_constraints(monkeypatch, module, b):
    """Patch ``module``'s reconstruction kernel to zero the constraint rows of
    group row ``b``: the constants then span a null column of its augmented
    matrix, and its triangle has a zero diagonal."""
    kernel = module.constrained_projection

    def corrupted(ctx, B, h, C, D, what):
        C = C.copy()
        C[b] = 0.0
        return kernel(ctx, B, h, C, D, what)

    monkeypatch.setattr(module, "constrained_projection", corrupted)


def test_singular_displacement_reconstruction_names_its_cell(monkeypatch):
    mesh = jittered_mesh("tri", 3, 1)
    ctx = build_cell_context(mesh, np.arange(mesh.n_cells), HhoDegrees(1, 1, rank=2))
    zeroed_constraints(monkeypatch, elasticity, 4)
    with pytest.raises(ValueError, match=f"^cell {ctx.cells[4]}: singular "
                                         "displacement-reconstruction system$"):
        elasticity.displacement_reconstruction(ctx)


@pytest.mark.parametrize("k", [0, 2])
def test_singular_reconstruction_names_its_cell(monkeypatch, k):
    mesh = jittered_mesh("quad", 3, 1)
    ctx = build_cell_context(mesh, np.arange(mesh.n_cells), equal_order(k))
    zeroed_constraints(monkeypatch, local_ops, 4)
    with pytest.raises(ValueError, match=f"^cell {ctx.cells[4]}: singular reconstruction system$"):
        local_ops.reconstruction(ctx)
