import numpy as np
import pytest

from pyhho.basis import face_basis, scaled_monomial_basis
from pyhho.elasticity import (displacement_reconstruction,
                              divergence_reconstruction,
                              local_bilinear_elastic, strain_reconstruction)
from pyhho.local_ops import (build_cell_context, gradient_reconstruction, reconstruction,
                             stabilization_equal_order)
from pyhho.mesh import build_hanging_node_mesh, build_structured_mesh
from pyhho.projection import (HhoDegrees, l2_project, mass_cholesky, mixed_order,
                              reduce_local)
from pyhho.quadrature import cell_quadrature, face_quadrature

from support import (TENSOR_WEIGHTS, data_rule_basis, grad_mass, gradient_moments, rotated,
                     strain_columns, strain_gram, tensor_columns)

VDEG = HhoDegrees(k_face=1, k_cell=1, rank=2)
VDEG2 = HhoDegrees(k_face=2, k_cell=2, rank=2)
VMIX = HhoDegrees(k_face=1, k_cell=2, rank=2)

def pentagon_cell():
    mesh = build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [3])
    return mesh, next(c for c in range(mesh.n_cells) if len(mesh.cells[c]) == 5)


RIGID = [lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))]),
         lambda x: np.column_stack([np.zeros(len(x)), np.ones(len(x))]),
         lambda x: np.column_stack([-x[:, 1], x[:, 0]])]


def eval_strain(ctx, Es, dofs, pts):
    vals = ctx.rec_basis.eval(pts[None])[0]
    c = [Es[0, m] @ dofs for m in range(3)]
    out = np.empty((len(pts), 2, 2))
    out[:, 0, 0] = vals[:, :ctx.n_k] @ c[0]
    out[:, 1, 1] = vals[:, :ctx.n_k] @ c[1]
    out[:, 0, 1] = out[:, 1, 0] = vals[:, :ctx.n_k] @ c[2]
    return out


def test_strain_reconstruction_oracle():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, VDEG)
    Es = strain_reconstruction(ctx)
    v = lambda x: np.column_stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]])
    red = reduce_local(mesh, 0, VDEG, v)
    pts = np.array([[0.2, 0.7], [0.8, 0.4]])
    eps = eval_strain(ctx, Es, red, pts)
    expect = np.empty_like(eps)
    expect[:, 0, 0] = 2 * pts[:, 0]
    expect[:, 1, 1] = pts[:, 0]
    expect[:, 0, 1] = expect[:, 1, 0] = pts[:, 1] / 2
    np.testing.assert_allclose(eps, expect, atol=1e-12)


def test_strain_of_rigid_and_constant_vanishes():
    mesh = build_structured_mesh("tri", 1, 1)
    ctx = build_cell_context(mesh, 0, VDEG)
    Es = strain_reconstruction(ctx)
    for r in RIGID:
        red = reduce_local(mesh, 0, VDEG, r)
        assert max(np.abs(Es[0, m] @ red).max() for m in range(3)) < 1e-13


def strain_by_face_assembly(ctx):
    """Reference: the strain assembled from its own defining equations,
    ``(E v, tau) = (eps(v_T), tau) - sum_F (v_T - v_F, tau n)_F``, face by
    face on the vector layout."""
    n_k, n_cell, layout = ctx.n_k, ctx.n_cell, ctx.layout
    rule, phi, dphi = data_rule_basis(ctx)
    w = rule.weights
    eps_cell = strain_columns(dphi[:, :, :n_cell, :])
    rhs = np.zeros((len(ctx.cells), 3, n_k, layout.size))
    rhs[..., layout.cell] = TENSOR_WEIGHTS[:, None, None] * np.einsum(
        "bqi,bqjm->bmij", w[..., None] * phi[:, :, :n_k], eps_cell)
    f = ctx.faces
    for i in range(layout.n_faces):
        # Cartesian components of E_m n for the unit tensors E_xx, E_yy, E_xy
        normal = f.normal[:, i]
        en = np.zeros((len(normal), 3, 2))
        en[:, 0, 0] = normal[:, 0]
        en[:, 1, 1] = normal[:, 1]
        en[:, 2, 0], en[:, 2, 1] = normal[:, 1], normal[:, 0]
        en = en[..., None, None]
        wq = (f.weights[:, i, :, None] * f.phi[:, i, :, :n_k]).mT
        blk = (wq @ f.phi[:, i, :, :n_cell])[:, None]
        fb = (wq @ f.psi[:, i])[:, None]
        for a in range(2):
            rhs[..., layout.cell][..., a::2] -= blk * en[:, :, a]
            rhs[..., layout.face(i)][..., a::2] += fb * en[:, :, a]
    Mk_inv = mass_cholesky(ctx.mass_full[:, :n_k, :n_k], ctx.cells)
    return (Mk_inv[:, None] @ rhs) / TENSOR_WEIGHTS[:, None, None]


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_strain_is_symmetric_scalar_gradient(k, mixed):
    deg = HhoDegrees(k_face=k, k_cell=k + mixed, rank=2)
    tri = build_structured_mesh("tri", 2, 2)
    hanging = build_hanging_node_mesh(build_structured_mesh("quad", 3, 3), [4])
    shapes = set()
    for mesh in (tri, hanging):
        for cells in mesh.cell_groups():
            ctx = build_cell_context(mesh, cells, deg)
            shapes.add(ctx.geom.n_faces)
            G = gradient_reconstruction(ctx)
            assert G.shape == (len(cells), 2, ctx.n_k, ctx.layout.size // 2)
            Es, ref = strain_reconstruction(ctx), strain_by_face_assembly(ctx)
            np.testing.assert_allclose(Es, ref, rtol=0, atol=1e-14 * np.abs(ref).max())
    assert shapes == {3, 4, 5}      # triangles, quads and hanging-node pentagons


def divergence_oracle(ctx):
    """Independent build straight from the defining equations."""
    n_k, layout = ctx.n_k, ctx.layout
    rule, phi, dphi = data_rule_basis(ctx)
    w = rule.weights[0]
    rhs = np.zeros((n_k, layout.size))
    for c in range(2):
        rhs[:, layout.cell][:, c::2] -= dphi[0, :, :n_k, c].T @ (
            w[:, None] * phi[0, :, :ctx.n_cell])
    f = ctx.faces
    for i in range(layout.n_faces):
        fw = f.weights[0, i]
        for c in range(2):
            rhs[:, layout.face(i)][:, c::2] += f.normal[0, i, c] * (
                f.phi[0, i, :, :n_k].T @ (fw[:, None] * f.psi[0, i]))
    M = ctx.mass_full[0, :n_k, :n_k]
    return np.linalg.solve(M, rhs)


def test_divergence_is_trace_of_strain():
    mesh = build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [2])
    ci = next(c for c in range(mesh.n_cells) if len(mesh.cells[c]) == 5)
    ctx = build_cell_context(mesh, ci, VDEG2)
    Es = strain_reconstruction(ctx)
    Dv = divergence_reconstruction(ctx, Es)
    np.testing.assert_allclose(Dv[0], divergence_oracle(ctx), atol=1e-13)


def test_divergence_commutes():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, VDEG)
    Dv = divergence_reconstruction(ctx)[0]
    cases = [
        (lambda x: np.column_stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]]),
         lambda x: 3 * x[:, 0]),
        (lambda x: np.column_stack([x[:, 1], -x[:, 0]]),
         lambda x: np.zeros(len(x))),
        (lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))]),
         lambda x: np.zeros(len(x))),
        (lambda x: np.column_stack([x[:, 0] ** 3, x[:, 1] ** 3]),
         lambda x: 3 * x[:, 0] ** 2 + 3 * x[:, 1] ** 2),
    ]
    cb = scaled_monomial_basis(mesh.cell_geometry(0), 1)
    rule = cell_quadrature(mesh.cell_geometry(0), 10)
    for v, dv in cases:
        red = reduce_local(mesh, 0, VDEG, v)
        proj = l2_project(cb, rule, dv)
        np.testing.assert_allclose(Dv @ red, proj, atol=1e-12)


def test_displacement_reconstruction_reproduces():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, VDEG)
    Dep = displacement_reconstruction(ctx)[0]
    pts = np.array([[0.3, 0.4], [0.9, 0.2], [0.5, 0.8]])
    vals = ctx.rec_basis.eval(pts[None])[0]
    targets = [lambda x: np.column_stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]]),
               lambda x: np.column_stack([1.0 - x[:, 1], x[:, 0]])]
    for v in targets:
        red = reduce_local(mesh, 0, VDEG, v)
        coef = Dep @ red
        got = np.column_stack([vals @ coef[0::2], vals @ coef[1::2]])
        np.testing.assert_allclose(got, v(pts), atol=1e-11)


def test_displacement_mean_matches_cell_mean():
    mesh = build_structured_mesh("tri", 2, 2)
    ctx = build_cell_context(mesh, 1, VDEG)
    Dep = displacement_reconstruction(ctx)[0]
    rng = np.random.default_rng(2)
    rule, phi, _ = data_rule_basis(ctx)
    weights, vals = rule.weights[0], phi[0]
    for _ in range(5):
        v = rng.standard_normal(ctx.layout.size)
        coef = Dep @ v
        for a in range(2):
            dep_mean = weights @ (vals @ coef[a::2])
            cell_mean = weights @ (vals[:, :ctx.n_cell]
                                        @ v[ctx.layout.cell][a::2])
            assert dep_mean == pytest.approx(cell_mean, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("length", [1.0, 500.0])
@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_displacement_reconstruction_solves_its_normal_equations(k, mixed, length):
    # 2 x 2 quads on [0, length] x [0, 1] turned by 30 degrees.  The
    # least-squares fit solves (eps(Dep v), eps(w)) = (Es v, eps(w)) for every
    # w, K Dep = H with K the strain Gram, which the build never forms
    mesh = rotated(build_structured_mesh("quad", 2, 2, bounds=((0.0, length), (0.0, 1.0))), 30)
    ctx = build_cell_context(mesh, np.arange(mesh.n_cells), HhoDegrees(k, k + mixed, rank=2))
    Es = strain_reconstruction(ctx)
    Dep, K = displacement_reconstruction(ctx), strain_gram(ctx)
    H = gradient_moments(grad_mass(ctx), tensor_columns(Es))
    res = np.linalg.norm(K @ Dep - H, axis=(1, 2))
    assert np.all(res <= 1e-14 * np.linalg.norm(K, axis=(1, 2)) * np.linalg.norm(Dep, axis=(1, 2)))


@pytest.mark.parametrize("deg", [VDEG, VMIX])
def test_elastic_stabilization_annihilates_reduction(deg):
    # a unit quad and a hanging-node pentagon
    for mesh, ci in [(build_structured_mesh("quad", 1, 1), 0), pentagon_cell()]:
        ctx = build_cell_context(mesh, ci, deg)
        face_ops, _ = stabilization_equal_order(ctx, displacement_reconstruction(ctx))
        q = lambda x: np.column_stack([(x[:, 0] + x[:, 1]) ** 2, x[:, 0] ** 2])
        red = reduce_local(mesh, ci, deg, q)
        assert np.abs(face_ops[0] @ red).max() < 1e-11
        for r in RIGID:
            redr = reduce_local(mesh, ci, deg, r)
            assert np.abs(face_ops[0] @ redr).max() < 1e-12


def test_vector_ls_stabilization_acts_per_component():
    # the rank-2 face operators are the scalar ones on each interleaved component
    mesh, ci = pentagon_cell()
    ctx_s = build_cell_context(mesh, ci, mixed_order(1))
    ctx_v = build_cell_context(mesh, ci, VMIX)
    ops_s, pen_s = stabilization_equal_order(ctx_s, reconstruction(ctx_s))
    ops_v, pen_v = stabilization_equal_order(ctx_v, displacement_reconstruction(ctx_v))
    pen_s, pen_v = pen_s[0], pen_v[0]
    v = np.random.default_rng(4).standard_normal(ctx_v.layout.size)
    for Zs, Zv in zip(ops_s[0], ops_v[0]):
        for a in range(2):
            np.testing.assert_allclose((Zv @ v)[a::2], Zs @ v[a::2], atol=1e-12)
    np.testing.assert_allclose(
        v @ pen_v @ v, sum(v[a::2] @ pen_s @ v[a::2] for a in range(2)), rtol=1e-12)


def test_elastic_stabilization_depends_on_gap_only():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, VDEG)
    Dep = displacement_reconstruction(ctx)
    face_ops, _ = stabilization_equal_order(ctx, Dep)
    rng = np.random.default_rng(12)
    v = rng.standard_normal(ctx.layout.size)
    qc = rng.standard_normal(2 * ctx.n_cell)
    qfun = lambda x: np.column_stack(
        [ctx.rec_basis.eval(x[None])[0, :, :ctx.n_cell] @ qc[0::2],
         ctx.rec_basis.eval(x[None])[0, :, :ctx.n_cell] @ qc[1::2]])
    w = v.copy()
    w[ctx.layout.cell] += qc
    for i, fi in enumerate(ctx.geom.face_indices[0]):
        fb = face_basis(mesh, fi, 1)
        rule = face_quadrature(mesh, fi, 6)
        w[ctx.layout.face(i)] += l2_project(fb, rule, qfun).reshape(-1)
    for S in face_ops[0]:
        np.testing.assert_allclose(S @ v, S @ w, atol=1e-11)


def test_elastic_bilinear_kernel_is_rigid():
    mesh, ci = pentagon_cell()
    ctx = build_cell_context(mesh, ci, VDEG)
    L = local_bilinear_elastic(ctx, mu=1.3, lam=0.4).L[0]
    w = np.linalg.eigvalsh(L)
    assert abs(w[2]) < 1e-11 * w[-1]
    assert w[3] > 1e-8 * w[-1]
    for r in RIGID:
        red = reduce_local(mesh, ci, VDEG, r)
        assert np.abs(L @ red).max() < 1e-10 * np.abs(L).max()


def test_elastic_bilinear_lambda_zero_and_scaling():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, VDEG)
    mu = 0.8
    ops0 = local_bilinear_elastic(ctx, mu=mu, lam=0.0)
    q = lambda x: np.column_stack([(x[:, 0] + x[:, 1]) ** 2, x[:, 0] * x[:, 1]])
    red = reduce_local(mesh, 0, VDEG, q)
    # stabilization vanishes on reduced degree-(k+1) fields, so the energy is
    # 2 mu |eps(q)|^2
    rule = cell_quadrature(mesh.cell_geometry(0), 8)
    x = rule.points
    eps = np.zeros((len(x), 2, 2))
    eps[:, 0, 0] = 2 * (x[:, 0] + x[:, 1])
    eps[:, 1, 1] = x[:, 0]
    eps[:, 0, 1] = eps[:, 1, 0] = 0.5 * (2 * (x[:, 0] + x[:, 1]) + x[:, 1])
    exact = 2 * mu * np.sum(rule.weights * (eps ** 2).sum(axis=(1, 2)))
    assert red @ (ops0.L[0] @ red) == pytest.approx(exact, rel=1e-11)
    ops2 = local_bilinear_elastic(ctx, mu=2 * mu, lam=0.0)
    np.testing.assert_allclose(ops2.L, 2 * ops0.L, rtol=1e-12)
    opsl = local_bilinear_elastic(ctx, mu=mu, lam=0.6)
    opsl2 = local_bilinear_elastic(ctx, mu=2 * mu, lam=1.2)
    np.testing.assert_allclose(opsl2.L, 2 * opsl.L, rtol=1e-12)


def test_invalid_parameters():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, VDEG)
    with pytest.raises(ValueError):
        local_bilinear_elastic(ctx, mu=0.0, lam=0.1)
    with pytest.raises(ValueError):
        local_bilinear_elastic(ctx, mu=1.0, lam=-0.1)
    ctx0 = build_cell_context(mesh, 0, HhoDegrees(0, 0, rank=2))
    with pytest.raises(ValueError):
        strain_reconstruction(ctx0)


def test_traction_of_rigid_pair_vanishes():
    mesh = build_structured_mesh("tri", 1, 1)
    ctx = build_cell_context(mesh, 0, VDEG)
    ops = local_bilinear_elastic(ctx, mu=1.0, lam=0.5)
    red = reduce_local(mesh, 0, VDEG, RIGID[2])
    tracs = ops.face_fluxes(red, [0])
    assert np.abs(tracs).max() < 1e-12
