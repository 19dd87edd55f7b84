import re

import numpy as np
import pytest

from pyhho import local_ops
from pyhho.assembly import condense
from pyhho.elasticity import displacement_reconstruction
from pyhho.local_ops import (build_cell_context, gradient_reconstruction,
                             local_bilinear, reconstruction, stabilization_equal_order)
from pyhho.mesh import (Mesh, build_hanging_node_mesh, build_interval_mesh, build_structured_mesh,
                        refine_uniform)
from pyhho.projection import (HhoDegrees, equal_order, gather_local, l2_project, mixed_order,
                              reduce_local)
from pyhho.quadrature import cell_quadrature, face_quadrature
from pyhho.basis import face_basis

from support import (basis_gradients, data_rule_basis, jittered_mesh, random_half, rotated, scaled_condition,
                     grad_mass, gradient_moments, seminorm_gram, stiffness_gram)


def pentagon_mesh():
    return build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [0])


def eval_rec(ctx, coef, pts):
    vals, grads = ctx.rec_basis.eval(pts[None]), basis_gradients(ctx.rec_basis, pts[None])
    return vals[0] @ coef, np.einsum("qjc,j->qc", grads[0], coef)


def full_reconstruction(ctx):
    return reconstruction(ctx)[0]


def g_consistency(ctx):
    """``(G v, G w)``, stacked over the cells of ``ctx``."""
    G = gradient_reconstruction(ctx)
    Mk = ctx.mass_full[:, None, :ctx.n_k, :ctx.n_k]
    return np.einsum("bcis,bcij,bcjt->bst", G, Mk, G)


def constant_pair(ctx, value=1.0):
    v = np.zeros(ctx.layout.size)
    v[0] = value
    for i in range(ctx.layout.n_faces):
        v[ctx.layout.face(i)][0] = value
    return v


def test_lowest_order_gradient_formula():
    # unit square, v_T = 0.5, faces (left,right,bottom,top) = (0,1,0.5,0.5)
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, equal_order(0))
    R_full = full_reconstruction(ctx)
    v = np.zeros(ctx.layout.size)
    v[0] = 0.5
    for i, n in enumerate(ctx.geom.face_normals[0]):
        v[ctx.layout.face(i)][0] = 0.0 if n[0] < -0.5 else (1.0 if n[0] > 0.5 else 0.5)
    _, grad = eval_rec(ctx, R_full @ v, np.array([[0.4, 0.6]]))
    np.testing.assert_allclose(grad[0], [1.0, 0.0], atol=1e-13)


@pytest.mark.parametrize("mesh_kind", ["quad", "tri", "pentagon"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_elliptic_projection_reproduces_polynomials(mesh_kind, k):
    if mesh_kind == "pentagon":
        mesh = pentagon_mesh()
        ci = next(c for c in range(mesh.n_cells) if len(mesh.cells[c]) == 5)
    else:
        mesh = build_structured_mesh(mesh_kind, 2, 2)
        ci = 1
    deg = equal_order(k)
    ctx = build_cell_context(mesh, ci, deg)
    R_full = full_reconstruction(ctx)
    q = lambda x: (0.4 * x[:, 0] - x[:, 1] + 0.3) ** (k + 1)
    red = reduce_local(mesh, ci, deg, q)
    pts = data_rule_basis(ctx)[0].points[0, :5]
    vals, _ = eval_rec(ctx, R_full @ red, pts)
    np.testing.assert_allclose(vals, q(pts), atol=1e-11)


def test_reconstruction_quadratic_example():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, equal_order(1))
    R_full = full_reconstruction(ctx)
    q = lambda x: x[:, 0] ** 2 + x[:, 1]
    red = reduce_local(mesh, 0, equal_order(1), q)
    pts = np.array([[0.2, 0.8], [0.6, 0.1]])
    vals, _ = eval_rec(ctx, R_full @ red, pts)
    np.testing.assert_allclose(vals, q(pts), atol=1e-12)


def test_reconstruction_of_exact_trace_pair():
    # if the face blocks carry the trace of v_T, R returns v_T itself
    mesh = build_structured_mesh("tri", 1, 1)
    for k in (1, 2):
        ctx = build_cell_context(mesh, 0, equal_order(k))
        R_full = full_reconstruction(ctx)
        rng = np.random.default_rng(k)
        coefs = rng.standard_normal(ctx.n_cell)
        v = np.zeros(ctx.layout.size)
        v[ctx.layout.cell] = coefs
        vt = lambda x: ctx.rec_basis.eval(x[None])[0, :, :ctx.n_cell] @ coefs
        for i, fi in enumerate(ctx.geom.face_indices[0]):
            fb = face_basis(mesh, fi, k)
            rule = face_quadrature(mesh, fi, 2 * k + 2)
            v[ctx.layout.face(i)] = l2_project(fb, rule, vt)
        rec = R_full @ v
        pts = data_rule_basis(ctx)[0].points[0, :4]
        np.testing.assert_allclose(eval_rec(ctx, rec, pts)[0], vt(pts), atol=1e-11)


def test_mean_preservation_random_dofs():
    mesh = pentagon_mesh()
    ci = next(c for c in range(mesh.n_cells) if len(mesh.cells[c]) == 5)
    ctx = build_cell_context(mesh, ci, equal_order(2))
    R_full = full_reconstruction(ctx)
    rng = np.random.default_rng(11)
    rule, phi, _ = data_rule_basis(ctx)
    weights, vals = rule.weights[0], phi[0]
    for _ in range(5):
        v = rng.standard_normal(ctx.layout.size)
        rec_mean = weights @ (vals @ (R_full @ v))
        cell_mean = weights @ (vals[:, :ctx.n_cell] @ v[ctx.layout.cell])
        assert rec_mean == pytest.approx(cell_mean, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_gradient_reconstruction_commutes(k):
    mesh = build_structured_mesh("quad", 1, 1)
    deg = equal_order(k)
    ctx = build_cell_context(mesh, 0, deg)
    G = gradient_reconstruction(ctx)[0]
    # monomial targets up to degree k+2
    for (a, b) in [(k + 2, 0), (1, k + 1), (2, k)]:
        v = lambda x: x[:, 0] ** a * x[:, 1] ** b
        dvx = lambda x: a * x[:, 0] ** max(a - 1, 0) * x[:, 1] ** b if a else 0 * x[:, 0]
        red = reduce_local(mesh, 0, deg, v)
        gx = G[0] @ red
        # compare with the projection of the exact derivative
        from pyhho.basis import scaled_monomial_basis
        cb = scaled_monomial_basis(mesh.cell_geometry(0), k)
        rule = cell_quadrature(mesh.cell_geometry(0), 2 * (k + 3))
        proj = l2_project(cb, rule, dvx)
        np.testing.assert_allclose(gx, proj, atol=1e-11)


def test_gradient_compatibility_with_reconstruction():
    # projecting G onto gradients of the higher space recovers grad R
    mesh = build_structured_mesh("tri", 2, 2)
    for k in (0, 1, 2):
        ctx = build_cell_context(mesh, 3, equal_order(k))
        Kstar, R = stiffness_gram(ctx)[0, 1:, 1:], reconstruction(ctx)[0, 1:]
        G = gradient_reconstruction(ctx)[0]
        rng = np.random.default_rng(k + 5)
        v = rng.standard_normal(ctx.layout.size)
        rule, phi, dphi = data_rule_basis(ctx)
        w = rule.weights[0]
        gvals = np.stack([phi[0, :, :ctx.n_k] @ (G[c] @ v) for c in range(2)], axis=1)
        dphi = dphi[0, :, 1:, :]
        rhs = np.einsum("qjc,q,qc->j", dphi, w, gvals)
        coef = np.linalg.solve(Kstar, rhs)
        np.testing.assert_allclose(coef, R @ v, atol=1e-10)


def test_gradient_of_constant_pair_vanishes():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, equal_order(1))
    G = gradient_reconstruction(ctx)[0]
    v = constant_pair(ctx, 3.7)
    assert max(np.abs(G[c] @ v).max() for c in range(2)) < 1e-13


@pytest.mark.parametrize("k", [0, 1, 2])
def test_equal_order_stabilization_annihilates_reduction(k):
    mesh = pentagon_mesh()
    deg = equal_order(k)
    for ci in range(3):
        ctx = build_cell_context(mesh, ci, deg)
        face_ops, _ = stabilization_equal_order(ctx, reconstruction(ctx))
        q = lambda x: (x[:, 0] - 0.3 * x[:, 1] + 0.1) ** (k + 1)
        red = reduce_local(mesh, ci, deg, q)
        assert np.abs(face_ops[0] @ red).max() < 1e-11


def test_stabilization_depends_only_on_trace_gap():
    mesh = build_structured_mesh("quad", 1, 1)
    k = 2
    deg = equal_order(k)
    ctx = build_cell_context(mesh, 0, deg)
    face_ops, _ = stabilization_equal_order(ctx, reconstruction(ctx))
    rng = np.random.default_rng(9)
    v = rng.standard_normal(ctx.layout.size)
    # add a pair (q, trace(q)) for polynomial q of degree k
    qc = rng.standard_normal(ctx.n_cell)
    qfun = lambda x: ctx.rec_basis.eval(x[None])[0, :, :ctx.n_cell] @ qc
    w = v.copy()
    w[ctx.layout.cell] += qc
    for i, fi in enumerate(ctx.geom.face_indices[0]):
        fb = face_basis(mesh, fi, k)
        rule = face_quadrature(mesh, fi, 2 * k + 2)
        w[ctx.layout.face(i)] += l2_project(fb, rule, qfun)
    for S in face_ops[0]:
        np.testing.assert_allclose(S @ v, S @ w, atol=1e-11)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_ls_stabilization_annihilates_mixed_reduction(k):
    mesh = build_structured_mesh("tri", 1, 1)
    deg = mixed_order(k)
    ctx = build_cell_context(mesh, 0, deg)
    face_ops, _ = stabilization_equal_order(ctx, reconstruction(ctx))
    q = lambda x: (x[:, 0] + x[:, 1]) ** (k + 1)
    red = reduce_local(mesh, 0, deg, q)
    assert np.abs(face_ops[0] @ red).max() < 1e-11


def test_ls_face_only_dof():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, mixed_order(1))
    face_ops, _ = stabilization_equal_order(ctx, reconstruction(ctx))
    v = np.zeros(ctx.layout.size)
    v[ctx.layout.face(0)][0] = 1.0
    out0 = face_ops[0, 0] @ v
    assert out0[0] == pytest.approx(-1.0)
    np.testing.assert_allclose(out0[1:], 0.0, atol=1e-14)
    for Z in face_ops[0, 1:]:
        np.testing.assert_allclose(Z @ v, 0.0, atol=1e-14)


def test_local_bilinear_kernel_and_psd():
    mesh = pentagon_mesh()
    for k in (0, 1, 2):
        ci = next(c for c in range(mesh.n_cells) if len(mesh.cells[c]) == 5)
        ctx = build_cell_context(mesh, ci, equal_order(k))
        ops = local_bilinear(ctx)
        penalty = stabilization_equal_order(ctx, reconstruction(ctx))[1]
        for M in (g_consistency(ctx), penalty, ops.L):
            w = np.linalg.eigvalsh(M[0])
            assert w.min() >= -1e-10 * abs(w).max()
        w = np.linalg.eigvalsh(ops.L[0])
        assert w[0] < 1e-11 * w[-1] and w[1] > 1e-8 * w[-1]  # kernel dim exactly 1
        assert np.abs(ops.L @ constant_pair(ctx)).max() < 1e-12


def forms_cell(name):
    """A mesh and one of its cells: a hanging-node pentagon, a jittered
    triangle, a hanging-node octagon or a graded interval."""
    if name == "interval":
        return build_interval_mesh(0.0, 1.0, 5, grading=1.3), 2
    if name == "jittered-tri":
        return jittered_mesh("tri", 3, 5, amplitude=0.1), 8
    mesh = (pentagon_mesh() if name == "pentagon" else
            build_hanging_node_mesh(build_structured_mesh("quad", 3, 3), [1, 3, 5, 7]))
    n = 5 if name == "pentagon" else 8
    return mesh, next(c for c in range(mesh.n_cells) if len(mesh.cells[c]) == n)


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("cell", ["pentagon", "jittered-tri", "octagon", "interval"])
def test_gradient_form_bounds_the_reconstruction_form(cell, k, mixed):
    # grad R v is the L2 projection of G v onto gradients, so (G v, G v) >=
    # (grad R v, grad R v), with equality where G v is a gradient: k = 0, and 1D
    mesh, ci = forms_cell(cell)
    ctx = build_cell_context(mesh, ci, HhoDegrees(k, k + mixed))
    A = g_consistency(ctx)[0]
    R_full = reconstruction(ctx)[0]
    gap = np.linalg.eigvalsh(A - R_full.T @ stiffness_gram(ctx)[0] @ R_full)
    scale = np.linalg.eigvalsh(A)[-1]
    assert gap[0] >= -1e-13 * scale
    if k == 0 or mesh.dim == 1:
        assert np.abs(gap).max() <= 1e-13 * scale
    else:
        assert gap[-1] > 1e-3 * scale        # the two forms differ


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("cell", ["unit-quad", "pentagon", "jittered-tri"])
def test_energy_of_reduced_polynomial(cell, k, mixed):
    # a_T(I q, I q) = |grad q|^2 for q of degree k+1 (stabilization vanishes)
    mesh, ci = (build_structured_mesh("quad", 1, 1), 0) if cell == "unit-quad" else forms_cell(cell)
    deg = HhoDegrees(k, k + mixed)
    ctx = build_cell_context(mesh, ci, deg)
    ops = local_bilinear(ctx)
    q = lambda x: (x[:, 0] + 2 * x[:, 1]) ** (k + 1)
    red = reduce_local(mesh, ci, deg, q)
    rule = cell_quadrature(mesh.cell_geometry(ci), 2 * (k + 2))
    d = k + 1
    gq = lambda x: d * (x[:, 0] + 2 * x[:, 1]) ** (d - 1)
    exact = np.sum(rule.weights * (gq(rule.points) ** 2 * (1 + 4)))
    assert red @ (ops.L[0] @ red) == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("deg", [equal_order(1), mixed_order(1)], ids=["equal", "mixed"])
def test_one_cell_of_a_padded_group_has_its_own_loop(deg):
    mesh = random_half(10, 1)           # the pentagons share a group padded to 8 faces
    c = 201
    cells = next(g for g in mesh.cell_groups() if c in g)
    assert len(mesh.cells[c]) == 5 and max(len(mesh.cells[i]) for i in cells) == 8
    ctx = build_cell_context(mesh, c, deg)
    red = reduce_local(mesh, c, deg, lambda x: x[:, 0] ** 2 - 3 * x[:, 0] * x[:, 1])
    assert ctx.layout.size == len(red) == len(gather_local(
        mesh, c, deg, np.zeros((mesh.n_cells, ctx.layout.cell_width)),
        np.zeros((mesh.n_faces, ctx.layout.face_width))))
    L = local_bilinear(ctx).L[0]
    L_group = local_bilinear(build_cell_context(mesh, cells, deg)).L[np.flatnonzero(cells == c)[0]]
    n = ctx.layout.size
    np.testing.assert_allclose(L, L_group[:n, :n], rtol=0, atol=1e-13)
    assert np.isfinite(red @ L @ red)


def test_rayleigh_quotients_stay_banded():
    k = 1
    mesh = build_structured_mesh("quad", 2, 2)
    bands = []
    for _ in range(3):
        ctx = build_cell_context(mesh, 0, equal_order(k))
        ops = local_bilinear(ctx)
        N = seminorm_gram(ctx)[0]
        wN, V = np.linalg.eigh(N)
        keep = wN > 1e-10 * wN.max()
        B = V[:, keep] / np.sqrt(wN[keep])
        vals = np.linalg.eigvalsh(B.T @ ops.L[0] @ B)
        bands.append((vals.min(), vals.max()))
        mesh = refine_uniform(mesh)
    mins = [b[0] for b in bands]
    maxs = [b[1] for b in bands]
    assert min(mins) > 0.01
    assert max(maxs) / min(mins) < 50
    assert max(maxs) / min(maxs) < 1.5 and max(mins) / min(mins) < 1.5


def test_flux_of_constant_pair_vanishes():
    mesh = build_structured_mesh("tri", 1, 1)
    ctx = build_cell_context(mesh, 0, equal_order(1))
    ops = local_bilinear(ctx)
    fluxes = ops.face_fluxes(constant_pair(ctx, 2.5), [0])
    assert fluxes.shape == (1, 3, 2)
    assert np.abs(fluxes).max() < 1e-12


def test_mixed_order_bilinear_kernel():
    mesh = build_structured_mesh("quad", 1, 1)
    ctx = build_cell_context(mesh, 0, mixed_order(1))
    ops = local_bilinear(ctx)
    w = np.linalg.eigvalsh(ops.L[0])
    assert w[0] < 1e-11 * w[-1] and w[1] > 1e-8 * w[-1]


def test_equal_order_stabilization_matches_reduced_reconstruction_formula():
    # the full-reconstruction form equals the one built from R and the
    # separately restored cell mean
    mesh = pentagon_mesh()
    for k in (0, 1, 2):
        for ci in range(3):
            ctx = build_cell_context(mesh, ci, equal_order(k))
            R_full = reconstruction(ctx)[0]
            R = R_full[1:]
            Q = ctx.mass_full[0, :ctx.n_cell, 1:]
            tmp = -np.linalg.solve(ctx.mass_full[0, :ctx.n_cell, :ctx.n_cell], Q @ R)
            tmp[:, ctx.layout.cell] += np.eye(ctx.n_cell)
            face_ops, _ = stabilization_equal_order(ctx, R_full[None])
            f = ctx.faces
            for i in range(ctx.layout.n_faces):
                S = np.linalg.solve(f.mass[0, i], f.trace_full[0, i, :, 1:] @ R
                                    + f.trace_full[0, i, :, :ctx.n_cell] @ tmp)
                S[:, ctx.layout.face(i)] -= np.eye(ctx.layout.face_width)
                np.testing.assert_allclose(face_ops[0, i], S, rtol=0,
                                           atol=1e-12 * np.abs(S).max())


def test_condition_guard_names_lowest_offending_cell(monkeypatch):
    # jittered quads, which no affine frame makes alike
    mesh = jittered_mesh("quad", 3, 2, amplitude=0.15)
    cells = mesh.cell_groups()[0]
    cond = scaled_condition(build_cell_context(mesh, cells, equal_order(2)).mass_full)
    limit = 1.1 * cond[0]                # the group's first cell stays below it
    offending = cells[cond > limit]
    assert len(offending) >= 2
    monkeypatch.setattr(local_ops, "COND_LIMIT", limit)
    with pytest.raises(ValueError, match=f"^cell {offending.min()}: mass-matrix condition "
                                         r"number .* \(diagonally scaled\) exceeds "
                                         f"{re.escape(f'{limit:.0e}')}"):
        build_cell_context(mesh, cells, equal_order(2))


def test_condition_guard_rejects_high_aspect_ratio_cells():
    # the inertia frame removes a stretch in any direction: a 512:1 strip
    # builds at every degree with the scaled condition numbers of the unit
    # square, and a 100:1 strip turned by 30 degrees with the turned square's
    def cond(n, angle, k):
        mesh = rotated(build_structured_mesh("quad", n, 1), angle)
        return scaled_condition(build_cell_context(mesh, [0], equal_order(k)).mass_full)

    for n, angle in ((512, 0), (100, 30)):
        for k in range(4):
            np.testing.assert_allclose(cond(n, angle, k), cond(1, angle, k), rtol=1e-6)


@pytest.mark.parametrize("length", [100.0, 500.0])
@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_reconstruction_solves_its_constrained_system_on_turned_strips(k, mixed, length):
    # 2 x 2 quads on [0, length] x [0, 1] turned by 30 degrees: cells of aspect
    # ratio length:1.  R_full, a least-squares fit, solves its normal equations
    # (K + C^T C) R_full = H + C^T D with K the stiffness Gram and C, D the
    # cell-mean rows over |T|, reproduces each cell's mean, and condenses to an
    # exactly symmetric L_c
    mesh = rotated(build_structured_mesh("quad", 2, 2, bounds=((0.0, length), (0.0, 1.0))), 30)
    cells = np.arange(mesh.n_cells)
    ctx = build_cell_context(mesh, cells, HhoDegrees(k, k + mixed))
    R_full = reconstruction(ctx)
    layout, K = ctx.layout, stiffness_gram(ctx)
    H = gradient_moments(grad_mass(ctx), gradient_reconstruction(ctx))
    C = ctx.ints_full[:, None] / ctx.geom.measure[:, None, None]
    D = np.zeros((len(cells), 1, layout.size))
    D[:, 0, layout.cell] = C[:, 0, : ctx.n_cell]
    res = np.linalg.norm((K + C.mT @ C) @ R_full - (H + C.mT @ D), axis=(1, 2))
    assert np.all(res <= 1e-14 * np.linalg.norm(K, axis=(1, 2))
                  * np.linalg.norm(R_full, axis=(1, 2)))
    np.testing.assert_allclose(C @ R_full, D, rtol=0, atol=1e-13 * np.abs(D).max())
    L = local_bilinear(ctx).L
    L_c = condense(L, np.zeros((len(cells), layout.cell_width)), layout, cells, cells).L_c
    assert np.array_equal(L_c, L_c.mT)


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_reconstructions_reproduce_polynomials_on_thin_turned_strips(k, mixed):
    # 2 x 2 quads on [0, 500] x [0, 1] turned by 30 degrees.  A random
    # polynomial of degree k+1 in the basis of cell 0, scalar and vector, is
    # reduced and reconstructed: both reconstructions give its coefficients
    # back, and the stabilization, whose Pi_T reads the leading blocks of the
    # mass factor, annihilates it.  Through the normal equations the
    # displacement reconstruction was good to only 2e-6 (k = 1) to 6e-5 (k = 3)
    mesh = rotated(build_structured_mesh("quad", 2, 2, bounds=((0.0, 500.0), (0.0, 1.0))), 30)
    rng = np.random.default_rng(k)
    for rank, rebuild in ((1, reconstruction), (2, displacement_reconstruction)):
        ctx = build_cell_context(mesh, 0, HhoDegrees(k, k + mixed, rank=rank))
        coef = rng.standard_normal(rank * ctx.n_rec)
        p = lambda x: (ctx.rec_basis.eval(x[None])[0] @ coef.reshape(-1, rank)).squeeze()
        red, R = reduce_local(mesh, 0, ctx.degrees, p), rebuild(ctx)
        assert np.abs(R[0] @ red - coef).max() <= 1e-9 * np.abs(coef).max()
        face_ops, _ = stabilization_equal_order(ctx, R)
        assert np.abs(face_ops[0] @ red).max() <= 1e-10 * np.abs(red).max()


def test_cell_thinner_than_round_off_is_left_to_the_guard():
    # a 1e10:1 rectangle turned by 30 degrees: det J is below its round-off,
    # so the frame stays finite and the guard, not a LinAlgError, stops the build
    mesh = rotated(Mesh(2, [[0, 0], [1, 0], [1, 1e-10], [0, 1e-10]], [(0, 1, 2, 3)]), 30)
    assert np.isfinite(mesh.cell_geometry(0).frame).all()
    with pytest.raises(ValueError, match=r"^cell 0: mass-matrix condition number .* "
                                         r"\(diagonally scaled\)"):
        build_cell_context(mesh, [0], equal_order(1))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_eigenvalue_ratio_is_the_condition_number(k):
    meshes = [build_structured_mesh("quad", 2, 2), jittered_mesh("tri", 3, 5, amplitude=0.1),
              build_hanging_node_mesh(build_structured_mesh("quad", 3, 3), [1, 3, 5, 7])]
    for mesh in meshes:
        for cells in mesh.cell_groups():
            M = build_cell_context(mesh, cells, equal_order(k)).mass_full
            lam = np.linalg.eigvalsh(M)
            np.testing.assert_allclose(lam[:, -1] / lam[:, 0], np.linalg.cond(M), rtol=1e-10)
