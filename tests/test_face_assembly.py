"""Both reconstructions and both consistency fluxes against references that
assemble the hybrid face terms face by face, straight from their defining
equations, instead of projecting the gradient reconstruction."""

import numpy as np
import pytest

from pyhho.elasticity import (TENSOR_WEIGHTS, _strain_columns, displacement_reconstruction,
                              local_bilinear_elastic, stabilization_elastic,
                              strain_reconstruction)
from pyhho.local_ops import (_kron_apply, build_cell_context, gradient_reconstruction,
                             local_bilinear, reconstruction, stabilization_equal_order,
                             stabilization_ls)
from pyhho.mesh import Mesh, build_hanging_node_mesh, build_structured_mesh
from pyhho.projection import HhoDegrees

MU, LAM = 1.0, 3.0


def groups():
    """Cell groups of 3, 4 and 5 faces."""
    tri = build_structured_mesh("tri", 2, 2)
    hanging = build_hanging_node_mesh(build_structured_mesh("quad", 3, 3), [4])
    return [(mesh, cells) for mesh in (tri, hanging) for cells in mesh.cell_groups()]


def face_gradients(ctx, f):
    """Gradients of the reconstruction basis at the face points."""
    return ctx.rec_basis.eval(f.rule.points)[1]


def scalar_rhs_by_face_assembly(ctx):
    """``(grad w, grad v_T) + sum_F (v_F - v_T, grad w . n)_F``."""
    n_cell, layout = ctx.n_cell, ctx.layout
    H = np.zeros((len(ctx.cells), ctx.n_rec - 1, layout.size))
    H[:, :, layout.cell] = ctx.stiff_full[:, 1:, :n_cell]
    for i, f in enumerate(ctx.faces):
        dn = np.einsum("bqjd,bd->bqj", face_gradients(ctx, f)[:, :, 1:], f.normal)
        wn = f.rule.weights[..., None] * dn
        H[:, :, layout.cell] -= wn.mT @ f.phi[:, :, :n_cell]
        H[:, :, layout.face(i)] += wn.mT @ f.psi
    return H


def scalar_reconstruction_reference(ctx):
    H = scalar_rhs_by_face_assembly(ctx)
    R = np.linalg.solve(ctx.stiff_full[:, 1:, 1:], H)
    mean_row = np.zeros((len(ctx.cells), ctx.layout.size))
    mean_row[:, ctx.layout.cell] = ctx.ints_full[:, :ctx.n_cell]
    r0 = (mean_row - (ctx.ints_full[:, None, 1:] @ R)[:, 0]) / ctx.geom.measure[:, None]
    return np.concatenate([r0[:, None], R], axis=1)


def displacement_reference(ctx):
    """The symmetric-gradient system with its right-hand side ``(eps(w),
    eps(v_T)) + sum_F (v_F - v_T, eps(w) n)_F`` and the skew row
    ``sum_F int_F (v_F,x n_y - v_F,y n_x) / 2``, both assembled face by face."""
    n_cell, layout = ctx.n_cell, ctx.layout
    nb, nv = len(ctx.cells), 2 * ctx.n_rec
    w = ctx.rule.weights
    eps = _strain_columns(ctx.dphi)
    weighted = eps * (w[..., None, None] * TENSOR_WEIGHTS)
    K = np.einsum("bqim,bqjm->bij", weighted, eps)
    H = np.zeros((nb, nv, layout.size))
    H[:, :, layout.cell] = np.einsum("bqim,bqjm->bij", weighted, eps[:, :, :2 * n_cell])
    D = np.zeros((nb, 3, layout.size))
    D[:, 0, layout.cell][:, 0::2] = ctx.ints_full[:, :n_cell]
    D[:, 1, layout.cell][:, 1::2] = ctx.ints_full[:, :n_cell]
    for i, f in enumerate(ctx.faces):
        feps = _strain_columns(face_gradients(ctx, f))
        n = f.normal[:, None, None, :]
        traction = [feps[..., 0] * n[..., 0] + feps[..., 2] * n[..., 1],
                    feps[..., 2] * n[..., 0] + feps[..., 1] * n[..., 1]]
        fw = f.rule.weights[..., None]
        for a in range(2):
            H[:, :, layout.cell][..., a::2] -= traction[a].mT @ (fw * f.phi[:, :, :n_cell])
            H[:, :, layout.face(i)][..., a::2] += traction[a].mT @ (fw * f.psi)
        ints_psi = np.einsum("bq,bqj->bj", f.rule.weights, f.psi)
        D[:, 2, layout.face(i)][:, 0::2] += 0.5 * ints_psi * f.normal[:, 1:2]
        D[:, 2, layout.face(i)][:, 1::2] -= 0.5 * ints_psi * f.normal[:, 0:1]
    C = np.zeros((nb, 3, nv))
    C[:, 0, 0::2] = ctx.ints_full
    C[:, 1, 1::2] = ctx.ints_full
    int_grad = np.einsum("bq,bqjc->bjc", w, ctx.dphi)
    C[:, 2, 0::2] = 0.5 * int_grad[..., 1]
    C[:, 2, 1::2] = -0.5 * int_grad[..., 0]
    saddle = np.zeros((nb, nv + 3, nv + 3))
    saddle[:, :nv, :nv] = K
    saddle[:, :nv, nv:] = C.mT
    saddle[:, nv:, :nv] = C
    return np.linalg.solve(saddle, np.concatenate([H, D], axis=1))[:, :nv]


def flux_from_consistency(ctx, consistency, stab_face, weight):
    """Equilibrated face fluxes from the stacked consistency moments."""
    nf = ctx.layout.face_width
    S = np.concatenate(stab_face, axis=1)
    MS = np.concatenate([_kron_apply(f.mass, Si) for f, Si in zip(ctx.faces, stab_face)],
                        axis=1)
    flux = consistency - weight[:, None, None] * (S[:, :, ctx.layout.faces].mT @ MS)
    for i, f in enumerate(ctx.faces):
        rows = slice(i * nf, (i + 1) * nf)
        flux[:, rows] = _kron_apply(f.mass_inv, flux[:, rows])
    return flux


def poisson_flux_reference(ctx, R_full):
    """``-(grad R . n, psi)_F`` from the basis gradients at the face points."""
    consistency = np.concatenate([
        -(f.rule.weights[..., None] * f.psi).mT
        @ np.einsum("bqjd,bd->bqj", face_gradients(ctx, f), f.normal) @ R_full
        for f in ctx.faces], axis=1)
    stab_face, _ = (stabilization_ls(ctx) if ctx.degrees.mixed
                    else stabilization_equal_order(ctx, R_full))
    return flux_from_consistency(ctx, consistency, stab_face, 1.0 / ctx.h)


def elastic_flux_reference(ctx, Dep):
    """``-(sigma n, psi)_F`` with the traction formed face by face."""
    n_k = ctx.n_k
    Es = strain_reconstruction(ctx)
    sig = np.stack([(2 * MU + LAM) * Es[:, 0] + LAM * Es[:, 1],
                    LAM * Es[:, 0] + (2 * MU + LAM) * Es[:, 1], 2 * MU * Es[:, 2]], axis=1)
    consistency = []
    for f in ctx.faces:
        n = f.normal[:, :, None, None]
        sn = np.stack([sig[:, 0] * n[:, 0] + sig[:, 2] * n[:, 1],
                       sig[:, 2] * n[:, 0] + sig[:, 1] * n[:, 1]], axis=2)
        pairing = (f.rule.weights[..., None] * f.psi).mT @ f.phi[:, :, :n_k]
        consistency.append(-_kron_apply(pairing, sn.reshape(len(sn), 2 * n_k, -1)))
    stab_face, _ = stabilization_elastic(ctx, None if ctx.degrees.mixed else Dep)
    return flux_from_consistency(ctx, np.concatenate(consistency, axis=1), stab_face,
                                 2.0 * MU / ctx.h)


def assert_matches(actual, ref):
    np.testing.assert_allclose(actual, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_scalar_reconstruction_and_flux_match_face_assembly(k, mixed):
    deg = HhoDegrees(k_face=k, k_cell=k + mixed)
    shapes = set()
    for mesh, cells in groups():
        ctx = build_cell_context(mesh, cells, deg)
        shapes.add(ctx.geom.n_faces)
        R_ref = scalar_reconstruction_reference(ctx)
        assert_matches(reconstruction(ctx)[3], R_ref)
        assert_matches(local_bilinear(ctx).flux, poisson_flux_reference(ctx, R_ref))
    assert shapes == {3, 4, 5}


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_displacement_reconstruction_and_traction_match_face_assembly(k, mixed):
    deg = HhoDegrees(k_face=k, k_cell=k + mixed, rank=2)
    shapes = set()
    for mesh, cells in groups():
        ctx = build_cell_context(mesh, cells, deg)
        shapes.add(ctx.geom.n_faces)
        Dep_ref = displacement_reference(ctx)
        assert_matches(displacement_reconstruction(ctx), Dep_ref)
        assert_matches(local_bilinear_elastic(ctx, MU, LAM).flux,
                       elastic_flux_reference(ctx, Dep_ref))
    assert shapes == {3, 4, 5}


def jittered_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.8]])
    verts += np.random.default_rng(3).uniform(-0.1, 0.1, verts.shape)
    return Mesh(2, verts, np.array([[0, 1, 2]])), 0


def hanging_pentagon():
    mesh = build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [3])
    return mesh, next(c for c in range(mesh.n_cells) if len(mesh.cells[c]) == 5)


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("cell", [jittered_triangle, hanging_pentagon])
def test_cell_integral_of_gradient_reconstruction_is_a_face_sum(cell, k, mixed):
    # int_T G_c v = sum_F int_F v_F n_c: the data of the skew-gradient row
    mesh, ci = cell()
    ctx = build_cell_context(mesh, ci, HhoDegrees(k_face=k, k_cell=k + mixed))
    G = gradient_reconstruction(ctx)
    for c in range(2):
        integral = (ctx.ints_full[:, None, :ctx.n_k] @ G[:, c])[0, 0]
        scale = np.abs(integral).max()
        assert np.abs(integral[ctx.layout.cell]).max() <= 1e-13 * scale
        for i, f in enumerate(ctx.faces):
            ints_psi = f.rule.weights[0] @ f.psi[0]
            np.testing.assert_allclose(integral[ctx.layout.face(i)],
                                       f.normal[0, c] * ints_psi,
                                       rtol=0, atol=1e-13 * scale)
