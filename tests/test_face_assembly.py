"""The face axis of the cell context and the operators contracted over it,
against references that loop over the local face positions.

``per_face_context`` is the face stage as it was built before the face
axis: one context per local face position, each face's basis, rule and
mass built for every cell that reads it.  The operator references loop
over that list.  Both reconstructions and both consistency fluxes are also
checked against references that assemble the hybrid face terms face by
face, straight from their defining equations, instead of projecting the
gradient reconstruction.  ``LocalOperators.face_fluxes`` reads the fluxes
from the face rows of the local form; the explicit per-face fluxes (the
consistency flux plus the stabilization's adjoint, solved with the face
mass) check that identity.

The references take each cell's own loop: a group whose loops fill its face
slots, and each cell of the padded polygon group alone on a one-cell mesh.
The padded group is checked against those one-cell meshes instead.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pyhho import local_ops
from pyhho.basis import face_basis
from pyhho.elasticity import (displacement_reconstruction, local_bilinear_elastic,
                              stabilization_elastic, strain_reconstruction)
from pyhho.local_ops import (_kron_apply, build_cell_context,
                             gradient_reconstruction, local_bilinear, reconstruction,
                             stabilization_equal_order, stabilization_ls)
from pyhho.mesh import Mesh, build_hanging_node_mesh, build_structured_mesh
from pyhho.projection import (DofLayout, HhoDegrees, dof_layout, l2_project, mass_cholesky,
                              reduce_local)
from pyhho.quadrature import face_quadrature

from support import (TENSOR_WEIGHTS, basis_gradients, data_rule_basis, flux_matrix,
                     grad_mass, gradient_moments, seminorm_gram, stiffness_gram, strain_columns,
                     tensor_columns)

MU, LAM = 1.0, 3.0


def groups():
    """Cell groups of 3 to 8 faces: triangles, and hanging-node quads
    whose refined neighbours make pentagons up to octagons, which share one
    group padded to eight face slots."""
    tri = build_structured_mesh("tri", 2, 2)
    hanging = build_hanging_node_mesh(build_structured_mesh("quad", 4, 4),
                                      [3, 6, 8, 9, 11, 12, 14])
    return [(mesh, cells) for mesh in (tri, hanging) for cells in mesh.cell_groups()]


def one_cell(mesh, c):
    """Cell ``c`` of ``mesh`` alone, on its own loop."""
    return Mesh(2, mesh.vertices, [mesh.cells[c]]), np.array([0])


def padded(mesh, cells):
    return bool(np.any(mesh.cell_geometry(cells).face_measures == 0))


def cases():
    """Every unpadded group, and each cell of a padded group on a one-cell mesh."""
    for mesh, cells in groups():
        if padded(mesh, cells):
            yield from (one_cell(mesh, c) for c in cells)
        else:
            yield mesh, cells


ALL_SHAPES = set(range(3, 9))       # the real loop lengths


def operators(mesh, cells, deg):
    ctx = build_cell_context(mesh, cells, deg)
    return local_bilinear(ctx) if deg.rank == 1 else local_bilinear_elastic(ctx, MU, LAM)


def assert_padded_group_matches_one_cell(deg):
    """Each cell of the padded group against its own loop on a one-cell mesh:
    equal on its real DoFs, exact zeros in the rows and columns of its padded
    face slots."""
    (mesh, cells), = [(m, c) for m, c in groups() if padded(m, c)]
    ops = operators(mesh, cells, deg)
    flux = flux_matrix(ops)
    cw, fw = ops.layout.cell_width, ops.layout.face_width
    lengths = set()
    for b, c in enumerate(cells):
        ref = operators(*one_cell(mesh, c), deg)
        n = len(mesh.cells[c])
        lengths.add(n)
        real, pad, rows = slice(0, cw + n * fw), slice(cw + n * fw, None), slice(0, n * fw)
        for actual, want in [(ops.L[b][real, real], ref.L[0]), (ops.rec[b][:, real], ref.rec[0]),
                             (flux[b][rows, real], flux_matrix(ref)[0]),
                             (ops.stab_face[b, :n][..., real], ref.stab_face[0]),
                             (ops.balance[b][:, real], ref.balance[0])]:
            assert_close(actual, want, 1e-13)
        for zero in (ops.L[b][pad], ops.L[b][:, pad], flux[b][n * fw:],
                     flux[b][:, pad], ops.stab_face[b, n:], ops.stab_face[b][..., pad],
                     ops.rec[b][:, pad]):
            assert np.all(zero == 0)
    assert lengths == set(range(5, 9))


def per_face_context(ctx):
    """The face stage looping over local face positions: the reference."""
    mesh, k, geom = ctx.mesh, ctx.degrees.k_face, ctx.geom
    order = 2 * (k + 1)
    faces = []
    for i in range(geom.n_faces):
        fi = geom.face_indices[:, i]
        fb = face_basis(mesh, fi, k)
        fr = face_quadrature(mesh, fi, order)
        psi = fb.eval(fr.points)
        fphi = ctx.rec_basis.eval(fr.points)
        wpsi = fr.weights[..., None] * psi
        M_i = wpsi.mT @ psi
        M_i = 0.5 * (M_i + M_i.mT)
        faces.append(SimpleNamespace(
            index=fi, basis=fb, rule=fr, normal=geom.face_normals[:, i],
            psi=psi, phi=fphi, mass=M_i,
            mass_inv=mass_cholesky(M_i, ids=fi, entity="face"),
            trace_full=wpsi.mT @ fphi))
    return faces


# ---------------------------------------------------------------------------
# operators looping over the local faces


def per_face_gradient_reconstruction(ctx, faces):
    n_k, n_cell = ctx.n_k, ctx.n_cell
    layout = DofLayout(n_cell, ctx.layout.face_width // ctx.degrees.rank, len(faces))
    rhs = np.zeros((len(ctx.cells), ctx.mesh.dim, n_k, layout.size))
    rhs[..., layout.cell] = grad_mass(ctx)[:, :n_cell].transpose(0, 2, 3, 1)
    for i, f in enumerate(faces):
        wq = (f.rule.weights[..., None] * f.phi[:, :, :n_k]).mT
        n = f.normal[:, :, None, None]
        rhs[..., layout.cell] -= n * (wq @ f.phi[:, :, :n_cell])[:, None]
        rhs[..., layout.face(i)] += n * (wq @ f.psi)[:, None]
    return ctx.mass_k_inv[:, None] @ rhs


def per_face_stabilization(ctx, faces, rec):
    """Lehrenfeld-Schoberl (``rec`` None) or equal-order face operators."""
    layout = ctx.layout
    if rec is None:
        cell = np.zeros((len(ctx.cells), layout.cell_width, layout.size))
        cell[:, :, layout.cell] = np.eye(layout.cell_width)
    else:
        cell = -_kron_apply(ctx.mass_k_inv, _kron_apply(ctx.mass_full[:, :ctx.n_cell], rec))
        cell[:, :, layout.cell] += np.eye(layout.cell_width)
    face_ops = []
    for i, f in enumerate(faces):
        trace = _kron_apply(f.trace_full[:, :, :ctx.n_cell], cell)
        if rec is not None:
            trace += _kron_apply(f.trace_full, rec)
        S = _kron_apply(f.mass_inv, trace)
        S[:, :, layout.face(i)] -= np.eye(layout.face_width)
        face_ops.append(S)
    penalty = sum(S.mT @ _kron_apply(f.mass, S) for f, S in zip(faces, face_ops))
    penalty = penalty / ctx.h[:, None, None]
    return face_ops, 0.5 * (penalty + penalty.mT)


def per_face_flux(ctx, faces, field, stab_face, weight):
    S = np.concatenate(stab_face, axis=1)
    MS = np.concatenate([_kron_apply(f.mass, Si) for f, Si in zip(faces, stab_face)], axis=1)
    stab = weight[:, None, None] * (S[:, :, ctx.layout.faces].mT @ MS)
    nw = ctx.layout.face_width
    blocks = []
    for i, f in enumerate(faces):
        tau_n = np.einsum("bc,bc...->b...", f.normal, field)
        consistency = _kron_apply(f.trace_full[:, :, :ctx.n_k], tau_n)
        blocks.append(-_kron_apply(f.mass_inv, consistency + stab[:, i * nw:(i + 1) * nw]))
    return np.concatenate(blocks, axis=1)


def per_face_seminorm_gram(ctx, faces):
    layout, n_cell = ctx.layout, ctx.n_cell
    N = np.zeros((len(ctx.cells), layout.size, layout.size))
    N[:, layout.cell, layout.cell] = stiffness_gram(ctx)[:, :n_cell, :n_cell]
    for i, f in enumerate(faces):
        D = np.zeros(f.rule.weights.shape + (layout.size,))
        D[..., layout.cell] = f.phi[:, :, :n_cell]
        D[..., layout.face(i)] = -f.psi
        N += D.mT @ (f.rule.weights[..., None] * D) / ctx.h[:, None, None]
    return 0.5 * (N + N.mT)


def per_face_operators(ctx, faces, monkeypatch):
    """``(L, penalty, rec, flux, balance)`` with every face term taken from
    the per-face reference; the cell-only steps are the library's, fed
    with the reference ``G`` through the module attribute they read."""
    G = per_face_gradient_reconstruction(ctx, faces)
    with monkeypatch.context() as m:
        m.setattr(local_ops, "gradient_reconstruction", lambda c: G)
        if ctx.degrees.rank == 1:
            rec = reconstruction(ctx)
        else:
            Es = strain_reconstruction(ctx)
            rec = displacement_reconstruction(ctx, Es)
    stab_face, penalty = per_face_stabilization(ctx, faces, None if ctx.degrees.mixed else rec)
    n_k = ctx.n_k
    Mk = ctx.mass_full[:, None, :n_k, :n_k]
    if ctx.degrees.rank == 1:
        # (G v, G w) and (G v, grad q) for q of degree k
        L = np.einsum("bcis,bcij,bcjt->bst", G, Mk, G) + penalty
        field, weight = G, 1.0 / ctx.h
        balance = np.einsum("bicj,bcjs->bis", grad_mass(ctx)[:, :n_k], G)
    else:
        Dv = Es[:, 0] + Es[:, 1]
        L = (2 * MU * np.einsum("m,bmij->bij", TENSOR_WEIGHTS, Es.mT @ Mk @ Es)
             + LAM * Dv.mT @ Mk[:, 0] @ Dv + 2 * MU * penalty)
        field = tensor_columns(np.stack([(2 * MU + LAM) * Es[:, 0] + LAM * Es[:, 1],
                                         LAM * Es[:, 0] + (2 * MU + LAM) * Es[:, 1],
                                         2 * MU * Es[:, 2]], axis=1))
        weight, balance = 2.0 * MU / ctx.h, gradient_moments(grad_mass(ctx), field)[:, :2 * n_k]
    flux = per_face_flux(ctx, faces, field, stab_face, weight)
    return 0.5 * (L + L.mT), penalty, rec, flux, balance


def assert_close(actual, ref, rel):
    np.testing.assert_allclose(actual, ref, rtol=0, atol=rel * np.abs(ref).max())


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k, rank", [(0, 1), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
def test_face_axis_matches_per_face_build(k, rank, mixed, monkeypatch):
    deg = HhoDegrees(k_face=k, k_cell=k + mixed, rank=rank)
    shapes = set()
    for mesh, cells in cases():
        ctx = build_cell_context(mesh, cells, deg)
        faces = per_face_context(ctx)
        shapes.add(len(faces))
        f = ctx.faces
        for i, ref in enumerate(faces):
            np.testing.assert_array_equal(ctx.geom.face_indices[:, i], ref.index)
            np.testing.assert_array_equal(f.normal[:, i], ref.normal)
            np.testing.assert_array_equal(f.weights[:, i], ref.rule.weights)
            for name in ("psi", "phi", "mass", "mass_inv", "trace_full"):
                assert_close(getattr(f, name)[:, i], getattr(ref, name), 1e-14)
        ops = (local_bilinear(ctx) if rank == 1 else local_bilinear_elastic(ctx, MU, LAM))
        L, penalty, rec, flux, balance = per_face_operators(ctx, faces, monkeypatch)
        _, stab_penalty = (stabilization_ls(ctx) if mixed
                           else stabilization_equal_order(ctx, ops.rec))
        for actual, ref in [(ops.L, L), (stab_penalty, penalty), (ops.rec, rec),
                            (flux_matrix(ops), flux), (ops.balance, balance)]:
            assert_close(actual, ref, 1e-13)
        if rank == 1:
            assert_close(seminorm_gram(ctx), per_face_seminorm_gram(ctx, faces), 1e-13)
            assert ops.face_fluxes(np.ones(ctx.layout.size), np.arange(len(cells))).shape == (
                len(cells), len(faces), ctx.layout.face_width)
    assert shapes == ALL_SHAPES
    assert_padded_group_matches_one_cell(deg)


def test_shared_face_reads_one_mass_inverse():
    mesh, cells = max(groups(), key=lambda g: len(g[1]))
    ctx = build_cell_context(mesh, cells, HhoDegrees(2))
    index = ctx.geom.face_indices.ravel()
    mass_inv = ctx.faces.mass_inv.reshape((-1,) + ctx.faces.mass_inv.shape[2:])
    faces, counts = np.unique(index, return_counts=True)
    shared = faces[counts == 2]
    assert len(shared) > 0
    for face in shared:
        a, b = np.flatnonzero(index == face)
        np.testing.assert_array_equal(mass_inv[a], mass_inv[b])


@pytest.mark.parametrize("rank", [1, 2])
def test_reduction_matches_per_face_projection(rank):
    def v(x):
        vals = np.column_stack([np.sin(x[:, 0]) * x[:, 1], np.cos(x[:, 1]) + x[:, 0] ** 3])
        return vals[:, 0] if rank == 1 else vals

    deg = HhoDegrees(k_face=2, rank=rank)
    for mesh, cells in groups():
        red = reduce_local(mesh, cells, deg, v)
        geom = mesh.cell_geometry(cells)
        layout = dof_layout(mesh, deg, geom.n_faces)
        for i in range(geom.n_faces):
            fi = geom.face_indices[:, i]
            ref = l2_project(face_basis(mesh, fi, 2), face_quadrature(mesh, fi, 8), v)
            assert_close(red[:, layout.face(i)], ref.reshape(len(fi), -1), 1e-14)


# ---------------------------------------------------------------------------
# the face terms from their defining equations


def face_gradients(ctx, f):
    """Gradients of the reconstruction basis at the face points."""
    return basis_gradients(ctx.rec_basis, f.rule.points)


def scalar_rhs_by_face_assembly(ctx):
    """``(grad w, grad v_T) + sum_F (v_F - v_T, grad w . n)_F``."""
    n_cell, layout = ctx.n_cell, ctx.layout
    H = np.zeros((len(ctx.cells), ctx.n_rec - 1, layout.size))
    H[:, :, layout.cell] = stiffness_gram(ctx)[:, 1:, :n_cell]
    for i, f in enumerate(per_face_context(ctx)):
        dn = np.einsum("bqjd,bd->bqj", face_gradients(ctx, f)[:, :, 1:], f.normal)
        wn = f.rule.weights[..., None] * dn
        H[:, :, layout.cell] -= wn.mT @ f.phi[:, :, :n_cell]
        H[:, :, layout.face(i)] += wn.mT @ f.psi
    return H


def scalar_reconstruction_reference(ctx):
    H = scalar_rhs_by_face_assembly(ctx)
    R = np.linalg.solve(stiffness_gram(ctx)[:, 1:, 1:], H)
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
    rule, _, dphi = data_rule_basis(ctx)
    w = rule.weights
    eps = strain_columns(dphi)
    weighted = eps * (w[..., None, None] * TENSOR_WEIGHTS)
    K = np.einsum("bqim,bqjm->bij", weighted, eps)
    H = np.zeros((nb, nv, layout.size))
    H[:, :, layout.cell] = np.einsum("bqim,bqjm->bij", weighted, eps[:, :, :2 * n_cell])
    D = np.zeros((nb, 3, layout.size))
    D[:, 0, layout.cell][:, 0::2] = ctx.ints_full[:, :n_cell]
    D[:, 1, layout.cell][:, 1::2] = ctx.ints_full[:, :n_cell]
    for i, f in enumerate(per_face_context(ctx)):
        feps = strain_columns(face_gradients(ctx, f))
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
    int_grad = np.einsum("bq,bqjc->bjc", w, dphi)
    C[:, 2, 0::2] = 0.5 * int_grad[..., 1]
    C[:, 2, 1::2] = -0.5 * int_grad[..., 0]
    saddle = np.zeros((nb, nv + 3, nv + 3))
    saddle[:, :nv, :nv] = K
    saddle[:, :nv, nv:] = C.mT
    saddle[:, nv:, :nv] = C
    return np.linalg.solve(saddle, np.concatenate([H, D], axis=1))[:, :nv]


def flux_from_consistency(ctx, consistency, stab_face, weight):
    """Equilibrated face fluxes from the stacked consistency moments."""
    f, (nb, nf, nw, size) = ctx.faces, stab_face.shape
    S = stab_face.reshape(nb, -1, size)
    MS = _kron_apply(f.mass, stab_face).reshape(nb, -1, size)
    flux = consistency - weight[:, None, None] * (S[:, :, ctx.layout.faces].mT @ MS)
    for i in range(nf):
        rows = slice(i * nw, (i + 1) * nw)
        flux[:, rows] = _kron_apply(f.mass_inv[:, i], flux[:, rows])
    return flux


def poisson_flux_reference(ctx, R_full):
    """``-(G v . n, psi)_F`` with ``G`` assembled face by face and evaluated
    at the face points; ``R_full`` enters the equal-order stabilization."""
    faces = per_face_context(ctx)
    G = per_face_gradient_reconstruction(ctx, faces)
    consistency = np.concatenate([
        -(f.rule.weights[..., None] * f.psi).mT @ f.phi[:, :, :ctx.n_k]
        @ np.einsum("bc,bcjs->bjs", f.normal, G) for f in faces], axis=1)
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
    for f in per_face_context(ctx):
        n = f.normal[:, :, None, None]
        sn = np.stack([sig[:, 0] * n[:, 0] + sig[:, 2] * n[:, 1],
                       sig[:, 2] * n[:, 0] + sig[:, 1] * n[:, 1]], axis=2)
        pairing = (f.rule.weights[..., None] * f.psi).mT @ f.phi[:, :, :n_k]
        consistency.append(-_kron_apply(pairing, sn.reshape(len(sn), 2 * n_k, -1)))
    stab_face, _ = stabilization_elastic(ctx, None if ctx.degrees.mixed else Dep)
    return flux_from_consistency(ctx, np.concatenate(consistency, axis=1), stab_face,
                                 2.0 * MU / ctx.h)


def assert_matches(actual, ref):
    assert_close(actual, ref, 1e-12)


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_scalar_reconstruction_and_flux_match_face_assembly(k, mixed):
    deg = HhoDegrees(k_face=k, k_cell=k + mixed)
    shapes = set()
    for mesh, cells in cases():
        ctx = build_cell_context(mesh, cells, deg)
        shapes.add(ctx.geom.n_faces)
        R_ref = scalar_reconstruction_reference(ctx)
        assert_matches(reconstruction(ctx), R_ref)
        assert_matches(flux_matrix(local_bilinear(ctx)), poisson_flux_reference(ctx, R_ref))
    assert shapes == ALL_SHAPES


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_displacement_reconstruction_and_traction_match_face_assembly(k, mixed):
    deg = HhoDegrees(k_face=k, k_cell=k + mixed, rank=2)
    shapes = set()
    for mesh, cells in cases():
        ctx = build_cell_context(mesh, cells, deg)
        shapes.add(ctx.geom.n_faces)
        Dep_ref = displacement_reference(ctx)
        assert_matches(displacement_reconstruction(ctx), Dep_ref)
        assert_matches(flux_matrix(local_bilinear_elastic(ctx, MU, LAM)),
                       elastic_flux_reference(ctx, Dep_ref))
    assert shapes == ALL_SHAPES


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
    f = ctx.faces
    ints_psi = (f.weights[..., None, :] @ f.psi)[0, :, 0]        # (nf, n_face)
    for c in range(2):
        integral = (ctx.ints_full[:, None, :ctx.n_k] @ G[:, c])[0, 0]
        scale = np.abs(integral).max()
        assert np.abs(integral[ctx.layout.cell]).max() <= 1e-13 * scale
        np.testing.assert_allclose(integral[ctx.layout.faces],
                                   (f.normal[0, :, c, None] * ints_psi).ravel(),
                                   rtol=0, atol=1e-13 * scale)
