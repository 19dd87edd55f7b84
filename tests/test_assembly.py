import logging
import re

import numpy as np
import pytest
import scipy.sparse as sp

from pyhho import assembly as asm
from pyhho.harness import build_local, neumann_rhs, solve_problem
from pyhho.mesh import (Mesh, build_hanging_node_mesh, build_interval_mesh,
                        build_structured_mesh, left_half)
from pyhho.problems import (ProblemSpec, elasticity_divfree, poisson_sin_1d,
                            poisson_sin_2d)
from pyhho.projection import dof_layout, equal_order, mixed_order, reduce_global

from support import face_measure, face_slice, jittered_mesh, random_half


def test_dof_map_counts():
    mesh = build_structured_mesh("quad", 2, 2)
    dm = asm.build_dof_map(mesh, equal_order(1))
    assert dm.face_width == 2
    assert dm.n_reduced == 4 * 2            # 4 interior faces, all-Dirichlet boundary
    dm0 = asm.build_dof_map(mesh, equal_order(0))
    assert dm0.n_reduced == 4
    with pytest.raises(KeyError):
        face_slice(dm, int(np.flatnonzero(mesh.dirichlet_faces)[0]))
    # the free faces in face order take the reduced rows in turn; a Dirichlet
    # face has none, also where Neumann faces join the free ones
    neumann = build_structured_mesh("quad", 3, 2, neumann=lambda x: x[0] < 1e-12)
    for m, degrees in [(mesh, equal_order(1)), (mesh, equal_order(0)),
                       (neumann, mixed_order(1)), (neumann, equal_order(2, rank=2))]:
        dofmap = asm.build_dof_map(m, degrees)
        rows = dofmap.rows(np.arange(m.n_faces))
        assert np.all(rows[m.dirichlet_faces] == -1)
        np.testing.assert_array_equal(rows[~m.dirichlet_faces].ravel(),
                                      np.arange(dofmap.n_reduced))


def test_dof_map_untagged_face_rejected():
    mesh = build_structured_mesh("quad", 1, 1)
    mesh.dirichlet_faces[:] = False
    with pytest.raises(ValueError):
        asm.build_dof_map(mesh, equal_order(1))


def test_condense_block_diagonal_case():
    layout = dof_layout(build_structured_mesh("quad", 1, 1), equal_order(0), 4)
    n = layout.size
    L = np.zeros((n, n))
    L[0, 0] = 2.0
    L[1:, 1:] = np.diag(np.arange(1.0, n))
    b = np.zeros(layout.cell_width)
    cc = asm.condense(L[None], b[None], layout, [0], [0])
    np.testing.assert_allclose(cc.L_c[0], L[1:, 1:])
    np.testing.assert_allclose(cc.b_c, 0.0)


def test_condense_singular_cell_block():
    layout = dof_layout(build_structured_mesh("quad", 1, 1), equal_order(0), 4)
    L = np.zeros((1, layout.size, layout.size))
    with pytest.raises(ValueError):
        asm.condense(L, np.zeros((1, layout.cell_width)), layout, [0], [0])
    # in a group, the error names the one singular cell block
    L = np.stack([np.eye(layout.size)] * 3)
    L[1, layout.cell, layout.cell] = 0.0
    with pytest.raises(ValueError, match="^cell 11: singular cell block"):
        asm.condense(L, np.zeros((3, layout.cell_width)), layout, [10, 11, 12], [0, 1, 2])


def test_1d_k0_tridiagonal_system():
    n, h = 8, 1.0 / 8
    mesh = build_interval_mesh(0.0, 1.0, n)
    spec = ProblemSpec(kind="poisson", f=lambda x: np.ones(len(x)),
                       u_dirichlet=lambda x: np.zeros(len(x)), name="unit", dim=1)
    groups = build_local(mesh, equal_order(0), spec)
    dm = asm.build_dof_map(mesh, equal_order(0))
    condensed = [g.condense() for g in groups]
    zeros = np.zeros((mesh.n_faces, 1))
    system = asm.assemble(mesh, condensed, dm, dirichlet_values=zeros, extra_face_rhs=zeros)
    A = system.matrix.toarray()
    expect = np.zeros((n - 1, n - 1))
    for i in range(n - 1):
        expect[i, i] = 2.0 / h
        if i:
            expect[i, i - 1] = expect[i - 1, i] = -1.0 / h
    np.testing.assert_allclose(A, expect, atol=1e-12)
    np.testing.assert_allclose(system.rhs, h, atol=1e-13)   # (h fbar + h fbar)/2 = h


def test_disconnected_cells_give_block_diagonal():
    verts = [[0, 0], [1, 0], [0, 1], [5, 0], [6, 0], [5, 1]]
    mesh = Mesh(2, verts, [(0, 1, 2), (3, 4, 5)])
    # keep all faces in the system to observe the coupling pattern
    mesh.set_boundary_tags([], np.flatnonzero(mesh.boundary_faces).tolist())
    spec = ProblemSpec(kind="poisson", f=lambda x: np.ones(len(x)),
                       u_dirichlet=lambda x: np.zeros(len(x)), name="two")
    groups = build_local(mesh, equal_order(1), spec)
    dm = asm.build_dof_map(mesh, equal_order(1))
    condensed = [g.condense() for g in groups]
    zeros = np.zeros((mesh.n_faces, dm.face_width))
    system = asm.assemble(mesh, condensed, dm, zeros, zeros)
    A = system.matrix.toarray()
    faces0 = set(mesh.cell_faces[0].tolist())
    for fi in faces0:
        for fj in set(range(mesh.n_faces)) - faces0:
            blk = A[face_slice(dm, fi), face_slice(dm, fj)]
            assert np.abs(blk).max() == 0.0


def test_homogeneous_dirichlet_leaves_rhs():
    mesh = build_structured_mesh("quad", 2, 2)
    spec = poisson_sin_2d()
    groups = build_local(mesh, equal_order(1), spec)
    dm = asm.build_dof_map(mesh, equal_order(1))
    condensed = [g.condense() for g in groups]
    zeros = np.zeros((mesh.n_faces, 2))
    sys1 = asm.assemble(mesh, condensed, dm, dirichlet_values=zeros, extra_face_rhs=zeros)
    # the condensed right-hand sides scattered alone
    rhs = np.zeros(dm.n_reduced)
    for cg in condensed:
        rows = dm.rows(mesh.cell_face_indices(cg.cells)).reshape(len(cg.cells), -1)
        np.add.at(rhs, rows[rows >= 0], cg.b_c[rows >= 0])
    np.testing.assert_array_equal(sys1.rhs, rhs)


def test_dirichlet_elimination_moves_columns():
    # rhs difference must equal -L[:, D] u_D, with L from an all-free assembly
    mesh = build_structured_mesh("quad", 2, 1)
    spec = poisson_sin_2d()
    k = 1
    groups = build_local(mesh, equal_order(k), spec)
    condensed = [g.condense() for g in groups]

    free = Mesh(2, mesh.vertices.copy(), [c.copy() for c in mesh.cells])
    free.set_boundary_tags([], np.flatnonzero(free.boundary_faces).tolist())
    dm_free = asm.build_dof_map(free, equal_order(k))
    zeros = np.zeros((mesh.n_faces, 2))
    full = asm.assemble(free, condensed, dm_free, zeros, zeros).matrix.toarray()

    dm = asm.build_dof_map(mesh, equal_order(k))
    rng = np.random.default_rng(0)
    ud = np.zeros((mesh.n_faces, 2))
    ud[mesh.dirichlet_faces] = rng.standard_normal(
        (int(mesh.dirichlet_faces.sum()), 2))
    sys0 = asm.assemble(mesh, condensed, dm, zeros, zeros)
    sys1 = asm.assemble(mesh, condensed, dm, ud, zeros)
    diff = sys1.rhs - sys0.rhs
    expect = np.zeros_like(diff)
    for fi in np.flatnonzero(~mesh.dirichlet_faces):
        row = np.zeros(2)
        for fj in np.flatnonzero(mesh.dirichlet_faces):
            blk = full[face_slice(dm_free, fi), face_slice(dm_free, fj)]
            row += blk @ ud[fj]
        expect[face_slice(dm, fi)] = -row
    np.testing.assert_allclose(diff, expect, atol=1e-12)


def test_neumann_rhs_values():
    mesh = build_structured_mesh("quad", 1, 1, neumann=lambda x: x[0] < 1e-12)
    g = neumann_rhs(mesh, equal_order(0), lambda x: 3.0 * np.ones(len(x)))
    fi = int(np.flatnonzero(mesh.neumann_faces)[0])
    assert g[fi][0] == pytest.approx(3.0 * face_measure(mesh, fi))
    gz = neumann_rhs(mesh, equal_order(0), lambda x: np.zeros(len(x)))
    np.testing.assert_allclose(gz, 0.0)


def test_global_symmetry_and_spd():
    mesh = build_structured_mesh("tri", 3, 3)
    spec = poisson_sin_2d()
    groups = build_local(mesh, equal_order(1), spec)
    dm = asm.build_dof_map(mesh, equal_order(1))
    condensed = [g.condense() for g in groups]
    zeros = np.zeros((mesh.n_faces, 2))
    system = asm.assemble(mesh, condensed, dm, dirichlet_values=zeros, extra_face_rhs=zeros)
    A = system.matrix.toarray()
    assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()
    assert np.linalg.eigvalsh(A).min() > 0


def _assemble_coo(mesh, condensed, dofmap, dirichlet_values, extra_face_rhs):
    """Reference: one (row, column, value) triplet per cell and pair of free
    local DoFs, broadcast over each group and summed by scipy's COO
    conversion.  Returns the CSR matrix and the rhs."""
    n = dofmap.n_reduced
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for cg in condensed:
        faces = mesh.cell_face_indices(cg.cells)
        dofs = dofmap.rows(faces).reshape(len(faces), -1)
        free = dofs >= 0
        fixed = np.where(free, 0.0, dirichlet_values[faces].reshape(free.shape))
        L_c = cg.L_c[cg.shapes]
        b = cg.b_c - (L_c @ fixed[..., None])[..., 0]
        rhs += np.bincount(dofs[free], weights=b[free], minlength=n)
        pairs = free[:, :, None] & free[:, None, :]
        rows.append(np.broadcast_to(dofs[:, :, None], pairs.shape)[pairs])
        cols.append(np.broadcast_to(dofs[:, None, :], pairs.shape)[pairs])
        vals.append(L_c[pairs])
    free = np.flatnonzero(~mesh.dirichlet_faces)
    rhs[dofmap.rows(free)] += extra_face_rhs[free]
    matrix = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                           shape=(n, n)).tocsr()
    matrix.sort_indices()
    return matrix, rhs


def _neumann_left(x):
    return x[0] < 1e-12


def _with_neumann_left(mesh):
    return Mesh(2, mesh.vertices, mesh.cells, neumann=_neumann_left)


ASSEMBLY_MESHES = {
    "quad": lambda: build_structured_mesh("quad", 5, 4, neumann=_neumann_left),
    "tri": lambda: build_structured_mesh("tri", 4, 4, neumann=_neumann_left),
    "hanging": lambda: build_hanging_node_mesh(
        build_structured_mesh("quad", 4, 4, neumann=_neumann_left),
        left_half(build_structured_mesh("quad", 4, 4))),
    "jittered-quad": lambda: _with_neumann_left(jittered_mesh("quad", 5, 1)),
    "interval": lambda: build_interval_mesh(0.0, 1.0, 7, neumann=lambda x: x[0] > 0.5),
}
# (mesh family, k, field rank): Poisson k = 0..2 everywhere, elasticity k = 1, 2 in 2D
ASSEMBLY_CASES = [(family, k, 1) for family in ASSEMBLY_MESHES for k in (0, 1, 2)] + [
    (family, k, 2) for family in ASSEMBLY_MESHES if family != "interval" for k in (1, 2)]


@pytest.mark.parametrize("family, k, rank", ASSEMBLY_CASES, ids=[
    f"{family}-{'elasticity' if rank == 2 else 'poisson'}-k{k}"
    for family, k, rank in ASSEMBLY_CASES])
def test_assemble_matches_broadcast_coo(monkeypatch, family, k, rank):
    mesh = ASSEMBLY_MESHES[family]()
    assert mesh.neumann_faces.any()
    spec = (elasticity_divfree(mu=1.0, lam=10.0) if rank == 2
            else poisson_sin_1d() if mesh.dim == 1 else poisson_sin_2d())
    degrees = equal_order(k, rank=rank)
    condensed = [g.condense() for g in build_local(mesh, degrees, spec)]
    dm = asm.build_dof_map(mesh, degrees)
    rng = np.random.default_rng(5)
    ud, gn = rng.standard_normal((2, mesh.n_faces, dm.face_width))
    # three cells per chunk: chunks split the groups
    monkeypatch.setattr(asm, "CHUNK", 3)
    system = asm.assemble(mesh, condensed, dm, dirichlet_values=ud, extra_face_rhs=gn)
    A, rhs = _assemble_coo(mesh, condensed, dm, ud, gn)
    np.testing.assert_array_equal(system.matrix.indptr, A.indptr)
    np.testing.assert_array_equal(system.matrix.indices, A.indices)
    assert np.abs(system.matrix.data - A.data).max() <= 1e-15 * np.abs(A.data).max()
    assert np.abs(system.rhs - rhs).max() <= 1e-15 * np.abs(rhs).max()


def test_asymmetry_is_measured_and_named():
    system = _reduced_system(build_structured_mesh("quad", 3, 3), equal_order(1),
                             poisson_sin_2d())
    A = system.matrix.tolil()
    scale = np.abs(system.matrix).max()
    A[0, 3] += 1e-13 * scale            # below 1e-12 of the largest entry: accepted
    asm.solve_reduced(asm.GlobalSystem(A.tocsr(), system.rhs, system.dofmap))
    n = A.shape[0]
    assert A[0, n - 1] == A[n - 1, 0] == 0.0
    A[5, 2] += 0.25
    A[0, n - 1] = 0.5                   # outside the pattern: its mirror is 0
    A = A.tocsc()
    deviation = abs(A - A.T).max()
    assert deviation == 0.5
    for method in ("direct", "cg"):
        with pytest.raises(ValueError, match=re.escape(
                f"reduced system is not symmetric (deviation {deviation:.2e})")):
            asm.solve_reduced(asm.GlobalSystem(A, system.rhs, system.dofmap), method=method)


@pytest.mark.parametrize("pattern", [True, False], ids=["symmetric", "unsymmetric"])
def test_asymmetry_is_named_on_either_pattern(pattern):
    system = _reduced_system(build_structured_mesh("quad", 3, 3), equal_order(1),
                             poisson_sin_2d())
    A = system.matrix.copy()
    if pattern:                    # one stored value off its mirror
        A.data[A.indptr[1] - 1] += 0.25
    else:                          # one stored entry whose mirror is not stored
        A = A.tolil()
        A[0, A.shape[0] - 1] = 0.5
        A = A.tocsr()
    B = A.tocsc()
    assert (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)) \
        == pattern
    deviation = abs(A - A.T).max()
    with pytest.raises(ValueError, match=re.escape(
            f"reduced system is not symmetric (deviation {deviation:.2e})")):
        asm.solve_reduced(asm.GlobalSystem(A, system.rhs, system.dofmap))


@pytest.mark.parametrize("solver", ["direct", "cg"])
@pytest.mark.parametrize("mesh", [lambda: build_structured_mesh("quad", 1, 1),
                                  lambda: build_interval_mesh(0.0, 1.0, 1)],
                         ids=["quad", "interval"])
def test_mesh_without_free_faces(mesh, solver):
    mesh = mesh()
    spec = poisson_sin_1d() if mesh.dim == 1 else poisson_sin_2d()
    sol = solve_problem(mesh, equal_order(1), spec, solver=solver)
    assert sol.dofmap.n_reduced == 0 and sol.residual == 0.0
    assert np.isfinite(sol.cell_coeffs).all()


def test_cg_matches_direct():
    mesh = build_structured_mesh("quad", 4, 4)
    spec = poisson_sin_2d()
    s_direct = solve_problem(mesh, equal_order(1), spec, solver="direct")
    s_cg = solve_problem(mesh, equal_order(1), spec, solver="cg", tol=1e-14)
    dev = np.abs(s_direct.face_coeffs - s_cg.face_coeffs).max()
    assert dev <= 1e-10 * max(np.abs(s_direct.face_coeffs).max(), 1.0)


def _neumann_left_quads():
    spec0 = poisson_sin_2d()
    spec = ProblemSpec(kind="poisson", f=spec0.f, u_dirichlet=spec0.exact,
                       g_neumann=lambda x: -np.pi * np.sin(np.pi * x[:, 1]),
                       name="poisson-neumann")
    return (build_structured_mesh("quad", 6, 6, neumann=lambda x: x[0] < 1e-12),
            equal_order(1), spec)


def _hanging_mixed():
    base = build_structured_mesh("quad", 6, 6)
    return (build_hanging_node_mesh(base, left_half(base)), mixed_order(1),
            poisson_sin_2d())


def _clamped_left():
    # Dirichlet faces only on x = 0, whose vertices are collinear: the curls
    # of the auxiliary space are dependent and A_0 is singular to round-off
    spec0 = elasticity_divfree(mu=1.0, lam=1e4)

    def traction(x):
        J = spec0.exact_grad(x)
        eps = 0.5 * (J + np.swapaxes(J, 1, 2))
        div = np.trace(eps, axis1=1, axis2=2)[:, None, None]
        sig = 2 * spec0.mu * eps + spec0.lam * div * np.eye(2)
        normal = np.where(np.isclose(x[:, :1], 1.0), [1.0, 0.0],
                          np.where(x[:, 1:] < 0.5, [0.0, -1.0], [0.0, 1.0]))
        return (sig @ normal[:, :, None])[:, :, 0]

    spec = ProblemSpec(kind="elasticity", f=spec0.f, u_dirichlet=spec0.exact,
                       g_neumann=traction, mu=spec0.mu, lam=spec0.lam, exact=spec0.exact,
                       exact_grad=spec0.exact_grad, name="elasticity-clamped")
    return (build_structured_mesh("tri", 6, 6, neumann=lambda x: x[0] > 1e-12),
            equal_order(1, rank=2), spec)


CG_CASES = {
    "near-incompressible elasticity on jittered triangles":
        lambda: (jittered_mesh("tri", 10, 1), equal_order(1, rank=2),
                 elasticity_divfree(mu=1.0, lam=1e4)),
    "mixed-order Poisson on a hanging-node mesh": _hanging_mixed,
    "k=2 Poisson on an interval": lambda: (build_interval_mesh(0.0, 1.0, 12),
                                           equal_order(2), poisson_sin_1d()),
    "Poisson on quads with Neumann faces": _neumann_left_quads,
    # the face means of the hats have a checkerboard kernel: A_0 is singular
    # to round-off, and the coarse factor takes a relative diagonal shift
    "k=0 Poisson on quads": lambda: (build_structured_mesh("quad", 8, 8), equal_order(0),
                                     poisson_sin_2d()),
    "k=0 Poisson on 4x4 quads": lambda: (build_structured_mesh("quad", 4, 4), equal_order(0),
                                         poisson_sin_2d()),
    "k=0 Poisson on jittered quads, seed 1": lambda: (jittered_mesh("quad", 4, 1),
                                                      equal_order(0), poisson_sin_2d()),
    "k=0 Poisson on jittered quads, seed 6": lambda: (jittered_mesh("quad", 4, 6),
                                                      equal_order(0), poisson_sin_2d()),
    "elasticity clamped on one side": _clamped_left,
}


@pytest.mark.parametrize("case", CG_CASES)
def test_cg_matches_direct_on(case):
    mesh, degrees, spec = CG_CASES[case]()
    s_direct = solve_problem(mesh, degrees, spec, solver="direct")
    s_cg = solve_problem(mesh, degrees, spec, solver="cg")
    dev = np.abs(s_direct.face_coeffs - s_cg.face_coeffs).max()
    assert dev <= 1e-10 * np.abs(s_direct.face_coeffs).max()


def _reduced_system(mesh, degrees, spec):
    groups = build_local(mesh, degrees, spec)
    condensed = [g.condense() for g in groups]
    dofmap = asm.build_dof_map(mesh, degrees)
    zeros = np.zeros((mesh.n_faces, dofmap.face_width))
    return asm.assemble(mesh, condensed, dofmap, zeros, zeros)


@pytest.mark.parametrize("shape", ["quad", "tri"])
def test_patch_preconditioner_is_spd(shape):
    mesh = build_structured_mesh(shape, 3, 3)
    system = _reduced_system(mesh, equal_order(1, rank=2),
                             elasticity_divfree(mu=1.0, lam=1e4))
    A = system.matrix
    P = asm._block_jacobi(A, asm._vertex_patches(system.dofmap)) @ np.eye(A.shape[0])
    assert np.abs(P - P.T).max() <= 1e-12 * np.abs(P).max()
    assert np.linalg.eigvalsh(P).min() > 0


def test_patch_preconditioner_is_block_jacobi_in_1d():
    mesh = build_interval_mesh(0.0, 1.0, 6, neumann=lambda x: x[0] > 0.5)
    system = _reduced_system(mesh, equal_order(2), poisson_sin_1d())
    A, w = system.matrix.toarray(), system.dofmap.face_width
    P = asm._block_jacobi(system.matrix, asm._vertex_patches(system.dofmap))
    expect = np.zeros_like(A)
    for f in range(0, len(A), w):
        expect[f:f + w, f:f + w] = np.linalg.inv(A[f:f + w, f:f + w])
    np.testing.assert_allclose(P @ np.eye(len(A)), expect, rtol=1e-12, atol=1e-14)


def _hanging_4():
    base = build_structured_mesh("quad", 4, 4)
    return build_hanging_node_mesh(base, left_half(base))


def _dense_schwarz(A, patches):
    """``sum_v R_v^T A_vv^-1 R_v`` by one dense inverse per patch."""
    P = np.zeros_like(A)
    for patch in patches:
        dofs = patch[patch >= 0]
        P[np.ix_(dofs, dofs)] += np.linalg.inv(A[np.ix_(dofs, dofs)])
    return P


@pytest.mark.parametrize("case", [
    lambda: (build_structured_mesh("quad", 4, 3), equal_order(1), poisson_sin_2d()),
    lambda: (_hanging_4(), equal_order(2), poisson_sin_2d()),
    lambda: (build_structured_mesh("tri", 3, 3, neumann=_neumann_left),
             equal_order(1, rank=2), elasticity_divfree(mu=1.0, lam=1e4)),
], ids=["quad", "hanging-k2", "elasticity-neumann-tri"])
def test_patch_preconditioner_matches_dense_inverses(monkeypatch, case):
    mesh, degrees, spec = case()
    system = _reduced_system(mesh, degrees, spec)
    patches = asm._vertex_patches(system.dofmap)
    monkeypatch.setattr(asm, "CHUNK", 4)     # chunks of four vertices
    M = asm._block_jacobi(system.matrix, patches)
    expect = _dense_schwarz(system.matrix.toarray(), patches)
    n = len(expect)
    assert M.dtype == float
    np.testing.assert_allclose(M @ np.eye(n), expect, rtol=0, atol=1e-12 * np.abs(expect).max())
    x = np.random.default_rng(2).standard_normal(n)
    tol = 1e-12 * np.abs(expect @ x).max()
    np.testing.assert_allclose(M.matvec(x), expect @ x, rtol=0, atol=tol)
    np.testing.assert_allclose(M.matvec(x[:, None]), (expect @ x)[:, None], rtol=0, atol=tol)


def _counted_patches(monkeypatch):
    """Count preconditioner applications: CG applies the one-level part once
    per iteration.  With its dtype given, the operator is not probed once
    at construction, as the benchmark tracer's is."""
    applied = []
    build = asm._block_jacobi

    def counted(A, patches):
        op = build(A, patches)
        return asm.spla.LinearOperator(
            op.shape, matvec=lambda x: applied.append(1) or op.matvec(x), dtype=float)

    monkeypatch.setattr(asm, "_block_jacobi", counted)
    return applied


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cg_iterations_near_incompressible(monkeypatch, seed):
    applied = _counted_patches(monkeypatch)
    sol = solve_problem(jittered_mesh("tri", 10, seed), equal_order(1, rank=2),
                        elasticity_divfree(mu=1.0, lam=1e4), solver="cg")
    assert sol.residual <= 1e-8
    assert 0 < len(applied) <= 80


def _hanging_32():
    base = build_structured_mesh("quad", 32, 32)
    return build_hanging_node_mesh(base, left_half(base))


ELASTIC = elasticity_divfree(mu=1.0, lam=1e4)
TWO_LEVEL_CASES = {
    # name: (mesh, degrees, spec, largest number of preconditioner applications)
    "poisson-quad-32": (lambda: build_structured_mesh("quad", 32, 32), equal_order(1),
                        poisson_sin_2d(), 40),
    "poisson-tri-32": (lambda: build_structured_mesh("tri", 32, 32), equal_order(1),
                       poisson_sin_2d(), 40),
    "poisson-hanging-32": (_hanging_32, equal_order(1), poisson_sin_2d(), 40),
    "poisson-jittered-quad-32": (lambda: jittered_mesh("quad", 32, 1), equal_order(1),
                                 poisson_sin_2d(), 40),
    "elasticity-jittered-tri-16": (lambda: jittered_mesh("tri", 16, 1),
                                   equal_order(1, rank=2), ELASTIC, 100),
    "elasticity-jittered-tri-32": (lambda: jittered_mesh("tri", 32, 1),
                                   equal_order(1, rank=2), ELASTIC, 100),
    "elasticity-k2-jittered-tri-16": (lambda: jittered_mesh("tri", 16, 1),
                                      equal_order(2, rank=2), ELASTIC, 100),
}


def _check_coarse_factor(system):
    """The SuperLU factor of ``A_0 = P^T A P`` solves with ``A_0``."""
    P = asm._auxiliary_space(system.dofmap)
    assert P.shape[0] == system.dofmap.n_reduced
    A0 = (P.T @ (system.matrix @ P)).tocsc()
    lu = asm._factor(A0, "auxiliary coarse system")
    x = np.random.default_rng(3).standard_normal(A0.shape[0])
    assert np.abs(lu.solve(A0 @ x) - x).max() <= 1e-8 * np.abs(x).max()


@pytest.mark.parametrize("case", TWO_LEVEL_CASES)
def test_two_level_cg_on_a_random_load(monkeypatch, case):
    mesh, degrees, spec, most = TWO_LEVEL_CASES[case]
    system = _reduced_system(mesh(), degrees, spec)
    system.rhs = np.random.default_rng(7).standard_normal(len(system.rhs))
    _check_coarse_factor(system)
    applied = _counted_patches(monkeypatch)
    x = asm.solve_reduced(system, method="cg")
    assert 0 < len(applied) <= most
    direct = asm.solve_reduced(system)
    assert np.abs(x - direct).max() <= 1e-10 * np.abs(direct).max()


@pytest.mark.parametrize("case", [
    _neumann_left_quads,
    lambda: (build_structured_mesh("tri", 6, 6, neumann=lambda x: x[0] < 1e-12),
             equal_order(1, rank=2), ELASTIC),
    lambda: (build_interval_mesh(0.0, 1.0, 12), equal_order(2), poisson_sin_1d()),
    lambda: (build_interval_mesh(0.0, 1.0, 12, neumann=lambda x: x[0] > 0.5),
             equal_order(0), poisson_sin_1d()),
], ids=["poisson-neumann-quad", "elasticity-neumann-tri", "interval-k2",
        "interval-k0-neumann"])
def test_auxiliary_coarse_matrix_factors(case):
    _check_coarse_factor(_reduced_system(*case()))


def test_singular_auxiliary_coarse_matrix_is_a_value_error(monkeypatch):
    # a column that vanishes on every free face makes A_0 exactly singular
    system = _reduced_system(build_structured_mesh("quad", 3, 3), equal_order(1),
                             poisson_sin_2d())
    build = asm._auxiliary_space
    monkeypatch.setattr(asm, "_auxiliary_space", lambda dofmap: sp.hstack(
        [build(dofmap), sp.csc_matrix((dofmap.n_reduced, 1))]).tocsc())
    with pytest.raises(ValueError, match="^auxiliary coarse system is singular"):
        asm.solve_reduced(system, method="cg")


def test_cg_of_a_zero_load_is_zero():
    system = _reduced_system(build_structured_mesh("quad", 3, 3), equal_order(1),
                             poisson_sin_2d())
    system.rhs = np.zeros_like(system.rhs)
    with np.errstate(all="raise"):
        x = asm.solve_reduced(system, method="cg")
    assert np.array_equal(x, np.zeros_like(x))


def test_one_debug_line_per_solve(caplog):
    system = _reduced_system(build_structured_mesh("quad", 4, 4), equal_order(1),
                             poisson_sin_2d())
    n, nnz = system.matrix.shape[0], system.matrix.nnz
    with caplog.at_level(logging.DEBUG, logger="pyhho"):
        asm.solve_reduced(system, method="cg")
        asm.solve_reduced(system)
    lines = [r.getMessage() for r in caplog.records if r.name == "pyhho"]
    assert len(lines) == 2
    assert re.fullmatch(rf"face solve: cg, {n} reduced DoFs, {nnz} nonzeros, auxiliary "
                        r"space \d+, \d+ iterations, relative residual \S+, setup \S+ s, "
                        r"loop \S+ s", lines[0])
    assert re.fullmatch(rf"face solve: direct, {n} reduced DoFs, {nnz} nonzeros, L\+U "
                        r"fill \d+ \(\S+x\), \S+ s", lines[1])


def test_auxiliary_hats_reproduce_linear_fields():
    # the traced hats of a linear field's vertex values are its face
    # projection: constant (u(a) + u(b)) / 2, linear (u(b) - u(a)) / 2
    mesh = jittered_mesh("tri", 4, 2)
    mesh.set_boundary_tags([], np.flatnonzero(mesh.boundary_faces).tolist())
    degrees = equal_order(2, rank=2)
    dofmap = asm.build_dof_map(mesh, degrees)
    P = asm._auxiliary_space(dofmap)
    n_vert = len(mesh.vertices)

    def field(x):
        return np.column_stack([1.0 + 2.0 * x[:, 0] - x[:, 1], 3.0 * x[:, 1] - 0.5])

    hats = field(mesh.vertices).ravel()          # column v * rank + c
    _, want = reduce_global(mesh, degrees, field)
    got = (P[:, :2 * n_vert] @ hats).reshape(mesh.n_faces, -1)
    np.testing.assert_allclose(got, want, atol=1e-12)
    # with no Dirichlet face, every vertex also carries a curl column
    assert P.shape[1] == 3 * n_vert


def test_auxiliary_curls_are_divergence_free_on_triangles():
    # on triangles a hat's Green gradient is its exact gradient, so the face
    # mean of its curl has the normal component of either cell: no cell
    # has a net flux of any curl column
    mesh = jittered_mesh("tri", 5, 4)
    dofmap = asm.build_dof_map(mesh, equal_order(1, rank=2))
    P = asm._auxiliary_space(dofmap)
    inner = np.ones(len(mesh.vertices), dtype=bool)
    inner[mesh.face_nodes[mesh.dirichlet_faces]] = False
    curls = P[:, -int(inner.sum()):].toarray()    # curl columns come last
    flux = np.zeros((mesh.n_cells, dofmap.n_reduced))
    for cells in mesh.cell_groups():
        g = mesh.cell_geometry(cells)
        off = dofmap.rows(g.face_indices)[..., 0]
        for c in range(2):
            keep = off >= 0
            np.add.at(flux, (np.broadcast_to(cells[:, None], off.shape)[keep], off[keep] + c),
                      (g.face_measures * g.face_normals[..., c])[keep])
    assert np.abs(flux @ curls).max() <= 1e-12 * np.abs(curls).max()
    # the hats are not divergence-free
    assert np.abs(flux @ P[:, :-int(inner.sum())].toarray()).max() > 0.1


def _auxiliary_reference(dofmap):
    """``_auxiliary_space`` of 2D vector fields at k >= 1 built cell by cell
    from ``mesh.cells``, on the columns ``2 v + c`` (hats) and ``2 n_vert + v``
    (curls) that have an entry."""
    mesh = dofmap.mesh
    off = dofmap.rows(np.arange(mesh.n_faces))[:, 0]
    n_vert = len(mesh.vertices)
    P = np.zeros((dofmap.n_reduced, 3 * n_vert))
    for f in np.flatnonzero(off >= 0):
        for j, v in enumerate(mesh.face_nodes[f]):
            for c in range(2):
                P[off[f] + c, 2 * v + c] += 0.5
                P[off[f] + 2 + c, 2 * v + c] += j - 0.5
    on_dirichlet = np.zeros(n_vert, dtype=bool)
    on_dirichlet[mesh.face_nodes[mesh.dirichlet_faces]] = True
    for loop, faces in zip(mesh.cells, mesh.cell_faces):
        pts = mesh.vertices[loop]
        edge = np.roll(pts, -1, axis=0) - pts
        area = 0.5 * np.sum(pts[:, 0] * edge[:, 1] - pts[:, 1] * edge[:, 0])
        grad = np.zeros((n_vert, 2))
        for a, b, e in zip(loop, np.roll(loop, -1), edge):
            grad[[a, b]] += np.array([e[1], -e[0]]) / (2.0 * area)     # |F| n_F / (2 |T|)
        for f in faces[off[faces] >= 0]:
            mean = 1.0 / (2 - mesh.boundary_faces[f])
            for v in loop[~on_dirichlet[loop]]:
                P[off[f], 2 * n_vert + v] += mean * grad[v, 1]
                P[off[f] + 1, 2 * n_vert + v] -= mean * grad[v, 0]
    return P[:, np.any(P != 0, axis=0)]


def test_auxiliary_space_matches_a_cell_by_cell_build():
    # the polygons share one group padded with repeated closing faces
    mesh = random_half(8, 2, neumann=lambda x: x[0] > 1.0 - 1e-12)
    assert any(len({len(mesh.cells[c]) for c in cells}) > 1 for cells in mesh.cell_groups())
    dofmap = asm.build_dof_map(mesh, equal_order(1, rank=2))
    want = _auxiliary_reference(dofmap)
    got = asm._auxiliary_space(dofmap).toarray()
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_singular_patch_names_its_vertex():
    mesh = build_interval_mesh(0.0, 1.0, 4)
    system = _reduced_system(mesh, equal_order(0), poisson_sin_1d())
    A = system.matrix.tolil()
    A[1, :] = 0.0                      # face 2 is mesh vertex 2
    A[:, 1] = 0.0
    broken = asm.GlobalSystem(A.tocsc(), system.rhs, system.dofmap)
    with pytest.raises(ValueError, match="^vertex 2: singular patch block"):
        asm.solve_reduced(broken, method="cg")


def test_singular_reduced_system_fails_the_direct_solve():
    mesh = build_interval_mesh(0.0, 1.0, 4)
    system = _reduced_system(mesh, equal_order(0), poisson_sin_1d())
    A = system.matrix.tolil()
    A[1, :] = 0.0
    A[:, 1] = 0.0
    broken = asm.GlobalSystem(A.tocsc(), system.rhs, system.dofmap)
    with pytest.raises(ValueError, match="^reduced system is singular"):
        asm.solve_reduced(broken)


def test_cg_failure_states_tolerance_and_residual(monkeypatch):
    monkeypatch.setattr(asm, "CG_MAXITER", 10)
    system = _reduced_system(jittered_mesh("tri", 10, 1), equal_order(1, rank=2),
                             elasticity_divfree(mu=1.0, lam=1e4))
    with pytest.raises(RuntimeError, match=r"^CG did not reach rtol 1\.0e-12 in 10 "
                                           r"iterations \(relative residual \d"):
        asm.solve_reduced(system, method="cg")


@pytest.mark.parametrize("tol", [0, -1e-8, float("nan"), float("inf")])
def test_solve_rejects_bad_tolerance(monkeypatch, tol):
    system = _reduced_system(build_structured_mesh("quad", 2, 2), equal_order(1),
                             poisson_sin_2d())

    def no_work(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(asm, "_block_jacobi", no_work)
    monkeypatch.setattr(asm, "_two_level_cg", no_work)
    with pytest.raises(ValueError, match=f"positive and finite, got {tol!r}$"):
        asm.solve_reduced(system, method="cg", tol=tol)


@pytest.mark.parametrize("degrees", [equal_order(1), mixed_order(1)])
def test_monolithic_matches_condensed(degrees):
    mesh = build_structured_mesh("quad", 2, 2)
    spec = poisson_sin_2d()
    s1 = solve_problem(mesh, degrees, spec)
    s2 = solve_problem(mesh, degrees, spec, monolithic=True)
    scale = np.abs(s2.face_coeffs).max()
    assert np.abs(s1.face_coeffs - s2.face_coeffs).max() <= 1e-10 * scale
    for a, b in zip(s1.cell_coeffs, s2.cell_coeffs):
        assert np.abs(a - b).max() <= 1e-10 * scale


def test_solver_contract_residual():
    mesh = build_structured_mesh("quad", 4, 4)
    sol = solve_problem(mesh, equal_order(2), poisson_sin_2d())
    assert sol.residual <= 1e-11
