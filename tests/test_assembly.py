import numpy as np
import pytest

from pyhho import assembly as asm
from pyhho.harness import build_local, neumann_rhs, solve_problem
from pyhho.mesh import Mesh, build_interval_mesh, build_structured_mesh
from pyhho.problems import ProblemSpec, poisson_sin_2d
from pyhho.projection import dof_layout, equal_order, mixed_order


def test_dof_map_counts():
    mesh = build_structured_mesh("quad", 2, 2)
    dm = asm.build_dof_map(mesh, equal_order(1))
    assert dm.face_width == 2
    assert dm.n_reduced == 4 * 2            # 4 interior faces, all-Dirichlet boundary
    dm0 = asm.build_dof_map(mesh, equal_order(0))
    assert dm0.n_reduced == 4
    with pytest.raises(KeyError):
        dm.face_slice(int(np.flatnonzero(mesh.dirichlet_faces)[0]))


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
    b = np.zeros(n)
    cc = asm.condense(L[None], b[None], layout, [0])
    np.testing.assert_allclose(cc.L_c[0], L[1:, 1:])
    np.testing.assert_allclose(cc.b_c, 0.0)


def test_condense_singular_cell_block():
    layout = dof_layout(build_structured_mesh("quad", 1, 1), equal_order(0), 4)
    L = np.zeros((1, layout.size, layout.size))
    with pytest.raises(ValueError):
        asm.condense(L, np.zeros((1, layout.size)), layout, [0])
    # in a group, the error names the one singular cell block
    L = np.stack([np.eye(layout.size)] * 3)
    L[1, layout.cell, layout.cell] = 0.0
    with pytest.raises(ValueError, match="^cell 11: singular cell block"):
        asm.condense(L, np.zeros((3, layout.size)), layout, [10, 11, 12])


def test_1d_k0_tridiagonal_system():
    n, h = 8, 1.0 / 8
    mesh = build_interval_mesh(0.0, 1.0, n)
    spec = ProblemSpec(kind="poisson", f=lambda x: np.ones(len(x)),
                       u_dirichlet=lambda x: np.zeros(len(x)), name="unit")
    ops, rhs = build_local(mesh, equal_order(0), spec)
    dm = asm.build_dof_map(mesh, equal_order(0))
    condensed = [asm.condense(o.L, b, o.ctx.layout, o.ctx.cells)
                 for o, b in zip(ops, rhs)]
    system = asm.assemble(mesh, condensed, dm,
                          dirichlet_values=np.zeros((mesh.n_faces, 1)))
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
    ops, rhs = build_local(mesh, equal_order(1), spec)
    dm = asm.build_dof_map(mesh, equal_order(1))
    condensed = [asm.condense(o.L, b, o.ctx.layout, o.ctx.cells)
                 for o, b in zip(ops, rhs)]
    system = asm.assemble(mesh, condensed, dm)
    A = system.matrix.toarray()
    faces0 = set(mesh.cell_faces[0].tolist())
    for fi in faces0:
        for fj in set(range(mesh.n_faces)) - faces0:
            blk = A[dm.face_slice(fi), dm.face_slice(fj)]
            assert np.abs(blk).max() == 0.0


def test_homogeneous_dirichlet_leaves_rhs():
    mesh = build_structured_mesh("quad", 2, 2)
    spec = poisson_sin_2d()
    ops, rhs = build_local(mesh, equal_order(1), spec)
    dm = asm.build_dof_map(mesh, equal_order(1))
    condensed = [asm.condense(o.L, b, o.ctx.layout, o.ctx.cells)
                 for o, b in zip(ops, rhs)]
    sys0 = asm.assemble(mesh, condensed, dm)
    sys1 = asm.assemble(mesh, condensed, dm,
                        dirichlet_values=np.zeros((mesh.n_faces, 2)))
    np.testing.assert_array_equal(sys0.rhs, sys1.rhs)


def test_dirichlet_elimination_moves_columns():
    # rhs difference must equal -L[:, D] u_D, with L from an all-free assembly
    mesh = build_structured_mesh("quad", 2, 1)
    spec = poisson_sin_2d()
    k = 1
    ops, rhs = build_local(mesh, equal_order(k), spec)
    condensed = [asm.condense(o.L, b, o.ctx.layout, o.ctx.cells)
                 for o, b in zip(ops, rhs)]

    free = Mesh(2, mesh.vertices.copy(), [c.copy() for c in mesh.cells])
    free.set_boundary_tags([], np.flatnonzero(free.boundary_faces).tolist())
    dm_free = asm.build_dof_map(free, equal_order(k))
    full = asm.assemble(free, condensed, dm_free).matrix.toarray()

    dm = asm.build_dof_map(mesh, equal_order(k))
    rng = np.random.default_rng(0)
    ud = np.zeros((mesh.n_faces, 2))
    ud[mesh.dirichlet_faces] = rng.standard_normal(
        (int(mesh.dirichlet_faces.sum()), 2))
    sys0 = asm.assemble(mesh, condensed, dm)
    sys1 = asm.assemble(mesh, condensed, dm, dirichlet_values=ud)
    diff = sys1.rhs - sys0.rhs
    expect = np.zeros_like(diff)
    for fi in np.flatnonzero(~mesh.dirichlet_faces):
        row = np.zeros(2)
        for fj in np.flatnonzero(mesh.dirichlet_faces):
            blk = full[dm_free.face_slice(fi), dm_free.face_slice(fj)]
            row += blk @ ud[fj]
        expect[dm.face_slice(fi)] = -row
    np.testing.assert_allclose(diff, expect, atol=1e-12)


def test_neumann_rhs_values():
    mesh = build_structured_mesh("quad", 1, 1, neumann=lambda x: x[0] < 1e-12)
    g = neumann_rhs(mesh, equal_order(0), lambda x: 3.0 * np.ones(len(x)))
    fi = int(np.flatnonzero(mesh.neumann_faces)[0])
    assert g[fi][0] == pytest.approx(3.0 * mesh.face_measure(fi))
    gz = neumann_rhs(mesh, equal_order(0), lambda x: np.zeros(len(x)))
    np.testing.assert_allclose(gz, 0.0)


def test_global_symmetry_and_spd():
    mesh = build_structured_mesh("tri", 3, 3)
    spec = poisson_sin_2d()
    ops, rhs = build_local(mesh, equal_order(1), spec)
    dm = asm.build_dof_map(mesh, equal_order(1))
    condensed = [asm.condense(o.L, b, o.ctx.layout, o.ctx.cells)
                 for o, b in zip(ops, rhs)]
    system = asm.assemble(mesh, condensed, dm,
                          dirichlet_values=np.zeros((mesh.n_faces, 2)))
    A = system.matrix.toarray()
    assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()
    assert np.linalg.eigvalsh(A).min() > 0


def test_cg_matches_direct():
    mesh = build_structured_mesh("quad", 4, 4)
    spec = poisson_sin_2d()
    s_direct = solve_problem(mesh, equal_order(1), spec, solver="direct")
    s_cg = solve_problem(mesh, equal_order(1), spec, solver="cg", tol=1e-14)
    dev = np.abs(s_direct.face_coeffs - s_cg.face_coeffs).max()
    assert dev <= 1e-10 * max(np.abs(s_direct.face_coeffs).max(), 1.0)


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
