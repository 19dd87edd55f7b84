import numpy as np
import pytest

from pyhho import assembly as asm
from pyhho.harness import build_local, neumann_rhs, solve_problem
from pyhho.mesh import (Mesh, build_hanging_node_mesh, build_interval_mesh,
                        build_structured_mesh, left_half)
from pyhho.problems import (ProblemSpec, elasticity_divfree, poisson_sin_1d,
                            poisson_sin_2d)
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


def _jittered_tris(seed, n=10, jitter=0.2):
    """n x n triangles, interior vertices moved by up to ``jitter * h``."""
    base = build_structured_mesh("tri", n, n)
    h = 1.0 / n
    verts = base.vertices.copy()
    interior = np.all((verts > 0.5 * h) & (verts < 1.0 - 0.5 * h), axis=1)
    verts[interior] += np.random.default_rng(seed).uniform(
        -jitter * h, jitter * h, (int(interior.sum()), 2))
    return Mesh(2, verts, base.cells)


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


CG_CASES = {
    "near-incompressible elasticity on jittered triangles":
        lambda: (_jittered_tris(1), equal_order(1, rank=2),
                 elasticity_divfree(mu=1.0, lam=1e4)),
    "mixed-order Poisson on a hanging-node mesh": _hanging_mixed,
    "k=2 Poisson on an interval": lambda: (build_interval_mesh(0.0, 1.0, 12),
                                           equal_order(2), poisson_sin_1d()),
    "Poisson on quads with Neumann faces": _neumann_left_quads,
}


@pytest.mark.parametrize("case", CG_CASES)
def test_cg_matches_direct_on(case):
    mesh, degrees, spec = CG_CASES[case]()
    s_direct = solve_problem(mesh, degrees, spec, solver="direct")
    s_cg = solve_problem(mesh, degrees, spec, solver="cg")
    dev = np.abs(s_direct.face_coeffs - s_cg.face_coeffs).max()
    assert dev <= 1e-10 * np.abs(s_direct.face_coeffs).max()


def _reduced_system(mesh, degrees, spec):
    ops, rhs = build_local(mesh, degrees, spec)
    condensed = [asm.condense(o.L, b, o.ctx.layout, o.ctx.cells)
                 for o, b in zip(ops, rhs)]
    return asm.assemble(mesh, condensed, asm.build_dof_map(mesh, degrees))


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cg_iterations_near_incompressible(monkeypatch, seed):
    # counted as the benchmark tracer does: cg applies the preconditioner
    # once per iteration
    applied = []
    build = asm._block_jacobi

    def counted(A, patches):
        op = build(A, patches)
        return asm.spla.LinearOperator(
            op.shape, matvec=lambda x: applied.append(1) or op.matvec(x))

    monkeypatch.setattr(asm, "_block_jacobi", counted)
    sol = solve_problem(_jittered_tris(seed), equal_order(1, rank=2),
                        elasticity_divfree(mu=1.0, lam=1e4), solver="cg")
    assert sol.residual <= 1e-8
    assert 0 < len(applied) <= 400


def test_singular_patch_names_its_vertex():
    mesh = build_interval_mesh(0.0, 1.0, 4)
    system = _reduced_system(mesh, equal_order(0), poisson_sin_1d())
    A = system.matrix.tolil()
    A[1, :] = 0.0                      # face 2 is mesh vertex 2
    A[:, 1] = 0.0
    broken = asm.GlobalSystem(A.tocsc(), system.rhs, system.dofmap)
    with pytest.raises(ValueError, match="^vertex 2: singular patch block"):
        asm.solve_reduced(broken, method="cg")


def test_cg_failure_states_tolerance_and_residual(monkeypatch):
    monkeypatch.setattr(asm, "CG_MAXITER", 10)
    system = _reduced_system(_jittered_tris(1), equal_order(1, rank=2),
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
    monkeypatch.setattr(asm.spla, "cg", no_work)
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
