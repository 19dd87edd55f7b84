import numpy as np
import pytest

from pyhho import assembly as asm
from pyhho import harness
from pyhho.elasticity import local_bilinear_elastic
from pyhho.harness import (build_local, convergence_study, discrete_energy,
                           error_norms, fit_rate, flux_residuals,
                           galerkin_residual, local_rhs, locking_test, mesh_family,
                           oracle_1d, solve_problem, traction_residuals,
                           verify_operators)
from pyhho.local_ops import build_cell_context, local_bilinear
from pyhho.basis import face_basis
from pyhho.mesh import (Mesh, build_hanging_node_mesh, build_interval_mesh,
                        build_structured_mesh, refine_uniform)
from pyhho.problems import (ProblemSpec, elasticity_compressible,
                            elasticity_divfree, elasticity_polynomial,
                            get_problem, poisson_polynomial, poisson_sin_1d,
                            poisson_sin_2d, rigid_body_problem)
from pyhho.projection import HhoDegrees, equal_order, l2_project, mixed_order, reduce_global
from pyhho.quadrature import face_quadrature

from support import data_rule_basis, jittered_hanging, jittered_mesh, rotated, strip_problem


def test_manufactured_sources_match_finite_differences():
    # cross-check the hand-coded sources with a 5-point laplacian stencil
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.2, 0.8, size=(20, 2))
    eps = 1e-4

    def lap(u, x):
        out = -4.0 * u(x)
        for d in range(2):
            for s in (-1.0, 1.0):
                y = x.copy()
                y[:, d] += s * eps
                out = out + u(y)
        return out / eps ** 2

    spec = poisson_sin_2d()
    np.testing.assert_allclose(spec.f(pts), -lap(spec.exact, pts), rtol=1e-6)

    for builder in (elasticity_divfree, elasticity_compressible):
        spec = builder(mu=1.3, lam=0.9)
        lap_u = np.column_stack(
            [lap(lambda x: spec.exact(x)[:, 0], pts),
             lap(lambda x: spec.exact(x)[:, 1], pts)])

        def div_u(x):
            J = spec.exact_grad(x)
            return J[:, 0, 0] + J[:, 1, 1]

        grad_div = np.column_stack([
            (div_u(pts + [eps, 0]) - div_u(pts - [eps, 0])) / (2 * eps),
            (div_u(pts + [0, eps]) - div_u(pts - [0, eps])) / (2 * eps)])
        expect = -spec.mu * lap_u - (spec.mu + spec.lam) * grad_div
        np.testing.assert_allclose(spec.f(pts), expect, rtol=1e-5, atol=1e-5)


def test_exact_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.1, 0.9, size=(10, 2))
    eps = 1e-6
    for spec in (poisson_sin_2d(), elasticity_divfree(), elasticity_compressible()):
        g = spec.exact_grad(pts)
        for d in range(2):
            step = np.zeros(2)
            step[d] = eps
            fd = (np.asarray(spec.exact(pts + step)) -
                  np.asarray(spec.exact(pts - step))) / (2 * eps)
            if g.ndim == 2:
                np.testing.assert_allclose(g[:, d], fd, rtol=1e-6, atol=1e-7)
            else:
                np.testing.assert_allclose(g[:, :, d], fd, rtol=1e-6, atol=1e-7)


def test_zero_data_gives_zero_solution():
    spec = ProblemSpec(kind="poisson", f=lambda x: np.zeros(len(x)),
                       u_dirichlet=lambda x: np.zeros(len(x)), name="zero")
    sol = solve_problem(build_structured_mesh("quad", 3, 3), equal_order(1), spec)
    assert np.abs(sol.face_coeffs).max() < 1e-13
    assert max(np.abs(c).max() for c in sol.cell_coeffs) < 1e-13
    assert discrete_energy(sol) == pytest.approx(0.0, abs=1e-15)


def _tri_refined_twice():
    """Triangles refined locally twice: loops of 3, 4, 5 and 7 vertices,
    with hanging vertices on up to two levels."""
    mesh = build_hanging_node_mesh(build_structured_mesh("tri", 3, 3), [0, 4, 9, 13])
    return build_hanging_node_mesh(mesh, [1, 2, 20])


PATCH_MESHES = [(lambda: build_structured_mesh("quad", 2, 2), "direct"),
                (_tri_refined_twice, "direct"), (_tri_refined_twice, "cg")]
PATCH_IDS = ["quad", "tri-local-direct", "tri-local-cg"]


@pytest.mark.parametrize("mesh, solver", PATCH_MESHES, ids=PATCH_IDS)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_poisson_patch(k, mesh, solver):
    spec = poisson_polynomial(k + 1)
    mesh = mesh()
    sol = solve_problem(mesh, equal_order(k), spec, solver=solver)
    cells, faces = reduce_global(mesh, equal_order(k), spec.exact)
    scale = max(np.abs(faces).max(), 1.0)
    assert np.abs(sol.face_coeffs - faces).max() <= 1e-9 * scale
    assert max(np.abs(a - b).max()
               for a, b in zip(sol.cell_coeffs, cells)) <= 1e-9 * scale
    row = error_norms(sol)
    assert row.err_h1 <= 1e-9


def test_energy_identity_at_solution():
    # a_h(u, u) = l(u) at the solution, so E_h(u) = -l(u)/2
    mesh = build_structured_mesh("tri", 3, 3)
    sol = solve_problem(mesh, equal_order(1), poisson_sin_2d())
    lval = sum(np.sum(g.rhs * sol.local_dofs(g.cells)) for g in sol.groups)
    assert discrete_energy(sol) == pytest.approx(-0.5 * lval, rel=1e-11)


def test_energy_minimality_random_perturbations():
    mesh = build_structured_mesh("quad", 3, 3)
    sol = solve_problem(mesh, equal_order(1), poisson_sin_2d())
    E0 = discrete_energy(sol)
    rng = np.random.default_rng(5)
    for _ in range(20):
        cc = [c + 0.3 * rng.standard_normal(c.shape) for c in sol.cell_coeffs]
        fc = sol.face_coeffs + 0.3 * rng.standard_normal(sol.face_coeffs.shape)
        fc[mesh.dirichlet_faces] = sol.face_coeffs[mesh.dirichlet_faces]
        assert discrete_energy(sol, cc, fc) >= E0 - 1e-12 * abs(E0)


def test_galerkin_orthogonality():
    mesh = build_structured_mesh("quad", 4, 4)
    sol = solve_problem(mesh, equal_order(2), poisson_sin_2d())
    assert galerkin_residual(sol) <= 1e-10


@pytest.mark.parametrize("family", ["quad", "tri", "hanging"])
def test_flux_identities_after_solve(family):
    mesh = mesh_family(family, 0, base=4)
    sol = solve_problem(mesh, equal_order(1), poisson_sin_2d())
    eq, bal = flux_residuals(sol)
    assert eq <= 1e-10
    assert bal <= 1e-9


def test_neumann_closes_convergence():
    spec0 = poisson_sin_2d()
    g_n = lambda x: -np.pi * np.sin(np.pi * x[:, 1])  # n = (-1, 0) on x = 0
    spec = ProblemSpec(kind="poisson", f=spec0.f, u_dirichlet=spec0.exact,
                       g_neumann=g_n, exact=spec0.exact,
                       exact_grad=spec0.exact_grad, name="poisson-neumann")
    errs, hs = [], []
    for n in (8, 16, 32):
        mesh = build_structured_mesh("quad", n, n, neumann=lambda x: x[0] < 1e-12)
        sol = solve_problem(mesh, equal_order(1), spec)
        row = error_norms(sol)
        errs.append(row.err_h1)
        hs.append(row.h)
    rate = fit_rate(hs, errs)
    assert 1.7 <= rate <= 2.3
    eq, bal = flux_residuals(sol)
    assert eq <= 1e-10 and bal <= 1e-9


def test_error_norms_of_zero_solution_equal_norms_of_u():
    spec0 = poisson_sin_2d()
    spec = ProblemSpec(kind="poisson", f=lambda x: np.zeros(len(x)),
                       u_dirichlet=lambda x: np.zeros(len(x)),
                       exact=spec0.exact, exact_grad=spec0.exact_grad,
                       name="zero-vs-sin")
    sol = solve_problem(build_structured_mesh("quad", 8, 8), equal_order(1), spec)
    row = error_norms(sol)
    assert row.err_l2_rec == pytest.approx(0.5, rel=1e-6)       # ||u|| = 1/2
    assert row.err_h1 == pytest.approx(np.pi / np.sqrt(2), rel=1e-6)


ERROR_FIELDS = ("err_h1", "err_l2_cell", "err_l2_rec", "stab")
CHUNKED_SOLVES = {
    # two groups (quads and pentagons), mixed order
    "hanging-mixed-k1": lambda: solve_problem(
        build_hanging_node_mesh(build_structured_mesh("quad", 4, 4), [0, 5, 6, 9]),
        mixed_order(1), poisson_sin_2d()),
    # every cell its own shape
    "jittered-tri-elasticity-k2": lambda: solve_problem(
        jittered_mesh("tri", 4, 2), equal_order(2, rank=2),
        elasticity_divfree(mu=1.0, lam=10.0)),
    "interval-k2": lambda: solve_problem(build_interval_mesh(0.0, 1.0, 9), equal_order(2),
                                         poisson_sin_1d()),
}


@pytest.mark.parametrize("case", CHUNKED_SOLVES)
def test_error_norms_do_not_depend_on_chunks(monkeypatch, case):
    sol = CHUNKED_SOLVES[case]()
    monkeypatch.setattr(asm, "CHUNK", sol.mesh.n_cells)
    whole = error_norms(sol)
    for chunk in (1, 7):
        monkeypatch.setattr(asm, "CHUNK", chunk)
        row = error_norms(sol)
        for name in ERROR_FIELDS:
            assert getattr(row, name) == pytest.approx(getattr(whole, name), rel=1e-13, abs=0)


def test_fit_rate_synthetic():
    hs = [0.5, 0.25, 0.125, 0.0625]
    errs = [3 * h ** 2 for h in hs]
    assert fit_rate(hs, errs) == pytest.approx(2.0, abs=1e-12)


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study(poisson_sin_2d(), "quad", equal_order(1), levels=1)
    with pytest.raises(ValueError):
        mesh_family("moebius", 0)


@pytest.mark.parametrize("levels", [0, 1])
@pytest.mark.parametrize("study", ["convergence", "verify", "locking"])
def test_studies_need_two_levels_before_any_solve(monkeypatch, study, levels):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "mesh_family", no_mesh)
    run = {"convergence": lambda: convergence_study(poisson_sin_2d(), "quad", equal_order(1),
                                                    levels=levels),
           "verify": lambda: verify_operators("quad", 1, levels=levels),
           "locking": lambda: locking_test(elasticity_divfree, equal_order(1, rank=2),
                                           levels=levels)}[study]
    with pytest.raises(ValueError, match="^a convergence study needs at least 2 levels"):
        run()


def strip_rows(length, angle, k, solver="direct", ns=(4, 8, 16, 32)):
    """Error rows of n x n quads on [0, length] x [0, 1] turned by ``angle``
    degrees."""
    spec = strip_problem(length, angle)
    return [error_norms(solve_problem(
        rotated(build_structured_mesh("quad", n, n, bounds=((0.0, length), (0.0, 1.0))), angle),
        equal_order(k), spec, solver=solver)) for n in ns]


@pytest.mark.parametrize("angle", [0, 30])
@pytest.mark.parametrize("solver", ["direct", "cg"])
def test_axis_aligned_strips_converge_at_acceptance_rates(solver, angle):
    # n x n quads of aspect ratio 500 on [0, 500] x [0, 1], axis-aligned or
    # turned by 30 degrees; the rate bands are acceptance criterion 1's
    for k in range(4):
        rows = strip_rows(500.0, angle, k, solver)
        hs = [r.h for r in rows]
        rate_h1 = fit_rate(hs, [r.err_h1 for r in rows])
        rate_l2 = fit_rate(hs, [r.err_l2_cell for r in rows])
        assert k + 0.85 <= rate_h1 <= k + 1.25, (k, rate_h1)
        l2_band = (1.6, 2.4) if k == 0 else (k + 1.75, k + 2.35)
        assert l2_band[0] <= rate_l2 <= l2_band[1], (k, rate_l2)


@pytest.mark.parametrize("length", [100.0, 500.0])
def test_turned_strips_match_their_axis_aligned_twins(length):
    # the cell frames turn with the mesh, so the four error norms do not
    # depend on the angle beyond round-off; from n = 16 on, the k = 3
    # reconstruction error nears the floor that rounding the turned vertices
    # sets (1e-5 relative from vertex noise of one ulp on the axis-aligned mesh)
    for k in range(4):
        for turned, aligned in zip(strip_rows(length, 30, k, ns=(4, 8)),
                                   strip_rows(length, 0, k, ns=(4, 8))):
            np.testing.assert_allclose(
                [turned.err_h1, turned.err_l2_cell, turned.err_l2_rec, turned.stab],
                [aligned.err_h1, aligned.err_l2_cell, aligned.err_l2_rec, aligned.stab],
                rtol=1e-6)


def test_study_runs_and_reports():
    rep = convergence_study(poisson_sin_1d(), "interval", equal_order(1),
                            levels=3, base=4)
    assert len(rep.rows) == 3
    assert 1.8 <= rep.rate_h1 <= 2.2
    assert 2.8 <= rep.rate_l2 <= 3.2


def test_oracle_transmission_independent_of_k():
    mesh = build_interval_mesh(0.0, 1.0, 16, grading=1.07)
    from pyhho import assembly as asm

    def condensed_matrix(k):
        spec = ProblemSpec(kind="poisson", f=lambda x: np.ones(len(x)),
                           u_dirichlet=lambda x: np.zeros(len(x)), name="o")
        groups = build_local(mesh, equal_order(k), spec)
        dm = asm.build_dof_map(mesh, equal_order(k))
        condensed = [g.condense() for g in groups]
        return asm.assemble(mesh, condensed, dm,
                            dirichlet_values=np.zeros((mesh.n_faces, 1))
                            ).matrix.toarray()

    A1, A2 = condensed_matrix(1), condensed_matrix(2)
    assert np.abs(A1 - A2).max() <= 1e-11 * np.abs(A1).max()


@pytest.mark.parametrize("family", ["quad", "tri", "hanging", "interval"])
def test_verify_rates_hold_at_k3(family):
    # the stabilization seminorms come from the face residuals: the quadratic
    # form of the penalty loses them to cancellation on the finest level
    assert [b.name for b in verify_operators(family, 3) if not b.passed] == []


def test_verify_face_projection_counts_each_face_once(monkeypatch):
    # a padded polygon slot repeats its cell's closing face, here on the boundary
    # x = 0.25, where the target does not vanish
    mesh = jittered_hanging()
    mesh = Mesh(2, mesh.vertices + [0.25, 0.125], mesh.cells)
    meshes = [mesh, refine_uniform(mesh)]
    monkeypatch.setattr(harness, "mesh_family", lambda name, level, base: meshes[level])
    block, = [b for b in verify_operators("hanging", 1, levels=2) if b.name == "projection-face"]
    v = lambda x: np.prod(np.sin(np.pi * x), axis=1)
    for mesh, value in zip(meshes, block.values):
        faces = np.arange(mesh.n_faces)
        fb, rule = face_basis(mesh, faces, 1), face_quadrature(mesh, faces, 6)
        psi, _ = fb.eval(rule.points, gradients=False)
        gap = v(rule.points.reshape(-1, 2)).reshape(rule.weights.shape) - (
            psi @ l2_project(fb, rule, v)[..., None])[..., 0]
        assert value == pytest.approx(np.sqrt(np.sum(rule.weights * gap ** 2)), rel=1e-12)


def test_padded_slot_keeps_its_face_in_the_neumann_check():
    # a padded slot repeats its cell's closing face, here a Neumann face on x = 0
    mesh = jittered_hanging()
    neumann = mesh.boundary_faces & (mesh.vertices[mesh.face_nodes, 0].max(axis=1) < 1e-12)
    mesh.set_boundary_tags(np.flatnonzero(mesh.boundary_faces & ~neumann), np.flatnonzero(neumann))
    face, = [g.face_indices[b, -1] for g in map(mesh.cell_geometry, mesh.cell_groups())
             for b in np.flatnonzero(g.face_measures[:, -1] == 0)
             if neumann[g.face_indices[b, -1]]]
    sol = solve_problem(mesh, equal_order(1), poisson_sin_2d())
    assert harness._face_flux_checks(sol)[1] < 1e-12
    # Neumann data off by delta: the check reads |M^-1 delta|_M on that face
    delta = np.array([1e-2, 0.0])
    sol.neumann[face] += delta
    fb, rule = face_basis(mesh, face, 1), face_quadrature(mesh, face, 4)
    psi, _ = fb.eval(rule.points, gradients=False)
    M = psi.T @ (rule.weights[:, None] * psi)
    assert harness._face_flux_checks(sol)[1] == pytest.approx(
        np.sqrt(delta @ np.linalg.solve(M, delta)), rel=1e-8)


@pytest.mark.parametrize("degrees, base", [(equal_order(3), 8), (mixed_order(3), 8),
                                           (equal_order(4), 4)],
                         ids=["equal-k3", "mixed-k3", "equal-k4"])
def test_stab_seminorm_rate_of_the_solution(degrees, base):
    # error_norms takes the seminorm from the face residuals, as verify does
    report = convergence_study(poisson_sin_2d(), "quad", degrees, levels=4, base=base)
    assert abs(report.rate_stab - (degrees.k_face + 1)) <= 0.15


def test_oracle_1d_requires_interval():
    with pytest.raises(ValueError):
        oracle_1d(1, build_structured_mesh("quad", 2, 2))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_oracle_1d_on_a_refined_interval_mesh(k):
    # the children of the split cells are numbered first, out of position order
    mesh = build_hanging_node_mesh(build_interval_mesh(0, 1, 16), [2, 9])
    assert oracle_1d(k, mesh).passed


def test_rigid_body_solution_reproduced():
    spec = rigid_body_problem()
    mesh = build_structured_mesh("quad", 3, 3)
    deg = HhoDegrees(1, 1, rank=2)
    sol = solve_problem(mesh, deg, spec)
    cells, faces = reduce_global(mesh, deg, spec.exact)
    assert np.abs(sol.face_coeffs - faces).max() <= 1e-9
    eq, neu, bal = traction_residuals(sol)
    assert max(eq, neu, bal) <= 1e-9


@pytest.mark.parametrize("mesh, solver", [(lambda: build_structured_mesh("tri", 2, 2), "direct")]
                         + PATCH_MESHES[1:], ids=["tri"] + PATCH_IDS[1:])
@pytest.mark.parametrize("k", [1, 2])
def test_elasticity_patch(k, mesh, solver):
    spec = elasticity_polynomial(k + 1)
    mesh = mesh()
    deg = HhoDegrees(k, k, rank=2)
    sol = solve_problem(mesh, deg, spec, solver=solver)
    cells, faces = reduce_global(mesh, deg, spec.exact)
    scale = max(np.abs(faces).max(), 1.0)
    assert np.abs(sol.face_coeffs - faces).max() <= 1e-9 * scale
    eq, neu, bal = traction_residuals(sol)
    assert max(eq, neu, bal) <= 1e-9


def test_elasticity_neumann_tractions():
    spec0 = elasticity_compressible(mu=1.0, lam=0.5)

    def g_n(x):
        J = spec0.exact_grad(x)
        eps = 0.5 * (J + np.swapaxes(J, 1, 2))
        div = eps[:, 0, 0] + eps[:, 1, 1]
        sig = 2 * spec0.mu * eps
        sig[:, 0, 0] += spec0.lam * div
        sig[:, 1, 1] += spec0.lam * div
        return np.column_stack([-sig[:, 0, 0], -sig[:, 1, 0]])  # n = (-1, 0)

    spec = ProblemSpec(kind="elasticity", f=spec0.f, u_dirichlet=spec0.exact,
                       g_neumann=g_n, mu=spec0.mu, lam=spec0.lam,
                       exact=spec0.exact, exact_grad=spec0.exact_grad,
                       name="elasticity-neumann")
    mesh = build_structured_mesh("tri", 8, 8, neumann=lambda x: x[0] < 1e-12)
    sol = solve_problem(mesh, HhoDegrees(1, 1, rank=2), spec)
    eq, neu, bal = traction_residuals(sol)
    assert eq <= 1e-9
    assert neu <= 1e-9
    assert bal <= 1e-9
    assert error_norms(sol).err_h1 < 0.2


def test_mixed_order_elasticity_runs():
    spec = elasticity_divfree(mu=1.0, lam=10.0)
    mesh = build_structured_mesh("tri", 4, 4)
    sol = solve_problem(mesh, HhoDegrees(1, 2, rank=2), spec)
    row = error_norms(sol)
    assert np.isfinite(row.err_h1) and row.err_h1 < 2.0


def test_divfree_reduction_has_zero_divergence():
    # commuting property: div u = 0 implies Dv(I u) = 0 cellwise, up to the
    # quadrature accuracy of the reduction of the transcendental target
    spec = elasticity_divfree()
    mesh = build_structured_mesh("tri", 4, 4)
    deg = HhoDegrees(1, 1, rank=2)
    from pyhho.elasticity import divergence_reconstruction
    from pyhho.local_ops import build_cell_context
    from pyhho.projection import reduce_local
    for ci in range(mesh.n_cells):
        Dv = divergence_reconstruction(build_cell_context(mesh, ci, deg))
        red = reduce_local(mesh, ci, deg, spec.exact, quad_bump=12)
        assert np.abs(Dv @ red).max() < 1e-10


def test_get_problem_registry():
    assert get_problem("poisson").kind == "poisson"
    with pytest.raises(ValueError):
        get_problem("heat-equation")


def zeros(x):
    return np.zeros(len(x))


@pytest.mark.parametrize("rank", [1, 2])
def test_pure_neumann_problem_rejected(rank):
    # every boundary face Neumann: the solution is fixed only up to a
    # constant or a rigid motion, so the solve must refuse it
    mesh = build_structured_mesh("quad", 4, 4, neumann=lambda x: True)
    kind = "poisson" if rank == 1 else "elasticity"
    const = (lambda x: np.ones(len(x))) if rank == 1 else (
        lambda x: np.ones((len(x), 2)))
    spec = ProblemSpec(kind=kind, f=const, u_dirichlet=zeros,
                       g_neumann=lambda x: 0.0 * const(x), name="floating")
    with pytest.raises(ValueError, match="no Dirichlet face"):
        solve_problem(mesh, HhoDegrees(1, 1, rank=rank), spec)


@pytest.mark.parametrize("solver, tol, message", [
    ("lu", 1e-12, r"^unknown solver 'lu'; expected one of direct, cg$"),
    ("cg", 0.0, "^solver tolerance must be positive and finite"),
    ("direct", float("nan"), "^solver tolerance must be positive and finite")])
def test_bad_solve_request_fails_before_the_local_operators(solver, tol, message, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the solve request must be rejected before the local operators")

    monkeypatch.setattr(harness, "build_local", unreachable)
    with pytest.raises(ValueError, match=message):
        solve_problem(build_structured_mesh("quad", 2, 2), equal_order(1), poisson_sin_2d(),
                      solver=solver, tol=tol)


@pytest.mark.parametrize("spec, degrees, message", [
    (poisson_sin_2d, equal_order(1, rank=2), r"^poisson needs scalar degrees \(rank 1\)$"),
    (elasticity_divfree, equal_order(1), r"^elasticity needs vector degrees \(rank 2\)$")],
    ids=["poisson-rank-2", "elasticity-rank-1"])
def test_field_rank_must_match_the_problem(spec, degrees, message):
    with pytest.raises(ValueError, match=message):
        build_local(build_structured_mesh("quad", 2, 2), degrees, spec())


def nan_in_top_right(x):
    return np.where((x[:, 0] > 0.75) & (x[:, 1] > 0.75), np.nan, 1.0)


@pytest.mark.parametrize("field,data,message", [
    ("f", lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))]),
     r"^cell 0: problem data returned shape \(\d+, 2\)"),
    ("f", nan_in_top_right, r"^cell 15: problem data is not finite"),
    ("u_dirichlet", nan_in_top_right, r"^face \d+: problem data is not finite"),
    ("g_neumann", lambda x: np.ones((len(x), 3)),
     r"^face \d+: problem data returned shape"),
])
def test_bad_problem_data_rejected(field, data, message):
    mesh = build_structured_mesh("quad", 4, 4, neumann=lambda x: x[0] < 1e-12)
    fields = {"f": zeros, "u_dirichlet": zeros, "g_neumann": zeros, field: data}
    spec = ProblemSpec(kind="poisson", name="bad", **fields)
    with pytest.raises(ValueError, match=message) as info:
        solve_problem(mesh, equal_order(1), spec)
    if field == "u_dirichlet":
        face = int(str(info.value).split()[1].rstrip(":"))
        assert mesh.dirichlet_faces[face] and mesh.face_center(face).min() >= 0.75


def gradient_nan_in_top_right(x):
    return nan_in_top_right(x)[:, None] * np.ones(2)


@pytest.mark.parametrize("field,data,message", [
    ("exact", nan_in_top_right, r"^cell 15: problem data is not finite"),
    ("exact", lambda x: np.ones((len(x), 2)), r"^cell 0: problem data returned shape"),
    ("exact_grad", gradient_nan_in_top_right, r"^cell 15: problem data is not finite"),
    ("exact_grad", zeros, r"^cell 0: problem data returned shape \(\d+, 1\)"),
    ("exact_grad", None, "^error norms need an exact solution and its gradient"),
])
def test_bad_exact_data_rejected_by_error_norms(field, data, message):
    mesh = build_structured_mesh("quad", 4, 4)
    fields = {"exact": zeros, "exact_grad": lambda x: np.zeros((len(x), 2)), field: data}
    spec = ProblemSpec(kind="poisson", f=zeros, u_dirichlet=zeros, name="bad", **fields)
    sol = solve_problem(mesh, equal_order(1), spec)
    with pytest.raises(ValueError, match=message):
        error_norms(sol)


@pytest.mark.parametrize("degrees", [equal_order(1), mixed_order(1),
                                     HhoDegrees(1, 1, rank=2)])
def test_operators_do_not_depend_on_grouping(degrees):
    # cells with 4 to 8 faces: the operators of a cell's shape, built per
    # group, equal those built one cell at a time, so nothing mixes along
    # the shape axis
    base = build_structured_mesh("quad", 6, 6)
    refine = np.random.default_rng(1).choice(base.n_cells, 18, replace=False)
    mesh = build_hanging_node_mesh(base, sorted(refine.tolist()))
    assert {len(f) for f in mesh.cell_faces} == {4, 5, 6, 7, 8}
    spec = poisson_sin_2d() if degrees.rank == 1 else elasticity_compressible()

    def build(cell):
        ctx = build_cell_context(mesh, cell, degrees)
        ops = (local_bilinear(ctx) if degrees.rank == 1
               else local_bilinear_elastic(ctx, spec.mu, spec.lam))
        return ops, local_rhs(ctx, spec.f, data_rule_basis(ctx)[0], ctx.cells, [0])

    singles = [build([ci]) for ci in range(mesh.n_cells)]     # in the group's padded layout
    for g in build_local(mesh, degrees, spec):
        for b, ci in enumerate(g.cells):
            one, one_rhs = singles[ci]
            for name in ("L", "stab_face", "rec", "flux", "balance"):
                ref = getattr(one, name)[0]
                got = getattr(g.ops, name)[g.shapes[b]]
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name
            assert np.abs(g.rhs[b] - one_rhs[0]).max() <= 1e-13 * np.abs(one_rhs).max()
