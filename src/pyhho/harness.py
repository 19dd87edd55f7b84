"""End-to-end solves, error norms, and the verification protocols.

The pipeline per solve is: local operators -> static condensation ->
assembly with boundary data -> sparse solve -> cell recovery -> flux or
traction recovery.  Every per-cell stage runs once per cell group on
stacked arrays: one quadrature class and loop length, the rare polygon
lengths padded into one (:meth:`pyhho.mesh.Mesh.cell_groups`).  An array that
depends only on a cell's shape (operators, condensed matrices, the basis on
the rule that samples problem data) is built once per distinct shape of a
group and gathered by each cell's shape where a stage reads it.  Convergence
studies, the operator-decay verification, the 1D FEM oracle, and the
incompressibility sweep all sit on top of it.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import assembly as asm
from .basis import _lowered, face_basis
from .elasticity import local_bilinear_elastic
from .local_ops import (CellContext, LocalOperators, _kron_apply, build_cell_context,
                        local_bilinear, reconstruction, stabilization_equal_order,
                        stabilization_ls)
from .mesh import (Mesh, build_hanging_node_mesh, build_interval_mesh,
                   build_structured_mesh, left_half)
from .problems import ProblemSpec
from .projection import (HhoDegrees, dof_layout, equal_order, gather_local,
                         l2_project, mixed_order, reduce_local, sample, spd_inverse)
from .quadrature import QuadratureRule, cell_quadrature, face_quadrature, interval_rule

log = logging.getLogger("pyhho")


# ---------------------------------------------------------------------------
# local right-hand sides and boundary data


def data_order(degrees: HhoDegrees) -> int:
    """Order of the rules that sample problem data on cells and faces."""
    return 2 * (degrees.k_face + 2)


def data_basis(ctx: CellContext, rule: QuadratureRule, cells, shapes):
    """``ctx.rec_basis`` on the data ``rule`` of a group's ``cells`` (ascending),
    once per shape in a chunk's ``shapes`` at ``ctx.cells[s]``'s own points:
    ``(inv, weights, values)``, cell ``b`` at row ``inv[b]``."""
    u, inv = np.unique(shapes, return_inverse=True)
    at = np.searchsorted(cells, ctx.cells[u])
    basis = replace(ctx.rec_basis, center=ctx.rec_basis.center[u], map=ctx.rec_basis.map[u])
    return inv, rule.weights[at], basis.eval(rule.points[at], gradients=False)[0]


def local_rhs(ctx: CellContext, f, rule: QuadratureRule, cells, shapes) -> np.ndarray:
    """Source vectors of a group's ``cells``, cell block only: ``f`` sampled
    at each cell's own points of the data ``rule``, tested with its shape's
    cell basis (the first ``n_cell`` columns of :func:`data_basis`'s values),
    ``CHUNK`` cells at a time."""
    fx = sample(f, rule.points, rank=ctx.degrees.rank, ids=cells)
    b = np.zeros((len(cells), ctx.layout.size))
    for s in range(0, len(cells), asm.CHUNK):
        inv, w, phi = data_basis(ctx, rule, cells, shapes[s:s + asm.CHUNK])
        wphi = (w[..., None] * phi[..., : ctx.n_cell])[inv]
        blk = wphi.mT @ fx[s:s + asm.CHUNK].reshape(wphi.shape[:2] + (-1,))
        b[s:s + asm.CHUNK, ctx.layout.cell] = blk.reshape(len(blk), -1)
    return b


def dirichlet_data(mesh: Mesh, degrees: HhoDegrees, u_d) -> np.ndarray:
    """Projected Dirichlet values per face (zero rows off the boundary)."""
    width = dof_layout(mesh, degrees, 1).face_width
    data = np.zeros((mesh.n_faces, width))
    faces = np.flatnonzero(mesh.dirichlet_faces)
    if len(faces):
        coef = l2_project(face_basis(mesh, faces, degrees.k_face),
                          face_quadrature(mesh, faces, data_order(degrees)), u_d,
                          rank=degrees.rank, ids=faces, entity="face")
        data[faces] = coef.reshape(len(faces), -1)
    return data


def neumann_rhs(mesh: Mesh, degrees: HhoDegrees, g_n) -> np.ndarray:
    """Face right-hand-side contributions of the Neumann datum."""
    width = dof_layout(mesh, degrees, 1).face_width
    data = np.zeros((mesh.n_faces, width))
    faces = np.flatnonzero(mesh.neumann_faces)
    if g_n is None or not len(faces):
        return data
    rule = face_quadrature(mesh, faces, data_order(degrees))
    psi, _ = face_basis(mesh, faces, degrees.k_face).eval(rule.points, gradients=False)
    g = sample(g_n, rule.points, rank=degrees.rank, ids=faces, entity="face")
    blk = (rule.weights[..., None] * psi).mT @ g.reshape(rule.weights.shape + (-1,))
    data[faces] = blk.reshape(len(faces), -1)
    return data


# ---------------------------------------------------------------------------
# solve pipeline


@dataclass
class CellGroup:
    """A cell group of a solve: its operators, built once per distinct cell
    shape, and the per-cell facts that tie them to its cells."""

    cells: np.ndarray         # (nb,) cell indices, ascending
    shapes: np.ndarray        # (nb,) each cell's shape: its row in every array of ops
    ops: LocalOperators       # on the lowest-index cell of each shape
    rule: QuadratureRule      # each cell's rule of order data_order(degrees)
    rhs: np.ndarray           # (nb, size) source vectors

    def condense(self) -> asm.CondensedGroup:
        return asm.condense(self.ops.L, self.rhs, self.ops.ctx.layout, self.cells,
                            self.shapes)


@dataclass
class Solution:
    mesh: Mesh
    degrees: HhoDegrees
    spec: ProblemSpec
    cell_coeffs: np.ndarray   # (n_cells, cell_width)
    face_coeffs: np.ndarray   # (n_faces, face_width)
    groups: list              # one CellGroup per cell group
    dofmap: asm.DofMap
    neumann: np.ndarray
    residual: float = 0.0

    def local_dofs(self, cells) -> np.ndarray:
        return gather_local(self.mesh, cells, self.degrees, self.cell_coeffs,
                            self.face_coeffs)


def build_local(mesh: Mesh, degrees: HhoDegrees, spec: ProblemSpec) -> list:
    """The :class:`CellGroup` of every cell group, with operators and sources.

    A group's context and operators are built once per distinct cell shape
    (:meth:`pyhho.mesh.Mesh.cell_shapes`), on the lowest-index cell of each;
    a stage that reads them takes cell ``b``'s at row ``shapes[b]``.
    """
    elastic = spec.kind == "elasticity"
    if degrees.rank != (2 if elastic else 1):
        raise ValueError("elasticity needs vector degrees (rank 2)" if elastic
                         else "poisson needs scalar degrees (rank 1)")
    if elastic and degrees.k_face < 1:
        raise ValueError("elasticity requires k >= 1")
    groups = []
    for cells in mesh.cell_groups():
        start = time.perf_counter()
        reps, shapes = mesh.cell_shapes(cells)
        ctx = build_cell_context(mesh, reps, degrees)
        op = (local_bilinear_elastic(ctx, spec.mu, spec.lam) if elastic
              else local_bilinear(ctx))
        rule = cell_quadrature(mesh.cell_geometry(cells), data_order(degrees))
        groups.append(CellGroup(cells=cells, shapes=shapes, ops=op, rule=rule,
                                rhs=local_rhs(ctx, spec.f, rule, cells, shapes)))
        log.debug("local operators: %s group, %d cells, %d shapes, %.4f s", ctx.geom.shape,
                  len(cells), len(reps), time.perf_counter() - start)
    return groups


def solve_problem(mesh: Mesh, degrees: HhoDegrees, spec: ProblemSpec,
                  solver: str = "direct", tol: float = 1e-12,
                  monolithic: bool = False) -> Solution:
    """Solve the discrete problem and recover all unknowns."""
    asm.check_solver(solver, tol)
    if not mesh.dirichlet_faces.any():
        raise ValueError(
            "no Dirichlet face: the solution is determined only up to a "
            + ("rigid motion" if spec.kind == "elasticity" else "constant"))
    groups = build_local(mesh, degrees, spec)
    dofmap = asm.build_dof_map(mesh, degrees)
    ud = dirichlet_data(mesh, degrees, spec.u_dirichlet)
    gn = neumann_rhs(mesh, degrees, spec.g_neumann)

    if monolithic:
        cell_coeffs, face_coeffs = asm.solve_monolithic(
            mesh, groups, dofmap, dirichlet_values=ud, extra_face_rhs=gn)
        residual = 0.0
    else:
        condensed = [g.condense() for g in groups]
        system = asm.assemble(mesh, condensed, dofmap,
                              dirichlet_values=ud, extra_face_rhs=gn)
        for cg in condensed:      # recovery reads only X and y: free the rest for the solve
            cg.L_c = cg.b_c = None
        x = asm.solve_reduced(system, method=solver, tol=tol)
        bnorm = np.linalg.norm(system.rhs)
        residual = float(np.linalg.norm(system.matrix @ x - system.rhs)
                         / (bnorm if bnorm > 0 else 1.0))
        cell_coeffs, face_coeffs = asm.recover_cells(
            mesh, condensed, dofmap, x, dirichlet_values=ud)
    return Solution(mesh=mesh, degrees=degrees, spec=spec,
                    cell_coeffs=cell_coeffs, face_coeffs=face_coeffs,
                    groups=groups, dofmap=dofmap, neumann=gn, residual=residual)


# ---------------------------------------------------------------------------
# energy and residual checks


def _apply(M: np.ndarray, shapes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M[shapes[b]] @ v[b]`` for every cell b of a group, ``M`` stacked by shape."""
    return (M[shapes] @ v[..., None])[..., 0]


def discrete_energy(sol: Solution, cell_coeffs=None, face_coeffs=None) -> float:
    """Quadratic energy 0.5 a_h(v, v) - l(v) of the stored or given state."""
    cc = sol.cell_coeffs if cell_coeffs is None else np.asarray(cell_coeffs)
    fc = sol.face_coeffs if face_coeffs is None else face_coeffs
    total = 0.0
    for g in sol.groups:
        v = gather_local(sol.mesh, g.cells, sol.degrees, cc, fc)
        total += float(np.sum(v * (0.5 * _apply(g.ops.L, g.shapes, v) - g.rhs)))
    # the Neumann rows are zero off the Neumann faces
    return float(total - np.sum(sol.neumann * fc))


def flux_residuals(sol: Solution):
    """Interface equilibrium and cell balance residuals of the fluxes.

    Returns ``(max interface L2 mismatch, max relative balance residual)``.
    """
    eq, _, bal, _ = _face_flux_checks(sol)
    return eq, bal


def traction_residuals(sol: Solution):
    """Traction equilibrium, Neumann consistency, and balance residuals.

    Equilibrium and Neumann mismatches are relative to the largest face
    traction, floored by the problem scale.
    """
    eq, neu, bal, tmag = _face_flux_checks(sol)
    return eq / tmag, neu / tmag, bal


def _face_norms(mass: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Face L2 norms of stacked face coefficient vectors."""
    return np.sqrt(np.einsum("...i,...i->...", values, _kron_apply(mass, values)))


def _face_flux_checks(sol: Solution):
    """One pass over the recovered face fluxes of either problem.

    Returns the largest interface mismatch and the largest Neumann
    mismatch (face L2 norms), the largest cell balance residual relative to
    the problem scale, and the largest face-flux norm floored by that
    scale.  The scale stays O(1) even when source and solution residual
    terms all vanish.
    """
    mesh = sol.mesh
    n_face = sol.groups[0].ops.ctx.faces.mass.shape[-1]
    # the two fluxes of an interface face cancel: accumulate them per face
    flux_sum = np.zeros((mesh.n_faces, sol.dofmap.face_width))
    mass = np.zeros((mesh.n_faces, n_face, n_face))
    mass_inv = np.zeros_like(mass)
    scale, res, fmag = 1e-30, 0.0, 0.0
    for g in sol.groups:
        ops, shapes, b = g.ops, g.shapes, g.rhs
        ctx, f = ops.ctx, ops.ctx.faces
        index = mesh.cell_face_indices(g.cells)
        v = sol.local_dofs(g.cells)
        t = ops.face_fluxes(v, shapes)
        scale = max(scale, float(np.abs(b).max()),
                    float(np.max(np.abs(ops.L).max(axis=(1, 2))[shapes]
                                 * np.maximum(np.abs(v).max(axis=1), 1e-30))))
        # balance: the cell consistency plus sum_F (t_F, q)_F for degree-k q
        trace = f.trace_full[..., : ctx.n_k].reshape(len(f.normal), -1, ctx.n_k)
        r = (_apply(ops.balance, shapes, v) - b[:, : ops.balance.shape[1]]
             + _kron_apply(trace.mT[shapes], t.reshape(len(t), -1)))
        res = max(res, float(np.abs(r).max()))
        f_mass = f.mass[shapes]
        fmag = max(fmag, float(_face_norms(f_mass, t).max()))
        np.add.at(flux_sum, index, t)
        real = ctx.geom.face_measures[shapes] > 0     # a padded slot repeats a face
        mass[index[real]], mass_inv[index[real]] = f_mass[real], f.mass_inv[shapes][real]

    interior = np.flatnonzero(~mesh.boundary_faces)
    eq = float(_face_norms(mass[interior], flux_sum[interior]).max(initial=0.0))
    neumann = np.flatnonzero(mesh.neumann_faces)
    gap = flux_sum[neumann] + _kron_apply(mass_inv[neumann], sol.neumann[neumann])
    neu = float(_face_norms(mass[neumann], gap).max(initial=0.0))
    return eq, neu, res / scale, max(fmag, scale)


def galerkin_residual(sol: Solution, n_tests: int = 10, seed: int = 7) -> float:
    """max |a_h(u, w) - l(w)| / scale over random admissible test states."""
    rng = np.random.default_rng(seed)
    mesh = sol.mesh
    width = sol.dofmap.face_width
    Lu = [_apply(g.ops.L, g.shapes, sol.local_dofs(g.cells)) for g in sol.groups]
    worst = 0.0
    for _ in range(n_tests):
        wc = rng.standard_normal(sol.cell_coeffs.shape)
        wf = rng.standard_normal((mesh.n_faces, width))
        wf[mesh.dirichlet_faces] = 0.0
        a_val = l_val = scale = 0.0
        for g, lu in zip(sol.groups, Lu):
            w = gather_local(mesh, g.cells, sol.degrees, wc, wf)
            a_cells = np.sum(w * lu, axis=1)
            a_val += a_cells.sum()
            l_val += np.sum(g.rhs * w)
            scale += np.abs(a_cells).sum()
        l_val += np.sum(sol.neumann * wf)
        worst = max(worst, abs(a_val - l_val) / max(scale, 1e-30))
    return worst


# ---------------------------------------------------------------------------
# error norms


@dataclass
class ErrorRow:
    level: int
    h: float
    err_h1: float
    err_l2_cell: float
    err_l2_rec: float
    stab: float
    n_dofs: int = 0


def _stab_seminorm(ctx: CellContext, shapes, face_ops: np.ndarray, v: np.ndarray) -> float:
    """``sum_F h^-1 |S_F v|_F^2`` over a group's cells from the residuals ``S_F
    v``; the stabilization matrix's quadratic form loses it to cancellation."""
    r = (face_ops[shapes] @ v[:, None, :, None])[..., 0]
    return float(np.sum(_face_norms(ctx.faces.mass[shapes], r) ** 2 / ctx.h[shapes, None]))


def error_norms(sol: Solution, level: int = 0) -> ErrorRow:
    """Broken-H1/energy, discrete cell-L2, reconstruction-L2, and
    stabilization-seminorm errors against the exact solution, on each group's
    data rule ``asm.CHUNK`` cells at a time; bad exact data names its cell."""
    spec = sol.spec
    if spec.exact is None or spec.exact_grad is None:
        raise ValueError("error norms need an exact solution and its gradient in the spec")
    mesh = sol.mesh
    rank = sol.degrees.rank
    # sample reads one row per point: the rank * dim entries of the Jacobian
    jacobian = lambda x: np.reshape(spec.exact_grad(x), (len(x), -1))
    # energy density |grad e|^2, or 2 mu |eps(e)|^2 for elasticity
    elastic = spec.kind == "elasticity"
    h1_sq = l2c_sq = l2r_sq = stab_sq = 0.0
    for g in sol.groups:
        ops, ctx = g.ops, g.ops.ctx
        # d phi_i / d x^_c = exps[i, c] phi_(i lowered in c): column i of D[c]
        exps, low = ctx.rec_basis.exponents, _lowered(ctx.rec_basis.degree, mesh.dim)
        D = exps.T[:, None, :] * (low[:, None, :] == np.arange(ctx.n_rec)[:, None])
        F = spd_inverse(ctx.mass_full[:, : ctx.n_cell, : ctx.n_cell], ctx.cells,
                        what="cell mass matrix is not positive definite")
        for s in range(0, len(g.cells), asm.CHUNK):
            cells, shapes = g.cells[s:s + asm.CHUNK], g.shapes[s:s + asm.CHUNK]
            nb = len(cells)
            inv, w, vals = data_basis(ctx, g.rule, g.cells, shapes)
            w, vals = w[inv], vals[inv]
            pts = g.rule.points[s:s + asm.CHUNK]
            v = sol.local_dofs(cells)
            stab_sq += _stab_seminorm(ctx, shapes, ops.stab_face, v)
            coef = _apply(ops.rec, shapes, v).reshape(nb, -1, rank)
            ex = sample(spec.exact, pts, rank=rank, ids=cells).reshape(w.shape + (rank,))
            gex = sample(jacobian, pts, rank=rank * mesh.dim, ids=cells).reshape(ex.shape + (-1,))
            # coefficients (b, j, a, x) of d_x R v_a = sum_c map[c, x] D[c] R v_a
            dcoef = (D @ coef[:, None]).transpose(0, 2, 3, 1) @ ctx.rec_basis.map[shapes, None]
            de = gex - (vals @ dcoef.reshape(nb, ctx.n_rec, -1)).reshape(gex.shape)
            if elastic:
                de = 0.5 * (de + de.mT)
            h1_sq += (2 * spec.mu if elastic else 1.0) * float(
                np.sum(w * (de ** 2).sum(axis=(2, 3))))
            l2r_sq += float(np.sum(w * ((ex - vals @ coef) ** 2).sum(axis=2)))
            # discrete cell error against the cell projection of u, M^-1 = F^T F
            Vc, Fs = vals[..., : ctx.n_cell], F[shapes]
            pcoef = Fs.mT @ (Fs @ ((w[..., None] * Vc).mT @ ex))
            diff = Vc @ (pcoef - sol.cell_coeffs[cells].reshape(nb, -1, rank))
            l2c_sq += float(np.sum(w * (diff ** 2).sum(axis=2)))
    return ErrorRow(level=level, h=mesh.max_diameter(),
                    err_h1=np.sqrt(h1_sq), err_l2_cell=np.sqrt(l2c_sq),
                    err_l2_rec=np.sqrt(l2r_sq), stab=np.sqrt(stab_sq),
                    n_dofs=sol.dofmap.n_reduced)


def fit_rate(hs, errs, points: int = 3) -> float:
    """Least-squares slope of log(err) vs log(h) on the finest points."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    n = min(points, len(hs))
    x = np.log(hs[-n:])
    y = np.log(np.maximum(errs[-n:], 1e-300))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def check_levels(levels: int) -> None:
    """Reject a study too short to fit a rate, before any solve."""
    if levels < 2:
        raise ValueError("a convergence study needs at least 2 levels "
                         "(4 or more for trustworthy rates)")


# ---------------------------------------------------------------------------
# mesh families and convergence studies


def mesh_family(name: str, level: int, base: int = 8, neumann=None) -> Mesh:
    """Mesh sequences for studies: n doubles with every level."""
    n = base * 2 ** level
    if name == "quad":
        return build_structured_mesh("quad", n, n, neumann=neumann)
    if name == "tri":
        return build_structured_mesh("tri", n, n, neumann=neumann)
    if name == "interval":
        return build_interval_mesh(0.0, 1.0, n, neumann=neumann)
    if name == "hanging":
        coarse = build_structured_mesh("quad", n, n, neumann=neumann)
        return build_hanging_node_mesh(coarse, left_half(coarse))
    raise ValueError(f"unknown mesh family {name!r}")


@dataclass
class ConvergenceReport:
    problem: str
    family: str
    k: int
    mode: str
    rows: list = field(default_factory=list)
    rate_h1: float = float("nan")
    rate_l2: float = float("nan")
    rate_rec: float = float("nan")
    rate_stab: float = float("nan")

    def finalize(self):
        hs = [r.h for r in self.rows]
        self.rate_h1 = fit_rate(hs, [r.err_h1 for r in self.rows])
        self.rate_l2 = fit_rate(hs, [r.err_l2_cell for r in self.rows])
        self.rate_rec = fit_rate(hs, [r.err_l2_rec for r in self.rows])
        self.rate_stab = fit_rate(hs, [max(r.stab, 1e-300) for r in self.rows])
        return self


def convergence_study(spec: ProblemSpec, family: str, degrees: HhoDegrees,
                      levels: int = 4, base: int = 8, solver: str = "direct",
                      tol: float = 1e-12, check_fluxes: bool = False) -> ConvergenceReport:
    check_levels(levels)
    report = ConvergenceReport(problem=spec.name, family=family,
                               k=degrees.k_face,
                               mode="plus" if degrees.mixed else "equal")
    for lvl in range(levels):
        mesh = mesh_family(family, lvl, base=base)
        sol = solve_problem(mesh, degrees, spec, solver=solver, tol=tol)
        if check_fluxes and spec.kind == "poisson":
            eq, bal = flux_residuals(sol)
            if max(eq, bal) > 1e-8:
                raise RuntimeError(
                    f"flux identities violated on level {lvl}: eq={eq:.2e} bal={bal:.2e}")
        report.rows.append(error_norms(sol, level=lvl))
    return report.finalize()


# ---------------------------------------------------------------------------
# operator verification protocols


@dataclass
class VerifyBlock:
    name: str
    target_rate: float
    tolerance: float
    hs: list
    values: list
    rate: float = float("nan")

    def finalize(self):
        self.rate = fit_rate(self.hs, self.values)
        return self

    @property
    def passed(self) -> bool:
        return abs(self.rate - self.target_rate) <= self.tolerance


def verify_operators(family: str, k: int, levels: int = 4, base: int = 4) -> list:
    """Decay rates of projection, reconstruction, and stabilization errors
    of the target ``sin(pi x)`` (times ``sin(pi y)`` in 2D).

    Projections onto cells must decay at k+1 and onto faces at k+1/2; the
    reconstruction of the reduced target at k+2; both stabilization
    seminorms at k+1.
    """
    check_levels(levels)
    dim = 1 if family == "interval" else 2
    v = lambda x: np.prod(np.sin(np.pi * x), axis=1)
    blocks = [
        VerifyBlock("projection-cell", k + 1.0, 0.15, [], []),
        VerifyBlock("projection-face", k + 0.5, 0.15, [], []),
        VerifyBlock("reconstruction", k + 2.0, 0.2, [], []),
        VerifyBlock("stabilization-equal", k + 1.0, 0.15, [], []),
        VerifyBlock("stabilization-ls", k + 1.0, 0.15, [], []),
    ]
    deg_eq, deg_mx = equal_order(k), mixed_order(k)
    order = data_order(deg_eq)
    for lvl in range(levels):
        mesh = mesh_family(family, lvl, base=base)
        h = mesh.max_diameter()
        acc = np.zeros(5)
        for cells in mesh.cell_groups():
            out = np.zeros(5)
            # both contexts on the group's distinct shapes, as in build_local
            reps, shapes = mesh.cell_shapes(cells)
            ctx = build_cell_context(mesh, reps, deg_eq)
            geom = mesh.cell_geometry(cells)
            rule = cell_quadrature(geom, order)
            inv, w, vals = data_basis(ctx, rule, cells, shapes)
            w, vals = w[inv], vals[inv]
            vx = sample(v, rule.points)

            red = reduce_local(mesh, cells, deg_eq, v)
            proj = (vals[..., : ctx.n_cell] @ red[:, ctx.layout.cell, None])[..., 0]
            out[0] = np.sum(w * (vx - proj) ** 2)

            R_full, _ = reconstruction(ctx)
            rec = (vals @ (R_full[shapes] @ red[..., None]))[..., 0]
            out[2] = np.sum(w * (vx - rec) ** 2)

            out[3] = _stab_seminorm(ctx, shapes, stabilization_equal_order(ctx, R_full)[0], red)

            ctx2 = build_cell_context(mesh, reps, deg_mx)
            red2 = reduce_local(mesh, cells, deg_mx, v)
            out[4] = _stab_seminorm(ctx2, shapes, stabilization_ls(ctx2)[0], red2)

            # face projection error, each face counted once, by its first cell's real slot
            index = geom.face_indices
            faces = index[(mesh.face_cells[index, 0] == cells[:, None]) & (geom.face_measures > 0)]
            if mesh.dim == 2 and len(faces):
                fb = face_basis(mesh, faces, k)
                frule = face_quadrature(mesh, faces, order)
                psi, _ = fb.eval(frule.points, gradients=False)
                vfx = sample(v, frule.points, entity="face")
                coef = l2_project(fb, frule, v)
                out[1] = np.sum(frule.weights * (vfx - (psi @ coef[..., None])[..., 0]) ** 2)
            acc += out
        if dim == 1:
            acc[1] = float("nan")
        for b, val in zip(blocks, np.sqrt(np.maximum(acc, 0.0))):
            b.hs.append(h)
            b.values.append(float(val))
    blocks = [b.finalize() for b in blocks]
    if dim == 1:
        blocks = [b for b in blocks if b.name != "projection-face"]
    return blocks


# ---------------------------------------------------------------------------
# 1D FEM oracle


@dataclass
class Oracle1dReport:
    k: int
    n_cells: int
    matrix_dev: float
    rhs_dev: float
    recovery_dev: float      # only for k = 0, else 0

    @property
    def passed(self) -> bool:
        return max(self.matrix_dev, self.rhs_dev, self.recovery_dev) <= 1e-12


def oracle_1d(k: int, mesh: Mesh, f=None) -> Oracle1dReport:
    """Compare the condensed 1D system with an independent P1 FEM build.

    For k >= 1 the condensed matrix must equal the hat-function stiffness
    and the condensed rhs must equal the loads ``int f hat_i``.  For k = 0
    the comparison uses the projected source, and the closed-form cell
    recovery ``u_i = h^2 fbar / 2 + (lam_i + lam_{i+1}) / 2`` is checked.
    """
    if mesh.dim != 1:
        raise ValueError("the FEM oracle runs on interval meshes")
    if f is None:
        f = lambda x: 1.0 + np.sin(3.0 * x[:, 0])
    degrees = HhoDegrees(k_face=k, k_cell=k)
    spec = ProblemSpec(kind="poisson", f=f, u_dirichlet=lambda x: np.zeros(len(x)),
                       name="oracle1d")

    groups = build_local(mesh, degrees, spec)
    dofmap = asm.build_dof_map(mesh, degrees)
    condensed = [g.condense() for g in groups]
    system = asm.assemble(mesh, condensed, dofmap,
                          dirichlet_values=np.zeros((mesh.n_faces, 1)))
    A = system.matrix.toarray()

    # independent P1 construction on the interior vertices; for k = 0 the
    # loads use the scheme's own projected means, for which the identities
    # are exact, while k >= 1 uses fully independent high-order quadrature
    xs = np.sort(mesh.vertices[:, 0])
    hcells = np.diff(xs)
    n_int = len(xs) - 2
    Afem = np.zeros((n_int, n_int))
    bfem = np.zeros(n_int)
    fbar = np.zeros(mesh.n_cells)
    for g in groups:
        fbar[g.cells] = g.rhs[:, 0]
    # cells from left to right, as hcells: a refined mesh numbers its children first
    order = np.argsort(mesh.vertices[np.array(mesh.cells), 0].min(axis=1))
    fbar = fbar[order] / hcells
    for i, h in enumerate(hcells):
        rule = interval_rule(xs[i], xs[i + 1], 20)
        x = rule.points[:, 0]
        fx = np.asarray(f(rule.points), dtype=float)
        for which, vtx in ((0, i), (1, i + 1)):
            gi = vtx - 1
            if not 0 <= gi < n_int:
                continue
            hat = (x - xs[i]) / h if which == 1 else (xs[i + 1] - x) / h
            if k >= 1:
                bfem[gi] += rule.weights @ (fx * hat)
            else:
                bfem[gi] += 0.5 * h * fbar[i]
        a, b_ = 1.0 / h, -1.0 / h
        if 0 <= i - 1 < n_int:
            Afem[i - 1, i - 1] += a
        if 0 <= i < n_int:
            Afem[i, i] += a
        if 0 <= i - 1 < n_int and 0 <= i < n_int:
            Afem[i - 1, i] += b_
            Afem[i, i - 1] += b_
    # map face ordering (canonical == vertex order) onto interior vertices
    scaleA = max(np.abs(Afem).max(), 1e-30)
    scaleb = max(np.abs(bfem).max(), 1e-30)
    matrix_dev = float(np.abs(A - Afem).max() / scaleA)
    rhs_dev = float(np.abs(system.rhs - bfem).max() / scaleb)

    recovery_dev = 0.0
    if k == 0:
        x = asm.solve_reduced(system)
        cells, faces = asm.recover_cells(mesh, condensed, dofmap, x,
                                         dirichlet_values=np.zeros((mesh.n_faces, 1)))
        # an interval mesh is one group: both end faces of every cell at once
        lam = faces[mesh.cell_face_indices(order), 0]
        expect = 0.5 * hcells ** 2 * fbar + 0.5 * (lam[:, 0] + lam[:, 1])
        recovery_dev = float(np.max(np.abs(cells[order, 0] - expect)
                                    / np.maximum(np.abs(expect), 1e-30), initial=0.0))
    return Oracle1dReport(k=k, n_cells=mesh.n_cells, matrix_dev=matrix_dev,
                          rhs_dev=rhs_dev, recovery_dev=recovery_dev)


# ---------------------------------------------------------------------------
# locking sweep


@dataclass
class LockingReport:
    lam_over_mu: list
    energy_errors: list        # per lambda: list over levels
    rates: list
    ratio_finest: float

    def passed(self, rate_band=(1.8, 2.3), ratio_max=3.0) -> bool:
        ok = all(rate_band[0] <= r <= rate_band[1] for r in self.rates)
        return ok and self.ratio_finest <= ratio_max


def locking_test(spec_builder, degrees: HhoDegrees, family: str = "tri",
                 levels: int = 3, base: int = 8, mu: float = 1.0,
                 lam_factors=(1.0, 1e2, 1e4)) -> LockingReport:
    """Energy errors across a lambda sweep; the rates and the max/min error
    ratio on the finest mesh quantify locking robustness."""
    check_levels(levels)
    all_errors = []
    rates = []
    for factor in lam_factors:
        spec = spec_builder(mu=mu, lam=mu * factor)
        errs, hs = [], []
        for lvl in range(levels):
            mesh = mesh_family(family, lvl, base=base)
            sol = solve_problem(mesh, degrees, spec)
            row = error_norms(sol, level=lvl)
            errs.append(row.err_h1)
            hs.append(row.h)
        all_errors.append(errs)
        rates.append(fit_rate(hs, errs))
    finest = [errs[-1] for errs in all_errors]
    ratio = max(finest) / min(finest)
    return LockingReport(lam_over_mu=list(lam_factors),
                         energy_errors=all_errors, rates=rates,
                         ratio_finest=float(ratio))


# ---------------------------------------------------------------------------
# report emission


def write_convergence_csv(report: ConvergenceReport, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["level", "h", "err_h1", "err_l2_cell", "err_l2_rec",
                     "stab_seminorm", "rate_h1", "rate_l2"])
        for r in report.rows:
            wr.writerow([r.level, f"{r.h:.17e}", f"{r.err_h1:.17e}",
                         f"{r.err_l2_cell:.17e}", f"{r.err_l2_rec:.17e}",
                         f"{r.stab:.17e}", f"{report.rate_h1:.6f}",
                         f"{report.rate_l2:.6f}"])


def convergence_json(report: ConvergenceReport, bands=None) -> dict:
    data = {
        "problem": report.problem,
        "family": report.family,
        "k": report.k,
        "mode": report.mode,
        "rows": [{"level": r.level, "h": r.h, "err_h1": r.err_h1,
                  "err_l2_cell": r.err_l2_cell, "err_l2_rec": r.err_l2_rec,
                  "stab_seminorm": r.stab, "n_dofs": r.n_dofs}
                 for r in report.rows],
        "rates": {"h1": report.rate_h1, "l2": report.rate_l2,
                  "rec": report.rate_rec, "stab": report.rate_stab},
    }
    if bands:
        checks = []
        for name, rate, (lo, hi) in bands:
            checks.append({"name": name, "rate": rate, "band": [lo, hi],
                           "pass": bool(lo <= rate <= hi)})
        data["checks"] = checks
        data["pass"] = all(c["pass"] for c in checks)
    return data
