"""End-to-end solves, error norms, and the verification protocols.

The pipeline per solve is: local operators -> static condensation ->
assembly with boundary data -> sparse solve -> cell recovery -> flux or
traction recovery.  Every per-cell stage runs once per group of cells of
one quadrature class (:meth:`pyhho.mesh.Mesh.cell_groups`) on stacked
arrays.  Convergence studies, the operator-decay verification, the 1D FEM
oracle, and the incompressibility sweep all sit on top of it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from .basis import face_basis
from .elasticity import local_bilinear_elastic
from .local_ops import (CellContext, _kron_apply, build_cell_context, local_bilinear,
                        reconstruction, stabilization_equal_order, stabilization_ls)
from .mesh import (Mesh, build_hanging_node_mesh, build_interval_mesh,
                   build_structured_mesh, left_half)
from .problems import ProblemSpec
from .projection import (HhoDegrees, dof_layout, equal_order, gather_local, l2_project,
                         mixed_order, reduce_local, sample)
from .quadrature import cell_quadrature, face_quadrature, interval_rule

RHS_QUAD_BUMP = 2


# ---------------------------------------------------------------------------
# local right-hand sides and boundary data


def local_rhs(ctx: CellContext, f) -> np.ndarray:
    """Source vectors of a group: cell block only, quadrature order 2(k+1)+2."""
    order = 2 * (ctx.degrees.k_face + 1) + RHS_QUAD_BUMP
    rule = cell_quadrature(ctx.geom, order)
    vals, _ = ctx.rec_basis.eval(rule.points)
    fx = sample(f, rule.points, rank=ctx.degrees.rank, ids=ctx.cells)
    b = np.zeros((len(ctx.cells), ctx.layout.size))
    blk = (rule.weights[..., None] * vals[..., : ctx.n_cell]).mT @ fx.reshape(
        rule.weights.shape + (-1,))
    b[:, ctx.layout.cell] = blk.reshape(len(blk), -1)
    return b


def dirichlet_data(mesh: Mesh, degrees: HhoDegrees, u_d) -> np.ndarray:
    """Projected Dirichlet values per face (zero rows off the boundary)."""
    width = dof_layout(mesh, degrees, 1).face_width
    data = np.zeros((mesh.n_faces, width))
    faces = np.flatnonzero(mesh.dirichlet_faces)
    if len(faces):
        order = 2 * (degrees.k_face + 1) + RHS_QUAD_BUMP
        coef = l2_project(face_basis(mesh, faces, degrees.k_face),
                          face_quadrature(mesh, faces, order), u_d,
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
    order = 2 * (degrees.k_face + 1) + RHS_QUAD_BUMP
    rule = face_quadrature(mesh, faces, order)
    psi, _ = face_basis(mesh, faces, degrees.k_face).eval(rule.points)
    g = sample(g_n, rule.points, rank=degrees.rank, ids=faces, entity="face")
    blk = (rule.weights[..., None] * psi).mT @ g.reshape(rule.weights.shape + (-1,))
    data[faces] = blk.reshape(len(faces), -1)
    return data


# ---------------------------------------------------------------------------
# solve pipeline


@dataclass
class Solution:
    mesh: Mesh
    degrees: HhoDegrees
    spec: ProblemSpec
    cell_coeffs: np.ndarray   # (n_cells, cell_width)
    face_coeffs: np.ndarray   # (n_faces, face_width)
    ops: list                 # one LocalOperators record per cell group
    rhs: list                 # per group: (nb, size) source vectors
    dofmap: asm.DofMap
    dirichlet: np.ndarray
    neumann: np.ndarray
    residual: float = 0.0

    def local_dofs(self, cells) -> np.ndarray:
        return gather_local(self.mesh, cells, self.degrees, self.cell_coeffs,
                            self.face_coeffs)


def build_local(mesh: Mesh, degrees: HhoDegrees, spec: ProblemSpec):
    """Operators and source vectors of every cell group."""
    elastic = spec.kind == "elasticity"
    if elastic:
        if degrees.rank != 2:
            raise ValueError("elasticity needs vector degrees (rank 2)")
        if degrees.k_face < 1:
            raise ValueError("elasticity requires k >= 1")
    ops, rhs = [], []
    for cells in mesh.cell_groups():
        ctx = build_cell_context(mesh, cells, degrees)
        ops.append(local_bilinear_elastic(ctx, spec.mu, spec.lam) if elastic
                   else local_bilinear(ctx))
        rhs.append(local_rhs(ctx, spec.f))
    return ops, rhs


def solve_problem(mesh: Mesh, degrees: HhoDegrees, spec: ProblemSpec,
                  solver: str = "direct", tol: float = 1e-12,
                  monolithic: bool = False) -> Solution:
    """Solve the discrete problem and recover all unknowns."""
    if not mesh.dirichlet_faces.any():
        raise ValueError(
            "no Dirichlet face: the solution is determined only up to a "
            + ("rigid motion" if spec.kind == "elasticity" else "constant"))
    ops, rhs = build_local(mesh, degrees, spec)
    dofmap = asm.build_dof_map(mesh, degrees)
    ud = dirichlet_data(mesh, degrees, spec.u_dirichlet)
    gn = neumann_rhs(mesh, degrees, spec.g_neumann)

    if monolithic:
        cell_coeffs, face_coeffs = asm.solve_monolithic(
            mesh, ops, rhs, dofmap, dirichlet_values=ud, extra_face_rhs=gn)
        residual = 0.0
    else:
        condensed = [asm.condense(o.L, b, o.ctx.layout, o.ctx.cells)
                     for o, b in zip(ops, rhs)]
        system = asm.assemble(mesh, condensed, dofmap,
                              dirichlet_values=ud, extra_face_rhs=gn)
        x = asm.solve_reduced(system, method=solver, tol=tol)
        bnorm = np.linalg.norm(system.rhs)
        residual = float(np.linalg.norm(system.matrix @ x - system.rhs)
                         / (bnorm if bnorm > 0 else 1.0))
        cell_coeffs, face_coeffs = asm.recover_cells(
            mesh, condensed, dofmap, x, dirichlet_values=ud)
    return Solution(mesh=mesh, degrees=degrees, spec=spec,
                    cell_coeffs=cell_coeffs, face_coeffs=face_coeffs,
                    ops=ops, rhs=rhs, dofmap=dofmap, dirichlet=ud,
                    neumann=gn, residual=residual)


# ---------------------------------------------------------------------------
# energy and residual checks


def _quadratic(v: np.ndarray, M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``v_b . M_b w_b`` for every cell b of a group."""
    return np.einsum("bi,bi->b", v, (M @ w[..., None])[..., 0])


def discrete_energy(sol: Solution, cell_coeffs=None, face_coeffs=None) -> float:
    """Quadratic energy 0.5 a_h(v, v) - l(v) of the stored or given state."""
    cc = sol.cell_coeffs if cell_coeffs is None else np.asarray(cell_coeffs)
    fc = sol.face_coeffs if face_coeffs is None else face_coeffs
    total = 0.0
    for ops, b in zip(sol.ops, sol.rhs):
        v = gather_local(sol.mesh, ops.ctx.cells, sol.degrees, cc, fc)
        total += float(np.sum(0.5 * _quadratic(v, ops.L, v) - np.sum(b * v, axis=1)))
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
    return np.sqrt(np.einsum("bi,bi->b", values, _kron_apply(mass, values)))


def _face_flux_checks(sol: Solution):
    """One pass over the recovered face fluxes of either problem.

    Returns the largest interface mismatch and the largest Neumann
    mismatch (face L2 norms), the largest cell balance residual relative to
    the problem scale, and the largest face-flux norm floored by that
    scale.  The scale stays O(1) even when source and solution residual
    terms all vanish.
    """
    mesh = sol.mesh
    n_face = sol.ops[0].ctx.faces[0].mass.shape[-1]
    # the two fluxes of an interface face cancel: accumulate them per face
    flux_sum = np.zeros((mesh.n_faces, sol.dofmap.face_width))
    mass = np.zeros((mesh.n_faces, n_face, n_face))
    mass_inv = np.zeros_like(mass)
    scale, res, fmag = 1e-30, 0.0, 0.0
    for ops, b in zip(sol.ops, sol.rhs):
        ctx = ops.ctx
        v = sol.local_dofs(ctx.cells)
        per_face = ops.face_fluxes(v)
        scale = max(scale, float(np.abs(b).max()),
                    float(np.max(np.abs(ops.L).max(axis=(1, 2))
                                 * np.maximum(np.abs(v).max(axis=1), 1e-30))))
        r = (ops.balance @ v[..., None])[..., 0] - b[:, : ops.balance.shape[1]]
        for f, t in zip(ctx.faces, per_face):
            r += _kron_apply(f.trace_full[:, :, : ctx.n_k].mT, t)
            fmag = max(fmag, float(_face_norms(f.mass, t).max()))
            np.add.at(flux_sum, f.index, t)
            mass[f.index], mass_inv[f.index] = f.mass, f.mass_inv
        res = max(res, float(np.abs(r).max()))

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
    Lu = [(ops.L @ sol.local_dofs(ops.ctx.cells)[..., None])[..., 0] for ops in sol.ops]
    worst = 0.0
    for _ in range(n_tests):
        wc = rng.standard_normal(sol.cell_coeffs.shape)
        wf = rng.standard_normal((mesh.n_faces, width))
        wf[mesh.dirichlet_faces] = 0.0
        a_val = l_val = scale = 0.0
        for ops, b, lu in zip(sol.ops, sol.rhs, Lu):
            w = gather_local(mesh, ops.ctx.cells, sol.degrees, wc, wf)
            a_cells = np.sum(w * lu, axis=1)
            a_val += a_cells.sum()
            l_val += np.sum(b * w)
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


def error_norms(sol: Solution, level: int = 0) -> ErrorRow:
    """Broken-H1/energy, discrete cell-L2, reconstruction-L2, and
    stabilization-seminorm errors against the exact solution."""
    spec = sol.spec
    if spec.exact is None:
        raise ValueError("error norms need an exact solution in the spec")
    mesh = sol.mesh
    k = sol.degrees.k_face
    order = 2 * (k + 2)
    rank = sol.degrees.rank
    # energy density |grad e|^2, or 2 mu |eps(e)|^2 for elasticity
    elastic = spec.kind == "elasticity"
    h1_sq = l2c_sq = l2r_sq = stab_sq = 0.0
    for ops in sol.ops:
        ctx = ops.ctx
        nb = len(ctx.cells)
        rule = cell_quadrature(ctx.geom, order)
        vals, grads = ctx.rec_basis.eval(rule.points)
        w = rule.weights
        pts = rule.points.reshape(-1, rule.points.shape[-1])
        v = sol.local_dofs(ctx.cells)
        stab_sq += float(_quadratic(v, ops.penalty, v).sum())
        coef = (ops.rec @ v[..., None]).reshape(nb, -1, rank)
        ex = np.asarray(spec.exact(pts), dtype=float).reshape(w.shape + (rank,))
        gex = np.asarray(spec.exact_grad(pts), dtype=float).reshape(w.shape + (rank, -1))
        de = gex - np.einsum("bqjc,bja->bqac", grads, coef)
        if elastic:
            de = 0.5 * (de + de.mT)
        h1_sq += (2 * spec.mu if elastic else 1.0) * float(np.sum(w * (de ** 2).sum(axis=(2, 3))))
        l2r_sq += float(np.sum(w * ((ex - vals @ coef) ** 2).sum(axis=2)))
        # discrete cell error against the cell projection of u
        Vc = vals[..., : ctx.n_cell]
        WV = w[..., None] * Vc
        pcoef = np.linalg.solve(WV.mT @ Vc, WV.mT @ ex)
        diff = Vc @ (pcoef - sol.cell_coeffs[ctx.cells].reshape(nb, -1, rank))
        l2c_sq += float(np.sum(w * (diff ** 2).sum(axis=2)))
    n_dofs = sol.dofmap.n_reduced
    return ErrorRow(level=level, h=mesh.max_diameter(),
                    err_h1=np.sqrt(h1_sq), err_l2_cell=np.sqrt(l2c_sq),
                    err_l2_rec=np.sqrt(l2r_sq), stab=np.sqrt(max(stab_sq, 0.0)),
                    n_dofs=n_dofs)


def fit_rate(hs, errs, points: int = 3) -> float:
    """Least-squares slope of log(err) vs log(h) on the finest points."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    n = min(points, len(hs))
    x = np.log(hs[-n:])
    y = np.log(np.maximum(errs[-n:], 1e-300))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


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
    if levels < 2:
        raise ValueError("a convergence study needs at least 2 levels "
                         "(4 or more for trustworthy rates)")
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
    dim = 1 if family == "interval" else 2
    if dim == 1:
        v = lambda x: np.sin(np.pi * x[:, 0])
    else:
        v = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    blocks = [
        VerifyBlock("projection-cell", k + 1.0, 0.15, [], []),
        VerifyBlock("projection-face", k + 0.5, 0.15, [], []),
        VerifyBlock("reconstruction", k + 2.0, 0.2, [], []),
        VerifyBlock("stabilization-equal", k + 1.0, 0.15, [], []),
        VerifyBlock("stabilization-ls", k + 1.0, 0.15, [], []),
    ]
    deg_eq, deg_mx = equal_order(k), mixed_order(k)
    order = 2 * (k + 2)
    for lvl in range(levels):
        mesh = mesh_family(family, lvl, base=base)
        h = mesh.max_diameter()
        acc = np.zeros(5)
        for cells in mesh.cell_groups():
            out = np.zeros(5)
            ctx = build_cell_context(mesh, cells, deg_eq)
            rule = cell_quadrature(ctx.geom, order)
            vals, _ = ctx.rec_basis.eval(rule.points)
            w = rule.weights
            vx = np.asarray(v(rule.points.reshape(-1, dim)), dtype=float).reshape(w.shape)

            red = reduce_local(mesh, cells, deg_eq, v)
            proj = (vals[..., : ctx.n_cell] @ red[:, ctx.layout.cell, None])[..., 0]
            out[0] = np.sum(w * (vx - proj) ** 2)

            _, _, _, R_full, _ = reconstruction(ctx)
            rec = (vals @ (R_full @ red[..., None]))[..., 0]
            out[2] = np.sum(w * (vx - rec) ** 2)

            _, S = stabilization_equal_order(ctx, R_full)
            out[3] = np.sum(red * (S @ red[..., None])[..., 0])

            ctx2 = build_cell_context(mesh, cells, deg_mx)
            red2 = reduce_local(mesh, cells, deg_mx, v)
            _, Z = stabilization_ls(ctx2)
            out[4] = np.sum(red2 * (Z @ red2[..., None])[..., 0])

            # face projection error, each interior face counted once
            for i in range(ctx.geom.n_faces if mesh.dim == 2 else 0):
                faces = ctx.geom.face_indices[:, i]
                faces = faces[mesh.face_cells[faces, 0] == cells]
                if not len(faces):
                    continue
                fb = face_basis(mesh, faces, k)
                frule = face_quadrature(mesh, faces, order)
                psi, _ = fb.eval(frule.points)
                vfx = np.asarray(v(frule.points.reshape(-1, dim)),
                                 dtype=float).reshape(frule.weights.shape)
                coef = l2_project(fb, frule, v)
                out[1] += np.sum(frule.weights * (vfx - (psi @ coef[..., None])[..., 0]) ** 2)
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

    ops, rhs = build_local(mesh, degrees, spec)
    dofmap = asm.build_dof_map(mesh, degrees)
    condensed = [asm.condense(o.L, b, o.ctx.layout, o.ctx.cells)
                 for o, b in zip(ops, rhs)]
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
    for o, b in zip(ops, rhs):
        fbar[o.ctx.cells] = b[:, 0]
    fbar /= hcells
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
        for i in range(mesh.n_cells):
            lam_l = faces[mesh.cell_faces[i][0], 0]
            lam_r = faces[mesh.cell_faces[i][1], 0]
            expect = 0.5 * hcells[i] ** 2 * fbar[i] + 0.5 * (lam_l + lam_r)
            recovery_dev = max(recovery_dev,
                               abs(cells[i][0] - expect) / max(abs(expect), 1e-30))
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
