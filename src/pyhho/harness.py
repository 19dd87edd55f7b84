"""End-to-end solves, error norms, and the verification protocols.

The pipeline per solve is: local operators -> static condensation ->
assembly with boundary data -> sparse solve -> cell recovery -> flux or
traction recovery.  Convergence studies, the operator-decay verification,
the 1D FEM oracle, and the incompressibility sweep all sit on top of it.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from .basis import face_basis
from .elasticity import local_bilinear_elastic
from .local_ops import (CellContext, _kron_apply, _kron_solve, build_cell_context,
                        local_bilinear)
from .mesh import (Mesh, build_hanging_node_mesh, build_interval_mesh,
                   build_structured_mesh)
from .problems import ProblemSpec
from .projection import HhoDegrees, dof_layout, gather_local, l2_project
from .quadrature import cell_quadrature, face_quadrature

RHS_QUAD_BUMP = 2


def _map_cells(fn, n, threads):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(i) for i in range(n)]


# ---------------------------------------------------------------------------
# local right-hand sides and boundary data


def local_rhs(ctx: CellContext, f) -> np.ndarray:
    """Source vector: cell block only, quadrature order 2(k+1)+2."""
    order = 2 * (ctx.degrees.k_face + 1) + RHS_QUAD_BUMP
    rule = cell_quadrature(ctx.geom, order)
    vals, _ = ctx.rec_basis.eval(rule.points)
    fx = np.asarray(f(rule.points), dtype=float).reshape(len(rule.weights), -1)
    b = np.zeros(ctx.layout.size)
    blk = vals[:, : ctx.n_cell].T @ (rule.weights[:, None] * fx)
    b[ctx.layout.cell] = blk.reshape(-1) if ctx.degrees.rank > 1 else blk[:, 0]
    return b


def dirichlet_data(mesh: Mesh, degrees: HhoDegrees, u_d) -> np.ndarray:
    """Projected Dirichlet values per face (zero rows off the boundary)."""
    width = dof_layout(mesh, degrees, 1).face_width
    data = np.zeros((mesh.n_faces, width))
    order = 2 * (degrees.k_face + 1) + RHS_QUAD_BUMP
    for fi in np.flatnonzero(mesh.dirichlet_faces):
        if mesh.dim == 1:
            val = np.asarray(u_d(mesh.face_vertices(fi).reshape(1, 1)), dtype=float)
            data[fi] = val.reshape(-1)
        else:
            fb = face_basis(mesh, fi, degrees.k_face)
            rule = face_quadrature(mesh, fi, order)
            coef = l2_project(fb, rule, u_d)
            data[fi] = coef.reshape(-1) if degrees.rank > 1 else coef
    return data


def neumann_rhs(mesh: Mesh, degrees: HhoDegrees, g_n) -> np.ndarray:
    """Face right-hand-side contributions of the Neumann datum."""
    width = dof_layout(mesh, degrees, 1).face_width
    data = np.zeros((mesh.n_faces, width))
    if g_n is None or not np.any(mesh.neumann_faces):
        return data
    order = 2 * (degrees.k_face + 1) + RHS_QUAD_BUMP
    for fi in np.flatnonzero(mesh.neumann_faces):
        if mesh.dim == 1:
            pt = mesh.face_vertices(fi).reshape(1, 1)
            data[fi] = np.asarray(g_n(pt), dtype=float).reshape(-1)
        else:
            fb = face_basis(mesh, fi, degrees.k_face)
            rule = face_quadrature(mesh, fi, order)
            psi, _ = fb.eval(rule.points)
            g = np.asarray(g_n(rule.points), dtype=float).reshape(len(rule.weights), -1)
            blk = psi.T @ (rule.weights[:, None] * g)
            data[fi] = blk.reshape(-1) if degrees.rank > 1 else blk[:, 0]
    return data


# ---------------------------------------------------------------------------
# solve pipeline


@dataclass
class Solution:
    mesh: Mesh
    degrees: HhoDegrees
    spec: ProblemSpec
    cell_coeffs: list
    face_coeffs: np.ndarray
    ops: list
    rhs: list
    dofmap: asm.DofMap
    dirichlet: np.ndarray
    neumann: np.ndarray
    residual: float = 0.0

    def local_dofs(self, cell: int) -> np.ndarray:
        return gather_local(self.mesh, cell, self.degrees, self.cell_coeffs,
                            self.face_coeffs)


def build_local(mesh: Mesh, degrees: HhoDegrees, spec: ProblemSpec, threads=1):
    """Per-cell contexts, operators, and source vectors."""
    if spec.kind == "elasticity":
        if degrees.rank != 2:
            raise ValueError("elasticity needs vector degrees (rank 2)")
        if degrees.k_face < 1:
            raise ValueError("elasticity requires k >= 1")

        def make(ci):
            ctx = build_cell_context(mesh, ci, degrees)
            ops = local_bilinear_elastic(ctx, spec.mu, spec.lam)
            return ctx, ops, local_rhs(ctx, spec.f)
    else:
        def make(ci):
            ctx = build_cell_context(mesh, ci, degrees)
            ops = local_bilinear(ctx)
            return ctx, ops, local_rhs(ctx, spec.f)

    triples = _map_cells(make, mesh.n_cells, threads)
    return [t[1] for t in triples], [t[2] for t in triples]


def solve_problem(mesh: Mesh, degrees: HhoDegrees, spec: ProblemSpec,
                  solver: str = "direct", tol: float = 1e-12,
                  threads: int = 1, monolithic: bool = False) -> Solution:
    """Solve the discrete problem and recover all unknowns."""
    ops, rhs = build_local(mesh, degrees, spec, threads)
    dofmap = asm.build_dof_map(mesh, degrees)
    ud = dirichlet_data(mesh, degrees, spec.u_dirichlet)
    gn = neumann_rhs(mesh, degrees, spec.g_neumann)

    if monolithic:
        cell_coeffs, face_coeffs = asm.solve_monolithic(
            mesh, [o.L for o in ops], rhs, dofmap,
            dirichlet_values=ud, extra_face_rhs=gn)
        residual = 0.0
    else:
        condensed = _map_cells(
            lambda ci: asm.condense(ops[ci].L, rhs[ci], ops[ci].ctx.layout, ci),
            mesh.n_cells, threads)
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


def discrete_energy(sol: Solution, cell_coeffs=None, face_coeffs=None) -> float:
    """Quadratic energy 0.5 a_h(v, v) - l(v) of the stored or given state."""
    cc = sol.cell_coeffs if cell_coeffs is None else cell_coeffs
    fc = sol.face_coeffs if face_coeffs is None else face_coeffs
    total = 0.0
    for ci, ops in enumerate(sol.ops):
        v = gather_local(sol.mesh, ci, sol.degrees, cc, fc)
        total += 0.5 * v @ (ops.L @ v) - sol.rhs[ci] @ v
    for fi in np.flatnonzero(sol.mesh.neumann_faces):
        total -= sol.neumann[fi] @ fc[fi]
    return float(total)


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


def _face_norm(face, values: np.ndarray) -> float:
    return float(np.sqrt(values @ _kron_apply(face.mass, values)))


def _face_flux_checks(sol: Solution):
    """One pass over the recovered face fluxes of either problem.

    Returns the largest interface mismatch and the largest Neumann
    mismatch (face L2 norms), the largest cell balance residual relative to
    the problem scale, and the largest face-flux norm floored by that
    scale.  The scale stays O(1) even when source and solution residual
    terms all vanish.
    """
    mesh = sol.mesh
    fluxes = []
    scale, res, fmag = 1e-30, 0.0, 0.0
    for ci, ops in enumerate(sol.ops):
        ctx = ops.ctx
        v = sol.local_dofs(ci)
        per_face = ops.face_fluxes(v)
        fluxes.append(per_face)
        scale = max(scale, float(np.abs(sol.rhs[ci]).max()),
                    float(np.abs(ops.L).max() * max(np.abs(v).max(), 1e-30)))
        r = ops.balance @ v - sol.rhs[ci][: len(ops.balance)]
        for f, t in zip(ctx.faces, per_face):
            r += _kron_apply(f.trace_full[:, : ctx.n_k].T, t)
            fmag = max(fmag, _face_norm(f, t))
        res = max(res, float(np.abs(r).max()))

    local_pos = _local_face_positions(mesh)
    eq = 0.0
    for fi in np.flatnonzero(~mesh.boundary_faces):
        c0, c1 = mesh.face_cells[fi]
        i0 = local_pos[(c0, fi)]
        s = fluxes[c0][i0] + fluxes[c1][local_pos[(c1, fi)]]
        eq = max(eq, _face_norm(sol.ops[c0].ctx.faces[i0], s))
    neu = 0.0
    for fi in np.flatnonzero(mesh.neumann_faces):
        c0 = mesh.face_cells[fi, 0]
        i = local_pos[(c0, fi)]
        f = sol.ops[c0].ctx.faces[i]
        s = fluxes[c0][i] + _kron_solve(f.mass_cho, sol.neumann[fi])
        neu = max(neu, _face_norm(f, s))
    return eq, neu, res / scale, max(fmag, scale)


def _local_face_positions(mesh: Mesh) -> dict:
    pos = {}
    for ci, faces in enumerate(mesh.cell_faces):
        for i, fi in enumerate(faces):
            pos[(ci, int(fi))] = i
    return pos


def galerkin_residual(sol: Solution, n_tests: int = 10, seed: int = 7) -> float:
    """max |a_h(u, w) - l(w)| / scale over random admissible test states."""
    rng = np.random.default_rng(seed)
    mesh = sol.mesh
    width = sol.dofmap.face_width
    worst = 0.0
    for _ in range(n_tests):
        wc = [rng.standard_normal(len(c)) for c in sol.cell_coeffs]
        wf = rng.standard_normal((mesh.n_faces, width))
        wf[mesh.dirichlet_faces] = 0.0
        a_val = 0.0
        l_val = 0.0
        scale = 0.0
        for ci, ops in enumerate(sol.ops):
            w = gather_local(mesh, ci, sol.degrees, wc, wf)
            u = sol.local_dofs(ci)
            a_val += w @ (ops.L @ u)
            l_val += sol.rhs[ci] @ w
            scale += abs(w @ (ops.L @ u))
        for fi in np.flatnonzero(mesh.neumann_faces):
            l_val += sol.neumann[fi] @ wf[fi]
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
    for ci, ops in enumerate(sol.ops):
        ctx = ops.ctx
        rule = cell_quadrature(ctx.geom, order)
        vals, grads = ctx.rec_basis.eval(rule.points)
        w = rule.weights
        nq = len(w)
        v = sol.local_dofs(ci)
        stab_sq += float(v @ (ops.penalty @ v))
        coef = (ops.rec @ v).reshape(-1, rank)
        ex = np.asarray(spec.exact(rule.points), dtype=float).reshape(nq, rank)
        gex = np.asarray(spec.exact_grad(rule.points), dtype=float).reshape(nq, rank, -1)
        de = gex - np.einsum("qjc,ja->qac", grads, coef)
        if elastic:
            de = 0.5 * (de + np.swapaxes(de, 1, 2))
        h1_sq += (2 * spec.mu if elastic else 1.0) * float(w @ (de ** 2).sum(axis=(1, 2)))
        l2r_sq += float(w @ ((ex - vals @ coef) ** 2).sum(axis=1))
        # discrete cell error against the cell projection of u
        Vc = vals[:, : ctx.n_cell]
        pcoef = np.linalg.solve(Vc.T @ (w[:, None] * Vc), Vc.T @ (w[:, None] * ex))
        diff = Vc @ (pcoef - sol.cell_coeffs[ci].reshape(-1, rank))
        l2c_sq += float(w @ (diff ** 2).sum(axis=1))
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
        refine = [ci for ci in range(coarse.n_cells)
                  if coarse.cell_geometry(ci).barycenter[0] < 0.5]
        return build_hanging_node_mesh(coarse, refine)
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
                      tol: float = 1e-12, threads: int = 1,
                      check_fluxes: bool = False) -> ConvergenceReport:
    if levels < 2:
        raise ValueError("a convergence study needs at least 2 levels "
                         "(4 or more for trustworthy rates)")
    report = ConvergenceReport(problem=spec.name, family=family,
                               k=degrees.k_face,
                               mode="plus" if degrees.mixed else "equal")
    for lvl in range(levels):
        mesh = mesh_family(family, lvl, base=base)
        sol = solve_problem(mesh, degrees, spec, solver=solver, tol=tol,
                            threads=threads)
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


def verify_operators(family: str, k: int, levels: int = 4, base: int = 4,
                     threads: int = 1) -> list:
    """Decay rates of projection, reconstruction, and stabilization errors
    of the target ``sin(pi x)`` (times ``sin(pi y)`` in 2D).

    Projections onto cells must decay at k+1 and onto faces at k+1/2; the
    reconstruction of the reduced target at k+2; both stabilization
    seminorms at k+1.
    """
    from .projection import equal_order, mixed_order, reduce_local
    from .local_ops import reconstruction, stabilization_equal_order, stabilization_ls

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

        def work(ci):
            out = np.zeros(5)
            ctx = build_cell_context(mesh, ci, deg_eq)
            rule = cell_quadrature(ctx.geom, order)
            vals, _ = ctx.rec_basis.eval(rule.points)
            w = rule.weights
            vx = np.asarray(v(rule.points), dtype=float)

            red = reduce_local(mesh, ci, deg_eq, v)
            ncell = ctx.n_cell
            proj = vals[:, :ncell] @ red[ctx.layout.cell]
            out[0] = w @ (vx - proj) ** 2

            _, _, _, R_full, _ = reconstruction(ctx)
            rec = vals @ (R_full @ red)
            out[2] = w @ (vx - rec) ** 2

            _, S = stabilization_equal_order(ctx, R_full)
            out[3] = red @ (S @ red)

            ctx2 = build_cell_context(mesh, ci, deg_mx)
            red2 = reduce_local(mesh, ci, deg_mx, v)
            _, Z = stabilization_ls(ctx2)
            out[4] = red2 @ (Z @ red2)

            # face projection error, each interior face counted once
            for i, fi in enumerate(ctx.geom.face_indices):
                if mesh.face_cells[fi, 0] != ci:
                    continue
                if mesh.dim == 1:
                    continue
                fb = face_basis(mesh, fi, k)
                frule = face_quadrature(mesh, fi, order)
                psi, _ = fb.eval(frule.points)
                vfx = np.asarray(v(frule.points), dtype=float)
                coef = l2_project(fb, frule, v)
                out[1] = out[1] + frule.weights @ (vfx - psi @ coef) ** 2
            return out

        for part in _map_cells(work, mesh.n_cells, threads):
            acc += part
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
    from .projection import HhoDegrees as HD
    degrees = HD(k_face=k, k_cell=k)
    spec = ProblemSpec(kind="poisson", f=f, u_dirichlet=lambda x: np.zeros(len(x)),
                       name="oracle1d")

    ops, rhs = build_local(mesh, degrees, spec)
    dofmap = asm.build_dof_map(mesh, degrees)
    condensed = [asm.condense(ops[ci].L, rhs[ci], ops[ci].ctx.layout, ci)
                 for ci in range(mesh.n_cells)]
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
    fbar = np.array([rhs[i][0] / hcells[i] for i in range(mesh.n_cells)])
    for i, h in enumerate(hcells):
        rule = cell_quadrature_interval(xs[i], xs[i + 1])
        fx = np.asarray(f(rule[0][:, None]), dtype=float)
        for which, vtx in ((0, i), (1, i + 1)):
            gi = vtx - 1
            if not 0 <= gi < n_int:
                continue
            hat = (rule[0] - xs[i]) / h if which == 1 else (xs[i + 1] - rule[0]) / h
            if k >= 1:
                bfem[gi] += rule[1] @ (fx * hat)
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


def cell_quadrature_interval(a: float, b: float, order: int = 20):
    from .quadrature import interval_rule
    rule = interval_rule(a, b, order)
    return rule.points[:, 0], rule.weights


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
                 lam_factors=(1.0, 1e2, 1e4), threads: int = 1) -> LockingReport:
    """Energy errors across a lambda sweep; the rates and the max/min error
    ratio on the finest mesh quantify locking robustness."""
    all_errors = []
    rates = []
    for factor in lam_factors:
        spec = spec_builder(mu=mu, lam=mu * factor)
        errs, hs = [], []
        for lvl in range(levels):
            mesh = mesh_family(family, lvl, base=base)
            sol = solve_problem(mesh, degrees, spec, threads=threads)
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
