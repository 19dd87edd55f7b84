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
incompressibility sweep all sit on top of it: the verification measures the
reduction of its target with :func:`error_norms` on the operators of
:func:`build_local`, and the sweep is one convergence study per lambda.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import assembly as asm
from .basis import face_basis
from .elasticity import local_bilinear_elastic
from .local_ops import (CellContext, LocalOperators, _kron_apply, build_cell_context,
                        local_bilinear)
from .mesh import (Mesh, build_hanging_node_mesh, build_interval_mesh,
                   build_structured_mesh, left_half)
from .problems import ProblemSpec, poisson_sin_1d, poisson_sin_2d
from .projection import (HhoDegrees, data_order, dof_layout, equal_order, gather_local,
                         l2_project, mixed_order, reduce_global, sample)
from .quadrature import QuadratureRule, cell_quadrature, face_quadrature, interval_rule

log = logging.getLogger("pyhho")


# ---------------------------------------------------------------------------
# local right-hand sides and boundary data


def data_basis(ops: LocalOperators | CellContext, rule: QuadratureRule, cells, shapes):
    """``ops.rec_basis`` on the data ``rule`` of a group's ``cells`` (ascending),
    once per shape in a chunk's ``shapes`` at ``ops.cells[s]``'s own points:
    ``(inv, weights, values)``, cell ``b`` at row ``inv[b]``.  The build
    passes its context, which carries the same two fields."""
    u, inv = np.unique(shapes, return_inverse=True)
    at = np.searchsorted(cells, ops.cells[u])
    basis = replace(ops.rec_basis, center=ops.rec_basis.center[u], map=ops.rec_basis.map[u])
    return inv, rule.weights[at], basis.eval(rule.points[at])


def local_rhs(ctx: CellContext, f, rule: QuadratureRule, cells, shapes) -> np.ndarray:
    """Cell sources ``(nb, cell_width)`` of a group's ``cells``, ``(f, v_T)_T``:
    ``f`` sampled at each cell's own points of the data ``rule``, tested with
    its shape's cell basis (the first ``n_cell`` columns of
    :func:`data_basis`'s values), ``CHUNK`` cells at a time."""
    fx = sample(f, rule.points, rank=ctx.degrees.rank, ids=cells)
    b = np.empty((len(cells), ctx.layout.cell_width))
    for s in range(0, len(cells), asm.CHUNK):
        inv, w, phi = data_basis(ctx, rule, cells, shapes[s:s + asm.CHUNK])
        wphi = (w[..., None] * phi[..., : ctx.n_cell])[inv]
        blk = wphi.mT @ fx[s:s + asm.CHUNK].reshape(wphi.shape[:2] + (-1,))
        b[s:s + asm.CHUNK] = blk.reshape(len(blk), -1)
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
    psi = face_basis(mesh, faces, degrees.k_face).eval(rule.points)
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
    rhs: np.ndarray           # (nb, cell_width) cell sources; a source tests no face unknown

    def condense(self) -> asm.CondensedGroup:
        return asm.condense(self.ops.L, self.rhs, self.ops.layout, self.cells, self.shapes)


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
    if spec.dim != mesh.dim:
        raise ValueError(f"problem {spec.name or spec.kind!r} is {spec.dim}D "
                         f"but the mesh is {mesh.dim}D")
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
        half = 0.5 * _apply(g.ops.L, g.shapes, v)
        half[:, g.ops.layout.cell] -= g.rhs
        total += float(np.sum(v * half))
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
    n_face = sol.groups[0].ops.face_mass.shape[-1]
    # the two fluxes of an interface face cancel: accumulate them per face
    flux_sum = np.zeros((mesh.n_faces, sol.dofmap.face_width))
    mass = np.zeros((mesh.n_faces, n_face, n_face))
    mass_inv = np.zeros_like(mass)
    scale, res, fmag = 1e-30, 0.0, 0.0
    for g in sol.groups:
        ops, shapes, b = g.ops, g.shapes, g.rhs
        index = mesh.cell_face_indices(g.cells)
        v = sol.local_dofs(g.cells)
        t = ops.face_fluxes(v, shapes)
        scale = max(scale, float(np.abs(b).max()),
                    float(np.max(np.abs(ops.L).max(axis=(1, 2))[shapes]
                                 * np.maximum(np.abs(v).max(axis=1), 1e-30))))
        # balance: the cell consistency plus sum_F (t_F, q)_F for degree-k q
        trace = ops.trace.reshape(len(ops.trace), -1, ops.trace.shape[-1])
        r = (_apply(ops.balance, shapes, v) - b[:, : ops.balance.shape[1]]
             + _kron_apply(trace.mT[shapes], t.reshape(len(t), -1)))
        res = max(res, float(np.abs(r).max()))
        f_mass = ops.face_mass[shapes]
        fmag = max(fmag, float(_face_norms(f_mass, t).max()))
        np.add.at(flux_sum, index, t)
        real = ops.real_faces[shapes]     # a padded slot repeats a face
        mass[index[real]], mass_inv[index[real]] = f_mass[real], ops.face_mass_inv[shapes][real]

    interior = np.flatnonzero(~mesh.boundary_faces)
    eq = float(_face_norms(mass[interior], flux_sum[interior]).max(initial=0.0))
    neumann = np.flatnonzero(mesh.neumann_faces)
    gap = flux_sum[neumann] + _kron_apply(mass_inv[neumann], sol.neumann[neumann])
    neu = float(_face_norms(mass[neumann], gap).max(initial=0.0))
    return eq, neu, res / scale, max(fmag, scale)


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


def _stab_seminorm(ops: LocalOperators, shapes, v: np.ndarray) -> float:
    """``sum_F h^-1 |S_F v|_F^2`` over a group's cells from the residuals ``S_F
    v``; the stabilization matrix's quadratic form loses it to cancellation."""
    r = (ops.stab_face[shapes] @ v[:, None, :, None])[..., 0]
    return float(np.sum(_face_norms(ops.face_mass[shapes], r) ** 2 / ops.h[shapes, None]))


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
        ops, D = g.ops, g.ops.rec_basis.derivatives()
        F = ops.cell_inv_factor
        n_cell = F.shape[-1]
        for s in range(0, len(g.cells), asm.CHUNK):
            cells, shapes = g.cells[s:s + asm.CHUNK], g.shapes[s:s + asm.CHUNK]
            nb = len(cells)
            inv, w, vals = data_basis(ops, g.rule, g.cells, shapes)
            w, vals = w[inv], vals[inv]
            pts = g.rule.points[s:s + asm.CHUNK]
            v = sol.local_dofs(cells)
            stab_sq += _stab_seminorm(ops, shapes, v)
            coef = _apply(ops.rec, shapes, v).reshape(nb, -1, rank)
            ex = sample(spec.exact, pts, rank=rank, ids=cells).reshape(w.shape + (rank,))
            gex = sample(jacobian, pts, rank=rank * mesh.dim, ids=cells).reshape(ex.shape + (-1,))
            dcoef = (D[shapes] @ coef[:, None]).transpose(0, 2, 3, 1)  # (b, j, a, x) of d_x R v_a
            de = gex - (vals @ dcoef.reshape(nb, vals.shape[-1], -1)).reshape(gex.shape)
            if elastic:
                de = 0.5 * (de + de.mT)
            h1_sq += (2 * spec.mu if elastic else 1.0) * float(
                np.sum(w * (de ** 2).sum(axis=(2, 3))))
            l2r_sq += float(np.sum(w * ((ex - vals @ coef) ** 2).sum(axis=2)))
            # discrete cell error against the cell projection of u, M^-1 = F^T F
            Vc, Fs = vals[..., :n_cell], F[shapes]
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


def _reduction(mesh: Mesh, degrees: HhoDegrees, spec: ProblemSpec) -> Solution:
    """The reduction of ``spec.exact`` as a :class:`Solution` on the operators
    a solve builds, for :func:`error_norms` to measure."""
    cell_coeffs, face_coeffs = reduce_global(mesh, degrees, spec.exact)
    return Solution(mesh=mesh, degrees=degrees, spec=spec, cell_coeffs=cell_coeffs,
                    face_coeffs=face_coeffs, groups=build_local(mesh, degrees, spec),
                    dofmap=asm.build_dof_map(mesh, degrees),
                    neumann=neumann_rhs(mesh, degrees, None))


def verify_operators(family: str, k: int, levels: int = 4, base: int = 4) -> list:
    """Decay rates of projection, reconstruction, and stabilization errors
    of the target ``sin(pi x)`` (times ``sin(pi y)`` in 2D).

    Projections onto cells must decay at k+1 and onto faces at k+1/2; the
    reconstruction of the reduced target at k+2; both stabilization
    seminorms at k+1.  The last three are :func:`error_norms` of the
    reduction wrapped as a :class:`Solution`, in equal and in mixed order,
    so they read the operators that :func:`build_local` composes.
    """
    check_levels(levels)
    spec = poisson_sin_1d() if family == "interval" else poisson_sin_2d()
    blocks = [
        VerifyBlock("projection-cell", k + 1.0, 0.15, [], []),
        VerifyBlock("projection-face", k + 0.5, 0.15, [], []),
        VerifyBlock("reconstruction", k + 2.0, 0.2, [], []),
        VerifyBlock("stabilization-equal", k + 1.0, 0.15, [], []),
        VerifyBlock("stabilization-ls", k + 1.0, 0.15, [], []),
    ]
    for lvl in range(levels):
        mesh = mesh_family(family, lvl, base=base)
        eq, mx = (_reduction(mesh, d, spec) for d in (equal_order(k), mixed_order(k)))
        cell_sq = 0.0
        for g in eq.groups:
            inv, w, vals = data_basis(g.ops, g.rule, g.cells, g.shapes)
            proj = vals[inv][..., : g.ops.layout.cell_width] @ eq.cell_coeffs[g.cells, :, None]
            cell_sq += np.sum(w[inv] * (sample(spec.exact, g.rule.points) - proj[..., 0]) ** 2)
        face_sq = float("nan")
        if mesh.dim == 2:     # every face once, against the reduction's face block
            faces = np.arange(mesh.n_faces)
            rule = face_quadrature(mesh, faces, data_order(eq.degrees))
            psi = face_basis(mesh, faces, k).eval(rule.points)
            gap = sample(spec.exact, rule.points, entity="face") - (
                psi @ eq.face_coeffs[..., None])[..., 0]
            face_sq = np.sum(rule.weights * gap ** 2)
        row = error_norms(eq)
        values = [np.sqrt(cell_sq), np.sqrt(face_sq), row.err_l2_rec, row.stab,
                  error_norms(mx).stab]
        for b, val in zip(blocks, values):
            b.hs.append(row.h)
            b.values.append(float(val))
    blocks = [b.finalize() for b in blocks]
    if mesh.dim == 1:
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
    if mesh.n_cells < 2:
        raise ValueError("the FEM oracle compares the interior vertices: "
                         "it needs a mesh of at least 2 cells")
    if f is None:
        f = lambda x: 1.0 + np.sin(3.0 * x[:, 0])
    degrees = HhoDegrees(k_face=k, k_cell=k)
    spec = ProblemSpec(kind="poisson", f=f, u_dirichlet=lambda x: np.zeros(len(x)),
                       name="oracle1d", dim=1)

    groups = build_local(mesh, degrees, spec)
    dofmap = asm.build_dof_map(mesh, degrees)
    condensed = [g.condense() for g in groups]
    zeros = np.zeros((mesh.n_faces, 1))
    system = asm.assemble(mesh, condensed, dofmap, zeros, zeros)
    A = system.matrix.toarray()

    # independent P1 construction on the interior vertices: the tridiagonal of
    # 1/h, and loads from each cell's two end hats.  For k = 0 the loads use the
    # scheme's own projected means, for which the identities are exact, while
    # k >= 1 uses fully independent high-order quadrature
    xs = np.sort(mesh.vertices[:, 0])
    hcells = np.diff(xs)
    inv_h = 1.0 / hcells
    Afem = np.diag(inv_h[:-1] + inv_h[1:]) - np.diag(inv_h[1:-1], 1) - np.diag(inv_h[1:-1], -1)
    fbar = np.zeros(mesh.n_cells)
    for g in groups:
        fbar[g.cells] = g.rhs[:, 0]
    # cells from left to right, as hcells: a refined mesh numbers its children first
    order = np.argsort(mesh.vertices[mesh.loops, 0].min(axis=1))
    fbar = fbar[order] / hcells
    if k >= 1:
        rule = interval_rule(xs[:-1], xs[1:], 20)
        x = rule.points[..., 0]
        wf = rule.weights * np.asarray(f(rule.points.reshape(-1, 1)), dtype=float).reshape(x.shape)
        # the hat of a cell's left vertex falls across it, its right vertex's rises
        left = np.sum(wf * (xs[1:, None] - x), axis=1) / hcells
        right = np.sum(wf * (x - xs[:-1, None]), axis=1) / hcells
    else:
        left = right = 0.5 * hcells * fbar
    bfem = right[:-1] + left[1:]
    # map face ordering (canonical == vertex order) onto interior vertices
    scaleA = max(np.abs(Afem).max(), 1e-30)
    scaleb = max(np.abs(bfem).max(), 1e-30)
    matrix_dev = float(np.abs(A - Afem).max() / scaleA)
    rhs_dev = float(np.abs(system.rhs - bfem).max() / scaleb)

    recovery_dev = 0.0
    if k == 0:
        x = asm.solve_reduced(system)
        cells, faces = asm.recover_cells(mesh, condensed, dofmap, x, zeros)
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
    reports = [convergence_study(spec_builder(mu=mu, lam=mu * factor), family, degrees,
                                 levels=levels, base=base) for factor in lam_factors]
    errors = [[row.err_h1 for row in rep.rows] for rep in reports]
    finest = [errs[-1] for errs in errors]
    return LockingReport(lam_over_mu=list(lam_factors), energy_errors=errors,
                         rates=[rep.rate_h1 for rep in reports],
                         ratio_finest=float(max(finest) / min(finest)))


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
