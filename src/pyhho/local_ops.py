"""Cell-local operators shared by the scalar and the vector problem.

For each cell this module builds, in the monomial bases of the hybrid
unknowns, the potential reconstruction of one degree higher, the
full-polynomial gradient reconstruction, the equal-order and
Lehrenfeld-Schoberl stabilizations, the resulting local bilinear-form
matrix, and the operator recovering equilibrated face fluxes.

All matrices act on local DoF vectors laid out as ``[T | F_1 | ... | F_n]``.
The stabilizations and the face-flux builder serve scalar (rank 1) and 2D
vector (rank 2) unknowns alike: a vector block is the scalar block
tensorized with the identity, ``kron(M, I_rank)``, and components
interleave inside each block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .basis import Basis, basis_size, face_basis, scaled_monomial_basis
from .mesh import CellGeometry, Mesh
from .projection import DofLayout, HhoDegrees, dof_layout, mass_cholesky
from .quadrature import QuadratureRule, cell_quadrature, face_quadrature

COND_LIMIT = 1e12


@dataclass
class FaceContext:
    index: int
    basis: Basis
    rule: QuadratureRule
    normal: np.ndarray
    measure: float
    psi: np.ndarray          # (nq, n_face) face basis values
    phi: np.ndarray          # (nq, n_rec) cell basis values at face points
    dphi: np.ndarray         # (nq, n_rec, d) cell basis gradients at face points
    mass: np.ndarray         # (n_face, n_face)
    mass_cho: object
    trace_full: np.ndarray   # (n_face, n_rec): sum_q w psi phi^T


@dataclass
class CellContext:
    """Quadrature data and Gram matrices shared by all local operators."""

    mesh: Mesh
    cell: int
    geom: CellGeometry
    degrees: HhoDegrees
    layout: DofLayout
    rec_basis: Basis
    rule: QuadratureRule
    phi: np.ndarray          # (nq, n_rec)
    dphi: np.ndarray         # (nq, n_rec, d)
    mass_full: np.ndarray    # (n_rec, n_rec)
    stiff_full: np.ndarray   # (n_rec, n_rec)
    ints_full: np.ndarray    # (n_rec,) integrals of the basis functions
    faces: list = field(default_factory=list)

    @property
    def n_rec(self) -> int:
        return self.rec_basis.size

    @property
    def n_cell(self) -> int:
        """Scalar cell-basis size (prefix of the reconstruction basis)."""
        return basis_size(self.degrees.k_cell, self.mesh.dim)

    @property
    def n_k(self) -> int:
        """Scalar size of the face-degree polynomial space on the cell."""
        return basis_size(self.degrees.k_face, self.mesh.dim)

    @property
    def h(self) -> float:
        return self.geom.diameter

    @property
    def mass_cell(self) -> np.ndarray:
        return self.mass_full[: self.n_cell, : self.n_cell]


def build_cell_context(mesh: Mesh, cell: int, degrees: HhoDegrees) -> CellContext:
    """Evaluate bases and Gram matrices at quadrature order ``2(k+1)``."""
    geom = mesh.cell_geometry(cell)
    layout = dof_layout(mesh, degrees, geom.n_faces)
    k = degrees.k_face
    order = 2 * (k + 1)
    rec_basis = scaled_monomial_basis(geom, k + 1)
    rule = cell_quadrature(geom, order)
    phi, dphi = rec_basis.eval(rule.points)
    w = rule.weights
    mass_full = phi.T @ (w[:, None] * phi)
    mass_full = 0.5 * (mass_full + mass_full.T)
    cond = np.linalg.cond(mass_full)
    if cond > COND_LIMIT:
        raise ValueError(
            f"cell {cell}: mass-matrix condition number {cond:.2e} exceeds "
            f"{COND_LIMIT:.0e}; reduce the degree or orthonormalize the basis")
    stiff_full = np.einsum("qid,q,qjd->ij", dphi, w, dphi)
    stiff_full = 0.5 * (stiff_full + stiff_full.T)
    ints_full = w @ phi

    ctx = CellContext(mesh=mesh, cell=cell, geom=geom, degrees=degrees,
                      layout=layout, rec_basis=rec_basis, rule=rule,
                      phi=phi, dphi=dphi, mass_full=mass_full,
                      stiff_full=stiff_full, ints_full=ints_full)
    for i, fi in enumerate(geom.face_indices):
        fb = face_basis(mesh, fi, k)
        fr = face_quadrature(mesh, fi, order)
        psi, _ = fb.eval(fr.points)
        fphi, fdphi = rec_basis.eval(fr.points)
        M_i = psi.T @ (fr.weights[:, None] * psi)
        M_i = 0.5 * (M_i + M_i.T)
        trace_full = psi.T @ (fr.weights[:, None] * fphi)
        ctx.faces.append(FaceContext(
            index=fi, basis=fb, rule=fr, normal=geom.face_normals[i],
            measure=float(geom.face_measures[i]), psi=psi, phi=fphi,
            dphi=fdphi, mass=M_i, mass_cho=mass_cholesky(M_i),
            trace_full=trace_full))
    return ctx


# ---------------------------------------------------------------------------
# reconstruction


def reconstruction(ctx: CellContext):
    """Potential reconstruction matrices ``(Kstar, H, R, R_full, A)``.

    ``R`` maps local DoFs to the non-constant coefficients of the
    reconstructed polynomial; ``R_full`` prepends the row restoring the cell
    mean, so that ``R_full @ v`` are coefficients in the full degree-(k+1)
    basis.  ``A = H^T R`` is the consistency stiffness.
    """
    n_rec, n_cell = ctx.n_rec, ctx.n_cell
    layout = ctx.layout
    Kstar = ctx.stiff_full[1:, 1:]
    H = np.zeros((n_rec - 1, layout.size))
    H[:, layout.cell] = ctx.stiff_full[1:, :n_cell]
    for i, f in enumerate(ctx.faces):
        ndphi = f.dphi[:, 1:, :] @ f.normal          # (nq, n_rec-1)
        wn = f.rule.weights[:, None] * ndphi
        H[:, layout.cell] -= wn.T @ f.phi[:, :n_cell]
        H[:, layout.face(i)] += wn.T @ f.psi
    try:
        R = np.linalg.solve(Kstar, H)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"cell {ctx.cell}: singular reconstruction system") from exc
    A = H.T @ R
    A = 0.5 * (A + A.T)
    mean_row = np.zeros(layout.size)
    mean_row[layout.cell] = ctx.ints_full[:n_cell]
    r0 = (mean_row - ctx.ints_full[1:] @ R) / ctx.geom.measure
    R_full = np.vstack([r0, R])
    return Kstar, H, R, R_full, A


def gradient_reconstruction(ctx: CellContext) -> np.ndarray:
    """Gradient reconstruction into vector polynomials of the face degree.

    Returns ``G`` of shape ``(d, n_k, size)``: component ``c`` of the
    reconstructed gradient has coefficients ``G[c] @ v``.
    """
    d = ctx.mesh.dim
    n_k = ctx.n_k
    layout = ctx.layout
    Mk = ctx.mass_full[:n_k, :n_k]
    cho = mass_cholesky(Mk)
    w = ctx.rule.weights
    G = np.zeros((d, n_k, layout.size))
    for c in range(d):
        rhs = np.zeros((n_k, layout.size))
        # volume term (grad v_T, q) and face terms -(v_T - v_F, n_c q)
        rhs[:, layout.cell] = ctx.phi[:, :n_k].T @ (
            w[:, None] * ctx.dphi[:, : ctx.n_cell, c])
        for i, f in enumerate(ctx.faces):
            wq = f.rule.weights * f.normal[c]
            rhs[:, layout.cell] -= f.phi[:, :n_k].T @ (wq[:, None] * f.phi[:, : ctx.n_cell])
            rhs[:, layout.face(i)] += f.phi[:, :n_k].T @ (wq[:, None] * f.psi)
        G[c] = cho_solve(cho, rhs)
    return G


# ---------------------------------------------------------------------------
# tensorization with the identity of the field rank


def _kron(M: np.ndarray, rank: int) -> np.ndarray:
    """The scalar block ``M`` tensorized as ``kron(M, I_rank)``."""
    return M if rank == 1 else np.kron(M, np.eye(rank))


def _kron_apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``kron(M, I_rank) @ X`` for ``X`` with rank-interleaved rows; the
    rank is ``len(X) // M.shape[1]``."""
    return (M @ X.reshape(M.shape[1], -1)).reshape((-1,) + X.shape[1:])


def _kron_solve(cho, X: np.ndarray) -> np.ndarray:
    """``kron(M, I_rank)^-1 X`` from the Cholesky factor of ``M``."""
    return cho_solve(cho, X.reshape(len(cho[0]), -1)).reshape(X.shape)


# ---------------------------------------------------------------------------
# stabilization


def stabilization_ls(ctx: CellContext):
    """Lehrenfeld-Schoberl stabilization: project the cell trace, subtract
    the face unknown.  Returns ``(face_ops, penalty)``."""
    layout = ctx.layout
    face_ops = []
    penalty = np.zeros((layout.size, layout.size))
    for i, f in enumerate(ctx.faces):
        Z = np.zeros((layout.face_width, layout.size))
        Z[:, layout.cell] = _kron(cho_solve(f.mass_cho, f.trace_full[:, : ctx.n_cell]),
                                  ctx.degrees.rank)
        Z[:, layout.face(i)] -= np.eye(layout.face_width)
        face_ops.append(Z)
        penalty += (Z.T @ _kron_apply(f.mass, Z)) / ctx.h
    return face_ops, 0.5 * (penalty + penalty.T)


def stabilization_equal_order(ctx: CellContext, rec: np.ndarray):
    """Equal-order stabilization including the reconstruction correction.

    ``rec`` is the full reconstruction (``R_full`` for the scalar problem,
    the displacement reconstruction for elasticity).
    """
    if ctx.degrees.mixed:
        raise ValueError("equal-order stabilization requires k_cell == k_face")
    n_cell = ctx.n_cell
    layout = ctx.layout
    cell_cho = mass_cholesky(ctx.mass_cell)
    # coefficients of v_T - Pi_T(rec v)
    tmp1 = -_kron_solve(cell_cho, _kron_apply(ctx.mass_full[:n_cell], rec))
    tmp1[:, layout.cell] += np.eye(layout.cell_width)
    face_ops = []
    penalty = np.zeros((layout.size, layout.size))
    for i, f in enumerate(ctx.faces):
        S = _kron_solve(f.mass_cho, _kron_apply(f.trace_full, rec)
                        + _kron_apply(f.trace_full[:, :n_cell], tmp1))
        S[:, layout.face(i)] -= np.eye(layout.face_width)
        face_ops.append(S)
        penalty += (S.T @ _kron_apply(f.mass, S)) / ctx.h
    return face_ops, 0.5 * (penalty + penalty.T)


def seminorm_gram(ctx: CellContext) -> np.ndarray:
    """Gram matrix of the H1-like seminorm |grad v_T|^2 + h^-1 |v_T - v_F|^2."""
    layout = ctx.layout
    n_cell = ctx.n_cell
    N = np.zeros((layout.size, layout.size))
    N[layout.cell, layout.cell] = ctx.stiff_full[:n_cell, :n_cell]
    for i, f in enumerate(ctx.faces):
        D = np.zeros((len(f.rule.weights), layout.size))
        D[:, layout.cell] = f.phi[:, :n_cell]
        D[:, layout.face(i)] = -f.psi
        N += D.T @ (f.rule.weights[:, None] * D) / ctx.h
    return 0.5 * (N + N.T)


# ---------------------------------------------------------------------------
# bundled operators


@dataclass
class LocalOperators:
    """What solve and post-processing read of one cell's operators."""

    ctx: CellContext
    L: np.ndarray             # local bilinear-form matrix
    penalty: np.ndarray       # stabilization with the plain 1/h weight
    rec: np.ndarray           # full reconstruction, coefficients in ctx.rec_basis
    flux: np.ndarray          # (n_faces * face_width, size) face-flux coefficients
    balance: np.ndarray       # cell consistency tested with degree-k_face polynomials

    def face_fluxes(self, dofs: np.ndarray) -> list:
        """Per-face coefficient arrays of the numerical flux of ``dofs``."""
        return np.split(self.flux @ dofs, len(self.ctx.faces))


def _face_flux(ctx: CellContext, consistency: np.ndarray, stab_face: list,
               weight: float) -> np.ndarray:
    """Equilibrated face fluxes, stacked by face.

    ``consistency`` holds the face moments of the consistency flux
    (``-grad R . n`` or ``-sigma(E) n``); the stabilization, scaled by
    ``weight`` (``1/h`` or ``2 mu/h``), adds its adjoint acting on the face
    unknowns.  Each face block is then solved with its face mass.
    """
    S = np.vstack(stab_face)
    MS = np.vstack([_kron_apply(f.mass, Si) for f, Si in zip(ctx.faces, stab_face)])
    flux = consistency - weight * (S[:, ctx.layout.faces].T @ MS)
    nf = ctx.layout.face_width
    for i, f in enumerate(ctx.faces):
        rows = slice(i * nf, (i + 1) * nf)
        flux[rows] = _kron_solve(f.mass_cho, flux[rows])
    return flux


def local_bilinear(ctx: CellContext) -> LocalOperators:
    """Full local matrix ``L = A + penalty`` with its face fluxes.

    Equal-order degrees use the reconstruction-corrected stabilization,
    mixed-order degrees the Lehrenfeld-Schoberl one.
    """
    _, _, _, R_full, A = reconstruction(ctx)
    if ctx.degrees.mixed:
        stab_face, penalty = stabilization_ls(ctx)
    else:
        stab_face, penalty = stabilization_equal_order(ctx, R_full)
    L = A + penalty
    L = 0.5 * (L + L.T)
    # nothing reads G yet; it is built while the benchmark traces it as a layer
    gradient_reconstruction(ctx)
    consistency = np.vstack([
        -f.psi.T @ (f.rule.weights[:, None] * (f.dphi @ f.normal)) @ R_full
        for f in ctx.faces])
    return LocalOperators(
        ctx=ctx, L=L, penalty=penalty, rec=R_full,
        flux=_face_flux(ctx, consistency, stab_face, 1.0 / ctx.h),
        balance=ctx.stiff_full[: ctx.n_k] @ R_full)
