"""Cell-local operators shared by the scalar and the vector problem.

For each cell this module builds, in the monomial bases of the hybrid
unknowns, the potential reconstruction of one degree higher, the
full-polynomial gradient reconstruction, the equal-order and
Lehrenfeld-Schoberl stabilizations, the resulting local bilinear-form
matrix, and the operator recovering equilibrated face fluxes.

Every operator is built for a group of cells that share one quadrature
class (see :meth:`pyhho.mesh.Mesh.cell_groups`): arrays carry a leading
cell axis, and loops run over the local face positions only.  A single
cell is a group of one.

All matrices act on local DoF vectors laid out as ``[T | F_1 | ... | F_n]``.
The stabilizations and the face-flux builder serve scalar (rank 1) and 2D
vector (rank 2) unknowns alike: a vector block is the scalar block
tensorized with the identity, ``kron(M, I_rank)``, and components
interleave inside each block.  The gradient reconstruction is always
built on the scalar layout; :mod:`pyhho.elasticity` applies it to each
displacement component and takes the symmetric part as the strain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, basis_size, face_basis, scaled_monomial_basis
from .mesh import CellGeometry, Mesh
from .projection import DofLayout, HhoDegrees, checked, dof_layout, mass_cholesky
from .quadrature import QuadratureRule, cell_quadrature, face_quadrature

COND_LIMIT = 1e12


@dataclass
class FaceContext:
    """One local face position across the cells of a group."""

    index: np.ndarray        # (nb,) global face indices
    basis: Basis
    rule: QuadratureRule
    normal: np.ndarray       # (nb, d)
    psi: np.ndarray          # (nb, nq, n_face) face basis values
    phi: np.ndarray          # (nb, nq, n_rec) cell basis values at face points
    dphi: np.ndarray         # (nb, nq, n_rec, d) cell basis gradients at face points
    mass: np.ndarray         # (nb, n_face, n_face)
    mass_inv: np.ndarray     # (nb, n_face, n_face)
    trace_full: np.ndarray   # (nb, n_face, n_rec): sum_q w psi phi^T


@dataclass
class CellContext:
    """Quadrature data and Gram matrices shared by all local operators."""

    mesh: Mesh
    cells: np.ndarray        # (nb,) cell indices of the group
    geom: CellGeometry
    degrees: HhoDegrees
    layout: DofLayout
    rec_basis: Basis
    rule: QuadratureRule
    phi: np.ndarray          # (nb, nq, n_rec)
    dphi: np.ndarray         # (nb, nq, n_rec, d)
    mass_full: np.ndarray    # (nb, n_rec, n_rec)
    stiff_full: np.ndarray   # (nb, n_rec, n_rec)
    ints_full: np.ndarray    # (nb, n_rec) integrals of the basis functions
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
    def h(self) -> np.ndarray:
        return self.geom.diameter

    @property
    def mass_cell(self) -> np.ndarray:
        return self.mass_full[:, : self.n_cell, : self.n_cell]


def build_cell_context(mesh: Mesh, cells, degrees: HhoDegrees) -> CellContext:
    """Evaluate bases and Gram matrices at quadrature order ``2(k+1)`` on a
    group of cells of one quadrature class (one cell index: a group of one)."""
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    geom = mesh.cell_geometry(cells)
    layout = dof_layout(mesh, degrees, geom.n_faces)
    k = degrees.k_face
    order = 2 * (k + 1)
    rec_basis = scaled_monomial_basis(geom, k + 1)
    rule = cell_quadrature(geom, order)
    phi, dphi = rec_basis.eval(rule.points)
    w = rule.weights
    wphi = w[..., None] * phi
    mass_full = wphi.mT @ phi
    mass_full = 0.5 * (mass_full + mass_full.mT)
    cond = np.linalg.cond(mass_full)
    if np.any(cond > COND_LIMIT):
        b = np.flatnonzero(cond > COND_LIMIT)[0]
        raise ValueError(
            f"cell {cells[b]}: mass-matrix condition number {cond[b]:.2e} exceeds "
            f"{COND_LIMIT:.0e}; reduce the degree or orthonormalize the basis")
    stiff_full = np.einsum("bqid,bqjd->bij", w[..., None, None] * dphi, dphi)
    stiff_full = 0.5 * (stiff_full + stiff_full.mT)
    ints_full = wphi.sum(axis=1)

    ctx = CellContext(mesh=mesh, cells=cells, geom=geom, degrees=degrees,
                      layout=layout, rec_basis=rec_basis, rule=rule,
                      phi=phi, dphi=dphi, mass_full=mass_full,
                      stiff_full=stiff_full, ints_full=ints_full)
    for i in range(geom.n_faces):
        fi = geom.face_indices[:, i]
        fb = face_basis(mesh, fi, k)
        fr = face_quadrature(mesh, fi, order)
        psi, _ = fb.eval(fr.points)
        fphi, fdphi = rec_basis.eval(fr.points)
        wpsi = fr.weights[..., None] * psi
        M_i = wpsi.mT @ psi
        M_i = 0.5 * (M_i + M_i.mT)
        ctx.faces.append(FaceContext(
            index=fi, basis=fb, rule=fr, normal=geom.face_normals[:, i],
            psi=psi, phi=fphi, dphi=fdphi, mass=M_i,
            mass_inv=mass_cholesky(M_i, ids=fi, entity="face"),
            trace_full=wpsi.mT @ fphi))
    return ctx


def _normal_derivative(dphi: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """``grad phi . n`` at face points: (nb, nq, n, d) with (nb, d)."""
    return np.einsum("bqjd,bd->bqj", dphi, normal)


# ---------------------------------------------------------------------------
# reconstruction


def reconstruction(ctx: CellContext):
    """Potential reconstruction matrices ``(Kstar, H, R, R_full, A)``.

    ``R`` maps local DoFs to the non-constant coefficients of the
    reconstructed polynomial; ``R_full`` prepends the row restoring the cell
    mean, so that ``R_full @ v`` are coefficients in the full degree-(k+1)
    basis.  ``A = H^T R`` is the consistency stiffness.  Each matrix is
    stacked over the cells of the group.
    """
    n_rec, n_cell = ctx.n_rec, ctx.n_cell
    layout = ctx.layout
    nb = len(ctx.cells)
    Kstar = ctx.stiff_full[:, 1:, 1:]
    H = np.zeros((nb, n_rec - 1, layout.size))
    H[:, :, layout.cell] = ctx.stiff_full[:, 1:, :n_cell]
    for i, f in enumerate(ctx.faces):
        wn = f.rule.weights[..., None] * _normal_derivative(f.dphi[:, :, 1:], f.normal)
        H[:, :, layout.cell] -= wn.mT @ f.phi[:, :, :n_cell]
        H[:, :, layout.face(i)] += wn.mT @ f.psi
    R = checked(np.linalg.solve, Kstar, H, ids=ctx.cells,
                what="singular reconstruction system")
    A = H.mT @ R
    A = 0.5 * (A + A.mT)
    mean_row = np.zeros((nb, layout.size))
    mean_row[:, layout.cell] = ctx.ints_full[:, :n_cell]
    r0 = (mean_row - (ctx.ints_full[:, None, 1:] @ R)[:, 0]) / ctx.geom.measure[:, None]
    R_full = np.concatenate([r0[:, None], R], axis=1)
    return Kstar, H, R, R_full, A


def gradient_reconstruction(ctx: CellContext) -> np.ndarray:
    """Gradient reconstruction into vector polynomials of the face degree.

    ``G`` acts on the scalar DoF layout of the cell whatever the field
    rank: its shape is ``(nb, d, n_k, size // rank)``, and component ``c``
    of the reconstructed gradient of a scalar field ``v`` has coefficients
    ``G[:, c] @ v``.  A vector field's gradient is ``G`` applied to each
    component (``G`` tensorized with the identity).
    """
    n_k, n_cell = ctx.n_k, ctx.n_cell
    layout = DofLayout(n_cell, ctx.layout.face_width // ctx.degrees.rank, len(ctx.faces))
    nb, d = len(ctx.cells), ctx.mesh.dim
    Mk_inv = mass_cholesky(ctx.mass_full[:, :n_k, :n_k], ctx.cells)
    w = ctx.rule.weights
    rhs = np.zeros((nb, d, n_k, layout.size))
    # volume term (grad v_T, q) and face terms -(v_T - v_F, n_c q)
    rhs[..., layout.cell] = np.einsum("bqi,bqjc->bcij", w[..., None] * ctx.phi[:, :, :n_k],
                                      ctx.dphi[:, :, :n_cell])
    for i, f in enumerate(ctx.faces):
        wq = (f.rule.weights[..., None] * f.phi[:, :, :n_k]).mT
        n = f.normal[:, :, None, None]
        rhs[..., layout.cell] -= n * (wq @ f.phi[:, :, :n_cell])[:, None]
        rhs[..., layout.face(i)] += n * (wq @ f.psi)[:, None]
    return Mk_inv[:, None] @ rhs


# ---------------------------------------------------------------------------
# tensorization with the identity of the field rank


def _kron(M: np.ndarray, rank: int) -> np.ndarray:
    """Each scalar block of the stack ``M`` tensorized as ``kron(M, I_rank)``."""
    if rank == 1:
        return M
    m, n = M.shape[-2:]
    out = M[..., :, None, :, None] * np.eye(rank)[:, None, :]
    return out.reshape(M.shape[:-2] + (m * rank, n * rank))


def _kron_apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``kron(M, I_rank) @ X`` for stacks ``M`` (nb, m, n) and ``X`` whose
    rows (axis 1) interleave the rank; the rank is ``X.shape[1] // n``."""
    nb, m, n = len(X), M.shape[-2], M.shape[-1]
    rank, tail = X.shape[1] // n, X.shape[2:]
    Y = M @ X.reshape((nb, n, rank * int(np.prod(tail))))
    return Y.reshape((nb, m * rank) + tail)


# ---------------------------------------------------------------------------
# stabilization


def _penalty(ctx: CellContext, face_ops: list) -> np.ndarray:
    """``sum_F h^-1 (S_F v, S_F v)_F`` of the face operators ``S_F``."""
    penalty = sum(S.mT @ _kron_apply(f.mass, S) for f, S in zip(ctx.faces, face_ops))
    penalty = penalty / ctx.h[:, None, None]
    return 0.5 * (penalty + penalty.mT)


def stabilization_ls(ctx: CellContext):
    """Lehrenfeld-Schoberl stabilization: project the cell trace, subtract
    the face unknown.  Returns ``(face_ops, penalty)``."""
    layout = ctx.layout
    face_ops = []
    for i, f in enumerate(ctx.faces):
        Z = np.zeros((len(ctx.cells), layout.face_width, layout.size))
        Z[:, :, layout.cell] = _kron(f.mass_inv @ f.trace_full[:, :, : ctx.n_cell],
                                     ctx.degrees.rank)
        Z[:, :, layout.face(i)] -= np.eye(layout.face_width)
        face_ops.append(Z)
    return face_ops, _penalty(ctx, face_ops)


def stabilization_equal_order(ctx: CellContext, rec: np.ndarray):
    """Equal-order stabilization including the reconstruction correction.

    ``rec`` is the full reconstruction (``R_full`` for the scalar problem,
    the displacement reconstruction for elasticity).
    """
    if ctx.degrees.mixed:
        raise ValueError("equal-order stabilization requires k_cell == k_face")
    n_cell = ctx.n_cell
    layout = ctx.layout
    cell_inv = mass_cholesky(ctx.mass_cell, ctx.cells)
    # coefficients of v_T - Pi_T(rec v)
    tmp1 = -_kron_apply(cell_inv, _kron_apply(ctx.mass_full[:, :n_cell], rec))
    tmp1[:, :, layout.cell] += np.eye(layout.cell_width)
    face_ops = []
    for i, f in enumerate(ctx.faces):
        S = _kron_apply(f.mass_inv, _kron_apply(f.trace_full, rec)
                        + _kron_apply(f.trace_full[:, :, :n_cell], tmp1))
        S[:, :, layout.face(i)] -= np.eye(layout.face_width)
        face_ops.append(S)
    return face_ops, _penalty(ctx, face_ops)


def seminorm_gram(ctx: CellContext) -> np.ndarray:
    """Gram matrix of the H1-like seminorm |grad v_T|^2 + h^-1 |v_T - v_F|^2."""
    layout = ctx.layout
    n_cell = ctx.n_cell
    N = np.zeros((len(ctx.cells), layout.size, layout.size))
    N[:, layout.cell, layout.cell] = ctx.stiff_full[:, :n_cell, :n_cell]
    for i, f in enumerate(ctx.faces):
        D = np.zeros(f.rule.weights.shape + (layout.size,))
        D[..., layout.cell] = f.phi[:, :, :n_cell]
        D[..., layout.face(i)] = -f.psi
        N += D.mT @ (f.rule.weights[..., None] * D) / ctx.h[:, None, None]
    return 0.5 * (N + N.mT)


# ---------------------------------------------------------------------------
# bundled operators


@dataclass
class LocalOperators:
    """What solve and post-processing read of a group's operators, each
    stacked over its cells."""

    ctx: CellContext
    L: np.ndarray             # local bilinear-form matrices
    penalty: np.ndarray       # stabilization with the plain 1/h weight
    rec: np.ndarray           # full reconstruction, coefficients in ctx.rec_basis
    flux: np.ndarray          # (nb, n_faces * face_width, size) face-flux coefficients
    balance: np.ndarray       # cell consistency tested with degree-k_face polynomials

    def face_fluxes(self, dofs: np.ndarray) -> list:
        """Per-face coefficient arrays ``(nb, face_width)`` of the numerical
        flux of ``dofs`` (one local vector, or one per cell)."""
        return np.split((self.flux @ dofs[..., None])[..., 0], len(self.ctx.faces),
                        axis=-1)


def _face_flux(ctx: CellContext, consistency: np.ndarray, stab_face: list,
               weight: np.ndarray) -> np.ndarray:
    """Equilibrated face fluxes, stacked by face.

    ``consistency`` holds the face moments of the consistency flux
    (``-grad R . n`` or ``-sigma(E) n``); the stabilization, scaled by
    ``weight`` (``1/h`` or ``2 mu/h`` per cell), adds its adjoint acting on
    the face unknowns.  Each face block is then solved with its face mass.
    """
    S = np.concatenate(stab_face, axis=1)
    MS = np.concatenate([_kron_apply(f.mass, Si) for f, Si in zip(ctx.faces, stab_face)],
                        axis=1)
    flux = consistency - weight[:, None, None] * (S[:, :, ctx.layout.faces].mT @ MS)
    nf = ctx.layout.face_width
    for i, f in enumerate(ctx.faces):
        rows = slice(i * nf, (i + 1) * nf)
        flux[:, rows] = _kron_apply(f.mass_inv, flux[:, rows])
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
    L = 0.5 * (L + L.mT)
    consistency = np.concatenate([
        -(f.rule.weights[..., None] * f.psi).mT
        @ _normal_derivative(f.dphi, f.normal) @ R_full
        for f in ctx.faces], axis=1)
    return LocalOperators(
        ctx=ctx, L=L, penalty=penalty, rec=R_full,
        flux=_face_flux(ctx, consistency, stab_face, 1.0 / ctx.h),
        balance=ctx.stiff_full[:, : ctx.n_k] @ R_full)
