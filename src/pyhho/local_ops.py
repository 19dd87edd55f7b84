"""Cell-local operators shared by the scalar and the vector problem.

For each cell this module builds, in the monomial bases of the hybrid
unknowns, the full-polynomial gradient reconstruction ``G``, the
potential reconstruction of one degree higher, the equal-order and
Lehrenfeld-Schoberl stabilizations, the resulting local bilinear-form
matrix, and the operator recovering equilibrated face fluxes.  The hybrid
face terms are assembled once, in ``G``: the potential reconstruction is
its projection onto gradients of degree k+1, and the consistency fluxes
are read from degree-k coefficients of the flux field.

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
    grad_mass: np.ndarray    # (nb, n_rec, d, n_k): (d_c phi_i, phi_j), phi_j of degree <= k
    mass_k_inv: np.ndarray   # (nb, n_k, n_k) inverse of the degree-k cell mass
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
    nb, nq, n_rec, d = dphi.shape
    # batched matmuls over (point, direction) pairs run in BLAS, not in einsum's C loops
    grads = dphi.swapaxes(-1, -2).reshape(nb, nq * d, n_rec)
    stiff_full = grads.mT @ (np.repeat(w, d, axis=1)[..., None] * grads)
    stiff_full = 0.5 * (stiff_full + stiff_full.mT)
    ints_full = wphi.sum(axis=1)
    n_k = basis_size(k, d)
    grad_mass = (dphi.reshape(nb, nq, -1).mT @ wphi[:, :, :n_k]).reshape(nb, n_rec, d, n_k)

    ctx = CellContext(mesh=mesh, cells=cells, geom=geom, degrees=degrees,
                      layout=layout, rec_basis=rec_basis, rule=rule,
                      phi=phi, dphi=dphi, mass_full=mass_full,
                      stiff_full=stiff_full, ints_full=ints_full, grad_mass=grad_mass,
                      mass_k_inv=mass_cholesky(mass_full[:, :n_k, :n_k], cells))
    for i in range(geom.n_faces):
        fi = geom.face_indices[:, i]
        fb = face_basis(mesh, fi, k)
        fr = face_quadrature(mesh, fi, order)
        psi, _ = fb.eval(fr.points)
        fphi, _ = rec_basis.eval(fr.points)
        wpsi = fr.weights[..., None] * psi
        M_i = wpsi.mT @ psi
        M_i = 0.5 * (M_i + M_i.mT)
        ctx.faces.append(FaceContext(
            index=fi, basis=fb, rule=fr, normal=geom.face_normals[:, i],
            psi=psi, phi=fphi, mass=M_i,
            mass_inv=mass_cholesky(M_i, ids=fi, entity="face"),
            trace_full=wpsi.mT @ fphi))
    return ctx


# ---------------------------------------------------------------------------
# reconstruction


def reconstruction(ctx: CellContext):
    """Potential reconstruction matrices ``(Kstar, H, R, R_full, A)``.

    ``R v`` is the projection of ``G v`` onto gradients of degree k+1:
    ``(grad R v, grad w) = (G v, grad w)`` is exact because ``grad w`` has
    degree k, so the right-hand side is ``H = sum_c (d_c w, phi_k) G_c``.
    ``R`` maps local DoFs to the non-constant coefficients of the
    reconstructed polynomial; ``R_full`` prepends the row restoring the cell
    mean, so that ``R_full @ v`` are coefficients in the full degree-(k+1)
    basis.  ``A = H^T R`` is the consistency stiffness.  Each matrix is
    stacked over the cells of the group.
    """
    layout = ctx.layout
    nb = len(ctx.cells)
    Kstar = ctx.stiff_full[:, 1:, 1:]
    H = _gradient_moments(ctx, gradient_reconstruction(ctx))[:, 1:]
    R = checked(np.linalg.solve, Kstar, H, ids=ctx.cells,
                what="singular reconstruction system")
    A = H.mT @ R
    A = 0.5 * (A + A.mT)
    mean_row = np.zeros((nb, layout.size))
    mean_row[:, layout.cell] = ctx.ints_full[:, : ctx.n_cell]
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
    rhs = np.zeros((nb, d, n_k, layout.size))
    # (grad v_T, q) - sum_F (v_T - v_F, q n)_F: the only assembly of the face terms
    rhs[..., layout.cell] = ctx.grad_mass[:, :n_cell].transpose(0, 2, 3, 1)
    for i, f in enumerate(ctx.faces):
        wq = (f.rule.weights[..., None] * f.phi[:, :, :n_k]).mT
        n = f.normal[:, :, None, None]
        rhs[..., layout.cell] -= n * (wq @ f.phi[:, :, :n_cell])[:, None]
        rhs[..., layout.face(i)] += n * (wq @ f.psi)[:, None]
    return ctx.mass_k_inv[:, None] @ rhs


def _gradient_moments(ctx: CellContext, T: np.ndarray) -> np.ndarray:
    """``(grad w, T)`` for each basis function ``w = phi_i e_a`` of degree
    k+1, at row ``rank * i + a``.  ``T[:, c]`` maps DoFs to the degree-k
    coefficients of column ``c`` of a field, ``T_ac`` at row ``rank * j + a``.
    """
    nb, d, _, size = T.shape
    B = ctx.grad_mass.reshape(nb, ctx.n_rec, d * ctx.n_k)
    return (B @ T.reshape(nb, d * ctx.n_k, -1)).reshape(nb, -1, size)


# ---------------------------------------------------------------------------
# tensorization with the identity of the field rank


def _kron_apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``kron(M, I_rank) @ X`` for stacks ``M`` (nb, m, n) and ``X`` whose
    rows (axis 1) interleave the rank; the rank is ``X.shape[1] // n``."""
    nb, m, n = len(X), M.shape[-2], M.shape[-1]
    rank, tail = X.shape[1] // n, X.shape[2:]
    Y = M @ X.reshape((nb, n, rank * int(np.prod(tail))))
    return Y.reshape((nb, m * rank) + tail)


# ---------------------------------------------------------------------------
# stabilization


def _face_ops(ctx: CellContext, cell: np.ndarray, rec: np.ndarray | None = None):
    """Face operators ``S_F v = Pi_F w - v_F`` of the cell polynomial ``w``
    with coefficients ``cell @ v`` in the cell basis plus ``rec @ v`` in the
    reconstruction basis, and their penalty ``sum_F h^-1 (S_F v, S_F v)_F``.
    Returns ``(face_ops, penalty)``."""
    layout = ctx.layout
    face_ops = []
    for i, f in enumerate(ctx.faces):
        trace = _kron_apply(f.trace_full[:, :, : ctx.n_cell], cell)
        if rec is not None:
            trace += _kron_apply(f.trace_full, rec)
        S = _kron_apply(f.mass_inv, trace)
        S[:, :, layout.face(i)] -= np.eye(layout.face_width)
        face_ops.append(S)
    penalty = sum(S.mT @ _kron_apply(f.mass, S) for f, S in zip(ctx.faces, face_ops))
    penalty = penalty / ctx.h[:, None, None]
    return face_ops, 0.5 * (penalty + penalty.mT)


def stabilization_ls(ctx: CellContext):
    """Lehrenfeld-Schoberl stabilization: project the cell trace, subtract
    the face unknown.  Returns ``(face_ops, penalty)``."""
    layout = ctx.layout
    cell = np.zeros((len(ctx.cells), layout.cell_width, layout.size))
    cell[:, :, layout.cell] = np.eye(layout.cell_width)
    return _face_ops(ctx, cell)


def stabilization_equal_order(ctx: CellContext, rec: np.ndarray):
    """Equal-order stabilization including the reconstruction correction.

    ``rec`` is the full reconstruction (``R_full`` for the scalar problem,
    the displacement reconstruction for elasticity).
    """
    if ctx.degrees.mixed:
        raise ValueError("equal-order stabilization requires k_cell == k_face")
    layout = ctx.layout
    # coefficients of v_T - Pi_T(rec v); in equal order the cell mass is the degree-k one
    cell = -_kron_apply(ctx.mass_k_inv, _kron_apply(ctx.mass_full[:, : ctx.n_cell], rec))
    cell[:, :, layout.cell] += np.eye(layout.cell_width)
    return _face_ops(ctx, cell, rec)


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


def _face_flux(ctx: CellContext, field: np.ndarray, stab_face: list,
               weight: np.ndarray) -> np.ndarray:
    """Equilibrated face fluxes, stacked by face.

    ``field`` holds the degree-k coefficient maps of the columns of the
    consistency field ``tau`` (``grad R`` or ``sigma(E)``), laid out as in
    :func:`_gradient_moments`; its face moments give the consistency flux
    ``-(tau n, psi)_F``.  The stabilization, scaled by ``weight`` (``1/h``
    or ``2 mu/h`` per cell), adds its adjoint acting on the face unknowns.
    Each face block is then solved with its face mass.
    """
    S = np.concatenate(stab_face, axis=1)
    MS = np.concatenate([_kron_apply(f.mass, Si) for f, Si in zip(ctx.faces, stab_face)],
                        axis=1)
    stab = weight[:, None, None] * (S[:, :, ctx.layout.faces].mT @ MS)
    nf = ctx.layout.face_width
    blocks = []
    for i, f in enumerate(ctx.faces):
        tau_n = np.einsum("bc,bc...->b...", f.normal, field)
        consistency = _kron_apply(f.trace_full[:, :, : ctx.n_k], tau_n)
        blocks.append(-_kron_apply(f.mass_inv, consistency + stab[:, i * nf:(i + 1) * nf]))
    return np.concatenate(blocks, axis=1)


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
    nb, n_rec, d, n_k = ctx.grad_mass.shape
    # exact degree-k coefficients of grad R, whose degree is k
    grad_R = ctx.mass_k_inv[:, None] @ (
        ctx.grad_mass.reshape(nb, n_rec, -1).mT @ R_full).reshape(nb, d, n_k, -1)
    return LocalOperators(
        ctx=ctx, L=L, penalty=penalty, rec=R_full,
        flux=_face_flux(ctx, grad_R, stab_face, 1.0 / ctx.h),
        balance=ctx.stiff_full[:, :n_k] @ R_full)
