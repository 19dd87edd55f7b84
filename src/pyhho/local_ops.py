"""Cell-local operators shared by the scalar and the vector problem.

For each cell this module builds, in the monomial bases of the hybrid
unknowns, the full-polynomial gradient reconstruction ``G``, the
potential reconstruction of one degree higher, the equal-order and
Lehrenfeld-Schoberl stabilizations, and one bundle of the local matrix and
the operators recovering equilibrated face fluxes.  The hybrid face terms
are assembled once, in ``G``: the potential reconstruction is its
projection onto gradients of degree k+1, one constrained SPD solve in
inverse-Cholesky-factor form that the elastic displacement reconstruction
shares, and the fluxes are read from degree-k coefficients of the flux
field.  Cell Grams are face sums: no operator needs a cell quadrature rule.

Every operator is built for a group of cells that share one quadrature
class (see :meth:`pyhho.mesh.Mesh.cell_groups`): arrays carry a leading
cell axis, and face data a face axis after it, built once per distinct
face of the group.  Sums over the faces are contractions over that axis,
not loops.  A single cell is a group of one.

All matrices act on local DoF vectors laid out as ``[T | F_1 | ... | F_n]``.
The stabilizations and the face-flux builder serve scalar (rank 1) and 2D
vector (rank 2) unknowns alike: a vector block is the scalar block
tensorized with the identity, ``kron(M, I_rank)``, and components
interleave inside each block.  The gradient reconstruction is always
built on the scalar layout; :mod:`pyhho.elasticity` applies it to each
displacement component and takes the symmetric part as the strain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import Basis, basis_size, face_basis, scaled_monomial_basis
from .mesh import CellGeometry, Mesh
from .projection import DofLayout, HhoDegrees, dof_layout, mass_cholesky, spd_inverse
# unused here; perfbench/tracing.py resolves pyhho.local_ops.cell_quadrature by name
from .quadrature import cell_quadrature, face_quadrature  # noqa: F401

COND_LIMIT = 1e12


@dataclass
class FaceContext:
    """A group's face data on a face axis after the cell axis, built once per
    distinct face and gathered; only ``phi`` and ``trace_full`` depend on the cell."""

    normal: np.ndarray       # (nb, nf, d) unit outward normals
    weights: np.ndarray      # (nb, nf, nq) face quadrature weights
    psi: np.ndarray          # (nb, nf, nq, n_face) face basis values
    phi: np.ndarray          # (nb, nf, nq, n_rec) cell basis values at face points
    mass: np.ndarray         # (nb, nf, n_face, n_face)
    mass_inv: np.ndarray     # (nb, nf, n_face, n_face)
    trace_full: np.ndarray   # (nb, nf, n_face, n_rec): sum_q w psi phi^T


@dataclass
class CellContext:
    """Face data and Gram matrices of a group, shared by all local
    operators; each array depends only on the cells' shapes."""

    mesh: Mesh
    cells: np.ndarray        # (nb,) cell indices of the group
    geom: CellGeometry
    degrees: HhoDegrees
    layout: DofLayout
    rec_basis: Basis
    mass_full: np.ndarray    # (nb, n_rec, n_rec)
    stiff_full: np.ndarray   # (nb, n_rec, n_rec): the trace of grad_gram over (a, b)
    ints_full: np.ndarray    # (nb, n_rec) integrals of the basis functions
    grad_mass: np.ndarray    # (nb, n_rec, d, n_k): (d_c phi_i, phi_j), phi_j of degree <= k
    grad_gram: np.ndarray    # (nb, n_rec, d, n_rec, d): (d_a phi_i, d_b phi_j)
    mass_k_inv: np.ndarray   # (nb, n_k, n_k) inverse of the degree-k cell mass
    faces: FaceContext

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
    """Face data and Gram matrices of a group of cells of one quadrature
    class (one cell index: a group of one), from face quadrature alone.

    By Euler's theorem for the mapped monomials, homogeneous about ``x_T``,
    a Gram entry ``int_T q`` with ``q`` of degree ``p`` is ``sum_F (n_F . (x -
    x_T)) int_F q / (d + p)``, exact at the order-``2(k+1)`` face points.
    """
    geom = mesh.cell_geometry(cells)
    if np.ndim(cells) == 0:      # the cell's own loop, not its group's padded slots
        geom = replace(geom, **{f: np.asarray(v)[None] for f, v in vars(geom).items()
                                if f not in ("dim", "shape")})
    cells = geom.index
    layout = dof_layout(mesh, degrees, geom.n_faces)
    k = degrees.k_face
    rec_basis = scaled_monomial_basis(geom, k + 1)

    # each distinct face once, then gathered onto (cell, local face)
    unique, at = np.unique(geom.face_indices, return_inverse=True)
    frule = face_quadrature(mesh, unique, 2 * (k + 1))
    psi, _ = face_basis(mesh, unique, k).eval(frule.points, gradients=False)
    wpsi = frule.weights[..., None] * psi
    M = wpsi.mT @ psi
    M = 0.5 * (M + M.mT)
    M_inv = mass_cholesky(M, ids=unique, entity="face")
    nb, nf, d = geom.face_normals.shape
    points = frule.points[at]                                   # (nb, nf, nq, d)
    fphi, fdphi = rec_basis.eval(points.reshape(nb, -1, d))
    n_rec = rec_basis.size
    phi = fphi.reshape(nb, nf, -1, n_rec)
    faces = FaceContext(normal=geom.face_normals, weights=frule.weights[at], psi=psi[at],
                        phi=phi, mass=M[at], mass_inv=M_inv[at], trace_full=wpsi[at].mT @ phi)
    pad = geom.face_measures == 0    # a padded slot weighs nothing: its DoFs read exact zeros
    faces.weights[pad], faces.mass[pad], faces.trace_full[pad] = 0.0, 0.0, 0.0

    # one Gram of the basis values and gradients at the face points, a gradient
    # having degree p - 1 (a constant's is 0: any positive divisor does), and
    # the lever n_F . (x - x_T), constant on a face, averaged over its points
    lever = ((points - geom.barycenter[:, None, None]) @ geom.face_normals[..., None]).mean(axis=2)
    w = (faces.weights * lever).reshape(nb, -1, 1)
    deg = rec_basis.exponents.sum(axis=1)
    deg = np.concatenate([deg, np.repeat(deg - 1, d)])
    V = np.concatenate([fphi, fdphi.reshape(nb, -1, n_rec * d)], axis=-1)
    gram = (V.mT @ (w * V)) / np.maximum(d + deg[:, None] + deg, 1)
    gram = 0.5 * (gram + gram.mT)
    # copies, so that the context holds no view of the whole gram
    n_k = basis_size(k, d)
    mass_full = gram[:, :n_rec, :n_rec].copy()
    grad_mass = gram[:, n_rec:, :n_k].reshape(nb, n_rec, d, n_k).copy()
    grad_gram = gram[:, n_rec:, n_rec:].reshape(nb, n_rec, d, n_rec, d).copy()
    # Jacobi scaling: no diagonal rescaling of the basis changes the measure (van der Sluis)
    s = 1.0 / np.sqrt(np.diagonal(mass_full, axis1=1, axis2=2))
    lam = np.linalg.eigvalsh(s[:, :, None] * mass_full * s[:, None, :])
    bad = np.flatnonzero(lam[:, 0] * COND_LIMIT < lam[:, -1])   # also a round-off lam_min <= 0
    if len(bad):
        b = bad[0]
        cond = lam[b, -1] / lam[b, 0] if lam[b, 0] > 0 else np.inf
        raise ValueError(
            f"cell {cells[b]}: mass-matrix condition number {cond:.2e} (diagonally "
            f"scaled) exceeds {COND_LIMIT:.0e}; reduce the degree or the aspect ratio")
    mass_k_inv = mass_cholesky(mass_full[:, :n_k, :n_k], cells)
    return CellContext(mesh=mesh, cells=cells, geom=geom, degrees=degrees,
                       layout=layout, rec_basis=rec_basis, mass_full=mass_full,
                       stiff_full=np.trace(grad_gram, axis1=2, axis2=4),
                       ints_full=mass_full[:, 0], grad_mass=grad_mass,
                       grad_gram=grad_gram, mass_k_inv=mass_k_inv, faces=faces)


# ---------------------------------------------------------------------------
# reconstruction


def constrained_projection(ctx: CellContext, K: np.ndarray, C: np.ndarray, D: np.ndarray,
                           H: np.ndarray, what: str):
    """A reconstruction ``x``, ``K x = H`` pinned by ``C x = D``, and ``F``.

    The constraint rows ``C`` are one-to-one on the kernel of the Gram ``K``,
    where ``H`` vanishes, so the saddle's multipliers are zero and ``x``
    solves ``(K + C^T C) x = H + C^T D`` (``C``, ``D`` divided by ``|T|``)
    with that matrix's inverse Cholesky factor ``F``; a failure names the
    cell with ``what``.  ``(F H)^T (F H) = x^T K x`` is the consistency matrix.
    """
    C, D = (X / ctx.geom.measure[:, None, None] for X in (C, D))
    F = spd_inverse(K + C.mT @ C, ctx.cells, what=what)
    return F.mT @ (F @ (H + C.mT @ D)), F


def reconstruction(ctx: CellContext):
    """Potential reconstruction ``(R_full, A)``, stacked over the group.

    ``R v`` is the projection of ``G v`` onto gradients of degree k+1:
    ``(grad R v, grad w) = (G v, grad w)`` is exact because ``grad w`` has
    degree k, so the right-hand side is ``H = sum_c (d_c w, phi_k) G_c``.
    The mean of ``R v`` is that of ``v_T``, and ``R_full @ v`` are coefficients
    in the full degree-(k+1) basis; ``A`` is the consistency stiffness.
    """
    H = _gradient_moments(ctx, gradient_reconstruction(ctx))
    D = np.zeros((len(ctx.cells), 1, ctx.layout.size))
    D[:, 0, ctx.layout.cell] = ctx.ints_full[:, : ctx.n_cell]
    R_full, F = constrained_projection(ctx, ctx.stiff_full, ctx.ints_full[:, None], D, H,
                                       what="singular reconstruction system")
    FH = F @ H
    return R_full, FH.mT @ FH


def gradient_reconstruction(ctx: CellContext) -> np.ndarray:
    """Gradient reconstruction into vector polynomials of the face degree.

    ``G`` acts on the scalar DoF layout of the cell whatever the field
    rank: its shape is ``(nb, d, n_k, size // rank)``, and component ``c``
    of the reconstructed gradient of a scalar field ``v`` has coefficients
    ``G[:, c] @ v``.  A vector field's gradient is ``G`` applied to each
    component (``G`` tensorized with the identity).
    """
    n_k, n_cell, f = ctx.n_k, ctx.n_cell, ctx.faces
    nb, nf, d = f.normal.shape
    n = f.normal.mT                                           # (nb, d, nf)
    wq = (f.weights[..., None] * f.phi[..., :n_k]).mT         # (nb, nf, n_k, nq)
    # (grad v_T, q) - sum_F (v_T - v_F, q n)_F: the only assembly of the face terms
    cell = ctx.grad_mass[:, :n_cell].transpose(0, 2, 3, 1) - (
        n @ (wq @ f.phi[..., :n_cell]).reshape(nb, nf, -1)).reshape(nb, d, n_k, n_cell)
    face = n[:, :, None, :, None] * (wq @ f.psi).transpose(0, 2, 1, 3)[:, None]
    rhs = np.concatenate([cell, face.reshape(nb, d, n_k, -1)], axis=-1)
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
    """``kron(M, I_rank) @ X`` for stacks ``M`` (..., m, n) and ``X`` with
    the same stack axes, whose next axis interleaves the rank; the rank is
    that axis' length over ``n``."""
    lead, (m, n) = M.shape[:-2], M.shape[-2:]
    rank, tail = X.shape[len(lead)] // n, X.shape[len(lead) + 1:]
    Y = M @ X.reshape(lead + (n, rank * int(np.prod(tail))))
    return Y.reshape(lead + (m * rank,) + tail)


# ---------------------------------------------------------------------------
# stabilization


def _face_ops(ctx: CellContext, proj: np.ndarray):
    """Face operators ``S_F v = Pi_F w - v_F`` from the face projections
    ``proj`` (nb, nf, face_width, size) of a cell polynomial ``w``, and
    their penalty ``sum_F h^-1 (S_F v, S_F v)_F``.  Returns ``(face_ops,
    penalty)``, the operators on the face axis like ``proj``."""
    layout, nb = ctx.layout, len(proj)
    unknown = np.eye(layout.size)[layout.faces].reshape(layout.n_faces, layout.face_width, -1)
    S = proj - (ctx.geom.face_measures > 0)[..., None, None] * unknown
    MS = _kron_apply(ctx.faces.mass, S)
    penalty = S.reshape(nb, -1, layout.size).mT @ MS.reshape(nb, -1, layout.size)
    penalty = penalty / ctx.h[:, None, None]
    return S, 0.5 * (penalty + penalty.mT)


def stabilization_ls(ctx: CellContext):
    """Lehrenfeld-Schoberl stabilization: project the cell trace, subtract
    the face unknown.  Returns ``(face_ops, penalty)``."""
    layout, rank, f = ctx.layout, ctx.degrees.rank, ctx.faces
    P = f.mass_inv @ f.trace_full[..., : ctx.n_cell]
    proj = np.zeros(P.shape[:2] + (layout.face_width, layout.size))
    for a in range(rank):       # kron(P, I_rank) in the cell columns
        proj[:, :, a::rank, a:layout.cell_width:rank] = P
    return _face_ops(ctx, proj)


def stabilization_equal_order(ctx: CellContext, rec: np.ndarray):
    """Equal-order stabilization including the reconstruction correction.

    ``rec`` is the full reconstruction (``R_full`` for the scalar problem,
    the displacement reconstruction for elasticity).
    """
    if ctx.degrees.mixed:
        raise ValueError("equal-order stabilization requires k_cell == k_face")
    layout, f = ctx.layout, ctx.faces
    # w = rec v + v_T - Pi_T(rec v); in equal order the cell mass is the degree-k one
    w = rec.copy()
    w[:, layout.cell] -= _kron_apply(ctx.mass_k_inv,
                                     _kron_apply(ctx.mass_full[:, : ctx.n_cell], rec))
    w[:, layout.cell, layout.cell] += np.eye(layout.cell_width)
    P = (f.mass_inv @ f.trace_full).reshape(len(w), -1, ctx.n_rec)
    return _face_ops(ctx, _kron_apply(P, w).reshape(f.normal.shape[:2] + (layout.face_width, -1)))


def seminorm_gram(ctx: CellContext) -> np.ndarray:
    """Gram matrix of the H1-like seminorm |grad v_T|^2 + h^-1 |v_T - v_F|^2."""
    layout, f, n_cell = ctx.layout, ctx.faces, ctx.n_cell
    nb, nf, nq, _ = f.psi.shape
    # the trace gaps v_T - v_F at every face point of the cell
    D = np.zeros((nb, nf, nq, layout.size))
    D[..., layout.cell] = f.phi[..., :n_cell]
    D[..., layout.faces] = -(f.psi[:, :, :, None] * np.eye(nf)[:, None, :, None]).reshape(
        nb, nf, nq, -1)
    D = D.reshape(nb, nf * nq, -1)
    N = D.mT @ (f.weights.reshape(nb, -1, 1) * D) / ctx.h[:, None, None]
    N[:, layout.cell, layout.cell] += ctx.stiff_full[:, :n_cell, :n_cell]
    return 0.5 * (N + N.mT)


# ---------------------------------------------------------------------------
# bundled operators


@dataclass
class LocalOperators:
    """What solve and post-processing read of a group's operators, each
    stacked over the cells of ``ctx``."""

    ctx: CellContext
    L: np.ndarray             # local bilinear-form matrices
    stab_face: np.ndarray     # (nb, n_faces, face_width, size) face operators S_F
    rec: np.ndarray           # full reconstruction, coefficients in ctx.rec_basis
    flux: np.ndarray          # (nb, n_faces * face_width, size) face-flux coefficients
    balance: np.ndarray       # cell consistency tested with degree-k_face polynomials

    def face_fluxes(self, dofs: np.ndarray, shapes) -> np.ndarray:
        """Coefficients ``(nb, n_faces, face_width)`` of the numerical flux
        of ``dofs`` (one local vector, or one per cell) on each local face;
        cell ``b`` takes the operators at row ``shapes[b]``."""
        flux = (self.flux[shapes] @ dofs[..., None])[..., 0]
        return flux.reshape(len(flux), self.ctx.layout.n_faces, -1)


def _face_flux(ctx: CellContext, field: np.ndarray, stab_face: np.ndarray,
               weight: np.ndarray) -> np.ndarray:
    """Equilibrated face fluxes, stacked by face.

    ``field`` holds the degree-k coefficient maps of the columns of the
    consistency field ``tau`` (``grad R`` or ``sigma(E)``), laid out as in
    :func:`_gradient_moments`; its face moments give the consistency flux
    ``-(tau n, psi)_F``.  The stabilization, scaled by ``weight`` (``1/h``
    or ``2 mu/h`` per cell), adds its adjoint acting on the face unknowns.
    Each face block is then solved with its face mass.
    """
    f, (nb, nf, _, size) = ctx.faces, stab_face.shape
    S = stab_face.reshape(nb, -1, size)
    MS = _kron_apply(f.mass, stab_face).reshape(nb, -1, size)
    stab = weight[:, None, None] * (S[:, :, ctx.layout.faces].mT @ MS)
    tau_n = (f.normal @ field.reshape(nb, field.shape[1], -1)).reshape(
        (nb, nf) + field.shape[2:])
    consistency = _kron_apply(f.trace_full[..., : ctx.n_k], tau_n)
    return -_kron_apply(f.mass_inv, consistency + stab.reshape(stab_face.shape)).reshape(
        nb, -1, size)


def _bundle(ctx: CellContext, consistency: np.ndarray, stab, scale: float,
            rec: np.ndarray, field: np.ndarray) -> LocalOperators:
    """:class:`LocalOperators` with ``L = consistency + scale penalty``; the
    fluxes and balance read the degree-k maps ``field`` of ``grad R`` or
    ``sigma`` (:func:`_gradient_moments`), the stabilization weighs ``scale / h``."""
    stab_face, penalty = stab
    L = consistency + scale * penalty
    L = 0.5 * (L + L.mT)
    return LocalOperators(
        ctx=ctx, L=L, stab_face=stab_face, rec=rec,
        flux=_face_flux(ctx, field, stab_face, scale / ctx.h),
        balance=_gradient_moments(ctx, field)[:, : ctx.degrees.rank * ctx.n_k])


def local_bilinear(ctx: CellContext) -> LocalOperators:
    """Full local matrix ``L = A + penalty`` with its face fluxes; the
    stabilization is Lehrenfeld-Schoberl in mixed order, else the
    reconstruction-corrected one."""
    R_full, A = reconstruction(ctx)
    stab = (stabilization_ls(ctx) if ctx.degrees.mixed
            else stabilization_equal_order(ctx, R_full))
    nb, n_rec, d, n_k = ctx.grad_mass.shape
    # exact degree-k coefficients of grad R, whose degree is k
    grad_R = ctx.mass_k_inv[:, None] @ (
        ctx.grad_mass.reshape(nb, n_rec, -1).mT @ R_full).reshape(nb, d, n_k, -1)
    return _bundle(ctx, A, stab, 1.0, R_full, grad_R)
