"""Cell-local operators shared by the scalar and the vector problem.

For each cell this module builds, in the monomial bases of the hybrid
unknowns, the full-polynomial gradient reconstruction ``G``, the
potential reconstruction of one degree higher, one stabilization for
every cell degree, and the one local form.  The hybrid
face terms are assembled once, in ``G``: the potential reconstruction is
the gradient of degree k+1 nearest to ``G`` in the degree-k mass norm, a
least-squares fit through that mass' Cholesky factor, shared with the
displacement reconstruction.  The local form pairs a degree-k field map
``T`` with its image ``CT`` under a constant material law, ``(CT v, T w)``,
and reads the cell balance from ``CT``: Poisson's is ``(G v, G w)``.  The
face fluxes are its face rows: tested with ``psi`` on a face ``F`` it is
``-(flux_F(v), psi)_F``.  The cell mass Gram is a face sum: no cell rule.
Its one Cholesky factor, of degree k+1, gives every mass inverse and
projection of a lower degree through its leading blocks.

Every operator is built for a group of cells that share one quadrature
class (see :meth:`pyhho.mesh.Mesh.cell_groups`): arrays carry a leading
cell axis, and face data a face axis after it, built once per distinct
face of the group.  Sums over the faces are contractions over that axis,
not loops.  A single cell is a group of one.  The group's
:class:`CellContext` is build-only: :class:`LocalOperators` keeps copies
of the few arrays that the solve, the checks and the error norms read,
and the context dies with the build.

All matrices act on local DoF vectors laid out as ``[T | F_1 | ... | F_n]``.
The stabilization serves scalar (rank 1) and 2D vector (rank 2) unknowns
alike: a vector block is the scalar block tensorized with the identity,
``kron(M, I_rank)``, and components interleave inside each block.  The
gradient reconstruction is always built on the scalar layout;
:mod:`pyhho.elasticity` applies it to each displacement component and
takes the symmetric part as the strain.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .basis import Basis, basis_size, face_basis, scaled_monomial_basis
from .mesh import CellGeometry, Mesh
from .projection import DofLayout, HhoDegrees, dof_layout, lower_inverse, mass_cholesky
# unused here; perfbench/tracing.py resolves pyhho.local_ops.cell_quadrature by name
from .quadrature import cell_quadrature, face_quadrature  # noqa: F401

COND_LIMIT = 1e12
log = logging.getLogger("pyhho")


@dataclass
class FaceContext:
    """A group's face data on a face axis after the cell axis, built once per
    distinct face and gathered; only ``phi`` and ``trace_full`` depend on the
    cell.  Build-only, like its :class:`CellContext`."""

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
    operators while they are built; each array depends only on the cells'
    shapes.  Build-only: :class:`LocalOperators` keeps what later stages read."""

    mesh: Mesh
    cells: np.ndarray        # (nb,) cell indices of the group
    geom: CellGeometry
    degrees: HhoDegrees
    layout: DofLayout
    rec_basis: Basis
    mass_full: np.ndarray    # (nb, n_rec, n_rec)
    grad_maps: np.ndarray    # (nb, d, n_k, n_rec) D: d_c phi_i = sum_l D[c, l, i] phi_l, l < n_k
    mass_factor: np.ndarray  # (nb, n_rec, n_rec) Cholesky factor L of mass_full = L L^T
    cell_inv_factor: np.ndarray  # (nb, n_cell, n_cell) F_c: the cell-degree block of L^-1
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

    @property
    def ints_full(self) -> np.ndarray:
        """(nb, n_rec) integrals of the basis functions, ``(phi_i, phi_0)`` as ``phi_0 = 1``."""
        return self.mass_full[:, 0]


def build_cell_context(mesh: Mesh, cells, degrees: HhoDegrees) -> CellContext:
    """Face data and Gram matrices of a group of cells of one quadrature
    class (one cell index: a group of one), from face quadrature alone.

    By Euler's theorem for the mapped monomials, homogeneous about ``x_T``,
    a mass Gram entry ``int_T q`` with ``q`` of degree ``p`` is ``sum_F (n_F .
    (x - x_T)) int_F q / (d + p)``, exact at the order-``2(k+1)`` face points.
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
    psi = face_basis(mesh, unique, k).eval(frule.points)
    wpsi = frule.weights[..., None] * psi
    M = wpsi.mT @ psi
    M = 0.5 * (M + M.mT)
    M_inv = mass_cholesky(M, ids=unique, entity="face")
    nb, nf, d = geom.face_normals.shape
    points = frule.points[at]                                   # (nb, nf, nq, d)
    fphi = rec_basis.eval(points.reshape(nb, -1, d))
    n_rec = rec_basis.size
    phi = fphi.reshape(nb, nf, -1, n_rec)
    faces = FaceContext(normal=geom.face_normals, weights=frule.weights[at], psi=psi[at],
                        phi=phi, mass=M[at], mass_inv=M_inv[at], trace_full=wpsi[at].mT @ phi)
    pad = geom.face_measures == 0    # a padded slot weighs nothing: its DoFs read exact zeros
    faces.weights[pad], faces.mass[pad], faces.trace_full[pad] = 0.0, 0.0, 0.0

    # the mass Gram of the values at the face points, with the lever n_F . (x -
    # x_T), constant on a face, averaged over its points
    lever = ((points - geom.barycenter[:, None, None]) @ geom.face_normals[..., None]).mean(axis=2)
    w = (faces.weights * lever).reshape(nb, -1, 1)
    deg = rec_basis.exponents.sum(axis=1)
    mass_full = (fphi.mT @ (w * fphi)) / (d + deg[:, None] + deg)
    mass_full = 0.5 * (mass_full + mass_full.mT)
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
    L, F = mass_cholesky(mass_full, cells, factor=True)
    n_c = basis_size(degrees.k_cell, d)
    return CellContext(mesh=mesh, cells=cells, geom=geom, degrees=degrees,
                       layout=layout, rec_basis=rec_basis, mass_full=mass_full,
                       grad_maps=rec_basis.derivatives()[..., :basis_size(k, d), :].copy(),
                       mass_factor=L, cell_inv_factor=F[:, :n_c, :n_c].copy(), faces=faces)


# ---------------------------------------------------------------------------
# reconstruction


def constrained_projection(ctx: CellContext, B: np.ndarray, h: np.ndarray, C: np.ndarray,
                           D: np.ndarray, what: str) -> np.ndarray:
    """A reconstruction ``x``, the least-squares solution of ``B x = h`` pinned
    by ``C x = D`` (both divided by ``|T|``), one-to-one on the kernel of ``B``.

    One batched QR of ``[B h; C D]`` gives the triangle ``R`` of ``[B; C]`` and
    ``Q^T [h; D]`` side by side, so ``x = R^-1 Q^T [h; D]``: no normal matrix,
    no squared condition number.  An ``r_ii`` not finite or at most ``n eps``
    times the norm of column ``i``, a pivot below a Cholesky factor's
    round-off, raises a ``ValueError`` naming the cell.
    """
    nb, m, n = B.shape
    A = np.empty((nb, m + C.shape[1], n + h.shape[-1]))
    A[:, :m, :n], A[:, :m, n:] = B, h
    A[:, m:] = np.concatenate([C, D], axis=-1) / ctx.geom.measure[:, None, None]
    tiny = n * np.finfo(float).eps * np.sqrt(np.einsum("bij,bij->bj", A[..., :n], A[..., :n]))
    R = np.linalg.qr(A, mode="raw")[0].mT[:, :n]    # [R | Q^T rhs] in the upper triangle
    r = np.abs(np.diagonal(R, axis1=1, axis2=2))
    bad = np.flatnonzero(~(r > tiny).all(axis=1))      # a NaN fails the comparison too
    if len(bad):
        raise ValueError(f"cell {ctx.cells[bad[0]]}: singular {what} system")
    if log.isEnabledFor(logging.DEBUG):
        ratio = r.max(axis=1) / r.min(axis=1)
        log.debug("%s: largest max|r_ii| / min|r_ii| %.3e (a lower bound on the condition "
                  "number) at cell %d", what, ratio.max(), ctx.cells[np.argmax(ratio)])
    return lower_inverse(R[..., :n].mT).mT @ R[..., n:]


def _mass_rows(ctx: CellContext, X: np.ndarray, weights=1.0) -> np.ndarray:
    """Rows ``Lam^T X_c`` (nb, c n_k, m), ``M_k = Lam Lam^T`` (the leading block of
    ``mass_factor``), of degree-k maps ``X`` (nb, c, n_k, m) times ``weights``:
    their dot products are the sums of ``(X_c v, X_c w)``."""
    lam = ctx.mass_factor[:, None, : ctx.n_k, : ctx.n_k]
    return (weights * (lam.mT @ X)).reshape(len(X), -1, X.shape[-1])


def reconstruction(ctx: CellContext, rows: np.ndarray | None = None) -> np.ndarray:
    """Potential reconstruction ``R_full``, stacked over the group.

    ``grad R v`` is the gradient of degree k+1 nearest to ``G v``: the rows
    (:func:`_mass_rows`) of ``grad_maps x`` fit ``rows``, those of ``G v``, so
    ``(grad R v, grad w) = (G v, grad w)``, exact as ``grad w`` has degree k.
    The mean of ``R v`` is that of ``v_T``, and ``R_full @ v`` are coefficients
    in the full degree-(k+1) basis.  ``rows`` are built here unless passed in.
    """
    if rows is None:
        rows = _mass_rows(ctx, gradient_reconstruction(ctx))
    D = np.zeros((len(ctx.cells), 1, ctx.layout.size))
    D[:, 0, ctx.layout.cell] = ctx.ints_full[:, : ctx.n_cell]
    return constrained_projection(ctx, _mass_rows(ctx, ctx.grad_maps), rows,
                                  ctx.ints_full[:, None], D, what="reconstruction")


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
    # -sum_F (v_T - v_F, q n)_F: the only assembly of the face terms
    cell = -(n @ (wq @ f.phi[..., :n_cell]).reshape(nb, nf, -1)).reshape(nb, d, n_k, n_cell)
    face = n[:, :, None, :, None] * (wq @ f.psi).transpose(0, 2, 1, 3)[:, None]
    F = ctx.cell_inv_factor[:, None, :n_k, :n_k]          # M_k^-1 = F_k^T F_k
    G = (F.mT @ F) @ np.concatenate([cell, face.reshape(nb, d, n_k, -1)], axis=-1)
    G[..., :n_cell] += ctx.grad_maps[..., :n_cell]    # (grad v_T, q): grad v_T has degree <= k
    return G


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


def stabilization_equal_order(ctx: CellContext, rec: np.ndarray):
    """The stabilization of every cell degree, ``S_F v = Pi_F(rec v + v_T -
    Pi_T rec v) - v_F``.  Returns ``(face_ops, penalty)``.

    ``rec`` is the full reconstruction (``R_full`` for the scalar problem,
    the displacement reconstruction for elasticity), and ``Pi_T`` the L2
    projection onto the cell degree.  With ``mass_full = L L^T`` split at the
    cell degree, ``Pi_T = [I | F_c^T L21^T]``, ``F_c`` the leading block of
    ``L^-1``.  In mixed order ``L21`` has no rows, so the cell polynomial is
    ``v_T`` and ``S_F`` is Lehrenfeld-Schoberl's.
    """
    layout, f, n_c, rank = ctx.layout, ctx.faces, ctx.n_cell, ctx.degrees.rank
    nb, size = len(rec), layout.size
    L21, F_c = ctx.mass_factor[:, n_c:, :n_c], ctx.cell_inv_factor
    rec_hi = rec[:, layout.cell_width:].reshape(nb, ctx.n_rec - n_c, rank * size)
    # the cell rows of w = rec v + v_T - Pi_T(rec v); its others are rec's
    w = rec.copy()
    w[:, layout.cell] = -(F_c.mT @ (L21.mT @ rec_hi)).reshape(nb, layout.cell_width, size)
    w[:, layout.cell, layout.cell] += np.eye(layout.cell_width)
    P = (f.mass_inv @ f.trace_full).reshape(nb, -1, ctx.n_rec)
    return _face_ops(ctx, _kron_apply(P, w).reshape(f.normal.shape[:2] + (layout.face_width, -1)))


# unused here; perfbench/tracing.py wraps this name as local_ops.stabilization,
# so it stays until those sites change (ROADMAP item 1b deletes it)
stabilization_ls = stabilization_equal_order


# ---------------------------------------------------------------------------
# bundled operators


@dataclass
class LocalOperators:
    """What solve and post-processing read of a group's operators and data,
    each stacked over the representative ``cells``; no field is a view of
    the build's :class:`CellContext`, which dies with the build."""

    layout: DofLayout
    cells: np.ndarray         # (nb,) cell indices
    rec_basis: Basis          # the cell basis of degree k+1 of rec
    h: np.ndarray             # (nb,) cell diameters
    real_faces: np.ndarray    # (nb, n_faces) False at a padded slot
    face_mass: np.ndarray     # (nb, n_faces, n_face, n_face)
    face_mass_inv: np.ndarray  # (nb, n_faces, n_face, n_face)
    trace: np.ndarray         # (nb, n_faces, n_face, n_k): sum_q w psi phi^T, phi of degree <= k
    cell_inv_factor: np.ndarray  # (nb, n_cell, n_cell) F_c: the cell mass' inverse is F_c^T F_c
    L: np.ndarray             # local bilinear-form matrices
    stab_face: np.ndarray     # (nb, n_faces, face_width, size) face operators S_F
    rec: np.ndarray           # full reconstruction, coefficients in rec_basis
    balance: np.ndarray       # cell consistency tested with degree-k_face polynomials

    def face_fluxes(self, dofs: np.ndarray, shapes) -> np.ndarray:
        """Coefficients ``(nb, n_faces, face_width)`` of the numerical flux
        of ``dofs`` (one local vector, or one per cell) on each local face;
        cell ``b`` takes the operators at row ``shapes[b]``.  The local form
        tested with ``psi`` on face ``F`` is ``-(flux_F(v), psi)_F``, so the
        flux is ``-kron(M_F^-1, I_rank) (L v)_F`` (zero at a padded slot)."""
        Lv = (self.L[:, self.layout.faces][shapes] @ dofs[..., None])[..., 0]
        Lv = Lv.reshape(len(Lv), self.layout.n_faces, -1)
        return -_kron_apply(self.face_mass_inv[shapes], Lv)


def _bundle(ctx: CellContext, tests: np.ndarray, T: np.ndarray, CT: np.ndarray, stab,
            scale: float, rec: np.ndarray) -> LocalOperators:
    """The local form: :class:`LocalOperators` with ``L = T^T CT + scale
    penalty``.  ``T`` maps the DoFs to the :func:`_mass_rows` of the field
    (``G``; the strain), ``CT`` to those of its image under the material
    law (``G``; the stress), and ``tests`` are the field's rows of the
    degree-k test functions, which read the balance from ``CT``."""
    stab_face, penalty = stab
    L = T.mT @ CT + scale * penalty
    L = 0.5 * (L + L.mT)
    f, basis = ctx.faces, ctx.rec_basis
    return LocalOperators(
        L=L, stab_face=stab_face, rec=rec, balance=tests.mT @ CT,
        layout=ctx.layout, cells=ctx.cells.copy(), h=ctx.h.copy(),
        rec_basis=replace(basis, center=basis.center.copy(), map=basis.map.copy()),
        real_faces=ctx.geom.face_measures > 0, face_mass=f.mass, face_mass_inv=f.mass_inv,
        trace=f.trace_full[..., : ctx.n_k].copy(),
        cell_inv_factor=ctx.cell_inv_factor)


def local_bilinear(ctx: CellContext) -> LocalOperators:
    """Full local matrix ``L = (G v, G w) + penalty``, the penalty of the one
    reconstruction-corrected stabilization."""
    X = _mass_rows(ctx, gradient_reconstruction(ctx))
    R_full = reconstruction(ctx, X)
    stab = stabilization_equal_order(ctx, R_full)
    return _bundle(ctx, _mass_rows(ctx, ctx.grad_maps[..., : ctx.n_k]), X, X, stab, 1.0, R_full)
