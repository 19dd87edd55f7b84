"""Global numbering, static condensation, assembly, and the sparse solve.

Cell unknowns are eliminated through the Schur complement of each cell
block, one group of cells at a time and one factorization per distinct
cell shape, leaving a symmetric positive-definite system coupling only
the face unknowns of non-Dirichlet faces.  Dirichlet faces are removed by
elimination; their projected data enters the right-hand side.  Assembly
builds the sparse matrix in one call from the per-cell global index
vectors, walking groups and their cells in a fixed order, so results are
bit-reproducible.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .projection import DofLayout, HhoDegrees, cell_faces, checked, dof_layout

CG_MAXITER = 20000

log = logging.getLogger("pyhho")


@dataclass
class DofMap:
    """Face-based numbering with Dirichlet faces split off into a data block."""

    mesh: Mesh
    degrees: HhoDegrees
    face_width: int
    offsets: np.ndarray        # per face: offset into the reduced system, -1 if Dirichlet
    dirichlet: np.ndarray      # boolean mask
    n_reduced: int

    def face_slice(self, face: int) -> slice:
        off = self.offsets[face]
        if off < 0:
            raise KeyError(f"face {face} is a Dirichlet face")
        return slice(off, off + self.face_width)


def build_dof_map(mesh: Mesh, degrees: HhoDegrees) -> DofMap:
    """Number the face unknowns of the non-Dirichlet faces."""
    boundary = mesh.boundary_faces
    untagged = boundary & ~(mesh.dirichlet_faces | mesh.neumann_faces)
    if np.any(untagged):
        raise ValueError(
            f"untagged boundary faces: {np.flatnonzero(untagged).tolist()}")
    width = dof_layout(mesh, degrees, 1).face_width
    offsets = np.full(mesh.n_faces, -1, dtype=int)
    dirichlet = mesh.dirichlet_faces.copy()
    free = ~dirichlet
    offsets[free] = np.arange(int(free.sum())) * width
    return DofMap(mesh=mesh, degrees=degrees, face_width=width,
                  offsets=offsets, dirichlet=dirichlet,
                  n_reduced=int(free.sum()) * width)


@dataclass
class CondensedGroup:
    """Schur data of a group of cells: reduced matrices and right-hand
    sides, plus what recovers the cell unknowns, stacked over the cells."""

    cells: np.ndarray          # (nb,)
    layout: DofLayout
    L_c: np.ndarray            # (nb, n_face_dofs, n_face_dofs)
    b_c: np.ndarray            # (nb, n_face_dofs)
    X: np.ndarray              # (nb, cell_width, n_face_dofs): L_TT^-1 L_TF
    y: np.ndarray              # (nb, cell_width): L_TT^-1 b_T

    def recover(self, face_values: np.ndarray) -> np.ndarray:
        """Cell coefficients from the surrounding face coefficients."""
        return self.y - (self.X @ face_values[..., None])[..., 0]


def condense(L: np.ndarray, b: np.ndarray, layout: DofLayout, cells,
             shapes) -> CondensedGroup:
    """Eliminate the cell unknowns of a group of cells.

    ``L`` is stacked over the group's distinct shapes and ``b`` over its
    cells; ``shapes[i]`` is the row of ``L`` that serves ``cells[i]``, with
    shapes numbered in order of first cell (:meth:`pyhho.mesh.Mesh.cell_shapes`).
    Each shape's cell block is checked and factored once, and only ``y``
    and ``b_c`` are formed per cell.
    """
    cells, shapes = np.atleast_1d(cells), np.atleast_1d(shapes)
    ct, fc, cw = layout.cell, layout.faces, layout.cell_width
    L_TT, L_TF = L[:, ct, ct], L[:, ct, fc]
    # the factorization only checks that every cell block is positive definite;
    # an error names the first cell of the offending shape
    checked(np.linalg.cholesky, L_TT, ids=cells[np.unique(shapes, return_index=True)[1]],
            what="singular cell block during condensation "
                 "(broken local operator construction)")
    sol = np.linalg.solve(L_TT, np.concatenate(
        [L_TF, np.broadcast_to(np.eye(cw), L_TT.shape)], axis=2))
    X, L_TT_inv = sol[..., :-cw], sol[..., -cw:]
    L_c = L[:, fc, fc] - L_TF.mT @ X
    X = X[shapes]
    y = (L_TT_inv[shapes] @ b[:, ct, None])[..., 0]
    b_c = b[:, fc] - (X.mT @ b[:, ct, None])[..., 0]
    return CondensedGroup(cells=cells, layout=layout, L_c=0.5 * (L_c + L_c.mT)[shapes],
                          b_c=b_c, X=X, y=y)


@dataclass
class GlobalSystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray
    dofmap: DofMap


def _face_dofs(mesh: Mesh, cells, dofmap: DofMap):
    """Faces ``(nb, n_faces)`` of a group and the reduced index of each of
    its local face DoFs ``(nb, n_faces * face_width)``, -1 if Dirichlet."""
    faces = cell_faces(mesh, cells)
    off = dofmap.offsets[faces]
    dofs = off[..., None] + np.arange(dofmap.face_width)
    dofs = np.where(off[..., None] >= 0, dofs, -1)
    return faces, dofs.reshape(len(faces), -1)


def _free_face_rows(dofmap: DofMap):
    """Non-Dirichlet faces and the reduced rows ``(n_free, face_width)``."""
    free = np.flatnonzero(dofmap.offsets >= 0)
    return free, dofmap.offsets[free, None] + np.arange(dofmap.face_width)


def assemble(mesh: Mesh, condensed: list, dofmap: DofMap,
             dirichlet_values: np.ndarray | None = None,
             extra_face_rhs: np.ndarray | None = None) -> GlobalSystem:
    """Accumulate condensed group contributions into the reduced system.

    ``dirichlet_values`` holds projected boundary data per face (rows for
    non-Dirichlet faces are ignored); eliminated columns move to the
    right-hand side.  ``extra_face_rhs`` carries Neumann contributions,
    indexed like ``dirichlet_values``.
    """
    n = dofmap.n_reduced
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for cg in condensed:
        faces, dofs = _face_dofs(mesh, cg.cells, dofmap)
        free = dofs >= 0
        b = cg.b_c
        if dirichlet_values is not None:
            fixed = np.where(free, 0.0, dirichlet_values[faces].reshape(free.shape))
            b = b - (cg.L_c @ fixed[..., None])[..., 0]
        rhs += np.bincount(dofs[free], weights=b[free], minlength=n)
        pairs = free[:, :, None] & free[:, None, :]
        rows.append(np.broadcast_to(dofs[:, :, None], pairs.shape)[pairs])
        cols.append(np.broadcast_to(dofs[:, None, :], pairs.shape)[pairs])
        vals.append(cg.L_c[pairs])
    if extra_face_rhs is not None:
        free, face_rows = _free_face_rows(dofmap)
        rhs[face_rows] += extra_face_rhs[free]
    matrix = sp.coo_matrix(
        (np.concatenate(vals or [np.zeros(0)]),
         (np.concatenate(rows or [np.zeros(0, int)]),
          np.concatenate(cols or [np.zeros(0, int)]))),
        shape=(n, n)).tocsc()
    return GlobalSystem(matrix=matrix, rhs=rhs, dofmap=dofmap)


def solve_reduced(system: GlobalSystem, method: str = "direct",
                  tol: float = 1e-12) -> np.ndarray:
    """Solve the reduced face system: sparse direct, or two-level
    preconditioned CG (:func:`_two_level_cg`)."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"solver tolerance must be positive and finite, got {tol!r}")
    A, b = system.matrix, system.rhs
    if A.shape[0] == 0:
        return np.zeros(0)
    asym = abs(A - A.T).max()
    if asym > 1e-12 * max(abs(A).max(), 1.0):
        raise ValueError(f"reduced system is not symmetric (deviation {asym:.2e})")
    start = time.perf_counter()
    if method == "direct":
        lu = _factor(A.tocsc(), "reduced system")
        x = lu.solve(b)
        log.debug("face solve: direct, %d reduced DoFs, %d nonzeros, L+U fill %d "
                  "(%.1fx), %.4f s", A.shape[0], A.nnz, lu.nnz, lu.nnz / A.nnz,
                  time.perf_counter() - start)
        return x
    if method == "cg":
        A = A.tocsr()
        M1 = _block_jacobi(A, _vertex_patches(system.dofmap))
        P = _auxiliary_space(system.dofmap)
        lu = _factor((P.T @ (A @ P)).tocsc(), "auxiliary coarse system")
        setup = time.perf_counter()
        x, iters, res = _two_level_cg(A, b, M1, P, lu, tol)
        log.debug("face solve: cg, %d reduced DoFs, %d nonzeros, auxiliary space %d, "
                  "%d iterations, relative residual %.2e, setup %.4f s, loop %.4f s",
                  A.shape[0], A.nnz, P.shape[1], iters, res, setup - start,
                  time.perf_counter() - setup)
        return x
    raise ValueError(f"unknown solver {method!r}")


def _factor(A: sp.csc_matrix, what: str):
    """SuperLU factor of an SPD matrix: diagonal pivots keep the
    minimum-degree ordering of the pattern; a singular factor is a
    ``ValueError``."""
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as err:
        raise ValueError(f"{what} is singular: {err}") from err


def _two_level_cg(A: sp.csr_matrix, b: np.ndarray, M1, P: sp.csc_matrix, lu, tol: float):
    """Preconditioned CG with the A-DEF2 two-level preconditioner.

    With the coarse correction ``C = P A_0^-1 P^T`` (``lu`` factors
    ``A_0 = P^T A P``), CG starts from ``x_0 = C b`` and preconditions
    with ``z = M1 r + C (r - A M1 r)`` (Tang, Nabben, Vuik and Erlangga,
    J. Sci. Comput. 2009): one application of ``M1``, one coarse solve and
    one extra product with ``A`` per iteration.  It stops when the
    recursive residual satisfies ``|r| <= tol |b|`` and returns ``(x,
    iterations, relative residual)``.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    PT = P.T

    def coarse(v):
        return P @ lu.solve(PT @ v)

    x = coarse(b)
    r = b - A @ x
    rnorm, stop = np.linalg.norm(r), tol * bnorm
    iters, rho_prev, p = 0, 1.0, np.zeros_like(b)
    while rnorm > stop:
        if iters == CG_MAXITER:
            res = np.linalg.norm(b - A @ x) / bnorm
            raise RuntimeError(f"CG did not reach rtol {tol:.1e} in {CG_MAXITER} "
                               f"iterations (relative residual {res:.2e})")
        w = M1.matvec(r)
        z = w + coarse(r - A @ w)
        rho = r @ z
        p = z + (rho / rho_prev) * p
        q = A @ p
        alpha = rho / (p @ q)
        x += alpha * p
        r -= alpha * q
        rho_prev, rnorm, iters = rho, np.linalg.norm(r), iters + 1
    return x, iters, rnorm / bnorm


def _vertex_patches(dofmap: DofMap) -> np.ndarray:
    """Reduced DoFs of the free faces around each mesh vertex, one row per
    vertex ``(n_vertices, max_valence * face_width)``, padded with -1."""
    mesh = dofmap.mesh
    free, face_rows = _free_face_rows(dofmap)
    vert = mesh.face_nodes[free].reshape(-1)
    order = np.argsort(vert, kind="stable")
    vert, face = vert[order], np.repeat(np.arange(len(free)), mesh.dim)[order]
    counts = np.bincount(vert, minlength=len(mesh.vertices))
    slot = np.arange(len(vert)) - (np.cumsum(counts) - counts)[vert]
    table = np.full((len(counts), counts.max(initial=1)), -1)
    table[vert, slot] = face
    return np.where(table[..., None] >= 0, face_rows[table], -1).reshape(len(counts), -1)


def _block_jacobi(A: sp.spmatrix, patches: np.ndarray) -> spla.LinearOperator:
    """Vertex-patch additive Schwarz preconditioner ``sum_v R_v^T A_vv^-1 R_v``.

    Row ``v`` of ``patches`` holds the reduced DoFs of patch ``v`` (-1 pads);
    the blocks are gathered, inverted and scattered into one sparse matrix
    in single batched calls.  With one face per patch (1D) this is block
    Jacobi.  ``perfbench/tracing.py`` counts CG iterations by wrapping this
    function by name.
    """
    pad = patches < 0
    idx = np.where(pad, 0, patches)
    n, m = idx.shape
    rows = np.broadcast_to(idx[:, :, None], (n, m, m))
    cols = np.broadcast_to(idx[:, None, :], (n, m, m))
    blocks = np.asarray(A[rows.reshape(-1), cols.reshape(-1)]).reshape(n, m, m)
    skip = pad[:, :, None] | pad[:, None, :]
    blocks = np.where(skip, np.eye(m), blocks)          # identity on the padding
    inv = checked(np.linalg.inv, blocks, ids=np.arange(n), entity="vertex",
                  what="singular patch block of the reduced system")
    keep = ~skip
    P = sp.csr_matrix((inv[keep], (rows[keep], cols[keep])), shape=A.shape)
    return spla.aslinearoperator(P)


def _auxiliary_space(dofmap: DofMap) -> sp.csc_matrix:
    """The two-level CG's auxiliary space ``P`` ``(n_reduced, m)``.

    Its columns are the lowest-order finite-element vertex hats, one per
    vertex and component, traced on the free faces: in the chart from
    ``face_nodes[f, 0]`` to ``face_nodes[f, 1]`` the trace of a hat has
    constant coefficient ``(phi(a) + phi(b)) / 2`` and linear coefficient
    ``(phi(b) - phi(a)) / 2`` (in 1D a face is a vertex and holds just the
    value).  For vector fields the curls of the hats of the vertices on no
    Dirichlet face follow, constant on each face: the cell gradient of a
    hat comes from Green's formula over the cell's faces, and the face
    value is the mean over the face's cells.  They span the discretely
    divergence-free fields that a coarse space robust in lambda needs (Lee,
    Wu, Xu and Zikatanov, M3AS 2007).  Only columns that touch a free face
    are kept.
    """
    mesh, rank, offsets = dofmap.mesh, dofmap.degrees.rank, dofmap.offsets
    n_vert, comp = len(mesh.vertices), np.arange(rank)
    free = np.flatnonzero(offsets >= 0)
    nodes = mesh.face_nodes[free]
    n_coef = min(2, dofmap.face_width // rank)
    # node j of a face: the mean 1/w in coefficient 0, the slope j - 1/2 in coefficient 1
    w = nodes.shape[1]
    value = np.where(np.arange(n_coef) == 0, 1.0 / w, np.arange(w)[:, None] - 0.5)
    shape = (len(free), w, n_coef, rank)
    rows = [np.broadcast_to(offsets[free, None, None, None] + rank * np.arange(n_coef)[:, None]
                            + comp, shape)]
    cols = [np.broadcast_to(rank * nodes[:, :, None, None] + comp, shape)]
    vals = [np.broadcast_to(value[:, :, None], shape)]
    if rank == 2:
        on_dirichlet = np.zeros(n_vert, dtype=bool)
        on_dirichlet[mesh.face_nodes[dofmap.dirichlet]] = True
        for cells in mesh.cell_groups():
            g = mesh.cell_geometry(cells)
            nb, nf = g.face_indices.shape
            # Green: grad phi_v = sum over the faces F at v of |F| n_F / (2 |T|)
            grad = g.face_measures[..., None] * g.face_normals / (2.0 * g.measure[:, None, None])
            # curl phi = (d_y phi, -d_x phi), one entry per face end (nb, 2 nf, 2)
            curl = np.repeat(grad[..., ::-1] * [1.0, -1.0], 2, axis=1)
            vert = mesh.face_nodes[g.face_indices].reshape(nb, 1, 2 * nf, 1)
            # each of the cell's faces takes its share of the mean over the face's cells
            off = offsets[g.face_indices][:, :, None, None]
            mean = 1.0 / (2 - mesh.boundary_faces[g.face_indices])[:, :, None, None]
            shape = (nb, nf, 2 * nf, 2)
            keep = np.broadcast_to((off >= 0) & ~on_dirichlet[vert], shape)
            rows.append(np.broadcast_to(off + comp, shape)[keep])
            cols.append(np.broadcast_to(2 * n_vert + vert, shape)[keep])
            vals.append((mean * curl[:, None])[keep])
    used, cols = np.unique(np.concatenate([c.ravel() for c in cols]), return_inverse=True)
    return sp.csc_matrix((np.concatenate([v.ravel() for v in vals]),
                          (np.concatenate([r.ravel() for r in rows]), cols)),
                         shape=(dofmap.n_reduced, len(used)))


def recover_cells(mesh: Mesh, condensed: list, dofmap: DofMap,
                  face_solution: np.ndarray,
                  dirichlet_values: np.ndarray | None = None):
    """Post-process cell unknowns and scatter face values per global face.

    Returns ``(cell_coeffs, face_coeffs)`` arrays of shapes
    ``(n_cells, cell_width)`` and ``(n_faces, face_width)``; the face array
    includes the Dirichlet data.
    """
    face_coeffs = np.zeros((mesh.n_faces, dofmap.face_width))
    if dirichlet_values is not None:
        face_coeffs[dofmap.dirichlet] = dirichlet_values[dofmap.dirichlet]
    free, face_rows = _free_face_rows(dofmap)
    face_coeffs[free] = face_solution[face_rows]
    cell_coeffs = np.zeros((mesh.n_cells, condensed[0].layout.cell_width))
    for cg in condensed:
        faces = cell_faces(mesh, cg.cells)
        cell_coeffs[cg.cells] = cg.recover(face_coeffs[faces].reshape(len(faces), -1))
    return cell_coeffs, face_coeffs


def solve_monolithic(mesh: Mesh, groups: list, dofmap: DofMap,
                     dirichlet_values: np.ndarray | None = None,
                     extra_face_rhs: np.ndarray | None = None):
    """Reference solve of the uncondensed cell+face system (dense).

    Used as an oracle for the static-condensation path; takes the cell
    groups of a solve (``cells``, ``shapes``, operators ``ops`` stacked by
    shape and sources ``rhs`` stacked by cell) and returns the same
    ``(cell_coeffs, face_coeffs)`` arrays as the condensed pipeline.
    """
    cw = dof_layout(mesh, dofmap.degrees, 1).cell_width
    n_cell_dofs = mesh.n_cells * cw
    total = n_cell_dofs + dofmap.n_reduced
    A = np.zeros((total, total))
    b = np.zeros(total)
    for g in groups:
        cells, L, bl = g.cells, g.ops.L[g.shapes], g.rhs
        faces, dofs = _face_dofs(mesh, cells, dofmap)
        idx = np.concatenate([cells[:, None] * cw + np.arange(cw),
                              np.where(dofs >= 0, n_cell_dofs + dofs, -1)], axis=1)
        keep = idx >= 0
        if dirichlet_values is not None:
            fixed = np.zeros(idx.shape)
            fixed[:, cw:] = dirichlet_values[faces].reshape(len(cells), -1)
            bl = bl - (L @ np.where(keep, 0.0, fixed)[..., None])[..., 0]
        pairs = keep[:, :, None] & keep[:, None, :]
        np.add.at(A, (np.broadcast_to(idx[:, :, None], pairs.shape)[pairs],
                      np.broadcast_to(idx[:, None, :], pairs.shape)[pairs]),
                  L[pairs])
        np.add.at(b, idx[keep], bl[keep])
    free, face_rows = _free_face_rows(dofmap)
    if extra_face_rhs is not None:
        b[n_cell_dofs + face_rows] += extra_face_rhs[free]
    x = np.linalg.solve(A, b)
    face_coeffs = np.zeros((mesh.n_faces, dofmap.face_width))
    if dirichlet_values is not None:
        face_coeffs[dofmap.dirichlet] = dirichlet_values[dofmap.dirichlet]
    face_coeffs[free] = x[n_cell_dofs + face_rows]
    return x[:n_cell_dofs].reshape(mesh.n_cells, cw), face_coeffs
