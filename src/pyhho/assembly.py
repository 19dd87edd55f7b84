"""Global numbering, static condensation, assembly, and the sparse solve.

Cell unknowns are eliminated through the Schur complement of each cell
block, one group of cells at a time, leaving a symmetric positive-definite
system coupling only the face unknowns of non-Dirichlet faces.  Dirichlet
faces are removed by elimination; their projected data enters the
right-hand side.  Assembly builds the sparse matrix in one call from the
per-cell global index vectors, walking groups and their cells in a fixed
order, so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .projection import DofLayout, HhoDegrees, cell_faces, checked, dof_layout

CG_MAXITER = 20000


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


def condense(L: np.ndarray, b: np.ndarray, layout: DofLayout, cells) -> CondensedGroup:
    """Eliminate the cell unknowns of a group of cells (stacked ``L``, ``b``)."""
    cells = np.atleast_1d(cells)
    ct, fc = layout.cell, layout.faces
    L_TT = L[:, ct, ct]
    L_TF = L[:, ct, fc]
    # the factorization only checks that every cell block is positive definite
    checked(np.linalg.cholesky, L_TT, ids=cells,
            what="singular cell block during condensation "
                 "(broken local operator construction)")
    sol = np.linalg.solve(L_TT, np.concatenate([L_TF, b[:, ct, None]], axis=2))
    X, y = sol[..., :-1], sol[..., -1]
    L_c = L[:, fc, fc] - L_TF.mT @ X
    b_c = b[:, fc] - (X.mT @ b[:, ct, None])[..., 0]
    return CondensedGroup(cells=cells, layout=layout, L_c=0.5 * (L_c + L_c.mT),
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
    """Solve the reduced face system (sparse direct or preconditioned CG)."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"solver tolerance must be positive and finite, got {tol!r}")
    A, b = system.matrix, system.rhs
    if A.shape[0] == 0:
        return np.zeros(0)
    asym = abs(A - A.T).max()
    if asym > 1e-12 * max(abs(A).max(), 1.0):
        raise ValueError(f"reduced system is not symmetric (deviation {asym:.2e})")
    if method == "direct":
        return spla.spsolve(A.tocsc(), b)
    if method == "cg":
        precond = _block_jacobi(A, _vertex_patches(system.dofmap))
        x, info = spla.cg(A, b, rtol=tol, atol=0.0, M=precond, maxiter=CG_MAXITER)
        if info != 0:
            res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
            raise RuntimeError(f"CG did not reach rtol {tol:.1e} in {CG_MAXITER} "
                               f"iterations (relative residual {res:.2e})")
        return x
    raise ValueError(f"unknown solver {method!r}")


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


def solve_monolithic(mesh: Mesh, ops: list, rhs_list: list, dofmap: DofMap,
                     dirichlet_values: np.ndarray | None = None,
                     extra_face_rhs: np.ndarray | None = None):
    """Reference solve of the uncondensed cell+face system (dense).

    Used as an oracle for the static-condensation path; takes the local
    operator groups and their right-hand sides and returns the same
    ``(cell_coeffs, face_coeffs)`` arrays as the condensed pipeline.
    """
    cw = dof_layout(mesh, dofmap.degrees, 1).cell_width
    n_cell_dofs = mesh.n_cells * cw
    total = n_cell_dofs + dofmap.n_reduced
    A = np.zeros((total, total))
    b = np.zeros(total)
    for op, bl in zip(ops, rhs_list):
        cells = op.ctx.cells
        faces, dofs = _face_dofs(mesh, cells, dofmap)
        idx = np.concatenate([cells[:, None] * cw + np.arange(cw),
                              np.where(dofs >= 0, n_cell_dofs + dofs, -1)], axis=1)
        keep = idx >= 0
        if dirichlet_values is not None:
            fixed = np.zeros(idx.shape)
            fixed[:, cw:] = dirichlet_values[faces].reshape(len(cells), -1)
            bl = bl - (op.L @ np.where(keep, 0.0, fixed)[..., None])[..., 0]
        pairs = keep[:, :, None] & keep[:, None, :]
        np.add.at(A, (np.broadcast_to(idx[:, :, None], pairs.shape)[pairs],
                      np.broadcast_to(idx[:, None, :], pairs.shape)[pairs]),
                  op.L[pairs])
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
