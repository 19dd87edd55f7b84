"""Global numbering, static condensation, assembly, and the sparse solve.

Cell unknowns are eliminated per cell through the Schur complement of the
cell block, leaving a symmetric positive-definite system coupling only the
face unknowns of non-Dirichlet faces.  Dirichlet faces are removed by
elimination; their projected data enters the right-hand side.  Assembly
walks cells in ascending order so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

from .mesh import Mesh
from .projection import DofLayout, HhoDegrees, dof_layout


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
class CondensedCell:
    """Schur data of one cell: reduced matrix/rhs plus recovery factors."""

    cell: int
    layout: DofLayout
    L_c: np.ndarray            # (n_face_dofs, n_face_dofs)
    b_c: np.ndarray
    cho_TT: object
    L_TF: np.ndarray
    b_T: np.ndarray

    def recover(self, face_values: np.ndarray) -> np.ndarray:
        """Cell coefficients from the surrounding face coefficients."""
        return cho_solve(self.cho_TT, self.b_T - self.L_TF @ face_values)


def condense(L: np.ndarray, b: np.ndarray, layout: DofLayout, cell: int = -1) -> CondensedCell:
    ct, fc = layout.cell, layout.faces
    L_TT = L[ct, ct]
    L_TF = L[ct, fc]
    try:
        cho_TT = cho_factor(L_TT, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"cell {cell}: singular cell block during condensation "
            "(broken local operator construction)") from exc
    X = cho_solve(cho_TT, L_TF)
    L_c = L[fc, fc] - L_TF.T @ X
    b_c = b[fc] - X.T @ b[ct]
    return CondensedCell(cell=cell, layout=layout, L_c=0.5 * (L_c + L_c.T),
                         b_c=b_c, cho_TT=cho_TT, L_TF=L_TF, b_T=b[ct])


@dataclass
class GlobalSystem:
    matrix: sp.csc_matrix
    rhs: np.ndarray
    dofmap: DofMap


def assemble(mesh: Mesh, condensed: list, dofmap: DofMap,
             dirichlet_values: np.ndarray | None = None,
             extra_face_rhs: np.ndarray | None = None) -> GlobalSystem:
    """Accumulate condensed cell contributions into the reduced system.

    ``dirichlet_values`` holds projected boundary data per face (rows for
    non-Dirichlet faces are ignored); eliminated columns move to the
    right-hand side.  ``extra_face_rhs`` carries Neumann contributions,
    indexed like ``dirichlet_values``.
    """
    w = dofmap.face_width
    rows, cols, vals = [], [], []
    rhs = np.zeros(dofmap.n_reduced)
    for cc in condensed:
        faces = mesh.cell_faces[cc.cell]
        local_off = [i * w for i in range(len(faces))]
        for i, fi in enumerate(faces):
            oi = dofmap.offsets[fi]
            bi = cc.b_c[local_off[i]:local_off[i] + w]
            if oi < 0:
                continue
            rhs[oi:oi + w] += bi
            for j, fj in enumerate(faces):
                block = cc.L_c[local_off[i]:local_off[i] + w,
                               local_off[j]:local_off[j] + w]
                oj = dofmap.offsets[fj]
                if oj < 0:
                    if dirichlet_values is not None:
                        rhs[oi:oi + w] -= block @ dirichlet_values[fj]
                    continue
                ii, jj = np.meshgrid(np.arange(oi, oi + w),
                                     np.arange(oj, oj + w), indexing="ij")
                rows.append(ii.ravel())
                cols.append(jj.ravel())
                vals.append(block.ravel())
    if extra_face_rhs is not None:
        for fi in range(mesh.n_faces):
            oi = dofmap.offsets[fi]
            if oi >= 0:
                rhs[oi:oi + w] += extra_face_rhs[fi]
    n = dofmap.n_reduced
    if rows:
        matrix = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n)).tocsc()
    else:
        matrix = sp.csc_matrix((n, n))
    return GlobalSystem(matrix=matrix, rhs=rhs, dofmap=dofmap)


def solve_reduced(system: GlobalSystem, method: str = "direct",
                  tol: float = 1e-12) -> np.ndarray:
    """Solve the reduced face system (sparse direct or preconditioned CG)."""
    A, b = system.matrix, system.rhs
    if A.shape[0] == 0:
        return np.zeros(0)
    asym = abs(A - A.T).max()
    if asym > 1e-12 * max(abs(A).max(), 1.0):
        raise ValueError(f"reduced system is not symmetric (deviation {asym:.2e})")
    if method == "direct":
        return spla.spsolve(A.tocsc(), b)
    if method == "cg":
        w = system.dofmap.face_width
        precond = _block_jacobi(A, w)
        x, info = spla.cg(A, b, rtol=tol, atol=0.0, M=precond, maxiter=20000)
        if info != 0:
            raise RuntimeError(f"CG failed to converge (info={info})")
        return x
    raise ValueError(f"unknown solver {method!r}")


def _block_jacobi(A: sp.spmatrix, width: int) -> spla.LinearOperator:
    n = A.shape[0]
    dense_blocks = []
    Acsr = A.tocsr()
    for start in range(0, n, width):
        block = Acsr[start:start + width, start:start + width].toarray()
        dense_blocks.append(np.linalg.inv(block))

    def apply(x):
        out = np.empty_like(x)
        for i, inv in enumerate(dense_blocks):
            s = slice(i * width, i * width + width)
            out[s] = inv @ x[s]
        return out

    return spla.LinearOperator(A.shape, matvec=apply)


def recover_cells(mesh: Mesh, condensed: list, dofmap: DofMap,
                  face_solution: np.ndarray,
                  dirichlet_values: np.ndarray | None = None):
    """Post-process cell unknowns and scatter face values per global face.

    Returns ``(cell_coeffs list, face_coeffs array)`` where the face array
    includes the Dirichlet data.
    """
    w = dofmap.face_width
    face_coeffs = np.zeros((mesh.n_faces, w))
    for fi in range(mesh.n_faces):
        oi = dofmap.offsets[fi]
        if oi >= 0:
            face_coeffs[fi] = face_solution[oi:oi + w]
        elif dirichlet_values is not None:
            face_coeffs[fi] = dirichlet_values[fi]
    cell_coeffs = []
    for cc in condensed:
        faces = mesh.cell_faces[cc.cell]
        fvals = np.concatenate([face_coeffs[fi] for fi in faces])
        cell_coeffs.append(cc.recover(fvals))
    return cell_coeffs, face_coeffs


def solve_monolithic(mesh: Mesh, locals_: list, rhs_list: list, dofmap: DofMap,
                     dirichlet_values: np.ndarray | None = None,
                     extra_face_rhs: np.ndarray | None = None):
    """Reference solve of the uncondensed cell+face system (dense).

    Used as an oracle for the static-condensation path; returns the same
    ``(cell_coeffs, face_coeffs)`` structure as the condensed pipeline.
    """
    w = dofmap.face_width
    cell_off = []
    total = 0
    for ci, L in enumerate(locals_):
        cell_off.append(total)
        total += L.shape[0] - len(mesh.cell_faces[ci]) * w
    n_cells_dofs = total
    total += dofmap.n_reduced

    A = np.zeros((total, total))
    b = np.zeros(total)

    def gidx(ci, layout):
        idx = np.empty(layout.size, dtype=int)
        cw = layout.cell_width
        idx[:cw] = cell_off[ci] + np.arange(cw)
        for i, fi in enumerate(mesh.cell_faces[ci]):
            oi = dofmap.offsets[fi]
            sl = layout.face(i)
            idx[sl] = (n_cells_dofs + oi + np.arange(w)) if oi >= 0 else -1
        return idx

    for ci, (L, bl) in enumerate(zip(locals_, rhs_list)):
        layout = dof_layout(mesh, dofmap.degrees, len(mesh.cell_faces[ci]))
        idx = gidx(ci, layout)
        keep = idx >= 0
        sub = np.ix_(idx[keep], idx[keep])
        A[sub] += L[np.ix_(keep, keep)]
        b[idx[keep]] += bl[keep]
        if dirichlet_values is not None and not keep.all():
            fixed = np.zeros(layout.size)
            for i, fi in enumerate(mesh.cell_faces[ci]):
                if dofmap.offsets[fi] < 0:
                    fixed[layout.face(i)] = dirichlet_values[fi]
            b[idx[keep]] -= (L @ fixed)[keep]
    if extra_face_rhs is not None:
        for fi in range(mesh.n_faces):
            oi = dofmap.offsets[fi]
            if oi >= 0:
                b[n_cells_dofs + oi:n_cells_dofs + oi + w] += extra_face_rhs[fi]
    x = np.linalg.solve(A, b)
    face_coeffs = np.zeros((mesh.n_faces, w))
    for fi in range(mesh.n_faces):
        oi = dofmap.offsets[fi]
        if oi >= 0:
            face_coeffs[fi] = x[n_cells_dofs + oi:n_cells_dofs + oi + w]
        elif dirichlet_values is not None:
            face_coeffs[fi] = dirichlet_values[fi]
    cell_coeffs = []
    for ci, L in enumerate(locals_):
        cw = L.shape[0] - len(mesh.cell_faces[ci]) * w
        cell_coeffs.append(x[cell_off[ci]:cell_off[ci] + cw])
    return cell_coeffs, face_coeffs
