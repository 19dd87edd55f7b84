"""Global numbering, static condensation, assembly, and the sparse solve.

Cell unknowns are eliminated through the Schur complement of each cell
block, one group of cells at a time and one inverse Cholesky factor per
distinct cell shape, leaving a symmetric positive-definite system coupling
only the face unknowns of non-Dirichlet faces.  Dirichlet faces are removed
by elimination; their projected data enters the right-hand side.  Assembly
scatters the condensed matrices into the values of a sparse pattern built
once from the pairs of free faces that share a cell; every entry sums the
terms of at most the two cells of a face, so results are bit-reproducible.
Assembly, the symmetry check and the patch preconditioner walk cells, rows
or vertices ``CHUNK`` at a time, which bounds their scratch memory.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .projection import DofLayout, HhoDegrees, dof_layout, spd_inverse

SOLVERS = ("direct", "cg")
CG_MAXITER = 20000
# cells, matrix rows or vertices per batch of a solve stage (and of the error norms)
CHUNK = 1024

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
    """Schur data of a group of cells: the reduced matrices and the cell
    recovery maps by shape, the reduced right-hand sides and offsets by cell."""

    cells: np.ndarray          # (nb,)
    shapes: np.ndarray         # (nb,) each cell's row in L_c and X
    layout: DofLayout
    L_c: np.ndarray            # (n_shapes, n_face_dofs, n_face_dofs)
    b_c: np.ndarray            # (nb, n_face_dofs)
    X: np.ndarray              # (n_shapes, cell_width, n_face_dofs): L_TT^-1 L_TF
    y: np.ndarray              # (nb, cell_width): L_TT^-1 b_T

    def recover(self, face_values: np.ndarray) -> np.ndarray:
        """Cell coefficients from the surrounding face coefficients."""
        return self.y - (self.X[self.shapes] @ face_values[..., None])[..., 0]


def condense(L: np.ndarray, b: np.ndarray, layout: DofLayout, cells,
             shapes) -> CondensedGroup:
    """Eliminate the cell unknowns of a group of cells.

    ``L`` is stacked over the group's distinct shapes and ``b`` over its
    cells; ``shapes[i]`` is the row of ``L`` that serves ``cells[i]``, with
    shapes numbered in order of first cell (:meth:`pyhho.mesh.Mesh.cell_shapes`).
    Each shape's cell block is factored once, ``L_TT^-1 = F^T F`` (a failure
    names the shape's first cell), and eliminated in factor form: with ``W =
    F L_TF``, ``L_c = L_FF - W^T W`` (symmetric by construction) and ``X = F^T
    W`` stay stacked by shape; ``y`` and ``b_c`` are formed per cell from ``F b_T``.
    """
    cells, shapes = np.atleast_1d(cells), np.atleast_1d(shapes)
    ct, fc = layout.cell, layout.faces
    F = spd_inverse(L[:, ct, ct], cells[np.unique(shapes, return_index=True)[1]],
                    what="singular cell block during condensation "
                         "(broken local operator construction)")
    W, Fs = F @ L[:, ct, fc], F[shapes]
    Fb = Fs @ b[:, ct, None]
    return CondensedGroup(cells=cells, shapes=shapes, layout=layout,
                          L_c=L[:, fc, fc] - W.mT @ W,
                          b_c=b[:, fc] - (W[shapes].mT @ Fb)[..., 0],
                          X=F.mT @ W, y=(Fs.mT @ Fb)[..., 0])


@dataclass
class GlobalSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap


def _face_dofs(mesh: Mesh, cells, dofmap: DofMap):
    """Faces ``(nb, n_faces)`` of a group and the reduced index of each of
    its local face DoFs ``(nb, n_faces * face_width)``, -1 if Dirichlet."""
    faces = mesh.cell_face_indices(cells)
    off = dofmap.offsets[faces]
    dofs = off[..., None] + np.arange(dofmap.face_width)
    dofs = np.where(off[..., None] >= 0, dofs, -1)
    return faces, dofs.reshape(len(faces), -1)


def _free_face_rows(dofmap: DofMap):
    """Non-Dirichlet faces and the reduced rows ``(n_free, face_width)``."""
    free = np.flatnonzero(dofmap.offsets >= 0)
    return free, dofmap.offsets[free, None] + np.arange(dofmap.face_width)


def _free_ids(dofmap: DofMap, faces: np.ndarray) -> np.ndarray:
    """``faces`` numbered among the free faces in DoF order, -1 if Dirichlet."""
    off = dofmap.offsets[faces]
    return np.where(off >= 0, off // dofmap.face_width, -1)


def _face_pattern(mesh: Mesh, condensed: list, dofmap: DofMap):
    """The pairs of free faces that share a cell, as sorted keys ``f * m + g``
    of a row face ``f`` and a column face ``g`` among the ``m`` free faces,
    and the position of the first key of each row face ``(m + 1,)``."""
    m = dofmap.n_reduced // dofmap.face_width
    keys = [np.zeros(0, int)]
    for cg in condensed:
        for s in range(0, len(cg.cells), CHUNK):
            fid = _free_ids(dofmap, mesh.cell_face_indices(cg.cells[s:s + CHUNK]))
            pair = (fid[:, :, None] >= 0) & (fid[:, None, :] >= 0)
            keys.append((fid[:, :, None] * m + fid[:, None, :])[pair])
    keys = np.sort(np.concatenate(keys))
    # np.unique of integers takes a hash path, 50x slower than this sort at 128^2
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    return keys, np.searchsorted(keys, np.arange(m + 1) * m)


def assemble(mesh: Mesh, condensed: list, dofmap: DofMap,
             dirichlet_values: np.ndarray | None = None,
             extra_face_rhs: np.ndarray | None = None) -> GlobalSystem:
    """Accumulate condensed group contributions into the reduced system.

    ``dirichlet_values`` holds projected boundary data per face (rows for
    non-Dirichlet faces are ignored); eliminated columns move to the
    right-hand side.  ``extra_face_rhs`` carries Neumann contributions,
    indexed like ``dirichlet_values``.

    The matrix is compressed by rows on the pattern of :func:`_face_pattern`:
    row ``(f, i)``, DoF ``i`` of free face ``f``, holds the columns of the
    neighbour faces of ``f`` in order, ``face_width`` each.  The condensed
    matrices are scattered into its values ``CHUNK`` cells at a time.
    """
    n, w = dofmap.n_reduced, dofmap.face_width
    if n == 0:                    # every face is a Dirichlet face
        return GlobalSystem(matrix=sp.csr_matrix((0, 0)), rhs=np.zeros(0), dofmap=dofmap)
    keys, start = _face_pattern(mesh, condensed, dofmap)
    m, deg, nnz = len(start) - 1, np.diff(start), w * w * len(keys)
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    data, indices, rhs = np.zeros(nnz), np.empty(nnz, index), np.zeros(n)
    j = np.arange(w)
    indptr = np.append(w * (w * start[:-1, None] + j * deg[:, None]), nnz).astype(index)
    for cg in condensed:
        for s in range(0, len(cg.cells), CHUNK):
            cells, b = cg.cells[s:s + CHUNK], cg.b_c[s:s + CHUNK]
            L_c = cg.L_c[cg.shapes[s:s + CHUNK]]
            faces = mesh.cell_face_indices(cells)
            fid = _free_ids(dofmap, faces)
            nb, nf = fid.shape
            free = np.repeat(fid >= 0, w, axis=1)
            dofs = (w * fid[..., None] + j).reshape(nb, -1)
            if dirichlet_values is not None:
                fixed = dirichlet_values[faces].reshape(free.shape)
                b = b - (L_c @ np.where(free, 0.0, fixed)[..., None])[..., 0]
            np.add.at(rhs, dofs[free], b[free])
            # local entry (row face f, row DoF i, column face g, column DoF j)
            # -> its value slot w ((w - 1) start[f] + i deg[f] + key(f, g)) + j
            f = fid[:, :, None, None, None]
            key = np.searchsorted(keys, fid[:, :, None] * m + fid[:, None, :])
            slot = (w * ((w - 1) * start[f] + j[:, None, None] * deg[f]
                         + key[:, :, None, :, None]) + j).reshape(L_c.shape)
            pairs = free[:, :, None] & free[:, None, :]
            slot = slot[pairs]
            # an entry takes the terms of the (at most two) cells of its row face
            np.add.at(data, slot, L_c[pairs])
            indices[slot] = np.broadcast_to(dofs[:, None, :], pairs.shape)[pairs]
    if extra_face_rhs is not None:
        rhs += extra_face_rhs[dofmap.offsets >= 0].reshape(-1)
    matrix = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    return GlobalSystem(matrix=matrix, rhs=rhs, dofmap=dofmap)


def check_solver(method: str, tol: float) -> None:
    """Reject a solver not in :data:`SOLVERS` or a tolerance not positive and finite."""
    if method not in SOLVERS:
        raise ValueError(f"unknown solver {method!r}; expected one of {', '.join(SOLVERS)}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"solver tolerance must be positive and finite, got {tol!r}")


def solve_reduced(system: GlobalSystem, method: str = "direct",
                  tol: float = 1e-12) -> np.ndarray:
    """Solve the reduced face system: sparse direct, or two-level
    preconditioned CG (:func:`_two_level_cg`)."""
    check_solver(method, tol)
    A, b = system.matrix.tocsr(), system.rhs
    if A.shape[0] == 0:
        return np.zeros(0)
    # SuperLU's copy, read by rows, is A^T: on assemble's symmetric sorted pattern
    # its values sit in A's slots.  The check goes in blocks of rows
    cols, n = A.tocsc(), A.shape[0]
    same = (A.has_canonical_format and np.array_equal(A.indptr, cols.indptr)
            and np.array_equal(A.indices, cols.indices))
    asym = 0.0
    for s in range(0, n, CHUNK):
        lo, hi = A.indptr[s], A.indptr[min(s + CHUNK, n)]
        diff = (A.data[lo:hi] - cols.data[lo:hi] if same else
                (_rows(A, s, s + CHUNK) - _rows(cols.T, s, s + CHUNK)).data)
        asym = max(asym, np.abs(diff).max(initial=0.0))
    if asym > 1e-12 * max(A.data.max(initial=0.0), -A.data.min(initial=0.0), 1.0):
        raise ValueError(f"reduced system is not symmetric (deviation {asym:.2e})")
    start = time.perf_counter()
    if method == "direct":
        lu = _factor(cols, "reduced system")
        x = lu.solve(b)
        log.debug("face solve: direct, %d reduced DoFs, %d nonzeros, L+U fill %d "
                  "(%.1fx), %.4f s", A.shape[0], A.nnz, lu.nnz, lu.nnz / A.nnz,
                  time.perf_counter() - start)
        return x
    del cols
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


def _rows(M: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """Rows ``start:stop`` of a CSR matrix, on slices of its arrays."""
    stop = min(stop, M.shape[0])
    lo, hi = M.indptr[start], M.indptr[stop]
    return sp.csr_matrix((M.data[lo:hi], M.indices[lo:hi], M.indptr[start:stop + 1] - lo),
                         shape=(stop - start, M.shape[1]))


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

    Row ``v`` of ``patches`` holds the reduced DoFs of patch ``v`` (-1 pads).
    The blocks are gathered and inverted ``CHUNK`` vertices at a time, as
    ``F^T F`` from their inverse Cholesky factors ``F``
    (:func:`pyhho.projection.spd_inverse`), and kept stacked, zero on the
    padding.  An application gathers the patch values, multiplies by every
    inverse in one batched product and sums the results back with one
    ``np.bincount``.  With one
    face per patch (1D) this is block Jacobi.  ``perfbench/tracing.py``
    counts CG iterations by wrapping this function by name.
    """
    pad = patches < 0
    idx = np.where(pad, 0, patches)
    n, m = idx.shape
    inv = np.empty((n, m, m))
    for s in range(0, n, CHUNK):
        rows = idx[s:s + CHUNK]
        shape = (len(rows), m, m)
        blocks = np.asarray(A[np.broadcast_to(rows[:, :, None], shape).reshape(-1),
                              np.broadcast_to(rows[:, None, :], shape).reshape(-1)])
        skip = pad[s:s + CHUNK, :, None] | pad[s:s + CHUNK, None, :]
        blocks = np.where(skip, np.eye(m), blocks.reshape(shape))   # identity on the padding
        F = spd_inverse(blocks, np.arange(s, s + len(rows)), entity="vertex",
                        what="singular patch block of the reduced system")
        inv[s:s + CHUNK] = F.mT @ F
        inv[s:s + CHUNK][skip] = 0.0
    flat, size = idx.reshape(-1), A.shape[0]

    def apply(x):
        # row vector times block: the inverse of a symmetric block is symmetric
        z = np.ravel(x)[idx][:, None, :] @ inv
        return np.bincount(flat, weights=z.reshape(-1), minlength=size)

    return spla.LinearOperator(A.shape, matvec=apply, dtype=float)


def _auxiliary_space(dofmap: DofMap) -> sp.csc_matrix:
    """The two-level CG's auxiliary space ``P`` ``(n_reduced, m)``.

    Its columns are the lowest-order finite-element vertex hats, one per
    vertex and component, traced on the free faces: in the face coordinate,
    -1 at ``face_nodes[f, 0]`` and 1 at ``face_nodes[f, 1]``, a hat's trace has
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
            # each real face slot takes its share of the mean over the face's cells
            off = np.where(g.face_measures > 0, offsets[g.face_indices], -1)[:, :, None, None]
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
        faces = mesh.cell_face_indices(cg.cells)
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
