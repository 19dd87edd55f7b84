"""L2 projections, mass-matrix inverses, and reduction onto the hybrid space.

The reduction of a function collects its cell projection and its face
projections into one local DoF vector laid out as ``[T | F_1 | ... | F_n]``.
Vector fields are projected component by component against the scalar mass
matrix; the DoF of scalar function ``i`` and component ``a`` sits at
``i * rank + a``.  Projections and reductions run on a whole group of cells
or faces at once, with a leading axis over the group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, basis_size, face_basis, scaled_monomial_basis
from .mesh import Mesh
from .quadrature import QuadratureRule, cell_quadrature, face_quadrature


@dataclass(frozen=True)
class HhoDegrees:
    """Face degree, cell degree (equal or one higher), and field rank."""

    k_face: int
    k_cell: int | None = None
    rank: int = 1

    def __post_init__(self):
        if self.k_face < 0:
            raise ValueError("face degree must be nonnegative")
        if self.k_cell is None:
            object.__setattr__(self, "k_cell", self.k_face)
        if self.k_cell not in (self.k_face, self.k_face + 1):
            raise ValueError("cell degree must equal the face degree or exceed it by one")
        if self.rank not in (1, 2):
            raise ValueError("rank must be 1 (scalar) or 2 (2D vector)")

    @property
    def mixed(self) -> bool:
        return self.k_cell == self.k_face + 1


def equal_order(k: int, rank: int = 1) -> HhoDegrees:
    return HhoDegrees(k_face=k, k_cell=k, rank=rank)


def mixed_order(k: int, rank: int = 1) -> HhoDegrees:
    return HhoDegrees(k_face=k, k_cell=k + 1, rank=rank)


@dataclass(frozen=True)
class DofLayout:
    """Block layout of a local DoF vector for one cell."""

    cell_width: int
    face_width: int
    n_faces: int

    @property
    def size(self) -> int:
        return self.cell_width + self.n_faces * self.face_width

    @property
    def cell(self) -> slice:
        return slice(0, self.cell_width)

    def face(self, i: int) -> slice:
        start = self.cell_width + i * self.face_width
        return slice(start, start + self.face_width)

    @property
    def faces(self) -> slice:
        return slice(self.cell_width, self.size)


def dof_layout(mesh: Mesh, degrees: HhoDegrees, n_faces: int) -> DofLayout:
    d = mesh.dim
    cell_width = degrees.rank * basis_size(degrees.k_cell, d)
    face_width = degrees.rank * (1 if d == 1 else basis_size(degrees.k_face, d - 1))
    return DofLayout(cell_width, face_width, n_faces)


def lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of stacked lower triangles ``L``, by forward substitution one
    row of every matrix at a time: a batched LU costs several times as much."""
    d = 1.0 / np.diagonal(L, axis1=-2, axis2=-1)
    F = d[..., None] * np.eye(L.shape[-1])
    for i in range(1, L.shape[-1]):    # row i of L F = I, below the diagonal
        F[..., i, :i] = -(L[..., i, None, :i] @ F[..., :i, :i])[..., 0, :] * d[..., i, None]
    return F


def spd_inverse(M: np.ndarray, ids, what: str, entity: str = "cell", factor: bool = False):
    """Inverse Cholesky factors ``F = L^-1`` (:func:`lower_inverse`) of stacked
    SPD ``M = L L^T``, so ``M^-1 = F^T F`` (with ``factor``, ``(L, F)``); a failed
    factorization raises a ``ValueError`` naming the first failing entry by
    its id in ``ids`` (a cell, face or vertex, per ``entity``) with ``what``."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        for b in range(len(M)):
            try:
                np.linalg.cholesky(M[b])
            except np.linalg.LinAlgError:
                raise ValueError(f"{entity} {ids[b]}: {what}") from exc
        raise
    F = lower_inverse(L)
    return (L, F) if factor else F


def mass_cholesky(M: np.ndarray, ids=None, entity: str = "cell", factor: bool = False):
    """Inverses ``F^T F`` of a stack of mass matrices (:func:`spd_inverse`; with
    ``factor``, ``(L, F^T F)``); ``ids`` name the cells or faces in the error
    for one not positive definite."""
    L, F = spd_inverse(M, np.arange(len(M)) if ids is None else ids, entity=entity,
                       what="mass matrix is not positive definite; the geometry is "
                            "degenerate or the degree too high for raw monomials", factor=True)
    return (L, F.mT @ F) if factor else F.mT @ F


def sample(fn, points: np.ndarray, rank: int | None = None, ids=None,
           entity: str = "cell") -> np.ndarray:
    """Values of a problem-data callable at stacked points, in one call.

    ``points`` has shape ``(..., nq, dim)``; the callable sees them flattened
    to ``(npts, dim)`` and must return finite values of shape ``(npts,)``
    or ``(npts, rank)`` (any rank when ``rank`` is None).  The result keeps
    the leading axes.  A bad result raises a ``ValueError`` naming the
    first bad entry of the leading axis by its id in ``ids``.
    """
    flat = points.reshape(-1, points.shape[-1])
    n = len(flat)
    vals = np.asarray(fn(flat), dtype=float)
    lead = points.shape[:-1]
    ids = np.arange(lead[0] if len(lead) > 1 else 1) if ids is None else np.ravel(ids)
    ok = vals.shape == (n,) and rank in (None, 1) or (
        vals.ndim == 2 and len(vals) == n and rank in (None, vals.shape[1]))
    if not ok:
        want = f"({n},) or ({n}, {rank})" if rank in (None, 1) else f"({n}, {rank})"
        raise ValueError(f"{entity} {ids[0]}: problem data returned shape "
                         f"{vals.shape}, expected {want}")
    if not np.isfinite(vals).all():     # one pass; rows only to name the first bad one
        bad = np.flatnonzero(~np.isfinite(vals.reshape(n, -1)).all(axis=1))[0]
        raise ValueError(f"{entity} {ids[bad // lead[-1]]}: problem data is not finite "
                         f"at {flat[bad].tolist()}")
    return vals.reshape(lead + vals.shape[1:])


def l2_project(basis: Basis, rule: QuadratureRule, f, rank: int | None = None,
               ids=None, entity: str = "cell") -> np.ndarray:
    """Coefficients of the L2-orthogonal projection of ``f``.

    ``f`` maps an ``(npts, dim)`` array to values of shape ``(npts,)`` or
    ``(npts, rank)``; the result has one coefficient column per component.
    A stacked basis and rule project onto every entry of the group at once;
    ``rank``, ``ids`` and ``entity`` go to :func:`sample`.
    """
    vals = basis.eval(rule.points)
    fx = sample(f, rule.points, rank=rank, ids=ids, entity=entity)
    weighted = rule.weights[..., None] * vals
    M = weighted.mT @ vals
    M = 0.5 * (M + M.mT)
    M_inv = mass_cholesky(M.reshape((-1,) + M.shape[-2:]), ids=ids,
                          entity=entity).reshape(M.shape)
    columns = fx if fx.ndim == vals.ndim else fx[..., None]
    coef = M_inv @ (weighted.mT @ columns)
    return coef if fx.ndim == vals.ndim else coef[..., 0]


def data_order(degrees: HhoDegrees) -> int:
    """Order of the rules that sample problem data on cells and faces."""
    return 2 * (degrees.k_face + 2)


def reduce_local(mesh: Mesh, cells, degrees: HhoDegrees, v) -> np.ndarray:
    """Local reduction: cell projection plus per-face projections, laid out
    as ``[T | F_1 | ... | F_n]``; stacked over a group of cells.  Each
    distinct face of the group is projected once.

    In 1D the face blocks degenerate to point values of ``v`` at the two
    cell endpoints.
    """
    geom = mesh.cell_geometry(cells)
    order = data_order(degrees)
    lead = np.shape(cells)
    ccoef = l2_project(scaled_monomial_basis(geom, degrees.k_cell), cell_quadrature(geom, order), v)
    faces, at = np.unique(geom.face_indices, return_inverse=True)
    fcoef = l2_project(face_basis(mesh, faces, degrees.k_face),
                       face_quadrature(mesh, faces, order), v)
    return np.concatenate([ccoef.reshape(lead + (-1,)), fcoef[at].reshape(lead + (-1,))], axis=-1)


def reduce_global(mesh: Mesh, degrees: HhoDegrees, v):
    """Cellwise reduction with single-valued face blocks.

    Returns ``(cell_coeffs, face_coeffs)`` arrays of shapes
    ``(n_cells, cell_width)`` and ``(n_faces, face_width)``.
    """
    layout0 = dof_layout(mesh, degrees, 1)
    cw, fw = layout0.cell_width, layout0.face_width
    cell_coeffs = np.zeros((mesh.n_cells, cw))
    face_coeffs = np.zeros((mesh.n_faces, fw))
    for cells in mesh.cell_groups():
        local = reduce_local(mesh, cells, degrees, v)
        faces = mesh.cell_face_indices(cells)
        cell_coeffs[cells] = local[:, :cw]
        face_coeffs[faces] = local[:, cw:].reshape(faces.shape + (fw,))
    return cell_coeffs, face_coeffs


def gather_local(mesh: Mesh, cells, degrees: HhoDegrees,
                 cell_coeffs: np.ndarray, face_coeffs: np.ndarray) -> np.ndarray:
    """Local DoF vectors of a cell or a group of cells from global arrays."""
    faces = mesh.cell_face_indices(cells)
    return np.concatenate([np.asarray(cell_coeffs)[cells],
                           face_coeffs[faces].reshape(faces.shape[:-1] + (-1,))],
                          axis=-1)
