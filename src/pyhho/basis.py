"""Monomial bases on cells and faces, one affine map each.

A basis is the monomials of ``map (x - center)`` up to a total degree,
graded lexicographically with the constant first.  A cell's map is its
inertia frame, which gives thin or turned cells the conditioning of round
ones; a face's is the row ``2 t^T / |F|`` about its midpoint.  A basis
built for a group of cells or faces stacks centers and maps.  Derivatives
are exact combinations of the basis, by the maps of :meth:`Basis.derivatives`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .mesh import CellGeometry, Mesh

MAX_DEGREE = 6


def basis_size(degree: int, dim: int) -> int:
    """Dimension of the polynomial space of total degree <= degree."""
    return comb(degree + dim, dim)


@cache
def graded_exponents(degree: int, dim: int) -> np.ndarray:
    """Multi-indices of length <= degree in graded-lex order, constant first;
    one read-only array per ``(degree, dim)``."""
    exps = np.array([(t - j, j) for t in range(degree + 1) for j in range(t + 1)])
    exps = exps[exps[:, 1] == 0, :1] if dim == 1 else exps     # 1D: the powers of x
    exps.setflags(write=False)
    return exps


@cache
def _lowered(degree: int, dim: int) -> np.ndarray:
    """``(dim, n)``: each exponent's index with entry ``c`` lowered, clipped at 0."""
    exps = graded_exponents(degree, dim)
    low = np.maximum(exps - np.eye(dim, dtype=int)[:, None], 0)
    return (low[:, :, None] == exps).all(axis=-1).argmax(axis=-1)


@dataclass(frozen=True)
class Basis:
    """Polynomial basis on a cell or face, evaluable at physical points.

    The monomials of ``map (x - center)``, ``map`` of shape ``(entity_dim,
    dim)`` and stacked over a group, ``entity_dim`` the cell's or face's.
    """

    entity_dim: int
    degree: int
    center: np.ndarray
    map: np.ndarray

    @property
    def exponents(self) -> np.ndarray:
        return graded_exponents(self.degree, self.entity_dim)

    @property
    def size(self) -> int:
        return basis_size(self.degree, self.entity_dim)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values ``(npts, n)`` at physical points.  A basis stacked over a
        group takes points with the group's leading axis and returns it too;
        derivatives are exact combinations of the basis (:meth:`derivatives`)."""
        pts = np.asarray(points, dtype=float)
        xt = (pts - self.center[..., None, :]) @ self.map.mT
        # powers[..., q, c, j] = xt[..., q, c] ** j
        powers = np.ones(xt.shape + (self.degree + 1,))
        for j in range(1, self.degree + 1):
            powers[..., j] = powers[..., j - 1] * xt
        exps = self.exponents
        # vals[..., q, i] = prod_c powers[..., q, c, exps[i, c]], one power at a time
        vals = powers[..., 0, exps[:, 0]]
        for c in range(1, self.entity_dim):
            for j in range(1, self.degree + 1):
                vals[..., exps[:, c] == j] *= powers[..., c, j, None]
        return vals

    def derivatives(self) -> np.ndarray:
        """Exact derivative maps ``D`` ``(..., dim, n, n)``: ``d_c phi_i = sum_l
        D[c, l, i] phi_l``, taken with respect to ``x`` (tangential on a 2D
        face) and stacked over a group like ``map``."""
        # d phi_i / d x^_c = exps[i, c] phi_(i lowered in c), and grad phi = grad^ phi . map
        ref = self.exponents.T[:, None, :] * (
            _lowered(self.degree, self.entity_dim)[:, None, :] == np.arange(self.size)[:, None])
        return np.einsum("...cx,cli->...xli", self.map, ref)


def scaled_monomial_basis(geometry: CellGeometry, degree: int) -> Basis:
    """Cell basis about the barycenter in the cell's inertia frame
    (``CellGeometry.frame``): ``2 / h`` on an interval or an axis-aligned
    square of diameter h, and every parallelogram becomes a square and every
    triangle an equilateral one."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} above cap {MAX_DEGREE}; raw monomials are "
                         "ill-conditioned at high order")
    return Basis(entity_dim=geometry.dim, degree=degree, center=geometry.barycenter,
                 map=geometry.frame)


def face_basis(mesh: Mesh, faces, degree: int) -> Basis:
    """Face basis: 1D monomials of ``2 t . (x - x_F) / |F|`` (2D meshes), or
    on a vertex-face of a 1D mesh the constant, the degree-0 monomial of a
    zero map; stacked over an array of faces."""
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} above cap {MAX_DEGREE}")
    if mesh.dim == 1:
        return Basis(entity_dim=1, degree=0, center=np.zeros(1), map=np.zeros((1, 1)))
    pa, pb = np.moveaxis(mesh.vertices[mesh.face_nodes[faces]], -2, 0)
    t = pb - pa
    return Basis(entity_dim=1, degree=degree, center=0.5 * (pa + pb),
                 map=(2.0 * t / (t ** 2).sum(axis=-1)[..., None])[..., None, :])
