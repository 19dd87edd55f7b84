"""Scaled-monomial bases on cells and mapped faces.

A cell basis on ``T`` consists of the monomials in the rescaled variable
``2 (x - x_T) / h_T`` up to the requested total degree, ordered graded
lexicographically with the constant first.  Face bases in 2D are 1D scaled
monomials composed with the inverse of an isometric map from the face onto
a centered interval, so they can be evaluated directly at physical points.
A basis built for a group of cells or faces holds stacked centers and
scales and evaluates the whole group in one call.
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
    if dim < 2:
        exps = np.arange(degree + 1)[:, None] if dim else np.zeros((1, 0), dtype=int)
    else:
        exps = np.array([(t - j, j) for t in range(degree + 1) for j in range(t + 1)])
    exps.setflags(write=False)
    return exps


@dataclass(frozen=True)
class Basis:
    """Polynomial basis on a cell or face, evaluable at physical points.

    ``entity_dim`` is the intrinsic dimension (0 for a vertex-face in 1D).
    For 2D faces ``origin``/``tangent`` define the isometric chart; cells
    use ``center``/``scale`` directly.
    """

    entity_dim: int
    degree: int
    center: np.ndarray
    scale: float
    origin: np.ndarray | None = None
    tangent: np.ndarray | None = None

    @property
    def exponents(self) -> np.ndarray:
        return graded_exponents(self.degree, self.entity_dim)

    @property
    def size(self) -> int:
        return basis_size(self.degree, self.entity_dim)

    def eval(self, points: np.ndarray, gradients: bool = True):
        """Values and gradients at physical points.

        Returns ``(values, gradients)`` with shapes ``(npts, n)`` and
        ``(npts, n, entity_dim)``; gradients of 2D face bases are taken with
        respect to the arc-length coordinate, and are ``None`` when not
        asked for.  A basis stacked over a group takes points with the
        group's leading axis and returns it too.
        """
        pts = np.asarray(points, dtype=float)
        if self.entity_dim == 0:
            return np.ones(pts.shape[:-1] + (1,)), np.zeros(pts.shape[:-1] + (1, 1))
        if self.tangent is not None:
            pts = np.einsum("...qd,...d->...q", pts - self.origin[..., None, :],
                            self.tangent)[..., None]
        dim = self.entity_dim
        scale = np.asarray(self.scale, dtype=float)[..., None, None]
        xt = 2.0 * (pts - self.center[..., None, :]) / scale
        # powers[..., q, c, j] = xt[..., q, c] ** j
        powers = np.ones(xt.shape + (self.degree + 1,))
        for j in range(1, self.degree + 1):
            powers[..., j] = powers[..., j - 1] * xt
        exps = self.exponents
        # vals[..., q, i] = prod_c powers[..., q, c, exps[i, c]], one power at a time
        vals = powers[..., 0, exps[:, 0]]
        for c in range(1, dim):
            for j in range(1, self.degree + 1):
                vals[..., exps[:, c] == j] *= powers[..., c, j, None]
        if not gradients:
            return vals, None
        comps = np.arange(dim)
        factors = powers[..., comps, exps]                   # (..., q, n, dim)
        dfactors = exps * powers[..., comps, np.maximum(exps - 1, 0)]
        grads = np.empty(vals.shape + (dim,))
        for c in range(dim):
            other = factors[..., comps != c].prod(axis=-1)
            grads[..., c] = (2.0 / scale) * dfactors[..., c] * other
        return vals, grads


def scaled_monomial_basis(geometry: CellGeometry, degree: int) -> Basis:
    """Cell basis centered at the barycenter with the diameter as scale;
    stacked over a group when ``geometry`` is a group's."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} above cap {MAX_DEGREE}; raw monomials are "
                         "ill-conditioned at high order")
    return Basis(entity_dim=geometry.dim, degree=degree,
                 center=geometry.barycenter, scale=geometry.diameter)


def face_basis(mesh: Mesh, faces, degree: int) -> Basis:
    """Face basis: 1D scaled monomials in the chart coordinate (2D meshes),
    or the single constant on a vertex-face of a 1D mesh.  An array of
    faces gives one basis stacked over them."""
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} above cap {MAX_DEGREE}")
    if mesh.dim == 1:
        return Basis(entity_dim=0, degree=0, center=np.zeros(1), scale=1.0)
    pts = mesh.vertices[mesh.face_nodes[faces]]
    pa, pb = pts[..., 0, :], pts[..., 1, :]
    length = np.linalg.norm(pb - pa, axis=-1)
    return Basis(entity_dim=1, degree=degree, center=np.zeros(1), scale=length,
                 origin=0.5 * (pa + pb), tangent=(pb - pa) / length[..., None])

