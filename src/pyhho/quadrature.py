"""Quadrature rules of declared exactness order on the mesh entities.

Intervals use Gauss-Legendre, parallelogram quads a tensor Gauss rule,
triangles a conical-product (Duffy) rule with all-positive weights, and
general polygons a barycentric fan of triangle rules.  Every rule is exact
for polynomials up to the requested total degree.  The rules broadcast over
leading axes, so one call serves a whole group of cells or faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import CellGeometry, Mesh, MeshError, is_parallelogram

MAX_ORDER = 20


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights, with a leading cell or face axis for a group."""

    points: np.ndarray   # (nq, dim) physical coordinates
    weights: np.ndarray  # (nq,)
    order: int           # highest total degree integrated exactly


def _check_order(order: int) -> int:
    if order < 0:
        raise ValueError("quadrature order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"quadrature order {order} exceeds the cap {MAX_ORDER}")
    return int(order)


@lru_cache(maxsize=None)
def _gauss_01(order: int):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(order // 2 + 1)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _jacobi_01(order: int):
    """Gauss-Jacobi nodes/weights for the weight (1 - x) on (0, 1).

    Golub and Welsch (Math. Comp. 1969): the nodes on (-1, 1) are the
    eigenvalues of the Jacobi matrix of the monic Jacobi polynomials with
    alpha = 1, beta = 0, whose recurrence has diagonal -1 / ((2j+1)(2j+3))
    and off-diagonal sqrt(j (j+1)) / (2j+1); a weight is the integral of
    (1 - x), which is 2, times the squared first entry of its eigenvector.
    """
    n = order // 2 + 1
    j = np.arange(n)
    off = np.sqrt(j[1:] * (j[1:] + 1.0)) / (2.0 * j[1:] + 1.0)
    x, vec = np.linalg.eigh(np.diag(-1.0 / ((2.0 * j + 1.0) * (2.0 * j + 3.0)))
                            + np.diag(off, 1) + np.diag(off, -1))
    # map from (-1, 1) with weight (1 - x) to (0, 1): the weights 2 vec[0]^2 take a factor 1/4
    return 0.5 * (x + 1.0), 0.5 * vec[0] ** 2


@lru_cache(maxsize=None)
def _reference_triangle(order: int):
    """Conical-product rule on the unit triangle {x, y >= 0, x + y <= 1}."""
    xi, wx = _jacobi_01(order)
    eta, wy = _gauss_01(order)
    X = np.repeat(xi, len(eta))
    W = np.repeat(wx, len(eta)) * np.tile(wy, len(xi))
    Y = np.tile(eta, len(xi)) * (1.0 - X)
    return np.column_stack([X, Y]), W


def interval_rule(a, b, order: int) -> QuadratureRule:
    order = _check_order(order)
    x, w = _gauss_01(order)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    length = (b - a)[..., None]
    return QuadratureRule((a[..., None] + length * x)[..., None], length * w, order)


def triangle_rule(v0, v1, v2, order: int) -> QuadratureRule:
    order = _check_order(order)
    ref, w = _reference_triangle(order)
    v0, v1, v2 = map(np.asarray, (v0, v1, v2))
    e1, e2 = v1 - v0, v2 - v0
    jac = e1[..., 0] * e2[..., 1] - e2[..., 0] * e1[..., 1]
    pts = (v0[..., None, :] + ref[:, 0, None] * e1[..., None, :]
           + ref[:, 1, None] * e2[..., None, :])
    return QuadratureRule(pts, np.abs(jac)[..., None] * w, order)


def quad_rule(pts: np.ndarray, order: int) -> QuadratureRule:
    """Tensor Gauss rule on a parallelogram given by its vertex loop."""
    order = _check_order(order)
    if not np.all(is_parallelogram(pts)):
        raise ValueError("tensor quad rule requires a parallelogram")
    x, w = _gauss_01(order)
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w).ravel()
    e1, e2 = pts[..., 1, :] - pts[..., 0, :], pts[..., 3, :] - pts[..., 0, :]
    jac = np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    phys = (pts[..., 0, None, :] + X.ravel()[:, None] * e1[..., None, :]
            + Y.ravel()[:, None] * e2[..., None, :])
    return QuadratureRule(phys, jac[..., None] * W, order)


def polygon_rule(pts: np.ndarray, center: np.ndarray, order: int) -> QuadratureRule:
    """Fan the polygon into triangles from ``center`` (star point)."""
    order = _check_order(order)
    fan = triangle_rule(center[..., None, :], pts, np.roll(pts, -1, axis=-2), order)
    lead = pts.shape[:-2]
    return QuadratureRule(fan.points.reshape(lead + (-1, pts.shape[-1])),
                          fan.weights.reshape(lead + (-1,)), order)


def cell_quadrature(geom: CellGeometry, order: int) -> QuadratureRule:
    """Rule of the given order on a cell or a group of cells of one shape.

    A group's points and weights carry a leading cell axis.
    """
    pts = geom.vertices
    if geom.shape == "interval":
        return interval_rule(pts[..., 0, 0], pts[..., 1, 0], order)
    if geom.shape == "tri":
        return triangle_rule(pts[..., 0, :], pts[..., 1, :], pts[..., 2, :], order)
    if geom.shape == "quad":
        return quad_rule(pts, order)
    return polygon_rule(pts, geom.barycenter, order)


def face_quadrature(mesh: Mesh, faces, order: int) -> QuadratureRule:
    """Rule on a face, or stacked over an array of faces: a single point in
    1D, Gauss-Legendre on a segment in 2D."""
    pts = mesh.vertices[mesh.face_nodes[faces]]
    if mesh.dim == 1:
        return QuadratureRule(pts, np.ones(pts.shape[:-1]), MAX_ORDER)
    edge = pts[..., 1, :] - pts[..., 0, :]
    length = np.linalg.norm(edge, axis=-1)
    if np.any(length <= 0):
        bad = np.ravel(faces)[np.flatnonzero(np.ravel(length <= 0))[0]]
        raise MeshError(f"face {bad} has zero length")
    order = _check_order(order)
    x, w = _gauss_01(order)
    phys = pts[..., 0, None, :] + x[:, None] * edge[..., None, :]
    return QuadratureRule(phys, length[..., None] * w, order)
