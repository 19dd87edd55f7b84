"""Quadrature rules of declared exactness order on the mesh entities.

Intervals use Gauss-Legendre, parallelogram quads a tensor Gauss rule,
triangles a conical-product (Duffy) rule with all-positive weights, and
general polygons a barycentric fan of triangle rules.  Every rule is exact
for polynomials up to the requested total degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import CellGeometry, Mesh, MeshError

MAX_ORDER = 20


@dataclass(frozen=True)
class QuadratureRule:
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
    n = order // 2 + 1
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _jacobi_01(order: int):
    """Gauss-Jacobi nodes/weights for the weight (1 - x) on (0, 1)."""
    n = order // 2 + 1
    x, w = roots_jacobi(n, 1.0, 0.0)
    # map from (-1, 1) with weight (1 - x) to (0, 1): extra factor 1/4
    return 0.5 * (x + 1.0), 0.25 * w


@lru_cache(maxsize=None)
def _reference_triangle(order: int):
    """Conical-product rule on the unit triangle {x, y >= 0, x + y <= 1}."""
    xi, wx = _jacobi_01(order)
    eta, wy = _gauss_01(order)
    X = np.repeat(xi, len(eta))
    W = np.repeat(wx, len(eta)) * np.tile(wy, len(xi))
    Y = np.tile(eta, len(xi)) * (1.0 - X)
    return np.column_stack([X, Y]), W


def interval_rule(a: float, b: float, order: int) -> QuadratureRule:
    order = _check_order(order)
    x, w = _gauss_01(order)
    return QuadratureRule((a + (b - a) * x)[:, None], (b - a) * w, order)


def triangle_rule(v0, v1, v2, order: int) -> QuadratureRule:
    order = _check_order(order)
    ref, w = _reference_triangle(order)
    v0, v1, v2 = map(np.asarray, (v0, v1, v2))
    jac = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
    pts = v0 + np.outer(ref[:, 0], v1 - v0) + np.outer(ref[:, 1], v2 - v0)
    return QuadratureRule(pts, abs(jac) * w, order)


def _is_parallelogram(pts: np.ndarray) -> bool:
    if len(pts) != 4:
        return False
    d = (pts[0] + pts[2]) - (pts[1] + pts[3])
    scale = np.abs(pts).max() + 1.0
    return bool(np.max(np.abs(d)) <= 1e-13 * scale)


def quad_rule(pts: np.ndarray, order: int) -> QuadratureRule:
    """Tensor Gauss rule on a parallelogram given by its vertex loop."""
    order = _check_order(order)
    if not _is_parallelogram(pts):
        raise ValueError("tensor quad rule requires a parallelogram")
    x, w = _gauss_01(order)
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w).ravel()
    e1, e2 = pts[1] - pts[0], pts[3] - pts[0]
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    phys = pts[0] + np.outer(X.ravel(), e1) + np.outer(Y.ravel(), e2)
    return QuadratureRule(phys, jac * W, order)


def polygon_rule(pts: np.ndarray, center: np.ndarray, order: int) -> QuadratureRule:
    """Fan the polygon into triangles from ``center`` (star point)."""
    order = _check_order(order)
    parts = [triangle_rule(center, pts[i], pts[(i + 1) % len(pts)], order)
             for i in range(len(pts))]
    return QuadratureRule(np.vstack([p.points for p in parts]),
                          np.concatenate([p.weights for p in parts]), order)


def cell_quadrature(geom: CellGeometry, order: int) -> QuadratureRule:
    """Rule of the given order on one cell, dispatching on its shape."""
    if geom.dim == 1:
        a = float(geom.vertices[0, 0])
        b = float(geom.vertices[1, 0])
        return interval_rule(a, b, order)
    pts = geom.vertices
    if len(pts) == 3:
        return triangle_rule(pts[0], pts[1], pts[2], order)
    if _is_parallelogram(pts):
        return quad_rule(pts, order)
    return polygon_rule(pts, geom.barycenter, order)


def face_quadrature(mesh: Mesh, face: int, order: int) -> QuadratureRule:
    """Rule on a face: a single point in 1D, Gauss-Legendre on a segment in 2D."""
    if mesh.dim == 1:
        return QuadratureRule(mesh.face_vertices(face).reshape(1, 1),
                              np.array([1.0]), MAX_ORDER)
    pts = mesh.face_vertices(face)
    if np.linalg.norm(pts[1] - pts[0]) <= 0:
        raise MeshError(f"face {face} has zero length")
    order = _check_order(order)
    x, w = _gauss_01(order)
    phys = pts[0] + np.outer(x, pts[1] - pts[0])
    return QuadratureRule(phys, np.linalg.norm(pts[1] - pts[0]) * w, order)
