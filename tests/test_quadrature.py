from math import factorial

import numpy as np
import pytest

from pyhho.mesh import build_hanging_node_mesh, build_interval_mesh, build_structured_mesh
from pyhho.quadrature import (MAX_ORDER, cell_quadrature, face_quadrature,
                              interval_rule, polygon_rule, quad_rule, triangle_rule)

UNIT_TRI = (np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def tri_exact(a, b):
    """int_T x^a y^b over the unit triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_triangle_measure():
    r = triangle_rule(*UNIT_TRI, 0)
    assert r.weights.sum() == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(5) for b in range(5)])
def test_triangle_monomials(a, b):
    r = triangle_rule(*UNIT_TRI, a + b)
    got = np.sum(r.weights * r.points[:, 0] ** a * r.points[:, 1] ** b)
    assert got == pytest.approx(tri_exact(a, b), rel=1e-13)


def test_triangle_x2y_value():
    r = triangle_rule(*UNIT_TRI, 3)
    got = np.sum(r.weights * r.points[:, 0] ** 2 * r.points[:, 1])
    assert got == pytest.approx(1.0 / 60.0, rel=1e-14)


def test_triangle_positive_weights_up_to_cap():
    for order in range(MAX_ORDER + 1):
        r = triangle_rule(*UNIT_TRI, order)
        assert (r.weights > 0).all()


def test_triangle_points_inside():
    r = triangle_rule(*UNIT_TRI, 11)
    x, y = r.points[:, 0], r.points[:, 1]
    assert (x >= -1e-15).all() and (y >= -1e-15).all()
    assert (x + y <= 1 + 1e-15).all()


def test_quad_separable():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    r = quad_rule(pts, 3)
    got = np.sum(r.weights * r.points[:, 0] ** 3 * r.points[:, 1] ** 3)
    assert got == pytest.approx(1.0 / 16.0, rel=1e-13)
    assert r.weights.sum() == pytest.approx(1.0, rel=1e-14)


def test_quad_requires_parallelogram():
    trapezoid = np.array([[0, 0], [2, 0], [1.5, 1], [0, 1]], dtype=float)
    with pytest.raises(ValueError):
        quad_rule(trapezoid, 2)


def test_interval_exactness():
    r = interval_rule(-1.0, 3.0, 7)
    for p in range(8):
        exact = (3.0 ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
        got = np.sum(r.weights * r.points[:, 0] ** p)
        assert got == pytest.approx(exact, rel=1e-13)


def test_polygon_matches_tensor_on_square():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    fan = polygon_rule(pts, np.array([0.5, 0.5]), 6)
    tensor = quad_rule(pts, 6)
    for a, b in [(0, 0), (3, 2), (6, 0), (2, 4)]:
        va = np.sum(fan.weights * fan.points[:, 0] ** a * fan.points[:, 1] ** b)
        vb = np.sum(tensor.weights * tensor.points[:, 0] ** a * tensor.points[:, 1] ** b)
        assert va == pytest.approx(vb, rel=1e-13)


def divergence_theorem_integral(mesh, cell, a, b):
    """Independent polygon integral of x^a y^b via the boundary flux of
    (x^(a+1) y^b / (a+1), 0)."""
    g = mesh.cell_geometry(cell)
    total = 0.0
    for i, fi in enumerate(g.face_indices):
        rule = face_quadrature(mesh, fi, a + b + 2)
        flux = rule.points[:, 0] ** (a + 1) * rule.points[:, 1] ** b / (a + 1)
        total += g.face_normals[i][0] * np.sum(rule.weights * flux)
    return total


@pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (3, 1), (2, 2)])
def test_polygon_cells_against_divergence_theorem(a, b):
    mesh = build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [0])
    pentagons = [ci for ci in range(mesh.n_cells) if len(mesh.cells[ci]) == 5]
    for ci in pentagons:
        rule = cell_quadrature(mesh.cell_geometry(ci), a + b)
        got = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
        assert got == pytest.approx(divergence_theorem_integral(mesh, ci, a, b),
                                    rel=1e-12, abs=1e-15)


def test_cell_quadrature_weight_sums():
    meshes = [build_structured_mesh("quad", 2, 2),
              build_structured_mesh("tri", 2, 2),
              build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [1]),
              build_interval_mesh(0.0, 1.0, 3)]
    for mesh in meshes:
        for ci in range(mesh.n_cells):
            g = mesh.cell_geometry(ci)
            rule = cell_quadrature(g, 4)
            assert rule.weights.sum() == pytest.approx(g.measure, rel=1e-12)


def test_face_quadrature():
    mesh = build_structured_mesh("tri", 1, 1)
    for fi in range(mesh.n_faces):
        rule = face_quadrature(mesh, fi, 5)
        assert rule.weights.sum() == pytest.approx(mesh.face_measure(fi), rel=1e-13)
    mesh1 = build_interval_mesh(0.0, 1.0, 2)
    rule = face_quadrature(mesh1, 1, 5)
    assert rule.weights.sum() == pytest.approx(1.0)
    assert rule.points[0, 0] == pytest.approx(0.5)


def test_order_cap():
    with pytest.raises(ValueError):
        interval_rule(0.0, 1.0, MAX_ORDER + 1)
    with pytest.raises(ValueError):
        triangle_rule(*UNIT_TRI, -1)
