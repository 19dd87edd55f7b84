import os
import subprocess
import sys
from math import factorial

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

import pyhho
from pyhho.mesh import build_hanging_node_mesh, build_interval_mesh, build_structured_mesh
from pyhho.quadrature import (MAX_ORDER, _gauss_01, _jacobi_01, cell_quadrature,
                              face_quadrature, interval_rule, polygon_rule, quad_rule,
                              triangle_rule)

from support import face_measure

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
        assert rule.weights.sum() == pytest.approx(face_measure(mesh, fi), rel=1e-13)
    mesh1 = build_interval_mesh(0.0, 1.0, 2)
    rule = face_quadrature(mesh1, 1, 5)
    assert rule.weights.sum() == pytest.approx(1.0)
    assert rule.points[0, 0] == pytest.approx(0.5)


def test_order_cap():
    with pytest.raises(ValueError):
        interval_rule(0.0, 1.0, MAX_ORDER + 1)
    with pytest.raises(ValueError):
        triangle_rule(*UNIT_TRI, -1)
    # a 1D mesh's one-point face rule checks its order as a segment's does
    for mesh in (build_structured_mesh("tri", 1, 1), build_interval_mesh(0.0, 1.0, 2)):
        with pytest.raises(ValueError, match="quadrature order must be nonnegative"):
            face_quadrature(mesh, 1, -1)


@pytest.mark.parametrize("n", range(1, MAX_ORDER // 2 + 2))
def test_gauss_rules_match_scipy(n):
    # the numpy rules against scipy's, mapped back to (-1, 1); n = 11 is MAX_ORDER's
    for (x, w), (xr, wr), scale in ((_gauss_01(2 * n - 2), roots_legendre(n), 2.0),
                                    (_jacobi_01(2 * n - 2), roots_jacobi(n, 1.0, 0.0), 4.0)):
        assert len(x) == n
        np.testing.assert_allclose(2.0 * x - 1.0, xr, rtol=0, atol=1e-14)
        np.testing.assert_allclose(scale * w, wr, rtol=0, atol=1e-14)


SOLVE_WITHOUT_SPECIAL = """
import sys
import pyhho.cli
from pyhho.harness import error_norms, solve_problem
from pyhho.mesh import build_structured_mesh
from pyhho.problems import poisson_sin_2d
from pyhho.projection import equal_order
sol = solve_problem(build_structured_mesh("quad", 4, 4), equal_order(1), poisson_sin_2d(),
                    solver="cg")
error_norms(sol)
assert pyhho.cli.main(["solve", "--gen", "quad:4:4", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy.special")))
"""


def test_a_solve_never_loads_scipy_special(tmp_path):
    # a fresh interpreter: the test process itself may have imported it
    src = os.path.dirname(os.path.dirname(pyhho.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", SOLVE_WITHOUT_SPECIAL, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
