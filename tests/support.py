"""Meshes and quadrature references shared by the test modules."""

import numpy as np

from pyhho.harness import data_order
from pyhho.mesh import Mesh, build_hanging_node_mesh, build_structured_mesh
from pyhho.problems import ProblemSpec
from pyhho.quadrature import cell_quadrature

# symmetric unit tensors E_xx, E_yy, E_xy ([[0, 1], [1, 0]]) and their ':' norms
TENSOR_WEIGHTS = np.array([1.0, 1.0, 2.0])


def jittered_mesh(kind, n, seed, amplitude=None):
    """n x n ``kind`` cells ('tri' or 'quad') on the unit square whose
    interior vertices move by a seeded uniform draw of at most
    ``amplitude`` per coordinate (default a fifth of the cell width); the
    boundary stays fixed.  Jittered quads are not parallelograms."""
    base = build_structured_mesh(kind, n, n)
    h = 1.0 / n
    if amplitude is None:
        amplitude = 0.2 * h
    verts = base.vertices.copy()
    interior = np.all((verts > 0.5 * h) & (verts < 1.0 - 0.5 * h), axis=1)
    verts[interior] += np.random.default_rng(seed).uniform(
        -amplitude, amplitude, (int(interior.sum()), 2))
    return Mesh(2, verts, base.cells)


def random_half(n, seed, neumann=None):
    """n x n quads with a seeded random half of the cells split in four, as
    the benchmark's hanging-node input; polygons of 5 to 8 faces."""
    base = build_structured_mesh("quad", n, n, neumann=neumann)
    rng = np.random.default_rng(seed)
    return build_hanging_node_mesh(base, rng.choice(base.n_cells, base.n_cells // 2,
                                                    replace=False))


def jittered_hanging():
    """4x4 quads with cells 0, 2 and 9 split and vertex (0.75, 0.75) moved:
    three 4-vertex cells that are no parallelograms share the padded polygon
    group with the pentagons and hexagons."""
    mesh = build_hanging_node_mesh(build_structured_mesh("quad", 4, 4), [0, 2, 9])
    verts = mesh.vertices.copy()
    verts[np.all(verts == 0.75, axis=1)] += [0.03, -0.02]
    return Mesh(2, verts, mesh.cells)


def rotation(degrees):
    """The counterclockwise rotation by ``degrees`` as a 2 x 2 matrix."""
    t = np.radians(degrees)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def rotated(mesh, degrees):
    """``mesh`` rotated counterclockwise about the origin."""
    return Mesh(2, mesh.vertices @ rotation(degrees).T, mesh.cells)


def strip_problem(length, angle=0.0):
    """sin(pi x / length) sin(pi y) on [0, length] x [0, 1], turned like
    :func:`rotated` by ``angle`` degrees."""
    rot = rotation(angle)

    def u(x):
        x = x @ rot                  # rows of R^T x
        return np.sin(np.pi * x[:, 0] / length) * np.sin(np.pi * x[:, 1])

    def grad(x):
        a, b = (np.pi * (x @ rot) / [length, 1.0]).T
        return np.pi * np.column_stack([np.cos(a) * np.sin(b) / length,
                                        np.sin(a) * np.cos(b)]) @ rot.T

    return ProblemSpec(kind="poisson", name="poisson-strip",
                       f=lambda x: np.pi ** 2 * (1.0 + length ** -2) * u(x),
                       u_dirichlet=u, exact=u, exact_grad=grad)


def scaled_condition(M):
    """Condition numbers of a stack of Gram matrices after Jacobi scaling."""
    s = 1.0 / np.sqrt(np.diagonal(M, axis1=-2, axis2=-1))
    return np.linalg.cond(s[..., :, None] * M * s[..., None, :])


def data_rule_basis(ctx):
    """The problem-data rule of order ``data_order`` on the cells of
    ``ctx``, and ``ctx.rec_basis``'s values ``(nb, nq, n_rec)`` and
    gradients ``(nb, nq, n_rec, d)`` at its points."""
    rule = cell_quadrature(ctx.geom, data_order(ctx.degrees))
    return (rule,) + ctx.rec_basis.eval(rule.points)


def strain_columns(dphi):
    """Strain components of the vector basis built from scalar gradients.

    ``dphi`` has shape (..., nq, n, 2); the result has shape (..., nq, 2n, 3)
    holding (eps_xx, eps_yy, eps_xy) of each vector basis function,
    components interleaved.
    """
    eps = np.zeros(dphi.shape[:-2] + (2 * dphi.shape[-2], 3))
    eps[..., 0::2, 0] = dphi[..., 0]             # e_x phi: eps_xx = dx phi
    eps[..., 1::2, 1] = dphi[..., 1]             # e_y phi: eps_yy = dy phi
    eps[..., 0::2, 2] = 0.5 * dphi[..., 1]       # eps_xy of e_x phi
    eps[..., 1::2, 2] = 0.5 * dphi[..., 0]
    return eps
