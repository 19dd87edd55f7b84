"""The cell Gram matrices of the context, built as face sums, against
quadrature on the cell's data rule, which is exact for their integrands, and
the gradient Grams, derived from the mass Gram, against one face-point Gram
of the values and pointwise gradients.  The stiffness and strain Grams,
which the build no longer forms, are checked as the references
:mod:`support` derives from the mass Gram and the derivative maps."""

import numpy as np
import pytest

from pyhho.local_ops import build_cell_context
from pyhho.mesh import Mesh, build_hanging_node_mesh, build_interval_mesh, build_structured_mesh
from pyhho.projection import HhoDegrees, equal_order, mixed_order

from support import (TENSOR_WEIGHTS, data_rule_basis, face_point_grams, grad_mass,
                     gradient_gram, jittered_hanging, jittered_mesh, rotated, stiffness_gram,
                     strain_columns, strain_gram)


def all_cells(mesh):
    return [(mesh, cells) for cells in mesh.cell_groups()]


def hanging_pentagon():
    mesh = build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [3])
    return [(mesh, [next(c for c in range(mesh.n_cells) if len(mesh.cells[c]) == 5)])]


def l_hexagon():
    # non-convex, star-shaped about its barycenter (5/6, 5/6)
    verts = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    return [(Mesh(2, verts, np.array([np.arange(6)])), [0])]


CELLS = {
    "interval": lambda: all_cells(build_interval_mesh(0.0, 1.0, 3)),
    "quad": lambda: all_cells(build_structured_mesh("quad", 2, 2)),
    "tri": lambda: all_cells(build_structured_mesh("tri", 2, 2)),
    "hanging-pentagon": hanging_pentagon,
    "jittered-quad": lambda: all_cells(jittered_mesh("quad", 3, 4)),
    "jittered-tri": lambda: all_cells(jittered_mesh("tri", 3, 4)),
    "l-hexagon": l_hexagon,
}


def assert_close(actual, ref):
    assert np.abs(actual - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", list(CELLS))
def test_face_sum_grams_match_cell_quadrature(kind, k):
    for mesh, cells in CELLS[kind]():
        ctx = build_cell_context(mesh, cells, HhoDegrees(k))
        # the data rule is exact to degree 2(k+2), above every integrand here
        rule, phi, dphi = data_rule_basis(ctx)
        w = rule.weights
        wphi = w[..., None] * phi
        assert_close(ctx.mass_full, wphi.mT @ phi)
        assert_close(ctx.ints_full, wphi.sum(axis=1))
        assert_close(grad_mass(ctx), np.einsum("bqic,bqj->bicj", dphi, wphi[..., :ctx.n_k]))
        assert_close(stiffness_gram(ctx), np.einsum("bqic,bq,bqjc->bij", dphi, w, dphi))
        if mesh.dim == 2:
            eps = strain_columns(dphi)
            K = np.einsum("bqim,bq,m,bqjm->bij", eps, w, TENSOR_WEIGHTS, eps)
            assert_close(strain_gram(ctx), K)


def test_context_keeps_no_view_of_the_gram():
    # the blocks are their own buffers, freed with the build
    ctx = build_cell_context(build_structured_mesh("tri", 2, 2), np.arange(8), HhoDegrees(1))
    for block in (ctx.mass_full, ctx.grad_maps, ctx.mass_k_factor, ctx.mass_k_inv):
        assert block.base is None


MESHES = {
    "tri": lambda: build_structured_mesh("tri", 3, 3),
    "quad": lambda: build_structured_mesh("quad", 3, 3),
    "padded-hanging": jittered_hanging,
    "jittered-tri": lambda: jittered_mesh("tri", 4, 2),
    "jittered-quad": lambda: jittered_mesh("quad", 4, 2),
    "turned-strip": lambda: rotated(
        build_structured_mesh("quad", 8, 8, bounds=((0.0, 500.0), (0.0, 1.0))), 30),
    "graded-interval": lambda: build_interval_mesh(0.0, 1.0, 7, grading=1.5),
}


@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", list(MESHES))
def test_gradient_grams_match_the_face_point_gram(kind, k, mixed):
    mesh = MESHES[kind]()
    for cells in mesh.cell_groups():
        ctx = build_cell_context(mesh, cells, (mixed_order if mixed else equal_order)(k))
        mass, mass_grad, grad_gram = face_point_grams(ctx)
        assert_close(ctx.mass_full, mass)
        assert_close(grad_mass(ctx), mass_grad)
        assert_close(gradient_gram(ctx), grad_gram)
        assert_close(stiffness_gram(ctx), np.trace(grad_gram, axis1=2, axis2=4))
