"""The cell Gram matrices of the context, built as face sums, against
quadrature on the cell's data rule, which is exact for their integrands."""

import numpy as np
import pytest

from pyhho.elasticity import TENSOR_WEIGHTS, strain_gram
from pyhho.local_ops import build_cell_context
from pyhho.mesh import Mesh, build_hanging_node_mesh, build_interval_mesh, build_structured_mesh
from pyhho.projection import HhoDegrees

from support import jittered_mesh, strain_columns


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
        w, phi, dphi = ctx.data_rule.weights, ctx.data_phi, ctx.data_dphi
        wphi = w[..., None] * phi
        assert_close(ctx.mass_full, wphi.mT @ phi)
        assert_close(ctx.ints_full, wphi.sum(axis=1))
        assert_close(ctx.grad_mass, np.einsum("bqic,bqj->bicj", dphi, wphi[..., :ctx.n_k]))
        assert_close(ctx.stiff_full, np.einsum("bqic,bq,bqjc->bij", dphi, w, dphi))
        if mesh.dim == 2:
            eps = strain_columns(dphi)
            K = np.einsum("bqim,bq,m,bqjm->bij", eps, w, TENSOR_WEIGHTS, eps)
            assert_close(strain_gram(ctx), K)


def test_context_keeps_no_view_of_the_gram():
    # the blocks are copies, so the whole gram is freed with the build
    ctx = build_cell_context(build_structured_mesh("tri", 2, 2), np.arange(8), HhoDegrees(1))
    for block in (ctx.mass_full, ctx.grad_mass, ctx.grad_gram):
        assert block.base is None
