"""Scratch memory of the solve stages.

``assemble``, the patch preconditioner and ``error_norms`` walk their cells
or vertices ``asm.CHUNK`` at a time, so the tracemalloc peak above what is
live at entry stays near the size of what the stage returns.  The gate runs
32x32 quads (Poisson, k=1: 1,024 cells, 1,089 vertices) in chunks of 64.
There the measured scratch above the output was 0.31 MB (assembly), 0.25 MB
(preconditioner) and 0.38 MB (error norms); the bounds add about a third.
Without chunks the three stages peaked at 2.2-3.9 MB on this input.

``build_local`` keeps only what depends on a cell's shape once per shape,
and of that only what later stages read: each group's build context dies
with its build, and the face fluxes are read from the face rows of ``L``.
On 32x32 jittered quads (Poisson, k=1, every cell its own shape) the groups
hold 4.5 MB and the traced peak is 16.8 MB; on 32x32 jittered triangles
(elasticity, k=1) they hold 15.3 MB and the peak is 34.5 MB.  The peak
bounds add about a third to the triangles' and a fifth to the quads'.  With
the reconstructions solving normal equations, whose stiffness and strain
Grams the build formed, the peaks were 18.1 and 43.9 MB.  With sources as
long as a local DoF vector the groups held 4.6 and 15.5 MB, with a stored
flux operator as well 5.3 and 18.9 MB, with the build context kept through
the operators as well 8.7 and 26.3 MB, and with the basis values and
gradients on the data rule kept in that context too, 18.4 MB on the quads
(peak 39.9 MB).
"""

import tracemalloc

import pytest

from pyhho import assembly as asm
from pyhho.harness import build_local, dirichlet_data, error_norms, neumann_rhs, solve_problem
from pyhho.local_ops import CellContext, FaceContext
from pyhho.mesh import CellGeometry, build_structured_mesh
from pyhho.problems import elasticity_compressible, poisson_sin_2d
from pyhho.projection import HhoDegrees, equal_order

from support import jittered_hanging, jittered_mesh, kept_arrays

MB = 2 ** 20


def traced_peak(fn, *args):
    """``fn(*args)`` and its tracemalloc peak above what was live at entry."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def nbytes(*arrays):
    return sum(a.nbytes for a in arrays)


def test_solve_stages_stay_within_chunk_scratch(monkeypatch):
    monkeypatch.setattr(asm, "CHUNK", 64)
    mesh, degrees, spec = build_structured_mesh("quad", 32, 32), equal_order(1), poisson_sin_2d()
    sol = solve_problem(mesh, degrees, spec)
    condensed = [g.condense() for g in sol.groups]
    system, peak = traced_peak(asm.assemble, mesh, condensed, sol.dofmap,
                               dirichlet_data(mesh, degrees, spec.u_dirichlet),
                               neumann_rhs(mesh, degrees, spec.g_neumann))
    A = system.matrix
    assert peak <= nbytes(A.data, A.indices, A.indptr, system.rhs) + 0.42 * MB

    patches = asm._vertex_patches(sol.dofmap)
    assert len(patches) > 10 * asm.CHUNK
    _, peak = traced_peak(asm._block_jacobi, A, patches)
    inverses = patches.shape[0] * patches.shape[1] ** 2 * 8
    assert peak <= inverses + 0.34 * MB

    _, peak = traced_peak(error_norms, sol)
    assert peak <= 0.5 * MB


@pytest.mark.parametrize("solver", ["direct", "cg"])
def test_solve_frees_the_condensed_matrices(monkeypatch, solver):
    # recovery reads only X and y of each condensed group
    seen = []
    recover = asm.recover_cells

    def spy(mesh, condensed, *args, **kwargs):
        seen.extend((cg.L_c, cg.b_c) for cg in condensed)
        return recover(mesh, condensed, *args, **kwargs)

    monkeypatch.setattr(asm, "recover_cells", spy)
    solve_problem(build_structured_mesh("quad", 3, 3), equal_order(1), poisson_sin_2d(),
                  solver=solver)
    assert seen == [(None, None)]


def traced_build(mesh, degrees, spec):
    """``build_local``'s groups, with the memory they keep and the build's
    peak, both traced; the mesh's own geometry cache is not the build's."""
    mesh.cell_groups()
    tracemalloc.start()
    try:
        groups = build_local(mesh, degrees, spec)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return groups, live, peak


def test_local_build_keeps_shape_arrays_once_per_shape():
    degrees, spec = equal_order(1), poisson_sin_2d()
    groups, live, peak = traced_build(jittered_mesh("quad", 32, 1), degrees, spec)
    assert live <= 5 * MB and peak <= 20 * MB
    _, live, peak = traced_build(jittered_mesh("tri", 32, 1), HhoDegrees(1, 1, rank=2),
                                 elasticity_compressible(mu=1.0, lam=3.0))
    assert live <= 17 * MB and peak <= 46 * MB
    # the condensation keeps its matrices once per shape as well: one row
    # per cell on the jittered mesh, one row in all on uniform quads
    uniform = build_local(build_structured_mesh("quad", 8, 8), degrees, spec)
    assert [len(g.ops.L) for g in uniform] == [1]
    for g in groups + uniform:
        cg = g.condense()
        assert len(cg.L_c) == len(cg.X) == len(g.ops.L) == g.shapes.max() + 1
        assert len(cg.b_c) == len(cg.y) == len(g.cells)


@pytest.mark.parametrize("case", ["poisson", "elasticity", "hanging"])
def test_solved_groups_keep_no_build_context(case):
    mesh = jittered_hanging() if case == "hanging" else jittered_mesh("tri", 4, 2)
    degrees, spec = ((HhoDegrees(1, 1, rank=2), elasticity_compressible(mu=1.0, lam=3.0))
                     if case == "elasticity" else (equal_order(1), poisson_sin_2d()))
    sol = solve_problem(mesh, degrees, spec)
    if case == "hanging":     # a group of polygons padded to its longest loop
        assert any((mesh.cell_geometry(g.cells).face_measures == 0).any() for g in sol.groups)
    types, owners = kept_arrays(sol.groups)
    assert not types & {CellContext, FaceContext, CellGeometry}
    # each buffer is kept whole by one of its arrays: no kept view pins a larger array
    for owner, views in owners.values():
        assert max(a.nbytes for a in views) == owner.nbytes
