"""Scratch memory of the solve stages.

``assemble``, the patch preconditioner and ``error_norms`` walk their cells
or vertices ``asm.CHUNK`` at a time, so the tracemalloc peak above what is
live at entry stays near the size of what the stage returns.  The gate runs
32x32 quads (Poisson, k=1: 1,024 cells, 1,089 vertices) in chunks of 64.
There the measured scratch above the output was 0.31 MB (assembly), 0.25 MB
(preconditioner) and 0.38 MB (error norms); the bounds add about a third.
Without chunks the three stages peaked at 2.2-3.9 MB on this input.
"""

import tracemalloc

import pytest

from pyhho import assembly as asm
from pyhho.harness import dirichlet_data, error_norms, neumann_rhs, solve_problem
from pyhho.mesh import build_structured_mesh
from pyhho.problems import poisson_sin_2d
from pyhho.projection import equal_order

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
