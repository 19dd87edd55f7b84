"""Operators kept once per cell shape, indexed by shape, equal a per-cell build."""

import dataclasses
import logging
import re

import numpy as np
import pytest

from pyhho import assembly as asm
from pyhho import harness, local_ops
from pyhho.elasticity import local_bilinear_elastic
from pyhho.harness import build_local, error_norms, local_rhs, mesh_family, solve_problem
from pyhho.local_ops import build_cell_context, local_bilinear
from pyhho.mesh import Mesh, build_interval_mesh, build_structured_mesh
from pyhho.problems import elasticity_compressible, poisson_sin_1d, poisson_sin_2d
from pyhho.projection import HhoDegrees

from support import (data_rule_basis, jittered_mesh, operator, reachable, rotated,
                     scaled_condition)

OPERATOR_FIELDS = ("L", "stab_face", "rec", "flux", "balance")
CONDENSED_FIELDS = ("L_c", "X", "y", "b_c")


MESHES = {
    "interval": lambda: build_interval_mesh(0.0, 1.0, 6),
    "quad": lambda: build_structured_mesh("quad", 3, 3),
    "tri": lambda: build_structured_mesh("tri", 3, 3),
    "hanging": lambda: mesh_family("hanging", 0, base=4),
    "jittered-tri": lambda: jittered_mesh("tri", 4, 3),
}


def graded_quad_mesh(widths, ny=2):
    """Quads in columns of the given widths: the cells of a column share a shape."""
    base = build_structured_mesh("quad", len(widths), ny)
    xs = np.concatenate([[0.0], np.cumsum(widths)])
    verts = base.vertices.copy()
    verts[:, 0] = xs[np.rint(verts[:, 0] * len(widths)).astype(int)]
    return Mesh(2, verts, base.cells)


def per_cell_build(mesh, degrees, spec):
    """Operators, sources and data rule of every group with each cell its own shape."""
    out = []
    for cells in mesh.cell_groups():
        ctx = build_cell_context(mesh, cells, degrees)
        ops = (local_bilinear(ctx) if degrees.rank == 1
               else local_bilinear_elastic(ctx, spec.mu, spec.lam))
        rule = data_rule_basis(ctx)[0]
        out.append((ops, local_rhs(ctx, spec.f, rule, cells, np.arange(len(cells))), rule))
    return out


def per_cell(cg, name):
    """A field of a condensation, one row per cell: ``L_c`` and ``X`` are
    kept by shape."""
    return getattr(cg, name)[cg.shapes] if name in ("L_c", "X") else getattr(cg, name)


def relative(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


def assert_close(got, ref, name, tol=1e-12):
    assert relative(got, ref) <= tol, name


def condensation_tol(L, layout, *diffs):
    """Bound on the relative difference between condensations of two sets of
    cell matrices ``L`` (one per cell) that differ by ``diffs`` (relative to
    the largest entry, as :func:`relative` measures them): the 2-norm
    condition number of the worst cell block times the difference, plus one
    rounding unit for the solves themselves."""
    kappa = np.linalg.cond(L[:, layout.cell, layout.cell]).max()
    return 1e-12 + kappa * (sum(diffs) + np.finfo(float).eps)


def check_against_per_cell(mesh, degrees, spec):
    groups = build_local(mesh, degrees, spec)
    for g, (ref, ref_b, rule) in zip(groups, per_cell_build(mesh, degrees, spec)):
        each = np.arange(len(g.cells))
        reps, shapes = mesh.cell_shapes(g.cells)
        np.testing.assert_array_equal(g.cells, ref.cells)
        np.testing.assert_array_equal(g.shapes, shapes)
        np.testing.assert_array_equal(g.ops.cells, reps)
        # the data rule is each cell's own
        np.testing.assert_array_equal(g.rule.points, rule.points)
        np.testing.assert_array_equal(g.rule.weights, rule.weights)
        for name in OPERATOR_FIELDS:
            assert_close(operator(g.ops, name)[g.shapes], operator(ref, name), name)
        assert_close(g.rhs, ref_b, "rhs")
        cg = g.condense()
        # against a per-cell condensation of the same matrices
        same = asm.condense(g.ops.L[g.shapes], g.rhs, ref.layout, g.cells, each)
        # against one solve per cell of the per-cell build, whose operators
        # and sources differ from the shape's by round-off; the cell block's
        # conditioning amplifies that (about 1e7 at k=3 on triangles)
        want = solve_condense(ref.L, ref_b, ref.layout)
        tol = condensation_tol(ref.L, ref.layout, relative(g.ops.L[g.shapes], ref.L),
                               relative(g.rhs, ref_b))
        for name in CONDENSED_FIELDS:
            assert_close(per_cell(cg, name), per_cell(same, name), name)
            assert_close(per_cell(cg, name), want[name], name, tol)


def solve_condense(L, b, layout):
    """Condensation through one solve per cell, with the cell sources ``b``
    among the columns."""
    ct, fc = layout.cell, layout.faces
    sol = np.linalg.solve(L[:, ct, ct], np.concatenate([L[:, ct, fc], b[..., None]], axis=2))
    X, y = sol[..., :-1], sol[..., -1]
    L_c = L[:, fc, fc] - L[:, ct, fc].mT @ X
    return dict(L_c=0.5 * (L_c + L_c.mT), X=X, y=y, b_c=-(X.mT @ b[..., None])[..., 0])


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("family", sorted(MESHES))
def test_scalar_operators_match_per_cell_build(family, k, mixed):
    mesh = MESHES[family]()
    spec = poisson_sin_1d() if mesh.dim == 1 else poisson_sin_2d()
    check_against_per_cell(mesh, HhoDegrees(k, k + mixed), spec)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", ["quad", "tri", "hanging", "jittered-tri"])
def test_vector_operators_match_per_cell_build(family, k, mixed):
    check_against_per_cell(MESHES[family](), HhoDegrees(k, k + mixed, rank=2),
                           elasticity_compressible(mu=1.0, lam=3.0))


def test_all_distinct_shapes_build_as_before():
    # every jittered triangle is its own shape: the operators are bit for
    # bit a per-cell build, and the condensation agrees with one solve per cell
    mesh = jittered_mesh("tri", 4, 3)
    spec, degrees = poisson_sin_2d(), HhoDegrees(1, 1)
    g, = build_local(mesh, degrees, spec)
    (ref, ref_b, _), = per_cell_build(mesh, degrees, spec)
    np.testing.assert_array_equal(g.shapes, np.arange(len(g.cells)))
    for name in OPERATOR_FIELDS:
        np.testing.assert_array_equal(operator(g.ops, name), operator(ref, name))
    np.testing.assert_array_equal(g.rhs, ref_b)
    cg, want = g.condense(), solve_condense(ref.L, ref_b, ref.layout)
    for name in CONDENSED_FIELDS:
        assert_close(per_cell(cg, name), want[name], name)


def test_solved_group_keeps_operators_per_shape():
    mesh = build_structured_mesh("quad", 16, 16)
    sol = solve_problem(mesh, HhoDegrees(1, 1), poisson_sin_2d())
    g, = sol.groups
    assert not g.shapes.any()
    found = {path: a for path, a in reachable(g.ops, "ops") if isinstance(a, np.ndarray)}
    assert "ops.L" in found and "ops.trace" in found
    assert {path: a.shape[0] for path, a in found.items() if a.shape[0] != 1} == {}
    # only these are per cell
    cell_fields = {f.name for f in dataclasses.fields(g)
                   if isinstance(getattr(g, f.name), np.ndarray)}
    assert cell_fields == {"cells", "shapes", "rhs"}
    assert g.rhs.shape == (mesh.n_cells, g.ops.layout.cell_width)
    assert {len(a) for a in [getattr(g, name) for name in cell_fields]
            + [g.rule.points, g.rule.weights]} == {mesh.n_cells}


def one_shape_per_cell(mesh, cells):
    return np.asarray(cells), np.arange(len(cells))


SHARING_SOLVES = {
    "hanging-mixed-k1": (lambda: mesh_family("hanging", 0, base=4), HhoDegrees(1, 2),
                         poisson_sin_2d()),
    "jittered-quad-elasticity-k2": (lambda: jittered_mesh("quad", 4, 5),
                                    HhoDegrees(2, 2, rank=2),
                                    elasticity_compressible(mu=1.0, lam=3.0)),
    "tri-elasticity-k1": (lambda: build_structured_mesh("tri", 4, 4),
                          HhoDegrees(1, 1, rank=2), elasticity_compressible(mu=1.0, lam=3.0)),
}


@pytest.mark.parametrize("case", SHARING_SOLVES)
def test_data_rule_reads_do_not_depend_on_shape_sharing(monkeypatch, case):
    # the sources and the error norms read the basis on the data rule once
    # per shape of a chunk: with every cell its own shape, and in chunks of
    # any size, they agree with the shared build
    make, degrees, spec = SHARING_SOLVES[case]
    shared = solve_problem(make(), degrees, spec)
    want = error_norms(shared)
    monkeypatch.setattr(Mesh, "cell_shapes", one_shape_per_cell)
    for chunk in (asm.CHUNK, 1, 7):
        monkeypatch.setattr(asm, "CHUNK", chunk)
        alone = solve_problem(make(), degrees, spec)
        for g, h in zip(shared.groups, alone.groups):
            assert len(h.ops.L) == len(h.cells)
            assert_close(h.rhs, g.rhs, "rhs")
        got = error_norms(alone)
        for name in ("err_h1", "err_l2_cell", "err_l2_rec", "stab"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0)


def test_shape_counts():
    for n in (1, 4, 16, 64):
        mesh = build_structured_mesh("quad", n, n)
        reps, shapes = mesh.cell_shapes(mesh.cell_groups()[0])
        assert reps.tolist() == [0] and not shapes.any()
    mesh = jittered_mesh("tri", 4, 3)
    cells = mesh.cell_groups()[0]
    reps, shapes = mesh.cell_shapes(cells)
    np.testing.assert_array_equal(reps, cells)
    np.testing.assert_array_equal(shapes, np.arange(len(cells)))


def test_representatives_are_first_cells_in_order():
    mesh = mesh_family("hanging", 1, base=4)
    for cells in mesh.cell_groups():
        reps, shapes = mesh.cell_shapes(cells)
        assert np.all(np.diff(reps) > 0)
        np.testing.assert_array_equal(cells[np.unique(shapes, return_index=True)[1]], reps)
        np.testing.assert_array_equal(reps[shapes] <= cells, True)


def test_near_copies_get_their_own_shape():
    # separate triangles: a translated copy shares the shape; a vertex moved
    # by 1e-9 h, a face stored the other way round, and a copy scaled by
    # 1e-6 do not
    tri = np.array([[1.0, 1.0], [11.0, 1.0], [11.0, 11.0]])
    h = np.sqrt(200.0)
    moved = tri + [20.0, 0.0]
    moved[2, 1] += 1e-9 * h
    verts = np.concatenate([tri, tri + [0.0, 20.0], moved, tri + [20.0, 20.0], 1e-6 * tri])
    cells = [[0, 1, 2], [3, 4, 5], [6, 7, 8],
             [11, 9, 10],       # the loop (9, 10, 11) numbered so its faces flip
             [12, 13, 14]]
    verts[[9, 10, 11]] = verts[[10, 11, 9]]
    mesh = Mesh(2, verts, cells)
    group = mesh.cell_groups()[0]
    reps, shapes = mesh.cell_shapes(group)
    assert shapes.tolist() == [0, 0, 1, 2, 3]
    assert reps.tolist() == [0, 2, 3, 4]
    for k in (0, 1, 2):
        check_against_per_cell(mesh, HhoDegrees(k, k), poisson_sin_2d())


def test_condition_guard_names_lowest_offending_cell(monkeypatch):
    # columns of widths 1 and 0.2, the narrow ones pinched at mid-height to
    # near-triangles that no affine frame makes square: the pinched cells are
    # 4, 5, 8, 9, and 4 and 8 share a shape, as do 5 and 9
    mesh = graded_quad_mesh([1.0, 1.0, 0.2, 1.0, 0.2])
    verts = mesh.vertices.copy()
    for x, step in ((2.0, 0.08), (2.2, -0.08), (3.2, 0.08), (3.4, -0.08)):
        verts[np.isclose(verts, [x, 0.5]).all(axis=1), 0] += step
    mesh = Mesh(2, verts, mesh.cells)
    cond = np.empty(mesh.n_cells)
    for cells in mesh.cell_groups():
        cond[cells] = scaled_condition(build_cell_context(mesh, cells,
                                                          HhoDegrees(2, 2)).mass_full)
    limit = np.sqrt(cond.min() * cond.max())
    assert np.flatnonzero(cond > limit).tolist() == [4, 5, 8, 9]
    monkeypatch.setattr(local_ops, "COND_LIMIT", limit)
    with pytest.raises(ValueError, match="^cell 4: mass-matrix condition number"):
        solve_problem(mesh, HhoDegrees(2, 2), poisson_sin_2d())


def test_singular_cell_block_names_lowest_offending_cell(monkeypatch):
    mesh = graded_quad_mesh([1.0, 1.0, 0.2, 1.0, 0.2])
    build = harness.local_bilinear

    def broken(ctx):
        ops = build(ctx)
        narrow = ctx.geom.measure < 0.5 * ctx.geom.measure.max(initial=1.0)
        ops.L[np.ix_(narrow, range(ctx.layout.cell_width), range(ctx.layout.cell_width))] = 0.0
        return ops

    monkeypatch.setattr(harness, "local_bilinear", broken)
    with pytest.raises(ValueError, match="^cell 4: singular cell block"):
        solve_problem(mesh, HhoDegrees(1, 1), poisson_sin_2d())


def test_strip_names_cell_zero(monkeypatch):
    # an axis-aligned 512:1 strip solves at k=2, and a 100:1 strip turned by
    # 30 degrees at k=3; below its condition number the guard names cell 0
    sol = solve_problem(build_structured_mesh("quad", 512, 1), HhoDegrees(2, 2),
                        poisson_sin_2d())
    assert np.isfinite(sol.face_coeffs).all() and sol.residual <= 1e-10
    mesh = rotated(build_structured_mesh("quad", 100, 1), 30)
    sol = solve_problem(mesh, HhoDegrees(3, 3), poisson_sin_2d())
    assert np.isfinite(sol.face_coeffs).all() and sol.residual <= 1e-10
    monkeypatch.setattr(local_ops, "COND_LIMIT", 100.0)
    with pytest.raises(ValueError, match="^cell 0: mass-matrix condition number"):
        solve_problem(mesh, HhoDegrees(3, 3), poisson_sin_2d())


def test_debug_line_per_group(caplog):
    # each group logs its reconstruction's worst diagonal ratio, naming one of
    # its cells, then its build
    mesh = mesh_family("hanging", 0, base=4)
    for degrees, spec, what in [
            (HhoDegrees(1, 1), poisson_sin_2d(), "reconstruction"),
            (HhoDegrees(1, 1, rank=2), elasticity_compressible(mu=1.0, lam=3.0),
             "displacement-reconstruction")]:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="pyhho"):
            build_local(mesh, degrees, spec)
        lines = [r.getMessage() for r in caplog.records if r.name == "pyhho"]
        assert len(lines) == 2 * len(mesh.cell_groups())
        for rec, line, cells in zip(lines[0::2], lines[1::2], mesh.cell_groups()):
            reps, _ = mesh.cell_shapes(cells)
            shape = mesh.cell_geometry(cells).shape
            match = re.fullmatch(rf"{what}: largest max\|r_ii\| / min\|r_ii\| (\S+) \(a "
                                 r"lower bound on the condition number\) at cell (\d+)", rec)
            assert match and 1.0 <= float(match[1]) < 1e3 and int(match[2]) in reps
            assert line.startswith(f"local operators: {shape} group, {len(cells)} cells, "
                                   f"{len(reps)} shapes, ")
