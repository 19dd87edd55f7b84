import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pyhho.harness import mesh_family
from pyhho.mesh import (SHAPE_TOL, Mesh, MeshError, _first_seen, _stack_geometry,
                        build_hanging_node_mesh, build_interval_mesh, build_structured_mesh,
                        left_half, load_mesh_json, mesh_from_dict, mesh_to_dict,
                        refine_uniform, save_mesh_json)

from support import jittered_hanging, jittered_mesh, random_half


def test_interval_uniform():
    m = build_interval_mesh(0.0, 1.0, 4)
    assert m.n_cells == 4
    assert m.n_faces == 5
    for ci in range(4):
        assert m.cell_geometry(ci).measure == pytest.approx(0.25)
    assert m.dirichlet_faces[0] and m.dirichlet_faces[-1]
    assert not m.dirichlet_faces[1:-1].any()


def test_interval_single_cell():
    m = build_interval_mesh(0.0, 1.0, 1)
    assert m.n_cells == 1
    assert m.boundary_faces.all()


def test_interval_grading_one_is_uniform():
    m = build_interval_mesh(0.0, 2.0, 4, grading=1.0)
    np.testing.assert_allclose(m.vertices.ravel(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_interval_errors():
    with pytest.raises(MeshError):
        build_interval_mesh(0.0, np.inf, 4)
    with pytest.raises(MeshError):
        build_interval_mesh(1.0, 0.0, 4)
    with pytest.raises(MeshError):
        build_interval_mesh(0.0, 1.0, 0)


def test_structured_quad_counts():
    m = build_structured_mesh("quad", 2, 2)
    assert m.n_cells == 4
    assert m.n_faces == 12
    assert int((~m.boundary_faces).sum()) == 4
    assert int(m.boundary_faces.sum()) == 8


def test_structured_tri_counts():
    m = build_structured_mesh("tri", 1, 1)
    assert m.n_cells == 2
    assert m.n_faces == 5


def test_structured_errors():
    with pytest.raises(MeshError):
        build_structured_mesh("quad", 0, 2)
    with pytest.raises(MeshError):
        build_structured_mesh("hex", 2, 2)


def test_closed_boundary_identity():
    for m in (build_structured_mesh("quad", 1, 1),
              build_structured_mesh("tri", 3, 2),
              build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [0])):
        for ci in range(m.n_cells):
            g = m.cell_geometry(ci)
            resid = (g.face_measures[:, None] * g.face_normals).sum(axis=0)
            assert np.abs(resid).max() <= 1e-12 * g.perimeter


def test_face_measures_tile_perimeter():
    m = build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [0, 3])
    for ci in range(m.n_cells):
        g = m.cell_geometry(ci)
        pts = g.vertices
        per = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum()
        assert g.face_measures.sum() == pytest.approx(per, rel=1e-12)


def test_interior_normals_opposite():
    m = build_structured_mesh("tri", 2, 2)
    for fi in np.flatnonzero(~m.boundary_faces):
        c0, c1 = m.face_cells[fi]
        n0 = n1 = None
        for i, f in enumerate(m.cell_faces[c0]):
            if f == fi:
                n0 = m.cell_geometry(c0).face_normals[i]
        for i, f in enumerate(m.cell_faces[c1]):
            if f == fi:
                n1 = m.cell_geometry(c1).face_normals[i]
        np.testing.assert_allclose(n0, -n1, atol=1e-14)


def test_face_sets_consistent():
    m = build_structured_mesh("quad", 3, 2)
    counts = np.zeros(m.n_faces, dtype=int)
    for faces in m.cell_faces:
        counts[faces] += 1
    assert set(np.concatenate(m.cell_faces).tolist()) == set(range(m.n_faces))
    assert (counts[~m.boundary_faces] == 2).all()
    assert (counts[m.boundary_faces] == 1).all()


def test_cell_geometry_unit_square():
    m = build_structured_mesh("quad", 1, 1)
    g = m.cell_geometry(0)
    np.testing.assert_allclose(g.barycenter, [0.5, 0.5])
    assert g.measure == pytest.approx(1.0)
    assert g.diameter == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(g.face_measures, 1.0)
    np.testing.assert_allclose(np.linalg.norm(g.face_normals, axis=1), 1.0,
                               atol=1e-14)


def test_cell_geometry_right_triangle():
    m = Mesh(2, [[0, 0], [1, 0], [0, 1]], [(0, 1, 2)])
    g = m.cell_geometry(0)
    assert g.measure == pytest.approx(0.5)
    np.testing.assert_allclose(g.barycenter, [1 / 3, 1 / 3])


def test_cell_geometry_interval():
    m = build_interval_mesh(0.0, 1.0, 4)
    g = m.cell_geometry(0)
    assert g.barycenter[0] == pytest.approx(0.125)
    assert g.diameter == pytest.approx(0.25)
    np.testing.assert_allclose(g.face_normals.ravel(), [-1.0, 1.0])


def test_clockwise_cell_rejected():
    with pytest.raises(MeshError):
        Mesh(2, [[0, 0], [1, 0], [1, 1], [0, 1]], [(0, 3, 2, 1)])


def test_non_star_shaped_rejected():
    # deep notch: the centroid does not see the reentrant edges
    verts = [[0, 0], [4, 0], [4, 4], [2.2, 4], [2.2, 0.4], [1.8, 0.4],
             [1.8, 4], [0, 4]]
    with pytest.raises(MeshError):
        Mesh(2, verts, [tuple(range(8))])


def _row_of_squares(n, at, loop):
    """n disjoint unit squares in a row, the one at index ``at`` replaced by
    the vertex loop ``loop``."""
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    verts, cells = [], []
    for i in range(n):
        pts = loop if i == at else square
        cells.append(tuple(range(len(verts), len(verts) + len(pts))))
        verts.extend([x + 2.0 * i, y] for x, y in pts)
    return Mesh(2, verts, cells)


@pytest.mark.parametrize("loop, message", [
    ([[0, 0], [0, 1], [1, 1], [1, 0]], "is degenerate or not counterclockwise"),
    ([[0, 0], [1, 0], [1, 1], [0.55, 1], [0.55, 0.1], [0.45, 0.1], [0.45, 1],
      [0, 1]], "is not star-shaped"),
    ([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], "has a zero-length edge"),
], ids=["clockwise", "not-star-shaped", "zero-length-edge"])
@pytest.mark.parametrize("at", [1, 3])
def test_bad_cell_named_in_multi_cell_mesh(loop, message, at):
    _row_of_squares(5, at, [[0, 0], [1, 0], [1, 1], [0, 1]])
    with pytest.raises(MeshError, match=f"^cell {at} {message}"):
        _row_of_squares(5, at, loop)


def test_face_shared_by_three_cells_named():
    verts = [[0.5, 1], [0.5, -1], [0, 0], [1, 0], [0.5, 2]]
    # sorted edge keys (0,2) (0,3) (1,2) (1,3) (2,3) ... make edge (2,3) face 4
    with pytest.raises(MeshError, match="^face 4 shared by more than two cells"):
        Mesh(2, verts, [(2, 3, 0), (3, 2, 1), (2, 3, 4)])


def test_malformed_loops_rejected():
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(MeshError, match="^cell 1 has 2 vertices"):
        Mesh(2, square, [(0, 1, 2, 3), (0, 1)])
    with pytest.raises(MeshError, match="^cell 1 has 3 vertices"):
        Mesh(1, [[0], [1], [2]], [(0, 1), (1, 2, 0)])
    for bad in (-1, 4):
        with pytest.raises(MeshError, match="^cell 1 references a vertex outside 0..3"):
            Mesh(2, square, [(0, 1, 2), (0, 2, bad)])


def test_group_geometry_matches_each_cell():
    m = build_hanging_node_mesh(build_structured_mesh("quad", 4, 4), [0, 2, 9])
    assert {len(c) for c in m.cells} == {4, 5, 6}
    assert len(m.cell_groups()) == 2          # the pentagons and hexagons share one
    fields = ("vertices", "barycenter", "diameter", "measure", "face_indices",
              "face_measures", "face_normals")
    loop = ("vertices", "face_indices", "face_measures", "face_normals")
    for cells in m.cell_groups():
        group = m.cell_geometry(cells)
        for slot, c in enumerate(cells):
            g = m.cell_geometry(c)
            n = len(m.cells[c])
            assert (g.index, g.shape, g.n_faces) == (c, group.shape, n)
            # one cell's own loop is the real prefix of its slot
            for name in fields:
                want = getattr(group, name)[slot]
                np.testing.assert_array_equal(getattr(g, name),
                                              want[:n] if name in loop else want)
            np.testing.assert_array_equal(group.face_measures[slot, n:], 0.0)
            np.testing.assert_array_equal(group.face_normals[slot, n:], 0.0)
            np.testing.assert_array_equal(group.face_indices[slot, n:], g.face_indices[-1])
            np.testing.assert_array_equal(group.vertices[slot, n:], g.vertices[:1].repeat(
                group.n_faces - n, axis=0))
            # the single-cell shoelace formulas
            pts = m.vertices[m.cells[c]]
            nxt = np.roll(pts, -1, axis=0)
            cross = pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]
            area = 0.5 * cross.sum()
            assert g.measure == pytest.approx(area, rel=1e-13)
            np.testing.assert_allclose(
                g.barycenter, ((pts + nxt) * cross[:, None]).sum(axis=0) / (6 * area),
                rtol=0, atol=1e-14)
            np.testing.assert_allclose(g.face_measures, np.linalg.norm(nxt - pts, axis=1),
                                       rtol=1e-15)
            np.testing.assert_array_equal(g.face_indices, m.cell_faces[c])


def _mixed_lengths(seed, jitter):
    """12x12 quads split three times at random, every vertex off the boundary
    then moved by at most ``jitter`` times the finest width (1/48): loops of
    3 to 9 vertices, the 6- to 9-vertex ones in one padded group."""
    mesh = random_half(12, seed)
    rng = np.random.default_rng(seed)
    fans = np.flatnonzero(mesh.sizes > 4)
    mesh = build_hanging_node_mesh(mesh, rng.choice(fans, len(fans) // 3, replace=False))
    tris = np.flatnonzero(mesh.sizes == 3)
    mesh = build_hanging_node_mesh(mesh, rng.choice(tris, len(tris) // 10, replace=False))
    verts = mesh.vertices.copy()
    inner = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[inner] += rng.uniform(-jitter, jitter, (int(inner.sum()), 2)) / 48
    return Mesh(2, verts, mesh.loops)


def _reference_shapes(mesh, cells):
    """:meth:`Mesh.cell_shapes` with one sort per coordinate column."""
    g = mesh.cell_geometry(cells)
    nb = len(cells)
    rel = (g.vertices[:, 1:] - g.vertices[:, :1]).reshape(nb, -1)
    tol = SHAPE_TOL * g.diameter
    forward = np.all(mesh.vertices[mesh.face_nodes[g.face_indices, 0]] == g.vertices, axis=-1)
    ids = np.empty((rel.shape[1], nb), dtype=int)
    for col, out in zip(rel.T, ids):
        order = np.argsort(col, kind="stable")
        split = np.diff(col[order]) > np.minimum(tol[order][1:], tol[order][:-1])
        out[order] = np.concatenate([[0], np.cumsum(split)])
    _, label = np.unique(np.concatenate([ids, forward.T]).T, axis=0, return_inverse=True)
    first, shape = _first_seen(label)
    far = np.abs(rel - rel[first][shape]).max(axis=1) > np.minimum(tol, tol[first][shape])
    first, shape = _first_seen(np.where(far, nb + np.arange(nb), shape))
    return g.index[first], shape


@pytest.mark.parametrize("jitter", [0.0, 1e-14, 0.02])
@pytest.mark.parametrize("seed", [1, 2])
def test_padded_group_matches_each_loop_alone(seed, jitter):
    mesh = _mixed_lengths(seed, jitter)
    lengths = [set(mesh.sizes[cells].tolist()) for cells in mesh.cell_groups()]
    assert set().union(*lengths) == set(range(3, 10))
    assert {5} in lengths and {6, 7, 8, 9} in lengths          # frequent and rare fans
    for cells in mesh.cell_groups():
        group = mesh.cell_geometry(cells)
        sizes = mesh.sizes[cells]
        for n in np.unique(sizes):
            # the geometry of a stack of one loop length is that of each loop alone
            slots, mine = np.flatnonzero(sizes == n), cells[sizes == n]
            want = _stack_geometry(2, mesh.vertices[mesh.loops[mine, :n]])
            # numpy sums a row of 8 or more entries pairwise, a padded group slot by slot
            exact = n < 8 or sizes.min() == sizes.max()
            for name, value in want.items():
                got = getattr(group, name)[slots]
                got = got[:, :n] if name in ("face_measures", "face_normals") else got
                if exact:
                    np.testing.assert_array_equal(got, value, err_msg=name)
                else:
                    np.testing.assert_allclose(got, value, rtol=0, err_msg=name,
                                               atol=1e-12 * np.abs(value).max())
            np.testing.assert_array_equal(group.vertices[slots, :n],
                                          mesh.vertices[mesh.loops[mine, :n]])
            np.testing.assert_array_equal(group.face_indices[slots, :n],
                                          mesh._entry_faces[mine, :n])
            # padded slots: the first vertex, the closing face, measure 0 and normal 0
            assert np.all(group.vertices[slots, n:] == group.vertices[slots, :1])
            assert np.all(group.face_indices[slots, n:] == group.face_indices[slots, n - 1:n])
            np.testing.assert_array_equal(group.face_measures[slots, n:], 0.0)
            np.testing.assert_array_equal(group.face_normals[slots, n:], 0.0)
        reps, shapes = mesh.cell_shapes(cells)
        want_reps, want_shapes = _reference_shapes(mesh, cells)
        np.testing.assert_array_equal(reps, want_reps)
        np.testing.assert_array_equal(shapes, want_shapes)


@pytest.mark.parametrize("seed", [1, 4])
def test_rare_polygon_lengths_share_one_padded_group(seed):
    # the benchmark's 10x10 input: quads, and one group for its 47 polygons
    small = random_half(10, seed)
    lengths = [{len(small.cells[c]) for c in cells} for cells in small.cell_groups()]
    assert sorted(lengths, key=len) == [{4}, {5, 6, 7, 8}]
    # at 48x48 every polygon length but at most one has 64 cells or more
    large = random_half(48, seed)
    lengths = [{len(large.cells[c]) for c in cells} for cells in large.cell_groups()]
    assert sorted(lengths, key=min) == [{4}, {5}, {6}, {7}, {8}]


def test_refine_uniform_centres_four_vertex_polygons_at_their_vertex_mean():
    mesh = jittered_hanging()
    fans = [cells for cells in mesh.cell_groups() if mesh.cell_geometry(cells).shape == "fan"]
    assert [sorted({len(mesh.cells[c]) for c in cells}) for cells in fans] == [[4, 5, 6]]
    # the reference centres a 4-vertex cell at its vertex mean, any other at its barycenter
    assert_same_mesh(refine_uniform(mesh), *_split_by_midpoint_dict(mesh, None))


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_left_half_skips_the_middle_column(n):
    base = build_structured_mesh("quad", n, n)
    cells = left_half(base)
    np.testing.assert_array_equal(cells, np.arange(n * (n // 2)))


def test_hanging_refine_one_of_four():
    base = build_structured_mesh("quad", 2, 2)
    m = build_hanging_node_mesh(base, [0])
    assert m.n_cells == 7
    assert sorted(len(c) for c in m.cells) == [4, 4, 4, 4, 4, 5, 5]
    assert m.total_measure() == pytest.approx(base.total_measure(), rel=1e-12)


def test_hanging_refine_empty_is_identity():
    base = build_structured_mesh("quad", 2, 2)
    m = build_hanging_node_mesh(base, [])
    assert m.n_cells == base.n_cells
    np.testing.assert_allclose(m.vertices, base.vertices)


def test_hanging_refine_all_gives_uniform():
    base = build_structured_mesh("quad", 2, 2)
    m = build_hanging_node_mesh(base, range(4))
    assert m.n_cells == 16
    assert all(len(c) == 4 for c in m.cells)


def test_hanging_invalid_index():
    base = build_structured_mesh("quad", 2, 2)
    with pytest.raises(MeshError):
        build_hanging_node_mesh(base, [7])


def test_refine_uniform_interval():
    m = refine_uniform(build_interval_mesh(0.0, 1.0, 4))
    assert m.n_cells == 8
    np.testing.assert_allclose(np.diff(m.vertices.ravel()), 0.125)


def test_refine_uniform_quad():
    base = build_structured_mesh("quad", 2, 2)
    m = refine_uniform(base)
    assert m.n_cells == 16
    ratio = m.max_diameter() / base.max_diameter()
    assert ratio == pytest.approx(0.5, abs=1e-12)
    assert m.total_measure() == pytest.approx(base.total_measure(), rel=1e-12)


def test_refine_uniform_tri():
    base = build_structured_mesh("tri", 2, 2)
    m = refine_uniform(base)
    assert m.n_cells == 4 * base.n_cells
    assert m.max_diameter() / base.max_diameter() == pytest.approx(0.5, abs=1e-12)
    assert m.total_measure() == pytest.approx(base.total_measure(), rel=1e-12)


def test_refine_uniform_polygon_fans():
    base = build_hanging_node_mesh(build_structured_mesh("quad", 2, 2), [0])
    m = refine_uniform(base)
    assert m.total_measure() == pytest.approx(base.total_measure(), rel=1e-12)
    assert m.max_diameter() < base.max_diameter()


def test_neumann_predicate_and_inheritance():
    m = build_structured_mesh("quad", 2, 2, neumann=lambda x: x[0] < 1e-12)
    assert int(m.neumann_faces.sum()) == 2
    r = refine_uniform(m)
    assert int(r.neumann_faces.sum()) == 4
    centers = np.array([r.face_center(fi) for fi in np.flatnonzero(r.neumann_faces)])
    assert np.abs(centers[:, 0]).max() < 1e-12


def _inherit_tags_pairwise(new, old):
    """Reference: each new boundary face against each old one, in turn."""
    old_faces = np.flatnonzero(old.boundary_faces)
    neumann = []
    for fi in np.flatnonzero(new.boundary_faces):
        c = new.face_center(fi)
        for fo in old_faces:
            pts = old.face_vertices(fo)
            if old.dim == 1:
                on = abs(c[0] - pts[0, 0]) <= 1e-12
            else:
                a, t = pts[0], pts[1] - pts[0]
                L = np.linalg.norm(t)
                s = np.dot(c - a, t) / L
                off = abs(t[0] * (c - a)[1] - t[1] * (c - a)[0]) / L
                on = off <= 1e-10 * max(L, 1.0) and -1e-10 <= s <= L + 1e-10
            if on:
                neumann.append(bool(old.neumann_faces[fo]))
                break
        else:
            raise AssertionError(f"face {fi} has no parent")
    mask = np.zeros(new.n_faces, dtype=bool)
    mask[np.flatnonzero(new.boundary_faces)[neumann]] = True
    return mask


LEFT = lambda x: x[0] < 0.25          # a side and, in 2D, part of two more
TAGGED = {
    "interval": lambda: build_interval_mesh(0.0, 1.0, 4, neumann=LEFT),
    "graded": lambda: build_interval_mesh(0.0, 1.0, 7, grading=1.5, neumann=LEFT),
    "quad": lambda: build_structured_mesh("quad", 4, 3, neumann=LEFT),
    "tri": lambda: build_structured_mesh("tri", 4, 3, neumann=LEFT),
    "hanging": lambda: mesh_family("hanging", 0, base=4, neumann=LEFT),
}


@pytest.mark.parametrize("family, refine", [
    ("interval", None), ("quad", None), ("tri", None), ("quad", "left"),
    ("tri", "every third"), ("hanging", "every third"), ("graded", "every third")],
    ids=["interval", "quad", "tri", "hanging", "tri-local", "hanging-local", "graded-local"])
def test_inherited_tags_match_pairwise_search(family, refine):
    old = TAGGED[family]()
    new = (refine_uniform(old) if refine is None
           else build_hanging_node_mesh(old, left_half(old) if refine == "left"
                                        else range(0, old.n_cells, 3)))
    assert new.neumann_faces.any() and new.dirichlet_faces.any()
    untagged = Mesh(new.dim, new.vertices, new.cells)
    np.testing.assert_array_equal(new.neumann_faces,
                                  _inherit_tags_pairwise(untagged, old))
    np.testing.assert_array_equal(new.dirichlet_faces,
                                  new.boundary_faces & ~new.neumann_faces)


def _split_by_midpoint_dict(mesh, refine):
    """Reference: split the ``refine`` cells one at a time, numbering each
    new vertex the first time a cell asks a dict for it.  Unrefined cells
    gain the midpoints of their split edges (local refinement); with
    ``refine=None`` every cell splits (uniform refinement).  A 4-vertex cell
    splits about its vertex mean, any other polygon about its barycenter."""
    verts = [tuple(v) for v in mesh.vertices]
    midpoint = {}

    def mid(a, b):
        key = tuple(sorted((a, b)))
        if key not in midpoint:
            verts.append(tuple(0.5 * (np.asarray(verts[a]) + np.asarray(verts[b]))))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    def split_triangle(a, b, c, out):
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])

    cells = []
    for ci, loop in enumerate(mesh.cells):
        loop = [int(v) for v in loop]
        n = len(loop)
        if refine is not None and ci not in refine:
            continue
        if n == 3:
            split_triangle(*loop, cells)
        elif n == 4:
            m = [mid(loop[i], loop[(i + 1) % 4]) for i in range(4)]
            verts.append(tuple(mesh.vertices[loop].mean(axis=0)))
            cells.extend((loop[i], m[i], len(verts) - 1, m[i - 1]) for i in range(4))
        else:
            verts.append(tuple(mesh.cell_geometry(ci).barycenter))
            center = len(verts) - 1
            for i in range(n):
                split_triangle(center, loop[i], loop[(i + 1) % n], cells)
    for ci, loop in enumerate(mesh.cells if refine is not None else []):
        if ci not in refine:
            poly = []
            for a, b in zip(loop, np.roll(loop, -1)):
                poly.append(int(a))
                if tuple(sorted((int(a), int(b)))) in midpoint:
                    poly.append(midpoint[tuple(sorted((int(a), int(b))))])
            cells.append(poly)
    return np.array(verts), cells


def assert_same_mesh(mesh, verts, cells):
    np.testing.assert_array_equal(mesh.vertices, verts)
    assert len(mesh.cells) == len(cells)
    for got, want in zip(mesh.cells, cells):
        np.testing.assert_array_equal(got, want)


BASES = {
    "quad": lambda seed: build_structured_mesh("quad", 3 + seed, 2 + seed % 3),
    "tri": lambda seed: build_structured_mesh("tri", 2 + seed % 3, 2 + seed % 2),
    "jittered-quad": lambda seed: jittered_mesh("quad", 3 + seed % 2, seed),
    "random-half": lambda seed: random_half(3, seed),
}


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("seed", range(6))
def test_hanging_refinement_numbers_like_a_midpoint_dict(base, seed):
    rng = np.random.default_rng(seed)
    mesh = BASES[base](seed)
    for _ in range(2):        # a second level refines the polygons of the first
        refine = set(rng.choice(mesh.n_cells, rng.integers(1, mesh.n_cells + 1),
                                replace=False).tolist())
        fine = build_hanging_node_mesh(mesh, refine)
        assert_same_mesh(fine, *_split_by_midpoint_dict(mesh, refine))
        mesh = fine
    # uniform refinement of the result fans its polygons
    assert_same_mesh(refine_uniform(mesh), *_split_by_midpoint_dict(mesh, None))


@st.composite
def tagged_bases_and_subsets(draw):
    """A small quad, triangle, jittered-quad or random-half mesh with its
    left side Neumann, and a subset of its cells: any, or all of them."""
    kind = draw(st.sampled_from(["quad", "tri", "jittered-quad", "random-half"]))
    n, seed = draw(st.integers(1, 3)), draw(st.integers(0, 99))
    mesh = (jittered_mesh("quad", n + 1, seed) if kind == "jittered-quad"
            else random_half(n + 1, seed) if kind == "random-half"
            else build_structured_mesh(kind, n, draw(st.integers(1, 3))))
    base = Mesh(2, mesh.vertices, mesh.cells, neumann=LEFT)
    every = set(range(base.n_cells))
    return base, draw(st.one_of(st.just(every), st.sets(st.sampled_from(sorted(every)))))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(tagged_bases_and_subsets())
def test_local_refinement_properties(case):
    base, refine = case
    new = build_hanging_node_mesh(base, refine)      # Mesh() validates every cell
    assert abs(new.total_measure() - base.total_measure()) <= 1e-12 * base.total_measure()
    assert_same_mesh(new, *_split_by_midpoint_dict(base, refine))
    np.testing.assert_array_equal(new.neumann_faces, _inherit_tags_pairwise(new, base))
    np.testing.assert_array_equal(new.dirichlet_faces, new.boundary_faces & ~new.neumann_faces)
    if len(refine) == base.n_cells:
        uniform = refine_uniform(base)
        assert_same_mesh(new, uniform.vertices, uniform.cells)
        np.testing.assert_array_equal(new.neumann_faces, uniform.neumann_faces)
    # one mesh whatever form its loops come in; JSON carries the tags as well
    forms = [Mesh(new.dim, new.vertices, new.loops), Mesh(new.dim, new.vertices, new.cells),
             mesh_from_dict(mesh_to_dict(new))]
    for other in forms:
        for name in ("loops", "sizes", "face_nodes", "face_cells"):
            np.testing.assert_array_equal(getattr(other, name), getattr(new, name))
        assert ([cells.tolist() for cells in other.cell_groups()]
                == [cells.tolist() for cells in new.cell_groups()])
    np.testing.assert_array_equal(forms[2].dirichlet_faces, new.dirichlet_faces)
    np.testing.assert_array_equal(forms[2].neumann_faces, new.neumann_faces)


@pytest.mark.parametrize("family", ["quad", "tri", "hanging"])
@pytest.mark.parametrize("level", [0, 1])
def test_uniform_refinement_numbers_like_a_midpoint_dict(family, level):
    mesh = mesh_family(family, level, base=3)
    assert_same_mesh(refine_uniform(mesh), *_split_by_midpoint_dict(mesh, None))
    if family == "hanging":
        coarse = build_structured_mesh("quad", 3 * 2 ** level, 3 * 2 ** level)
        assert_same_mesh(mesh, *_split_by_midpoint_dict(coarse, set(left_half(coarse).tolist())))


def test_uniform_refinement_of_an_interval_halves_each_cell_in_order():
    mesh = build_interval_mesh(0.0, 1.0, 5, grading=1.5)
    fine = refine_uniform(mesh)
    x = mesh.vertices[:, 0]
    np.testing.assert_array_equal(fine.vertices[:, 0], np.append(
        np.column_stack([x[:-1], 0.5 * (x[:-1] + x[1:])]).ravel(), x[-1]))
    np.testing.assert_array_equal(np.array(fine.cells), np.column_stack(
        [np.arange(10), np.arange(1, 11)]))


def test_json_roundtrip(tmp_path):
    m = build_structured_mesh("quad", 2, 2, neumann=lambda x: x[1] < 1e-12)
    path = tmp_path / "mesh.json"
    save_mesh_json(m, path)
    m2 = load_mesh_json(path)
    assert m2.n_cells == m.n_cells
    np.testing.assert_array_equal(m2.face_nodes, m.face_nodes)
    np.testing.assert_array_equal(m2.dirichlet_faces, m.dirichlet_faces)
    np.testing.assert_array_equal(m2.neumann_faces, m.neumann_faces)


@pytest.mark.parametrize("mesh", [build_interval_mesh(0.0, 1.0, 5),
                                  build_hanging_node_mesh(build_structured_mesh("quad", 4, 3),
                                                          [0, 5, 6, 11])])
def test_faces_numbered_by_sorted_vertex_pair(mesh):
    # every loop edge as a sorted vertex tuple; faces are their unique rows in order
    if mesh.dim == 1:
        ends = np.concatenate(mesh.cells)[:, None]
    else:
        ends = np.sort([(c[i], c[(i + 1) % len(c)]) for c in mesh.cells
                        for i in range(len(c))], axis=1)
    nodes, inverse = np.unique(ends, axis=0, return_inverse=True)
    np.testing.assert_array_equal(mesh.face_nodes, nodes)
    np.testing.assert_array_equal(np.concatenate(mesh.cell_faces), inverse.reshape(-1))


def test_json_faces_canonically_ordered(tmp_path):
    m = build_structured_mesh("tri", 2, 1)
    data = mesh_to_dict(m)
    m2 = mesh_from_dict(json.loads(json.dumps(data)))
    keys = [tuple(sorted(f)) for f in m2.face_nodes.tolist()]
    assert keys == sorted(keys)


def test_boundary_tag_validation():
    m = build_structured_mesh("quad", 1, 1)
    with pytest.raises(MeshError):
        m.set_boundary_tags([0], [])          # untagged boundary faces remain
    interior = build_structured_mesh("quad", 2, 1)
    inner = int(np.flatnonzero(~interior.boundary_faces)[0])
    boundary = np.flatnonzero(interior.boundary_faces).tolist()
    with pytest.raises(MeshError):
        interior.set_boundary_tags(boundary + [inner], [])


def test_non_finite_vertex_rejected():
    m = build_structured_mesh("quad", 2, 2)
    for bad in (np.nan, np.inf):
        verts = m.vertices.copy()
        verts[4, 1] = bad
        with pytest.raises(MeshError, match="vertex 4 has non-finite"):
            Mesh(2, verts, m.cells)


@pytest.mark.parametrize("side, face", [("dirichlet", -1), ("neumann", 12)])
def test_boundary_tags_outside_the_faces_rejected(side, face):
    data = mesh_to_dict(build_structured_mesh("quad", 2, 2))       # faces 0..11
    data["boundary"][side].append(face)
    with pytest.raises(MeshError, match=f"^boundary tag names face {face} outside 0..11$"):
        mesh_from_dict(data)


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


def _tagged_quads(dirichlet):
    data = mesh_to_dict(build_structured_mesh("quad", 2, 2))
    data["boundary"] = {"dirichlet": dirichlet, "neumann": []}
    return mesh_from_dict(data)


@pytest.mark.parametrize("make, message", [
    (lambda: Mesh(2, SQUARE, [[0, 1.7, 2, 3]]),
     r"^cell 0 is not a list of vertex indices: \[0, 1.7, 2, 3\]$"),
    (lambda: mesh_from_dict({"dim": 2, "vertices": SQUARE, "cells": [[0, 1, 2], ["0", "2", "3"]]}),
     "^cell 1 is not a list of vertex indices"),
    (lambda: Mesh(2, SQUARE, [[0, 1, [2, 3]]]),
     r"^cell 0 is not a list of vertex indices: \[0, 1, \[2, 3\]\]$"),
    (lambda: Mesh(2, SQUARE, np.array([[0, -1, 1, 2]])), r"^cell 0 references a vertex outside 0..3$"),
    (lambda: _tagged_quads([0, 1, 2, 3, 5, 6, 9, 10.5]),
     "^boundary tag names face 10.5, which is not an integer$"),
    (lambda: Mesh(2, np.zeros((4, 3)), [[0, 1, 2, 3]]),
     r"^a mesh of dim 1 or 2 takes \(n, dim\) vertices, not dim 2 and shape \(4, 3\)$"),
    (lambda: Mesh(2, SQUARE, []), "^mesh has no cells$"),
    (lambda: Mesh(3, np.eye(3), [[0, 1, 2]]),
     r"^a mesh of dim 1 or 2 takes \(n, dim\) vertices, not dim 3 and shape \(3, 3\)$"),
    (lambda: Mesh(2, SQUARE, [[0, 1, 2], [0, 1, 2]]), "^face 0 runs the same way in cells 0 and 1$"),
    (lambda: Mesh(2, SQUARE + [[0.5, 0.5]], [[0, 2, 3], [0, 1, 2], [0, 4, 3]]),
     "^face 2 runs the same way in cells 0 and 2$"),
    (lambda: Mesh(1, [[0], [1], [2]], [(0, 1), (1, 2), (0, 2)]),
     "^face 0 runs the same way in cells 0 and 2$"),
], ids=["float-index", "string-index-json", "nested-list", "padding-inside-a-loop", "float-tag",
        "three-coordinates", "no-cells", "3d", "coincident", "folded", "overlapping-intervals"])
def test_malformed_mesh_input_rejected(make, message):
    with pytest.raises(MeshError, match=message):
        make()
