"""Interval and polygonal meshes with first-class faces.

Cells are stored as counterclockwise vertex loops (index pairs in 1D).
Faces carry global indices in a canonical order (sorted by their sorted
vertex tuple) so that runs are reproducible and face unknowns can be
shared between the two cells of an interface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

GEOM_TOL = 1e-12
SHAPE_TOL = 1e-12     # relative to the diameter: cells this close share a shape


class MeshError(ValueError):
    """Raised when a mesh violates a structural or geometric invariant."""


@dataclass(frozen=True)
class CellGeometry:
    """Geometric quantities of one cell and its faces, or of a group.

    ``barycenter`` is the area centroid, ``diameter`` the maximum pairwise
    vertex distance.  Per-face arrays follow the cell's boundary loop order
    and the normals point outward.  ``shape`` names the quadrature class:
    ``interval``, ``tri``, ``quad`` (parallelogram, tensor rule) or ``fan``
    (any other polygon).  The geometry of a group of cells of one class
    stacks every field along a leading cell axis.
    """

    index: int | np.ndarray
    dim: int
    shape: str
    vertices: np.ndarray          # (nv, dim) coordinates of the loop
    barycenter: np.ndarray        # (dim,)
    diameter: float
    measure: float
    face_indices: np.ndarray      # (nf,) global face index per local face
    face_measures: np.ndarray     # (nf,)
    face_normals: np.ndarray      # (nf, dim), unit outward

    @property
    def n_faces(self) -> int:
        return self.face_normals.shape[-2]

    @property
    def perimeter(self):
        return self.face_measures.sum(axis=-1)


def is_parallelogram(pts: np.ndarray) -> np.ndarray:
    """Whether a vertex loop, or each loop of a stack, is a parallelogram."""
    if pts.shape[-2] != 4:
        return np.zeros(pts.shape[:-2], dtype=bool)
    d = (pts[..., 0, :] + pts[..., 2, :]) - (pts[..., 1, :] + pts[..., 3, :])
    scale = np.abs(pts).max(axis=(-2, -1)) + 1.0
    return np.abs(d).max(axis=-1) <= 1e-13 * scale


_FIELDS = ("vertices", "barycenter", "diameter", "measure", "face_indices",
           "face_measures", "face_normals")

# per-cell checks in the order a cell is tested against them
_CHECKS = ("has non-positive length", "is degenerate or not counterclockwise",
           "has a zero-length edge", "has non-positive measure",
           "faces do not close up",
           "is not star-shaped with respect to its barycenter")


def _stack_geometry(dim: int, pts: np.ndarray) -> dict:
    """Geometry fields of a stack of vertex loops ``(nb, nv, dim)`` of one
    length.  Degenerate loops give non-finite values that the checks catch."""
    if dim == 1:
        a, b = pts[:, 0, 0], pts[:, 1, 0]
        return dict(barycenter=0.5 * (a + b)[:, None], diameter=b - a, measure=b - a,
                    face_measures=np.ones((len(pts), 2)),
                    face_normals=np.tile([[-1.0], [1.0]], (len(pts), 1, 1)))
    # shoelace sums relative to the first vertex, which keeps them accurate
    # for small cells far from the origin
    rel = pts - pts[:, :1]
    nxt = np.roll(rel, -1, axis=1)
    cross = rel[..., 0] * nxt[..., 1] - nxt[..., 0] * rel[..., 1]
    area = 0.5 * cross.sum(axis=1)
    edge = np.roll(pts, -1, axis=1) - pts
    lengths = np.linalg.norm(edge, axis=-1)
    diffs = pts[:, :, None, :] - pts[:, None, :, :]
    return dict(
        barycenter=pts[:, 0] + ((rel + nxt) * cross[..., None]).sum(axis=1)
        / (6.0 * area[:, None]),
        diameter=np.sqrt((diffs ** 2).sum(axis=-1).max(axis=(1, 2))), measure=area,
        face_measures=lengths,
        # CCW loop: outward normal is the edge direction rotated by -90 deg
        face_normals=np.stack([edge[..., 1], -edge[..., 0]], axis=-1) / lengths[..., None])


def _first_seen(label: np.ndarray):
    """Relabel ``label`` by order of first occurrence.  Returns the position
    of each label's first entry (ascending) and the new labels."""
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def _failed_checks(g: CellGeometry) -> np.ndarray:
    """``(len(_CHECKS), n_cells)`` failure masks of a stacked group."""
    pts, measure = g.vertices, g.measure
    never = np.zeros(len(measure), dtype=bool)
    # closed-boundary identity sum |F| n_F = 0
    resid = (g.face_measures[..., None] * g.face_normals).sum(axis=1)
    not_closed = np.abs(resid).max(axis=1) > 1e-12 * np.maximum(g.perimeter, 1.0)
    if g.dim == 1:
        return np.stack([measure <= 0, never, never, measure <= 0, not_closed, never])
    scale = (np.abs(pts).max(axis=(1, 2)) + 1.0) ** 2
    d1 = pts - g.barycenter[:, None, :]
    d2 = np.roll(d1, -1, axis=1)
    tri_area = 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    return np.stack([never, measure <= GEOM_TOL * scale,
                     np.any(g.face_measures <= 0, axis=1), measure <= 0, not_closed,
                     np.any(tri_area <= 1e-13 * measure[:, None], axis=1)])


class Mesh:
    """Immutable mesh with explicit face connectivity.

    Geometry is computed once per cell group (see :meth:`cell_groups`) on
    stacked arrays; :meth:`cell_geometry` gathers from those stacks.

    Attributes
    ----------
    dim : 1 or 2
    vertices : (nv, dim) float array
    cells : list of int arrays, CCW vertex loops (pairs in 1D)
    face_nodes : (nf, dim) int array, sorted vertex indices of each face
        (one vertex in 1D), rows in lexicographic order
    cell_faces : per-cell array of global face indices, loop order, built when read
    face_cells : (nf, 2) int array, second entry -1 on the boundary;
        interior normals point from ``face_cells[f, 0]`` (lower cell
        index) to ``face_cells[f, 1]``
    dirichlet_faces / neumann_faces : boolean masks over faces
    """

    def __init__(self, dim, vertices, cells, neumann=None):
        self.dim = int(dim)
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, self.dim)
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {bad[0]} has non-finite coordinates "
                            f"{self.vertices[bad[0]].tolist()}")
        self.cells = [np.asarray(c, dtype=int) for c in cells]
        sizes = np.fromiter(map(len, self.cells), dtype=int, count=len(self.cells))
        bad = np.flatnonzero(sizes != 2 if self.dim == 1 else sizes < 3)
        if len(bad):
            raise MeshError(f"cell {bad[0]} has {sizes[bad[0]]} vertices")
        flat, owner = np.concatenate(self.cells), np.repeat(np.arange(len(sizes)), sizes)
        bad = owner[(flat < 0) | (flat >= len(self.vertices))]
        if len(bad):
            raise MeshError(f"cell {bad[0]} references a vertex outside "
                            f"0..{len(self.vertices) - 1}")
        starts = np.cumsum(sizes) - sizes
        inverse = self._build_faces(flat, owner, starts, sizes)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._build_geometry(flat, starts, sizes, inverse)
            self._validate()
        self._tag_boundary(neumann)

    # -- construction -------------------------------------------------

    def _build_faces(self, flat, owner, starts, sizes) -> np.ndarray:
        """Number the faces canonically and return each loop entry's face."""
        nv = len(self.vertices)
        if self.dim == 1:
            key = flat
        else:
            nxt = np.arange(1, len(flat) + 1)
            nxt[starts + sizes - 1] = starts     # the last entry closes the loop
            ends = np.sort(np.column_stack([flat, flat[nxt]]), axis=1)
            # a * nv + b sorts like the pair (a, b), so faces keep their lexicographic order
            key = ends[:, 0].astype(np.int64) * nv + ends[:, 1]
        unique, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
        self.face_nodes = (unique[:, None] if self.dim == 1
                           else np.column_stack([unique // nv, unique % nv]))
        if np.any(counts > 2):
            raise MeshError(f"face {np.argmax(counts > 2)} shared by more than two cells")
        # a stable sort keeps each face's cells in increasing order, so
        # normals point from the lower to the higher cell index
        order = np.argsort(inverse, kind="stable")
        first = np.cumsum(counts) - counts
        self.face_cells = np.full((len(counts), 2), -1, dtype=int)
        self.face_cells[:, 0] = owner[order[first]]
        shared = counts == 2
        self.face_cells[shared, 1] = owner[order[first[shared] + 1]]
        if self.dim == 2 and np.any(counts != 2 - self.boundary_faces):
            raise MeshError("face/cell incidence counts are inconsistent")
        self._entry_faces = inverse
        return inverse

    def _build_geometry(self, flat, starts, sizes, inverse):
        """One stacked :class:`CellGeometry` per quadrature class and face
        count, computed per loop length, ordered by each group's first cell."""
        groups = []
        for n in np.unique(sizes):
            cells = np.flatnonzero(sizes == n)
            entries = starts[cells, None] + np.arange(n)
            pts = self.vertices[flat[entries]]
            fields = _stack_geometry(self.dim, pts)
            shape = np.full(len(cells), "interval" if self.dim == 1 else
                            "tri" if n == 3 else "fan", dtype=object)
            shape[is_parallelogram(pts)] = "quad"
            for name in dict.fromkeys(shape):
                sel = shape == name
                groups.append(CellGeometry(
                    index=cells[sel], dim=self.dim, shape=name, vertices=pts[sel],
                    face_indices=inverse[entries[sel]],
                    **{k: v[sel] for k, v in fields.items()}))
        self._groups = sorted(groups, key=lambda g: g.index[0])
        self._group_of = np.empty(len(sizes), dtype=int)
        self._slot = np.empty(len(sizes), dtype=int)
        for i, g in enumerate(self._groups):
            self._group_of[g.index] = i
            self._slot[g.index] = np.arange(len(g.index))

    def _validate(self):
        """Name the lowest-index invalid cell and the first check it fails."""
        bad = np.zeros((len(_CHECKS), self.n_cells), dtype=bool)
        for g in self._groups:
            bad[:, g.index] = _failed_checks(g)
        cells = np.flatnonzero(bad.any(axis=0))
        if len(cells):
            raise MeshError(f"cell {cells[0]} {_CHECKS[np.argmax(bad[:, cells[0]])]}")

    def _tag_boundary(self, neumann):
        self.neumann_faces = np.zeros(self.n_faces, dtype=bool)
        if neumann is not None:
            for fi in np.flatnonzero(self.boundary_faces):
                self.neumann_faces[fi] = bool(neumann(self.face_center(fi)))
        self.dirichlet_faces = self.boundary_faces & ~self.neumann_faces

    def set_boundary_tags(self, dirichlet, neumann):
        """Install explicit boundary tags (face index lists)."""
        boundary = self.boundary_faces
        dirichlet = np.asarray(sorted(dirichlet), dtype=int)
        neumann = np.asarray(sorted(neumann), dtype=int)
        mask_d = np.zeros(self.n_faces, dtype=bool)
        mask_n = np.zeros(self.n_faces, dtype=bool)
        mask_d[dirichlet] = True
        mask_n[neumann] = True
        if np.any(mask_d & mask_n):
            raise MeshError("face tagged both Dirichlet and Neumann")
        if np.any((mask_d | mask_n) & ~boundary):
            raise MeshError("interior face carries a boundary tag")
        untagged = boundary & ~(mask_d | mask_n)
        if np.any(untagged):
            raise MeshError(f"untagged boundary faces: {np.flatnonzero(untagged).tolist()}")
        self.dirichlet_faces = mask_d
        self.neumann_faces = mask_n

    # -- queries ------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_faces(self) -> int:
        return len(self.face_nodes)

    @cached_property
    def cell_faces(self) -> list:
        sizes = np.fromiter(map(len, self.cells), dtype=int, count=self.n_cells)
        return np.split(self._entry_faces, np.cumsum(sizes)[:-1])

    @property
    def boundary_faces(self) -> np.ndarray:
        return self.face_cells[:, 1] < 0

    def face_vertices(self, face: int) -> np.ndarray:
        return self.vertices[self.face_nodes[face]]

    def face_center(self, face: int) -> np.ndarray:
        return self.face_vertices(face).mean(axis=0)

    def face_measure(self, face: int) -> float:
        pts = self.face_vertices(face)
        if self.dim == 1:
            return 1.0
        return float(np.linalg.norm(pts[1] - pts[0]))

    def _group_slots(self, cells):
        """``cells`` as an array, their one group's stack and their slots in it."""
        cells = np.asarray(cells, dtype=int)
        groups = self._group_of[cells].reshape(-1)
        if not len(groups) or np.any(groups != groups[0]):
            raise MeshError("a cell group needs one or more cells of one "
                            "shape and face count")
        return cells, self._groups[groups[0]], self._slot[cells]

    def cell_geometry(self, cells) -> CellGeometry:
        """Geometry of one cell, or stacked over an array of cells of one
        group (see :meth:`cell_groups`), gathered from the group's stack."""
        cells, g, slot = self._group_slots(cells)
        return CellGeometry(index=cells if cells.ndim else int(cells), dim=self.dim,
                            shape=g.shape, **{k: getattr(g, k)[slot] for k in _FIELDS})

    def cell_face_indices(self, cells) -> np.ndarray:
        """The ``face_indices`` of :meth:`cell_geometry` alone: global faces
        of one cell in loop order, or ``(nb, n_faces)`` for cells of one group."""
        _, g, slot = self._group_slots(cells)
        return g.face_indices[slot]

    def cell_groups(self) -> list:
        """Cell indices grouped by quadrature class and face count, in the
        order of each group's first cell; every per-cell stage runs once
        per group on stacked arrays."""
        return [g.index for g in self._groups]

    def cell_shapes(self, cells):
        """Representatives and shape index of a group's cells.

        Two cells share a shape when their vertex loops, taken relative to
        the first vertex, agree to ``SHAPE_TOL`` times each cell's own
        diameter, and each face's stored node order runs the same way along
        both loops.  Operators built from scaled monomials about the
        barycenter are then the same on both cells.  Returns ``(reps,
        shape)``: ``reps[s]`` is the lowest-index cell of shape ``s``, and
        ``shape[i]`` the shape of ``cells[i]``, numbered in order of first cell.
        """
        g = self.cell_geometry(cells)
        nb = len(g.measure)
        rel = (g.vertices[:, 1:] - g.vertices[:, :1]).reshape(nb, -1)
        tol = SHAPE_TOL * g.diameter
        # does each face start at the loop vertex it leaves from?
        forward = np.all(self.vertices[self.face_nodes[g.face_indices, 0]] == g.vertices,
                         axis=-1)
        ids = np.empty((rel.shape[1], nb), dtype=int)
        for col, out in zip(rel.T, ids):
            # clusters of one coordinate: sorted values split where neighbours
            # differ by more than the tolerance of either
            order = np.argsort(col, kind="stable")
            split = np.diff(col[order]) > np.minimum(tol[order][1:], tol[order][:-1])
            out[order] = np.concatenate([[0], np.cumsum(split)])
        # one label per distinct row of cluster ids and face directions
        keys = np.concatenate([ids, forward.T])
        order = np.lexsort(keys)
        step = np.any(np.diff(keys[:, order], axis=1) != 0, axis=0)
        label = np.empty(nb, dtype=int)
        label[order] = np.concatenate([[0], np.cumsum(step)])
        first, shape = _first_seen(label)
        # a cluster can chain beyond the tolerance; its far cells stand alone
        far = np.abs(rel - rel[first][shape]).max(axis=1, initial=0.0) > np.minimum(
            tol, tol[first][shape])
        if far.any():
            first, shape = _first_seen(np.where(far, nb + np.arange(nb), shape))
        return g.index[first], shape

    def max_diameter(self) -> float:
        return max(float(g.diameter.max()) for g in self._groups)

    def total_measure(self) -> float:
        return float(sum(g.measure.sum() for g in self._groups))


# ---------------------------------------------------------------------------
# builders


def build_interval_mesh(a: float, b: float, n_cells: int,
                        grading: float | None = None,
                        neumann=None) -> Mesh:
    """Partition ``(a, b)`` into ``n_cells`` intervals.

    ``grading`` is the ratio of consecutive cell sizes (1.0 or None gives a
    uniform mesh).  The two endpoint faces are tagged Dirichlet unless the
    ``neumann`` predicate claims them.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
        raise MeshError("interval bounds must be finite with a < b")
    if n_cells < 1:
        raise MeshError("n_cells must be at least 1")
    if grading is None or grading == 1.0:
        xs = np.linspace(a, b, n_cells + 1)
    else:
        if grading <= 0:
            raise MeshError("grading ratio must be positive")
        steps = grading ** np.arange(n_cells)
        xs = a + (b - a) * np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum()
        xs[-1] = b
    cells = [(i, i + 1) for i in range(n_cells)]
    return Mesh(1, xs[:, None], cells, neumann=neumann)


def build_structured_mesh(shape: str, nx: int, ny: int,
                          bounds=((0.0, 1.0), (0.0, 1.0)),
                          neumann=None) -> Mesh:
    """Structured quadrilateral or triangular mesh of a rectangle.

    ``shape`` is ``"quad"`` or ``"tri"``; triangles split each rectangle
    along its main diagonal.
    """
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be at least 1")
    if shape not in ("quad", "tri"):
        raise MeshError(f"unknown structured shape {shape!r}")
    (x0, x1), (y0, y1) = bounds
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    verts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    v00, v10, v11, v01 = vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]
    if shape == "quad":
        cells = np.stack([v00, v10, v11, v01], axis=-1).reshape(-1, 4)
    else:
        cells = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    return Mesh(2, verts, cells, neumann=neumann)


def _inherit_tags(new: Mesh, old: Mesh) -> Mesh:
    """Tag boundary faces of ``new`` from the containing face of ``old``:
    the first old boundary face whose segment (point in 1D) holds the
    centre of the new face, tested for all pairs at once."""
    if not np.any(old.neumann_faces):
        return new
    old_faces = np.flatnonzero(old.boundary_faces)
    new_faces = np.flatnonzero(new.boundary_faces)
    c = new.vertices[new.face_nodes[new_faces]].mean(axis=1)[:, None, :]
    pts = old.vertices[old.face_nodes[old_faces]]
    if old.dim == 1:
        on = np.abs(c[..., 0] - pts[:, 0, 0]) <= 1e-12
    else:
        a, t = pts[:, 0], pts[:, 1] - pts[:, 0]
        L = np.linalg.norm(t, axis=1)
        d = c - a
        s = (d * t).sum(axis=-1) / L
        off = np.abs(t[:, 0] * d[..., 1] - t[:, 1] * d[..., 0]) / L
        on = (off <= 1e-10 * np.maximum(L, 1.0)) & (s >= -1e-10) & (s <= L + 1e-10)
    orphan = ~on.any(axis=1)
    if np.any(orphan):
        raise MeshError(f"refined boundary face {new_faces[np.argmax(orphan)]} "
                        "has no parent face")
    neumann = old.neumann_faces[old_faces[np.argmax(on, axis=1)]]
    new.set_boundary_tags(new_faces[~neumann], new_faces[neumann])
    return new


def left_half(mesh: Mesh) -> np.ndarray:
    """Cells whose barycenter lies left of x = 0.5, the refinement set of
    ``hanging:NX:NY:left``; a cell centred on the line (odd NX) is not in it."""
    geoms = [mesh.cell_geometry(cells) for cells in mesh.cell_groups()]
    return np.sort(np.concatenate(
        [g.index[g.barycenter[:, 0] < 0.5 - GEOM_TOL] for g in geoms]))


def _new_vertices(vertices: np.ndarray, keys: np.ndarray, points: np.ndarray):
    """Append one vertex per distinct key, numbered in order of its first
    request; ``points[i]`` is where request ``i`` puts its vertex.  Returns
    the extended vertex array and the vertex of every request."""
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(unique), dtype=int)
    number[order] = np.arange(len(unique))
    return (np.concatenate([vertices, points[first[order]]]),
            len(vertices) + number[inverse])


def _pair_key(p: np.ndarray, q: np.ndarray, stride: int) -> np.ndarray:
    """One integer per unordered pair of point indices below ``stride``."""
    return np.minimum(p, q).astype(np.int64) * stride + np.maximum(p, q)


def _loops(rows: np.ndarray):
    """Cell loops from rows padded with -1: one array when every row keeps
    as many entries, else one array per row."""
    keep = rows >= 0
    counts = keep.sum(axis=1)
    width = counts.max(initial=0)
    if np.all(counts == width):
        return rows[keep].reshape(len(rows), width)
    return np.split(rows[keep], np.cumsum(counts)[:-1])


def _split_template(n: int):
    """How a cell with ``n`` vertices splits, in local slots: ``0..n-1`` its
    loop, ``n`` its centre and ``n + 1 + j`` the vertex of its request ``j``.

    A request is the midpoint of two slots (the centre asks for itself).
    Quads split into four quads about their centre, triangles into four
    triangles on their edge midpoints, and other polygons fan into
    triangles from their centre, each split the same way.  Returns the
    request pairs ``(r, 2)`` and the children ``(4 or 4n, 4)``, whose
    triangles are padded with -1.
    """
    ring = [(i, (i + 1) % n) for i in range(n)]
    if n == 4:
        return np.array(ring + [(4, 4)]), np.array(
            [(i, 5 + i, 9, 5 + (i - 1) % 4) for i in range(4)])
    if n == 3:
        pairs, tris = ring, [((0, 1, 2), (4, 5, 6))]
    else:
        pairs = [(n, n)] + [p for i, j in ring for p in ((n, i), (i, j), (j, n))]
        tris = [((n + 1, i, j), (n + 2 + 3 * i, n + 3 + 3 * i, n + 4 + 3 * i))
                for i, j in ring]
    return np.array(pairs), np.array(
        [kid for (a, b, c), (ab, bc, ca) in tris
         for kid in ((a, ab, ca, -1), (ab, b, bc, -1), (ca, bc, c, -1), (ab, bc, ca, -1))])


def _cell_order(cells: list, widths: list) -> np.ndarray:
    """The order that sorts blocks of ``widths[g]`` items per cell, for the
    cells of each group ``g`` concatenated group after group, by cell and
    then by item."""
    w = max(widths)
    return np.argsort(np.concatenate([(c[:, None] * w + np.arange(n)).ravel()
                                      for c, n in zip(cells, widths)]))


def _split_cells(mesh: Mesh, groups: list, centers: np.ndarray):
    """Split the cells of ``groups``, pairs ``(cells, loops)`` of one loop
    length each, by :func:`_split_template`; ``centers`` holds every cell's
    centre.

    New vertices are numbered in cell order, and within a cell in request
    order, when a cell first asks for them: a midpoint is keyed by its two
    ends (a centre by its cell), so neighbours share their edge midpoints.
    Returns the vertices, the children (rows padded with -1, in cell
    order), and the key and the vertex of every request, group by group.
    """
    V = mesh.vertices
    stride = len(V) + mesh.n_cells           # cell c's centre is point nv + c
    points = np.concatenate([V, centers])
    plans = []
    for c, loops in groups:
        pairs, kids = _split_template(loops.shape[1])
        ext = np.column_stack([loops, len(V) + c])
        p, q = ext[:, pairs[:, 0]], ext[:, pairs[:, 1]]
        plans.append((c, ext, kids, _pair_key(p, q, stride), 0.5 * (points[p] + points[q])))
    cells, local, templates, keys, at = zip(*plans)
    order = _cell_order(cells, [k.shape[1] for k in keys])
    sizes = np.cumsum([k.size for k in keys])[:-1]
    keys = np.concatenate([k.ravel() for k in keys])
    at = np.concatenate([a.reshape(-1, V.shape[1]) for a in at])
    verts, ids = _new_vertices(V, keys[order], at[order])
    ids = ids[np.argsort(order)]
    # local slots: the loop, the centre, the requests, then -1 for the padding
    rows = np.concatenate([np.column_stack([ext, i.reshape(len(ext), -1), np.full(len(ext), -1)])
                           [:, kids].reshape(-1, 4) for ext, i, kids in
                           zip(local, np.split(ids, sizes), templates)])
    return verts, rows[_cell_order(cells, [len(k) for k in templates])], keys, ids


def build_hanging_node_mesh(base: Mesh, cells_to_refine) -> Mesh:
    """Split selected quad cells into four; neighbors keep hanging vertices.

    Unrefined neighbors gain the edge midpoints as extra loop vertices and
    become pentagons/hexagons, which the rest of the library treats as
    ordinary polygons.  New vertices are numbered as :func:`_split_cells`
    does; the children of the refined cells come first, then the other
    cells in their order.
    """
    refine = np.unique(np.fromiter(cells_to_refine, dtype=int))
    if len(refine) and (refine[0] < 0 or refine[-1] >= base.n_cells):
        raise MeshError("refinement set contains an invalid cell index")
    if not len(refine):
        return _copy_with_tags(base)
    if base.dim != 2 or any(len(c) != 4 for c in base.cells):
        raise MeshError("hanging-node refinement expects a 2D all-quad mesh")
    loops = np.array(base.cells)
    verts, children, keys, ids = _split_cells(base, [(refine, loops[refine])],
                                              base.vertices[loops].mean(axis=1))
    # every other cell takes the midpoint of each split edge after its first vertex
    loops = loops[np.setdiff1d(np.arange(base.n_cells), refine)]
    edges = _pair_key(loops, np.roll(loops, -1, axis=1), len(base.vertices) + base.n_cells)
    sorter = np.argsort(keys)
    at = sorter[np.minimum(np.searchsorted(keys, edges, sorter=sorter), len(keys) - 1)]
    hanging = np.where(keys[at] == edges, ids[at], -1)
    polygons = np.stack([loops, hanging], axis=-1).reshape(len(loops), 8)
    cells = list(_loops(children)) + list(_loops(polygons))
    return _inherit_tags(Mesh(2, verts, cells), base)


def _copy_with_tags(base: Mesh) -> Mesh:
    mesh = Mesh(base.dim, base.vertices.copy(), [c.copy() for c in base.cells])
    mesh.set_boundary_tags(np.flatnonzero(base.dirichlet_faces).tolist(),
                           np.flatnonzero(base.neumann_faces).tolist())
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every cell; quads and triangles self-similarly, h halves.

    General polygons are first fanned into triangles from the barycenter
    and those triangles are then split four-way, so the result stays a
    valid mesh but is not self-similar.  A quad's centre is the mean of
    its vertices.  Vertices are numbered as :func:`_split_cells` does.
    """
    V = mesh.vertices
    if mesh.dim == 1:
        ends = np.array(mesh.cells)
        a, b = V[ends[:, 0], 0], V[ends[:, 1], 0]
        xs = np.append(np.column_stack([a, 0.5 * (a + b)]), b[-1])
        new = Mesh(1, xs[:, None], np.column_stack([np.arange(len(xs) - 1),
                                                    np.arange(1, len(xs))]))
        return _inherit_tags(new, mesh)
    sizes = np.fromiter(map(len, mesh.cells), dtype=int, count=mesh.n_cells)
    flat, starts = np.concatenate(mesh.cells), np.cumsum(sizes) - sizes
    centers = np.empty((mesh.n_cells, 2))
    for cells in mesh.cell_groups():
        g = mesh.cell_geometry(cells)
        centers[cells] = g.vertices.mean(axis=1) if g.n_faces == 4 else g.barycenter
    groups = [(cells, flat[starts[cells, None] + np.arange(n)])
              for n in np.unique(sizes) for cells in [np.flatnonzero(sizes == n)]]
    verts, children, _, _ = _split_cells(mesh, groups, centers)
    return _inherit_tags(Mesh(2, verts, _loops(children)), mesh)


# ---------------------------------------------------------------------------
# JSON interchange


def mesh_to_dict(mesh: Mesh) -> dict:
    return {
        "dim": mesh.dim,
        "vertices": mesh.vertices.tolist(),
        "cells": [list(map(int, c)) for c in mesh.cells],
        "boundary": {
            "dirichlet": np.flatnonzero(mesh.dirichlet_faces).tolist(),
            "neumann": np.flatnonzero(mesh.neumann_faces).tolist(),
        },
    }


def mesh_from_dict(data: dict) -> Mesh:
    mesh = Mesh(data["dim"], np.asarray(data["vertices"], dtype=float), data["cells"])
    boundary = data.get("boundary")
    if boundary is not None:
        mesh.set_boundary_tags(boundary.get("dirichlet", []), boundary.get("neumann", []))
    return mesh


def save_mesh_json(mesh: Mesh, path) -> None:
    with open(path, "w") as fh:
        json.dump(mesh_to_dict(mesh), fh)


def load_mesh_json(path) -> Mesh:
    with open(path) as fh:
        return mesh_from_dict(json.load(fh))
