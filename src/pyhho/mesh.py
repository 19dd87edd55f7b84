"""Interval and polygonal meshes with first-class faces.

Cells are counterclockwise vertex loops (index pairs in 1D), the rows of one
index array padded with -1.
Faces carry global indices in a canonical order (sorted by their sorted
vertex tuple) so that runs are reproducible and face unknowns can be
shared between the two cells of an interface.  Geometry is stacked per
cell group (:meth:`Mesh.cell_groups`), whose loops may be padded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain

import numpy as np

GEOM_TOL = 1e-12
SHAPE_TOL = 1e-12     # relative to the diameter: cells this close share a shape
# fan loop lengths with fewer cells share one padded group: a group costs a solve
# 1.0-2.4 ms whatever its size, a cell of its own shape about 64 us (k = 1, 1 thread)
PAD_CELLS = 64


class MeshError(ValueError):
    """Raised when a mesh violates a structural or geometric invariant."""


@dataclass(frozen=True)
class CellGeometry:
    """Geometric quantities of one cell and its faces, or of a group.

    ``barycenter`` is the area centroid, ``diameter`` the maximum pairwise
    vertex distance.  Per-face arrays follow the cell's boundary loop order
    and the normals point outward.  ``shape`` names the quadrature class:
    ``interval``, ``tri``, ``quad`` (parallelogram, tensor rule) or ``fan``
    (any other polygon).  A group's geometry stacks every field along a
    leading cell axis.  A ``fan`` group's loops are padded to its longest by
    repeating the first vertex before its geometry is computed: a padded slot
    is a zero-length face after the closing face, with measure 0, normal 0
    and the closing face's index.
    """

    index: int | np.ndarray
    dim: int
    shape: str
    vertices: np.ndarray          # (nv, dim) coordinates of the loop
    barycenter: np.ndarray        # (dim,)
    diameter: float
    measure: float
    frame: np.ndarray             # (dim, dim) J^(-1/2) / sqrt(3 dim): see _stack_geometry
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
    d = np.abs((pts[..., 0, :] + pts[..., 2, :]) - (pts[..., 1, :] + pts[..., 3, :]))
    scale = reduce(np.maximum, np.moveaxis(np.abs(pts).reshape(pts.shape[:-2] + (8,)), -1, 0))
    return np.maximum(d[..., 0], d[..., 1]) <= 1e-13 * (scale + 1.0)


_FIELDS = ("vertices", "barycenter", "diameter", "measure", "frame", "face_indices",
           "face_measures", "face_normals")
_LOOP = ("vertices", "face_indices", "face_measures", "face_normals")    # padded fields

# per-cell checks in the order a cell is tested against them
_CHECKS = ("has non-positive length", "is degenerate or not counterclockwise",
           "has a zero-length edge", "has non-positive measure",
           "faces do not close up",
           "is not star-shaped with respect to its barycenter")


def _stack_geometry(dim: int, pts: np.ndarray, real=None) -> dict:
    """Geometry fields of a stack of vertex loops ``(nb, w, dim)``, whose own
    slots ``real`` masks if they are padded: a padded slot repeats the first
    vertex, so it adds 0 to every sum, and its normal is set to 0.
    Degenerate loops give non-finite values that the checks catch."""
    if dim == 1:
        a, b = pts[:, 0, 0], pts[:, 1, 0]
        return dict(barycenter=0.5 * (a + b)[:, None], diameter=b - a, measure=b - a,
                    frame=(2.0 / (b - a))[:, None, None],
                    face_measures=np.ones((len(pts), 2)),
                    face_normals=np.tile([[-1.0], [1.0]], (len(pts), 1, 1)))
    slot = np.arange(pts.shape[1])
    nxt = pts[:, slot - len(slot) + 1]        # each vertex's successor
    # shoelace sums relative to the first vertex, which keeps them accurate
    # for small cells far from the origin
    rel, rnxt = pts - pts[:, :1], nxt - pts[:, :1]
    mid = rel + rnxt
    cross = rel[..., 0] * rnxt[..., 1] - rnxt[..., 0] * rel[..., 1]
    # slot sums add slot by slot, so zero slots change nothing; an unpadded area keeps row .sum
    area = 0.5 * (cross.sum(axis=1) if real is None else reduce(np.add, cross.T))
    c = reduce(np.add, (mid * cross[..., None]).swapaxes(0, 1)) / (6.0 * area[:, None])
    # frame: J^(-1/2) / sqrt(3 d) for J = int_T (x - x_T)(x - x_T)^T / |T| over the fan's
    # triangles (0, a, b), each (a x b)(aa^T + bb^T + (a+b)(a+b)^T) / 24; sqrt(J) = (J + s I)
    # / sqrt(tr J + 2 s), s^2 = det J floored at its round-off, inverted by Cayley-Hamilton
    J = sum((v * cross[..., None]).mT @ v for v in (rel, rnxt, mid))
    J = J / (24.0 * area[:, None, None]) - c[:, :, None] * c[:, None, :]
    t = J[:, :1, :1] + J[:, 1:, 1:]
    det = J[:, :1, :1] * J[:, 1:, 1:] - J[:, :1, 1:] * J[:, 1:, :1]
    s = np.sqrt(np.maximum(det, (1e-16 * t) ** 2))
    x, y = pts[..., 0], pts[..., 1]
    ex, ey = nxt[..., 0] - x, nxt[..., 1] - y
    far = ex * ex + ey * ey
    lengths = np.sqrt(far)
    # CCW loop: outward normal is the edge direction rotated by -90 deg
    normals = np.stack([ey, -ex], axis=-1) / lengths[..., None]
    if real is not None:
        normals[~real] = 0.0
    # the diameter: the vertex pairs (i, i + k) for k <= w / 2 are all pairs, k = 1 the edges
    for step in ((slot + k) % len(slot) for k in range(2, len(slot) // 2 + 1)):
        far = np.maximum(far, (x - x[:, step]) ** 2 + (y - y[:, step]) ** 2)
    return dict(
        barycenter=pts[:, 0] + c,
        frame=((t + s) * np.eye(2) - J) / (s * np.sqrt(t + 2.0 * s)) / np.sqrt(6.0),
        diameter=np.sqrt(reduce(np.maximum, far.T)), measure=area,
        face_measures=lengths, face_normals=normals)


def _first_seen(label: np.ndarray):
    """Relabel ``label`` by order of first occurrence.  Returns the position
    of each label's first entry (ascending) and the new labels."""
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def _loop_rows(cells):
    """Loops as rows padded with -1 and their lengths, from an int array in that
    layout or from one index sequence per cell, which must hold integers alone."""
    if isinstance(cells, np.ndarray) and cells.ndim == 2 and cells.dtype.kind == "i":
        return cells.astype(int, copy=False), (cells != -1).sum(axis=1)
    try:
        sizes = np.fromiter(map(len, cells), dtype=int, count=len(cells))
        flat = np.asarray(list(chain.from_iterable(cells)))
        valid = flat.ndim == 1 and (flat.dtype.kind in "iu" or not flat.size)
    except (TypeError, ValueError):     # a cell without a length, or one that nests a list
        valid = False
    if not valid:       # name the first malformed cell
        for i, cell in enumerate(cells):
            try:
                loop = np.asarray(cell)
            except ValueError:
                loop = None
            if loop is None or loop.ndim != 1 or loop.size and loop.dtype.kind not in "iu":
                raise MeshError(f"cell {i} is not a list of vertex indices: {cell!r}")
    rows = np.full((len(sizes), sizes.max()), -1)
    rows[np.arange(rows.shape[1]) < sizes[:, None]] = flat
    return rows, sizes


def _failed_checks(g: CellGeometry, real=None) -> np.ndarray:
    """``(len(_CHECKS), n_cells)`` failure masks of a stacked group, whose padded slots
    ``real`` masks, if any.  Short rows are reduced column by column, which is faster."""
    pts, measure = g.vertices, g.measure
    never = np.zeros(len(measure), dtype=bool)
    # closed-boundary identity sum |F| n_F = 0
    resid = reduce(np.add, (g.face_measures[..., None] * g.face_normals).swapaxes(0, 1))
    not_closed = reduce(np.maximum, np.abs(resid).T) > 1e-12 * np.maximum(g.perimeter, 1.0)
    if g.dim == 1:
        return np.stack([measure <= 0, never, never, measure <= 0, not_closed, never])
    scale = (reduce(np.maximum, np.abs(pts).reshape(len(pts), -1).T) + 1.0) ** 2
    d = pts - g.barycenter[:, None]
    dn = d[:, np.arange(pts.shape[1]) - pts.shape[1] + 1]       # each vertex's successor
    tri_area = 0.5 * (d[..., 0] * dn[..., 1] - d[..., 1] * dn[..., 0])
    short, bent = g.face_measures <= 0, tri_area <= 1e-13 * measure[:, None]
    if real is not None:
        short, bent = short & real, bent & real
    return np.stack([never, measure <= GEOM_TOL * scale, reduce(np.logical_or, short.T),
                     measure <= 0, not_closed, reduce(np.logical_or, bent.T)])


class Mesh:
    """Immutable mesh with explicit face connectivity.

    ``cells`` is an int array laid out like :attr:`loops` or one index
    sequence per cell.  Geometry is computed once per cell group (see
    :meth:`cell_groups`) on stacked arrays; :meth:`cell_geometry` gathers
    from those stacks.

    Attributes
    ----------
    dim : 1 or 2
    vertices : (nv, dim) float array
    loops : (n_cells, width) int array, each row a CCW vertex loop (a pair
        in 1D) followed by -1 up to the longest loop's length
    sizes : (n_cells,) int array, the loop lengths
    cells : per-cell loop arrays, a list view of ``loops`` built when read
    face_nodes : (nf, dim) int array, sorted vertex indices of each face
        (one vertex in 1D), rows in lexicographic order
    cell_faces : per-cell array of global face indices, loop order, built when read
    face_cells : (nf, 2) int array, second entry -1 on the boundary;
        interior normals point from ``face_cells[f, 0]`` (lower cell
        index) to ``face_cells[f, 1]``
    dirichlet_faces / neumann_faces : boolean masks over faces
    """

    def __init__(self, dim, vertices, cells, neumann=None):
        self.vertices = np.asarray(vertices, dtype=float)
        if dim not in (1, 2) or self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise MeshError(f"a mesh of dim 1 or 2 takes (n, dim) vertices, not dim {dim!r} "
                            f"and shape {self.vertices.shape}")
        self.dim = int(dim)
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {bad[0]} has non-finite coordinates "
                            f"{self.vertices[bad[0]].tolist()}")
        if not len(cells):
            raise MeshError("mesh has no cells")
        loops, sizes = _loop_rows(cells)
        bad = np.flatnonzero(sizes != 2 if self.dim == 1 else sizes < 3)
        if len(bad):
            raise MeshError(f"cell {bad[0]} has {sizes[bad[0]]} vertices")
        self.loops, self.sizes = loops[:, :sizes.max()], sizes
        # the loop slots, all of them (True) when every loop fills its row
        inside = True if sizes.min() == sizes.max() else np.arange(sizes.max()) < sizes[:, None]
        stray = inside & ((self.loops < 0) | (self.loops >= len(self.vertices)))
        bad = np.flatnonzero(stray.any(axis=1))
        if len(bad):
            raise MeshError(f"cell {bad[0]} references a vertex outside "
                            f"0..{len(self.vertices) - 1}")
        twisted = self._build_faces(inside)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._build_geometry()
        if len(twisted):     # after the cell checks, which name a clockwise cell itself
            raise MeshError("face {} runs the same way in cells {} and {}".format(
                twisted[0], *self.face_cells[twisted[0]]))
        self._tag_boundary(neumann)

    # -- construction -------------------------------------------------

    def _build_faces(self, inside) -> np.ndarray:
        """Number the faces canonically and record each loop entry's face.  Returns
        the faces that both their cells run the same way, as overlapping cells do."""
        loops, sizes, nv = self.loops, self.sizes, len(self.vertices)
        at = slice(None) if inside is True else inside.reshape(-1)
        flat, owner = loops.reshape(-1)[at], np.repeat(np.arange(len(loops)), sizes)
        if self.dim == 1:
            # in 1D a face runs forward as the left end of its cell
            key, forward = flat, np.tile([True, False], len(loops))
        else:
            nxt, last = np.concatenate([flat[1:], flat[:1]]), np.cumsum(sizes) - 1
            nxt[last] = flat[last - sizes + 1]     # each loop's last entry closes it
            # a key sorts like the sorted pair, so faces keep their lexicographic order
            key, forward = _pair_key(flat, nxt, nv), flat < nxt
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
        shared = np.flatnonzero(counts == 2)
        a, b = order[first[shared]], order[first[shared] + 1]
        self.face_cells[shared, 1] = owner[b]
        self._entry_faces = np.full(loops.shape, -1)
        self._entry_faces.reshape(-1)[at] = inverse        # a view of the rows
        return shared[forward[a] == forward[b]]

    def _build_geometry(self):
        """One validated :class:`CellGeometry` per group of :meth:`cell_groups`, formed
        from the loops alone; the shared ``fan`` group is padded before its geometry."""
        # bucket keys: tensor quads 0, the shared fan bucket 1, else the loop length
        sizes, key = self.sizes, self.sizes.copy()
        if self.dim == 2:
            four = np.flatnonzero(sizes == 4)
            key[four[is_parallelogram(self.vertices[self.loops[four, :4]])]] = 0
            key[(key >= 4) & (np.bincount(key)[key] < PAD_CELLS)] = 1
        buckets = [np.flatnonzero(key == k) for k in np.flatnonzero(np.bincount(key))]
        self._groups, (self._group_of, self._slot) = [], np.empty((2, self.n_cells), dtype=int)
        # name the lowest-index invalid cell and the first check it fails
        bad = np.zeros((len(_CHECKS), self.n_cells), dtype=bool)
        for i, cells in enumerate(sorted(buckets, key=lambda c: c[0])):
            n, w = sizes[cells], sizes[cells].max()
            loops, faces, real = self.loops[cells, :w], self._entry_faces[cells, :w], None
            if n.min() < w:
                # a slot past a loop's end takes its first vertex and its closing face
                real = np.arange(w) < n[:, None]
                loops = np.where(real, loops, loops[:, :1])
                faces = np.where(real, faces, faces[np.arange(len(cells)), n - 1][:, None])
            pts = self.vertices[loops]
            shape = {0: "quad", 2: "interval", 3: "tri"}.get(key[cells[0]], "fan")
            g = CellGeometry(index=cells, dim=self.dim, shape=shape, vertices=pts,
                             face_indices=faces, **_stack_geometry(self.dim, pts, real))
            bad[:, cells] = _failed_checks(g, real)
            self._groups.append(g)
            self._group_of[cells], self._slot[cells] = i, np.arange(len(cells))
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
        tags = [list(dirichlet), list(neumann)]
        for f in tags[0] + tags[1]:
            if isinstance(f, bool) or not isinstance(f, (int, np.integer)):
                raise MeshError(f"boundary tag names face {f!r}, which is not an integer")
        dirichlet, neumann = (np.sort(np.array(f, dtype=int)) for f in tags)
        both = np.concatenate([dirichlet, neumann])
        bad = both[(both < 0) | (both >= self.n_faces)]
        if len(bad):
            raise MeshError(f"boundary tag names face {bad[0]} outside 0..{self.n_faces - 1}")
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
        return len(self.loops)

    @property
    def n_faces(self) -> int:
        return len(self.face_nodes)

    @cached_property
    def cells(self) -> list:
        return np.split(self.loops[self.loops >= 0], np.cumsum(self.sizes)[:-1])

    @cached_property
    def cell_faces(self) -> list:
        return np.split(self._entry_faces[self.loops >= 0], np.cumsum(self.sizes)[:-1])

    @property
    def boundary_faces(self) -> np.ndarray:
        return self.face_cells[:, 1] < 0

    def face_vertices(self, face: int) -> np.ndarray:
        return self.vertices[self.face_nodes[face]]

    def face_center(self, face: int) -> np.ndarray:
        return self.face_vertices(face).mean(axis=0)

    def _group_slots(self, cells):
        """``cells`` as an array, their one group's stack and their slots in it."""
        cells = np.asarray(cells, dtype=int)
        groups = self._group_of[cells].reshape(-1)
        if not len(groups) or np.any(groups != groups[0]):
            raise MeshError("expected one or more cells of one group of cell_groups()")
        return cells, self._groups[groups[0]], self._slot[cells]

    def cell_geometry(self, cells) -> CellGeometry:
        """Geometry of one cell, or stacked over an array of cells of one
        group (see :meth:`cell_groups`), gathered from the group's stack;
        one cell index gives its own loop, an array the group's padded slots."""
        cells, g, slot = self._group_slots(cells)
        n = None if cells.ndim else self.sizes[cells]
        return CellGeometry(index=cells if cells.ndim else int(cells), dim=self.dim, shape=g.shape,
                            **{k: getattr(g, k)[slot][:n] if k in _LOOP else getattr(g, k)[slot]
                               for k in _FIELDS})

    def cell_face_indices(self, cells) -> np.ndarray:
        """The ``face_indices`` of :meth:`cell_geometry` alone: global faces
        of one cell in loop order, or ``(nb, n_faces)`` for cells of one group."""
        cells, g, slot = self._group_slots(cells)
        return g.face_indices[slot][:None if cells.ndim else self.sizes[cells]]

    def cell_groups(self) -> list:
        """Cell indices grouped by quadrature class and loop length, in the
        order of each group's first cell; every per-cell stage runs once
        per group on stacked arrays.  The ``fan`` loop lengths of fewer than
        ``PAD_CELLS`` cells share one group padded to its longest loop: a
        group's fixed cost per solve outweighs that many cells' work, and
        padding a frequent length would cost more than its own group."""
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
        # clusters of each coordinate: its sorted values split where neighbours
        # differ by more than the tolerance of either
        order = np.argsort(rel, axis=0, kind="stable")
        near = np.minimum(tol[order][1:], tol[order][:-1])
        split = np.diff(np.take_along_axis(rel, order, axis=0), axis=0) > near
        ids = np.zeros_like(order)
        np.put_along_axis(ids, order[1:], np.cumsum(split, axis=0), axis=0)
        # one label per distinct row of cluster ids and face directions
        keys = np.concatenate([ids, forward], axis=1).T
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
    return Mesh(1, xs[:, None], np.arange(n_cells)[:, None] + np.arange(2), neumann=neumann)


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


def _inherit_tags(new: Mesh, old: Mesh, origin: np.ndarray) -> Mesh:
    """Tag each boundary face of ``new`` like its parent face of ``old``.
    ``origin`` names an old vertex pair per new vertex: an old vertex is its
    own pair, a midpoint the two ends it halves.  The parent of a boundary
    face is the old face between the lowest and the highest of its ends'
    origins, looked up exactly in the lexicographic ``old.face_nodes``."""
    if not np.any(old.neumann_faces):
        return new
    nv = len(old.vertices)
    faces = np.flatnonzero(new.boundary_faces)
    ends = origin[new.face_nodes[faces]].reshape(len(faces), -1)
    parent = np.searchsorted(_pair_key(old.face_nodes[:, 0], old.face_nodes[:, -1], nv),
                             _pair_key(ends.min(axis=1), ends.max(axis=1), nv))
    neumann = old.neumann_faces[parent]
    new.set_boundary_tags(faces[~neumann], faces[neumann])
    return new


def left_half(mesh: Mesh) -> np.ndarray:
    """Cells whose barycenter lies left of x = 0.5, the refinement set of
    ``hanging:NX:NY:left``; a cell centred on the line (odd NX) is not in it."""
    geoms = [mesh.cell_geometry(cells) for cells in mesh.cell_groups()]
    return np.sort(np.concatenate(
        [g.index[g.barycenter[:, 0] < 0.5 - GEOM_TOL] for g in geoms]))


def _pair_key(p: np.ndarray, q: np.ndarray, stride: int) -> np.ndarray:
    """One integer per unordered pair of point indices below ``stride``."""
    return np.minimum(p, q).astype(np.int64) * stride + np.maximum(p, q)


def _split_template(n: int):
    """How a cell with ``n`` vertices splits, in local slots: ``0..n-1`` its
    loop, ``n`` its centre and ``n + 1 + j`` the vertex of its request ``j``.

    A request is the midpoint of two slots (the centre asks for itself).
    Intervals halve, quads split into four quads about their centre,
    triangles into four triangles on their edge midpoints, and other
    polygons fan into triangles from their centre, each split the same
    way.  Returns the request pairs ``(r, 2)`` and the children, 2, 4 or
    4n rows of 4 slots, whose intervals and triangles are padded with -1.
    """
    if n == 2:
        return np.array([(0, 1)]), np.array([(0, 3, -1, -1), (3, 1, -1, -1)])
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
    # one new vertex per distinct key, numbered by its first request
    first, ids = _first_seen(keys[order])
    verts, ids = np.concatenate([V, at[order][first]]), len(V) + ids[np.argsort(order)]
    # local slots: the loop, the centre, the requests, then -1 for the padding
    rows = np.concatenate([np.column_stack([ext, i.reshape(len(ext), -1), np.full(len(ext), -1)])
                           [:, kids].reshape(-1, 4) for ext, i, kids in
                           zip(local, np.split(ids, sizes), templates)])
    return verts, rows[_cell_order(cells, [len(k) for k in templates])], keys, ids


def build_hanging_node_mesh(base: Mesh, cells_to_refine) -> Mesh:
    """Split the selected cells of a 1D or 2D mesh; their neighbours keep
    hanging vertices.

    A split cell splits by :func:`_split_template`, a 4-vertex loop about
    its vertex mean and any other polygon about its barycenter.  Every
    other cell takes the midpoint of each split edge after the edge's
    first vertex and becomes a polygon of more vertices, which the rest of
    the library treats as any other.  New vertices are numbered as
    :func:`_split_cells` does, in 1D then renumbered by position; the
    children of the split cells come first, then the other cells in their
    order.  Boundary tags follow the split (:func:`_inherit_tags`).
    """
    refine = np.unique(np.fromiter(cells_to_refine, dtype=int))
    if len(refine) and (refine[0] < 0 or refine[-1] >= base.n_cells):
        raise MeshError("refinement set contains an invalid cell index")
    V, stride = base.vertices, len(base.vertices) + base.n_cells
    if not len(refine):
        return _inherit_tags(Mesh(base.dim, V.copy(), base.loops.copy()), base,
                             np.repeat(np.arange(len(V)), 2).reshape(-1, 2))
    loops, sizes = base.loops, base.sizes
    centers = np.empty((base.n_cells, base.dim))
    for g in base._groups:
        centers[g.index] = g.barycenter
    quads = np.flatnonzero(sizes == 4)
    centers[quads] = V[loops[quads, :4]].mean(axis=1)
    groups = [(cells, loops[cells, :n])
              for n in np.unique(sizes[refine]) for cells in [refine[sizes[refine] == n]]]
    verts, children, keys, ids = _split_cells(base, groups, centers)
    origin = np.repeat(np.arange(len(verts)), 2).reshape(-1, 2)
    origin[ids] = np.column_stack(np.divmod(keys, stride))
    # the midpoint of each split face, then 2n slots per loop: each vertex and
    # the midpoint of the face after it, or -1, which a stable sort moves to the end
    face_keys = _pair_key(base.face_nodes[:, 0], base.face_nodes[:, -1], stride)
    at = np.minimum(np.searchsorted(face_keys, keys), base.n_faces - 1)
    split = face_keys[at] == keys
    mid = np.full(base.n_faces, -1)
    mid[at[split]] = ids[split]
    rows = np.stack([loops, np.where(loops < 0, -1, mid[base._entry_faces])], axis=2)
    rest = np.delete(rows.reshape(base.n_cells, -1), refine, axis=0)
    rest = np.take_along_axis(rest, np.argsort(rest < 0, axis=1, kind="stable"), axis=1)
    loops = np.concatenate([np.pad(children, ((0, 0), (0, rest.shape[1] - 4)), constant_values=-1),
                            rest])
    if base.dim == 1:
        order = np.argsort(verts[:, 0])
        rank = np.argsort(order)
        verts, origin, loops = verts[order], origin[order], np.where(loops < 0, -1, rank[loops])
    return _inherit_tags(Mesh(base.dim, verts, loops), base, origin)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every cell (:func:`build_hanging_node_mesh` of all cells): quads
    and triangles self-similarly, so h halves; other polygons fan into
    triangles from their barycenter, a valid mesh that is not self-similar."""
    return build_hanging_node_mesh(mesh, range(mesh.n_cells))


# ---------------------------------------------------------------------------
# JSON interchange


def mesh_to_dict(mesh: Mesh) -> dict:
    return {
        "dim": mesh.dim,
        "vertices": mesh.vertices.tolist(),
        "cells": [row[:n] for row, n in zip(mesh.loops.tolist(), mesh.sizes.tolist())],
        "boundary": {
            "dirichlet": np.flatnonzero(mesh.dirichlet_faces).tolist(),
            "neumann": np.flatnonzero(mesh.neumann_faces).tolist(),
        },
    }


def mesh_from_dict(data: dict) -> Mesh:
    mesh = Mesh(data["dim"], data["vertices"], data["cells"])
    boundary = data.get("boundary")
    if boundary is not None:
        mesh.set_boundary_tags(boundary.get("dirichlet", []), boundary.get("neumann", []))
    return mesh


def save_mesh_json(mesh: Mesh, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(mesh_to_dict(mesh)))      # one write, not json.dump's many


def load_mesh_json(path) -> Mesh:
    with open(path) as fh:
        return mesh_from_dict(json.load(fh))
