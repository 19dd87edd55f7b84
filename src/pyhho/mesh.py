"""Interval and polygonal meshes with first-class faces.

Cells are stored as counterclockwise vertex loops (index pairs in 1D).
Faces carry global indices in a canonical order (sorted by their sorted
vertex tuple) so that runs are reproducible and face unknowns can be
shared between the two cells of an interface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

GEOM_TOL = 1e-12


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


def is_parallelogram(pts: np.ndarray) -> bool:
    """Whether a vertex loop (or every loop of a stack) is a parallelogram."""
    if pts.shape[-2] != 4:
        return False
    d = (pts[..., 0, :] + pts[..., 2, :]) - (pts[..., 1, :] + pts[..., 3, :])
    scale = np.abs(pts).max() + 1.0
    return bool(np.max(np.abs(d)) <= 1e-13 * scale)


def _polygon_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _polygon_centroid(pts: np.ndarray, area: float) -> np.ndarray:
    shifted = np.roll(pts, -1, axis=0)
    cross = pts[:, 0] * shifted[:, 1] - shifted[:, 0] * pts[:, 1]
    cx = np.sum((pts[:, 0] + shifted[:, 0]) * cross) / (6.0 * area)
    cy = np.sum((pts[:, 1] + shifted[:, 1]) * cross) / (6.0 * area)
    return np.array([cx, cy])


class Mesh:
    """Immutable mesh with explicit face connectivity.

    Attributes
    ----------
    dim : 1 or 2
    vertices : (nv, dim) float array
    cells : list of int arrays, CCW vertex loops (pairs in 1D)
    faces : list of vertex-index tuples (single vertex in 1D)
    cell_faces : per-cell array of global face indices, loop order
    face_cells : (nf, 2) int array, second entry -1 on the boundary;
        interior normals point from ``face_cells[f, 0]`` (lower cell
        index) to ``face_cells[f, 1]``
    dirichlet_faces / neumann_faces : boolean masks over faces
    """

    def __init__(self, dim, vertices, cells, neumann=None, validate=True):
        self.dim = int(dim)
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, self.dim)
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {bad[0]} has non-finite coordinates "
                            f"{self.vertices[bad[0]].tolist()}")
        self.cells = [np.asarray(c, dtype=int) for c in cells]
        self._build_faces()
        self._tag_boundary(neumann)
        self._geometry = [self._compute_geometry(i) for i in range(self.n_cells)]
        self._groups = None
        if validate:
            self._validate()

    # -- construction -------------------------------------------------

    def _build_faces(self):
        if self.dim == 1:
            keys = [(i,) for i in range(len(self.vertices))]
        else:
            seen = set()
            for loop in self.cells:
                for a, b in zip(loop, np.roll(loop, -1)):
                    seen.add(tuple(sorted((int(a), int(b)))))
            keys = sorted(seen)
        self.faces = keys
        self.face_nodes = np.asarray(keys, dtype=int).reshape(len(keys), -1)
        index = {k: i for i, k in enumerate(keys)}

        nf = len(keys)
        self.face_cells = np.full((nf, 2), -1, dtype=int)
        self.cell_faces = []
        for ci, loop in enumerate(self.cells):
            if self.dim == 1:
                local = [index[(int(loop[0]),)], index[(int(loop[1]),)]]
            else:
                local = [index[tuple(sorted((int(a), int(b))))]
                         for a, b in zip(loop, np.roll(loop, -1))]
            self.cell_faces.append(np.asarray(local, dtype=int))
            for fi in local:
                if self.face_cells[fi, 0] < 0:
                    self.face_cells[fi, 0] = ci
                elif self.face_cells[fi, 1] < 0:
                    self.face_cells[fi, 1] = ci
                else:
                    raise MeshError(f"face {fi} shared by more than two cells")
        # keep the "normal from lower to higher cell index" convention
        swap = (self.face_cells[:, 1] >= 0) & (self.face_cells[:, 0] > self.face_cells[:, 1])
        self.face_cells[swap] = self.face_cells[swap][:, ::-1]

    def _tag_boundary(self, neumann):
        nf = len(self.faces)
        boundary = self.face_cells[:, 1] < 0
        self.dirichlet_faces = boundary.copy()
        self.neumann_faces = np.zeros(nf, dtype=bool)
        if neumann is not None:
            for fi in np.flatnonzero(boundary):
                if neumann(self.face_center(fi)):
                    self.neumann_faces[fi] = True
                    self.dirichlet_faces[fi] = False

    def set_boundary_tags(self, dirichlet, neumann):
        """Install explicit boundary tags (face index lists)."""
        boundary = self.face_cells[:, 1] < 0
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
        return len(self.faces)

    @property
    def boundary_faces(self) -> np.ndarray:
        return self.face_cells[:, 1] < 0

    def face_vertices(self, face: int) -> np.ndarray:
        return self.vertices[list(self.faces[face])]

    def face_center(self, face: int) -> np.ndarray:
        return self.face_vertices(face).mean(axis=0)

    def face_measure(self, face: int) -> float:
        pts = self.face_vertices(face)
        if self.dim == 1:
            return 1.0
        return float(np.linalg.norm(pts[1] - pts[0]))

    def cell_geometry(self, cells) -> CellGeometry:
        """Geometry of one cell, or stacked over a sequence of cells that
        share one quadrature class (see :meth:`cell_groups`)."""
        if np.ndim(cells) == 0:
            return self._geometry[cells]
        parts = [self._geometry[c] for c in cells]
        if not parts or len({(g.shape, g.n_faces) for g in parts}) != 1:
            raise MeshError("a cell group needs one or more cells of one "
                            "shape and face count")
        return CellGeometry(
            index=np.asarray(cells, dtype=int), dim=self.dim, shape=parts[0].shape,
            **{name: np.stack([getattr(g, name) for g in parts])
               for name in ("vertices", "barycenter", "diameter", "measure",
                            "face_indices", "face_measures", "face_normals")})

    def cell_groups(self) -> list:
        """Cell indices grouped by quadrature class and face count, in the
        order of each group's first cell; every per-cell stage runs once
        per group on stacked arrays."""
        if self._groups is None:
            keys = {}
            for g in self._geometry:
                keys.setdefault((g.shape, g.n_faces), []).append(g.index)
            self._groups = [np.asarray(cells) for cells in keys.values()]
        return self._groups

    def max_diameter(self) -> float:
        return max(g.diameter for g in self._geometry)

    def total_measure(self) -> float:
        return sum(g.measure for g in self._geometry)

    def _compute_geometry(self, cell: int) -> CellGeometry:
        loop = self.cells[cell]
        pts = self.vertices[loop]
        faces = self.cell_faces[cell]
        if self.dim == 1:
            a, b = float(pts[0, 0]), float(pts[1, 0])
            length = b - a
            if length <= 0:
                raise MeshError(f"cell {cell} has non-positive length")
            normals = np.array([[-1.0], [1.0]])
            return CellGeometry(
                index=cell, dim=1, shape="interval", vertices=pts,
                barycenter=np.array([0.5 * (a + b)]),
                diameter=length, measure=length,
                face_indices=faces,
                face_measures=np.array([1.0, 1.0]),
                face_normals=normals,
            )
        area = _polygon_area(pts)
        if area <= GEOM_TOL * np.max(np.abs(pts) + 1.0) ** 2:
            raise MeshError(f"cell {cell} is degenerate or not counterclockwise")
        centroid = _polygon_centroid(pts, area)
        diffs = pts[:, None, :] - pts[None, :, :]
        diameter = float(np.sqrt((diffs ** 2).sum(axis=2).max()))
        nxt = np.roll(pts, -1, axis=0)
        edge = nxt - pts
        lengths = np.linalg.norm(edge, axis=1)
        if np.any(lengths <= 0):
            raise MeshError(f"cell {cell} has a zero-length edge")
        # CCW loop: outward normal is the edge direction rotated by -90 deg
        normals = np.column_stack([edge[:, 1], -edge[:, 0]]) / lengths[:, None]
        shape = ("tri" if len(pts) == 3 else
                 "quad" if is_parallelogram(pts) else "fan")
        return CellGeometry(
            index=cell, dim=2, shape=shape, vertices=pts,
            barycenter=centroid, diameter=diameter, measure=area,
            face_indices=faces,
            face_measures=lengths, face_normals=normals,
        )

    def _validate(self):
        boundary = self.boundary_faces
        if self.dim == 2:
            interior = ~boundary
            counts = np.zeros(self.n_faces, dtype=int)
            for faces in self.cell_faces:
                counts[faces] += 1
            if not np.all(counts[interior] == 2) or not np.all(counts[boundary] == 1):
                raise MeshError("face/cell incidence counts are inconsistent")
        for g in self._geometry:
            if g.measure <= 0:
                raise MeshError(f"cell {g.index} has non-positive measure")
            # closed-boundary identity sum |F| n_F = 0
            resid = (g.face_measures[:, None] * g.face_normals).sum(axis=0)
            if np.max(np.abs(resid)) > 1e-12 * max(g.perimeter, 1.0):
                raise MeshError(f"cell {g.index} faces do not close up")
            if self.dim == 2:
                self._check_star_shaped(g)

    def _check_star_shaped(self, g: CellGeometry):
        pts = g.vertices
        nxt = np.roll(pts, -1, axis=0)
        d1 = pts - g.barycenter
        d2 = nxt - g.barycenter
        tri_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(tri_area <= 1e-13 * g.measure):
            raise MeshError(
                f"cell {g.index} is not star-shaped with respect to its barycenter"
            )


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
    (x0, x1), (y0, y1) = bounds
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    verts = np.array([[x, y] for x in xs for y in ys])
    cells = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid[i, j], vid[i + 1, j]
            v11, v01 = vid[i + 1, j + 1], vid[i, j + 1]
            if shape == "quad":
                cells.append((v00, v10, v11, v01))
            elif shape == "tri":
                cells.append((v00, v10, v11))
                cells.append((v00, v11, v01))
            else:
                raise MeshError(f"unknown structured shape {shape!r}")
    return Mesh(2, verts, cells, neumann=neumann)


def _inherit_tags(new: Mesh, old: Mesh) -> Mesh:
    """Tag boundary faces of ``new`` from the containing face of ``old``."""
    if not np.any(old.neumann_faces):
        return new
    old_faces = np.flatnonzero(old.boundary_faces)
    dirichlet, neumann = [], []
    for fi in np.flatnonzero(new.boundary_faces):
        c = new.face_center(fi)
        parent = None
        for fo in old_faces:
            pts = old.face_vertices(fo)
            if old.dim == 1:
                on = abs(c[0] - pts[0, 0]) <= 1e-12
            else:
                a, b = pts
                t = b - a
                L = np.linalg.norm(t)
                s = np.dot(c - a, t) / L
                off = abs(t[0] * (c - a)[1] - t[1] * (c - a)[0]) / L
                on = off <= 1e-10 * max(L, 1.0) and -1e-10 <= s <= L + 1e-10
            if on:
                parent = fo
                break
        if parent is None:
            raise MeshError("refined boundary face has no parent face")
        (neumann if old.neumann_faces[parent] else dirichlet).append(int(fi))
    new.set_boundary_tags(dirichlet, neumann)
    return new


def build_hanging_node_mesh(base: Mesh, cells_to_refine) -> Mesh:
    """Split selected quad cells into four; neighbors keep hanging vertices.

    Unrefined neighbors gain the edge midpoints as extra loop vertices and
    become pentagons/hexagons, which the rest of the library treats as
    ordinary polygons.
    """
    refine = sorted(set(int(c) for c in cells_to_refine))
    if any(c < 0 or c >= base.n_cells for c in refine):
        raise MeshError("refinement set contains an invalid cell index")
    if not refine:
        return _copy_with_tags(base)
    if base.dim != 2 or any(len(c) != 4 for c in base.cells):
        raise MeshError("hanging-node refinement expects a 2D all-quad mesh")

    verts = list(map(tuple, base.vertices))
    midpoint = {}

    def mid(a, b):
        key = tuple(sorted((a, b)))
        if key not in midpoint:
            verts.append(tuple(0.5 * (base.vertices[a] + base.vertices[b])))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    refine_set = set(refine)
    new_cells = []
    for ci, loop in enumerate(base.cells):
        if ci not in refine_set:
            continue
        m = [mid(int(loop[i]), int(loop[(i + 1) % 4])) for i in range(4)]
        verts.append(tuple(base.vertices[loop].mean(axis=0)))
        center = len(verts) - 1
        for i in range(4):
            new_cells.append((int(loop[i]), m[i], center, m[i - 1]))
    for ci, loop in enumerate(base.cells):
        if ci in refine_set:
            continue
        poly = []
        for i in range(len(loop)):
            a, b = int(loop[i]), int(loop[(i + 1) % len(loop)])
            poly.append(a)
            key = tuple(sorted((a, b)))
            if key in midpoint:
                poly.append(midpoint[key])
        new_cells.append(tuple(poly))
    mesh = Mesh(2, np.array(verts), new_cells)
    return _inherit_tags(mesh, base)


def _copy_with_tags(base: Mesh) -> Mesh:
    mesh = Mesh(base.dim, base.vertices.copy(), [c.copy() for c in base.cells])
    mesh.set_boundary_tags(np.flatnonzero(base.dirichlet_faces).tolist(),
                           np.flatnonzero(base.neumann_faces).tolist())
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every cell; quads and triangles self-similarly, h halves.

    General polygons are first fanned into triangles from the barycenter
    and those triangles are then split four-way, so the result stays a
    valid mesh but is not self-similar.
    """
    if mesh.dim == 1:
        xs = []
        for c in mesh.cells:
            a, b = mesh.vertices[c[0], 0], mesh.vertices[c[1], 0]
            xs.extend([a, 0.5 * (a + b)])
        xs.append(mesh.vertices[mesh.cells[-1][1], 0])
        new = Mesh(1, np.array(xs)[:, None], [(i, i + 1) for i in range(len(xs) - 1)])
        return _inherit_tags(new, mesh)

    verts = list(map(tuple, mesh.vertices))
    midpoint = {}

    def mid(a, b):
        key = tuple(sorted((a, b)))
        if key not in midpoint:
            pa, pb = np.asarray(verts[a]), np.asarray(verts[b])
            verts.append(tuple(0.5 * (pa + pb)))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    def split_triangle(tri, out):
        a, b, c = tri
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        out.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])

    new_cells = []
    for ci, loop in enumerate(mesh.cells):
        loop = [int(v) for v in loop]
        if len(loop) == 3:
            split_triangle(loop, new_cells)
        elif len(loop) == 4:
            m = [mid(loop[i], loop[(i + 1) % 4]) for i in range(4)]
            verts.append(tuple(mesh.vertices[mesh.cells[ci]].mean(axis=0)))
            center = len(verts) - 1
            for i in range(4):
                new_cells.append((loop[i], m[i], center, m[i - 1]))
        else:
            bc = mesh.cell_geometry(ci).barycenter
            verts.append(tuple(bc))
            center = len(verts) - 1
            for i in range(len(loop)):
                split_triangle((center, loop[i], loop[(i + 1) % len(loop)]), new_cells)
    new = Mesh(2, np.array(verts), new_cells)
    return _inherit_tags(new, mesh)


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
