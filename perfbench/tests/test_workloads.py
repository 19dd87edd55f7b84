"""Seeded input generators: deterministic, distinct per seed, valid meshes."""

import numpy as np
import pytest

import workloads as wl
from pyhho.mesh import build_structured_mesh, load_mesh_json, save_mesh_json


def mesh_bytes(mesh, path):
    save_mesh_json(mesh, path)
    return path.read_bytes()


@pytest.mark.parametrize("make", [wl.hanging_mesh, wl.jittered_tri_mesh])
def test_same_seed_same_bytes_other_seed_other_mesh(make, tmp_path):
    first, again, other = (mesh_bytes(make(seed), tmp_path / f"{i}.json")
                           for i, seed in enumerate((1, 1, 2)))
    assert first == again
    assert first != other


@pytest.mark.parametrize("make", [wl.hanging_mesh, wl.jittered_tri_mesh])
@pytest.mark.parametrize("seed", range(1, 11))
def test_generated_meshes_pass_validation(make, seed, tmp_path):
    path = tmp_path / "mesh.json"
    save_mesh_json(make(seed), path)
    mesh = load_mesh_json(path)      # builds and validates a Mesh
    assert mesh.total_measure() == pytest.approx(1.0, abs=1e-12)


def test_hanging_mesh_has_polygons():
    mesh = wl.hanging_mesh(1)
    faces = [len(f) for f in mesh.cell_faces]
    assert mesh.n_cells == 5 * wl.GRID ** 2 // 2   # half split in four
    assert min(faces) == 4 and 5 <= max(faces) <= 8


def test_jitter_moves_only_interior_vertices_within_bound():
    base = build_structured_mesh("tri", wl.GRID, wl.GRID)
    mesh = wl.jittered_tri_mesh(3)
    move = np.abs(mesh.vertices - base.vertices)
    boundary = np.any((base.vertices == 0.0) | (base.vertices == 1.0), axis=1)
    assert move.max() <= wl.JITTER / wl.GRID
    assert np.all(move[boundary] == 0.0)
    assert np.all(move[~boundary].max(axis=1) > 0.0)
