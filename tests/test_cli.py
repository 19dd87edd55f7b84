import json

import pytest

from pyhho import harness
from pyhho.cli import main, parse_config, parse_gen
from pyhho.mesh import build_structured_mesh, mesh_to_dict, save_mesh_json


def test_parse_gen_variants():
    assert parse_gen("interval:8").n_cells == 8
    assert parse_gen("quad:2:3").n_cells == 6
    assert parse_gen("tri:2:2").n_cells == 8
    m = parse_gen("hanging:2:2:0")
    assert m.n_cells == 7
    m = parse_gen("hanging:2:2:left")
    assert m.n_cells == 10
    with pytest.raises(SystemExit):
        parse_gen("hex:2:2")


@pytest.mark.parametrize("spec, form", [("interval", "interval:N"), ("quad:8", "quad:NX:NY"),
                                        ("tri:", "tri:NX:NY"), ("hanging:4", "hanging:NX:NY")])
def test_parse_gen_rejects_too_few_fields(spec, form, tmp_path):
    with pytest.raises(SystemExit, match=f"^error: too few fields in '{spec}'; expected {form}"):
        main(["solve", "--gen", spec, "--out", str(tmp_path)])


@pytest.mark.parametrize("argv", [["verify", "--levels", "1"], ["verify", "--levels", "0"],
                                  ["locking", "--levels", "1"]])
def test_studies_with_fewer_than_two_levels_rejected(argv, tmp_path):
    with pytest.raises(SystemExit, match="^error: a convergence study needs at least 2 levels"):
        main(argv + ["--out", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_elasticity_k0_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["locking", "--k", "0", "--out", str(tmp_path)])


@pytest.mark.parametrize("argv", [["verify", "--solver", "cg"], ["oracle1d", "--mode", "plus"],
                                  ["locking", "--tol", "1e-8"], ["converge", "--dim", "1"]])
def test_options_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--gen", "interval:8"], "'poisson-sin' is 2D but the mesh is 1D"),
    (["converge", "--family", "interval", "--levels", "2"],
     "'poisson-sin' is 2D but the mesh is 1D"),
    (["converge", "--problem", "poisson1d", "--family", "quad", "--levels", "2"],
     "'poisson-sin-1d' is 1D but the mesh is 2D")])
def test_problem_and_mesh_of_different_dimensions_are_an_error_line(argv, message, tmp_path,
                                                                   monkeypatch):
    def unreachable(*args):
        raise AssertionError("the dimensions must be compared before any operator is built")

    monkeypatch.setattr(harness, "build_cell_context", unreachable)
    with pytest.raises(SystemExit, match=f"^error: problem {message}$"):
        main(argv + ["--out", str(tmp_path)])


def test_oracle1d_without_an_interior_vertex_is_an_error_line(tmp_path):
    with pytest.raises(SystemExit, match="^error: the FEM oracle compares the interior vertices"):
        main(["oracle1d", "--n", "1", "--out", str(tmp_path)])


def test_solve_requires_mesh_source(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "--k", "1", "--out", str(tmp_path)])


def test_solve_rejects_zero_tolerance(tmp_path, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("the tolerance must be rejected before the local operators")

    monkeypatch.setattr(harness, "build_local", unreachable)
    for tol in ("0", "-1e-8", "nan", "inf"):
        with pytest.raises(SystemExit):
            main(["solve", "--gen", "quad:2:2", f"--tol={tol}", "--out", str(tmp_path)])
        assert "--tol: must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "solve.json").exists()


def test_library_value_error_becomes_error_line(tmp_path):
    # a config default bypasses the --tol parser; the solver's own check fires
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 0}))
    with pytest.raises(SystemExit, match="^error: solver tolerance must be positive"):
        main(["--config", str(cfg), "solve", "--gen", "quad:2:2", "--out", str(tmp_path)])
    assert not (tmp_path / "solve.json").exists()


def test_solve_from_mesh_file(tmp_path):
    mesh_path = tmp_path / "m.json"
    save_mesh_json(build_structured_mesh("quad", 3, 3), mesh_path)
    rc = main(["solve", "--mesh", str(mesh_path), "--k", "1",
               "--problem", "poisson", "--out", str(tmp_path / "o")])
    assert rc == 0
    info = json.loads((tmp_path / "o" / "solve.json").read_text())
    assert info["cells"] == 9
    assert info["flux_equilibrium"] < 1e-10
    assert info["errors"]["h1"] < 1.0


@pytest.mark.parametrize("face", [-1, 12])
def test_mesh_file_tag_outside_the_faces_is_an_error_line(tmp_path, face):
    data = mesh_to_dict(build_structured_mesh("quad", 2, 2))       # faces 0..11
    data["boundary"]["dirichlet"].append(face)
    mesh_path = tmp_path / "m.json"
    mesh_path.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match=f"^error: boundary tag names face {face} outside 0..11$"):
        main(["solve", "--mesh", str(mesh_path), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o" / "solve.json").exists()


def test_solve_mixed_mode_runs(tmp_path):
    rc = main(["solve", "--gen", "quad:3:3", "--k", "1", "--mode", "plus",
               "--out", str(tmp_path)])
    assert rc == 0
    info = json.loads((tmp_path / "solve.json").read_text())
    assert info["mode"] == "plus"


def test_oracle1d_exit_codes(tmp_path):
    rc = main(["oracle1d", "--k", "2", "--n", "16", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "oracle1d.json").read_text())
    assert data["pass"] is True
    assert data["matrix_deviation"] <= 1e-12


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "n": 8}))
    args = parse_config(["--config", str(cfg), "oracle1d"])
    assert args.k == 2 and args.n == 8
    args = parse_config(["--config", str(cfg), "oracle1d", "--k", "3"])
    assert args.k == 3 and args.n == 8
    cfg.write_text(json.dumps({"nonsense": 1}))
    with pytest.raises(SystemExit):
        parse_config(["--config", str(cfg), "oracle1d"])


def test_converge_small_run(tmp_path):
    rc = main(["converge", "--problem", "poisson1d", "--k", "1",
               "--levels", "3", "--base", "4", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "converge.json").read_text())
    assert data["pass"] is True
    csv_text = (tmp_path / "converge.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == ("level,h,err_h1,err_l2_cell,err_l2_rec,"
                      "stab_seminorm,rate_h1,rate_l2")


def test_verify_small_run(tmp_path):
    rc = main(["verify", "--family", "quad", "--k", "0", "--levels", "3",
               "--base", "4", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "verify.json").read_text())
    names = {b["name"] for b in data["blocks"]}
    assert names == {"projection-cell", "projection-face", "reconstruction",
                     "stabilization-equal", "stabilization-ls"}
    assert data["pass"] is True


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out, threads in ((out1, 1), (out2, 4)):
        rc = main(["converge", "--problem", "poisson1d",
                   "--k", "1", "--levels", "3", "--base", "4",
                   "--threads", str(threads), "--out", str(out)])
        assert rc == 0
    assert (out1 / "converge.csv").read_bytes() == (out2 / "converge.csv").read_bytes()
    assert (out1 / "converge.json").read_bytes() == (out2 / "converge.json").read_bytes()
