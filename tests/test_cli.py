import json

import pytest

from pyhho.cli import main, parse_config, parse_gen
from pyhho.mesh import save_mesh_json, build_structured_mesh


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


def test_elasticity_k0_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["locking", "--k", "0", "--out", str(tmp_path)])


def test_solve_requires_mesh_source(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "--k", "1", "--out", str(tmp_path)])


def test_solve_rejects_zero_tolerance(tmp_path):
    with pytest.raises(ValueError, match="got 0.0$"):
        main(["solve", "--gen", "quad:2:2", "--tol", "0", "--out", str(tmp_path)])
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
    rc = main(["converge", "--problem", "poisson1d", "--dim", "1", "--k", "1",
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
        rc = main(["converge", "--problem", "poisson1d", "--dim", "1",
                   "--k", "1", "--levels", "3", "--base", "4",
                   "--threads", str(threads), "--out", str(out)])
        assert rc == 0
    assert (out1 / "converge.csv").read_bytes() == (out2 / "converge.csv").read_bytes()
    assert (out1 / "converge.json").read_bytes() == (out2 / "converge.json").read_bytes()
