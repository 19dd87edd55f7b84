"""Tracing wraps pyhho from outside without changing any result."""

import importlib

import numpy as np

import tracing
import workloads as wl
from pyhho import cli, harness, problems
from pyhho.mesh import save_mesh_json
from pyhho.projection import HhoDegrees, equal_order


def poisson_study(spec):
    report = harness.convergence_study(spec, "quad", equal_order(1), levels=2,
                                       base=2, check_fluxes=True)
    return [(r.err_h1, r.err_l2_cell, r.err_l2_rec, r.stab) for r in report.rows]


def cli_solve(mesh_path, out):
    with np.errstate():   # the CLI sets numpy's error state for the process
        assert cli.main(["solve", "--mesh", str(mesh_path), "--problem", "poisson",
                         "--k", "1", "--mode", "plus", "--out", str(out)]) == 0
    return (out / "solve.json").read_bytes()


def elasticity_cg(spec):
    sol = harness.solve_problem(wl.jittered_tri_mesh(1, n=3), HhoDegrees(1, 1, rank=2),
                                spec, solver="cg")
    row = harness.error_norms(sol)
    return sol.face_coeffs.tobytes(), row.err_h1, harness.traction_residuals(sol)


def site_objects():
    out = []
    for module, path, _ in tracing.SPAN_SITES:
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name)
        out.append(owner)
    return out


def test_traced_results_are_bitwise_identical(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    save_mesh_json(wl.hanging_mesh(1, n=4), mesh_path)
    poisson = problems.poisson_sin_2d()
    elastic = problems.elasticity_divfree(mu=1.0, lam=1e4)

    plain = (poisson_study(poisson), cli_solve(mesh_path, tmp_path / "plain"),
             elasticity_cg(elastic))
    originals = site_objects()

    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        tracer.begin_op(0)
        traced = (poisson_study(tracing.wrap_spec(tracer, poisson)),
                  cli_solve(mesh_path, tmp_path / "traced"),
                  elasticity_cg(tracing.wrap_spec(tracer, elastic)))
        tracer.end_op()
    finally:
        undo()

    assert traced == plain
    assert [a is b for a, b in zip(site_objects(), originals)] == [True] * len(originals)
    assert {rec[0] for rec in tracer.spans} == set(tracing.LAYERS)
    summary = tracer.op_summary(0, op_wall=1.0)
    assert summary["assembly.cg_iters"] > 0
    assert summary["mesh.polygon_cells"] > 0
    assert set(summary) | {"trace.overhead_s"} == set(tracing.metric_names())
