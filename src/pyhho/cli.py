"""Command-line front end: solve | converge | verify | oracle1d | locking.

Configuration can come from a JSON file (``--config``); explicit flags
override file values.  Reports are written as CSV plus a JSON mirror with
a machine-readable ``pass`` field per asserted rate, and identical runs
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import harness, problems
from .assembly import SOLVERS
from .mesh import (Mesh, build_hanging_node_mesh, build_interval_mesh,
                   build_structured_mesh, left_half, load_mesh_json)
from .projection import HhoDegrees


def _degrees(args, rank: int) -> HhoDegrees:
    k = args.k
    if k < 0:
        raise SystemExit("error: --k must be nonnegative")
    if rank == 2 and k < 1:
        raise SystemExit("error: elasticity requires --k >= 1")
    k_cell = k + 1 if args.mode == "plus" else k
    return HhoDegrees(k_face=k, k_cell=k_cell, rank=rank)


def tolerance(text: str) -> float:
    tol = float(text)
    if not (np.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return tol


def parse_gen(spec: str) -> Mesh:
    kind, *fields = spec.split(":")
    forms = {"interval": "interval:N", "quad": "quad:NX:NY", "tri": "tri:NX:NY",
             "hanging": "hanging:NX:NY[:left|:CELL,CELL,...]"}
    if kind not in forms:
        raise SystemExit(f"error: unknown generator {kind!r}")
    if len(fields) < (1 if kind == "interval" else 2):
        raise SystemExit(f"error: too few fields in {spec!r}; expected {forms[kind]}")
    if kind == "interval":
        return build_interval_mesh(0.0, 1.0, int(fields[0]))
    base = build_structured_mesh("quad" if kind == "hanging" else kind,
                                 int(fields[0]), int(fields[1]))
    if kind != "hanging":
        return base
    sel = fields[2] if len(fields) > 2 else "left"
    cells = (left_half(base) if sel == "left" else
             [int(c) for c in sel.split(",") if c])
    return build_hanging_node_mesh(base, cells)


def get_mesh(args) -> Mesh:
    if args.mesh:
        return load_mesh_json(args.mesh)
    if args.gen:
        return parse_gen(args.gen)
    raise SystemExit("error: provide --mesh FILE or --gen SPEC")


def _outdir(args) -> Path:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(args) -> int:
    mesh = get_mesh(args)
    rank = 2 if args.problem.startswith("elasticity") else 1
    spec = problems.get_problem(args.problem)
    degrees = _degrees(args, rank)
    sol = harness.solve_problem(mesh, degrees, spec, solver=args.solver, tol=args.tol)
    info = {
        "problem": spec.name,
        "k": degrees.k_face,
        "mode": "plus" if degrees.mixed else "equal",
        "cells": mesh.n_cells,
        "faces": mesh.n_faces,
        "reduced_dofs": sol.dofmap.n_reduced,
        "solver_residual": sol.residual,
        "energy": harness.discrete_energy(sol),
    }
    if spec.kind == "poisson":
        eq, bal = harness.flux_residuals(sol)
        info["flux_equilibrium"] = eq
        info["flux_balance"] = bal
    else:
        eq, neu, bal = harness.traction_residuals(sol)
        info.update({"traction_equilibrium": eq, "traction_neumann": neu,
                     "traction_balance": bal})
    if spec.exact is not None:
        row = harness.error_norms(sol)
        info["errors"] = {"h1": row.err_h1, "l2_cell": row.err_l2_cell,
                          "l2_rec": row.err_l2_rec, "stab": row.stab}
    out = _outdir(args)
    _dump_json(out / "solve.json", info)
    print(f"solved {spec.name}: {sol.dofmap.n_reduced} face dofs, "
          f"residual {sol.residual:.2e}")
    return 0


def _rate_bands(k: int, kind: str):
    if kind == "poisson":
        l2 = (1.6, 2.4) if k == 0 else (k + 1.75, k + 2.35)
        return [("h1", (k + 0.85, k + 1.25)), ("l2", l2)]
    return [("h1", (k + 0.8, k + 1.3))]


def cmd_converge(args) -> int:
    rank = 2 if args.problem.startswith("elasticity") else 1
    spec = problems.get_problem(args.problem)
    degrees = _degrees(args, rank)
    family = args.family
    if family == "auto":
        family = "interval" if args.dim == 1 else "quad"
    report = harness.convergence_study(
        spec, family, degrees, levels=args.levels, base=args.base,
        solver=args.solver, tol=args.tol)
    bands = []
    for name, (lo, hi) in _rate_bands(degrees.k_face, spec.kind):
        rate = report.rate_h1 if name == "h1" else report.rate_l2
        bands.append((name, rate, (lo, hi)))
    out = _outdir(args)
    harness.write_convergence_csv(report, out / "converge.csv")
    data = harness.convergence_json(report, bands)
    _dump_json(out / "converge.json", data)
    for name, rate, (lo, hi) in bands:
        status = "ok" if lo <= rate <= hi else "FAIL"
        print(f"rate_{name} = {rate:.3f}  target [{lo:.2f}, {hi:.2f}]  {status}")
    return 0 if data["pass"] else 1


def cmd_verify(args) -> int:
    blocks = harness.verify_operators(args.family, args.k, levels=args.levels,
                                      base=args.base)
    out = _outdir(args)
    rows = []
    for b in blocks:
        rows.append({"name": b.name, "rate": b.rate, "target": b.target_rate,
                     "tolerance": b.tolerance, "pass": b.passed,
                     "h": b.hs, "epsilon": b.values})
    data = {"k": args.k, "family": args.family, "blocks": rows,
            "pass": all(r["pass"] for r in rows)}
    _dump_json(out / "verify.json", data)
    with open(out / "verify.csv", "w") as fh:
        fh.write("block,level,h,epsilon,rate,target,pass\n")
        for b in blocks:
            for lvl, (h, v) in enumerate(zip(b.hs, b.values)):
                fh.write(f"{b.name},{lvl},{h:.17e},{v:.17e},"
                         f"{b.rate:.6f},{b.target_rate},{str(b.passed).lower()}\n")
    for b in blocks:
        print(f"{b.name}: rate {b.rate:.3f} (target {b.target_rate} "
              f"+- {b.tolerance}) {'ok' if b.passed else 'FAIL'}")
    failing = [b.name for b in blocks if not b.passed]
    if failing:
        print(f"verify failed: first failing block is {failing[0]}")
        return 1
    return 0


def cmd_oracle1d(args) -> int:
    mesh = build_interval_mesh(0.0, 1.0, args.n, grading=args.grading)
    report = harness.oracle_1d(args.k, mesh)
    out = _outdir(args)
    data = {"k": report.k, "n_cells": report.n_cells,
            "matrix_deviation": report.matrix_dev,
            "rhs_deviation": report.rhs_dev,
            "recovery_deviation": report.recovery_dev,
            "pass": report.passed}
    _dump_json(out / "oracle1d.json", data)
    print(f"oracle1d k={args.k} n={args.n}: matrix dev {report.matrix_dev:.2e}, "
          f"rhs dev {report.rhs_dev:.2e}")
    if not report.passed:
        which = ("matrix" if report.matrix_dev > 1e-12 else
                 "rhs" if report.rhs_dev > 1e-12 else "recovery")
        print(f"oracle1d failed: {which} deviation exceeds 1e-12")
        return 1
    return 0


def cmd_locking(args) -> int:
    degrees = _degrees(args, rank=2)
    report = harness.locking_test(problems.elasticity_divfree, degrees,
                                  family=args.family, levels=args.levels,
                                  base=args.base)
    k = degrees.k_face
    band = (k + 0.8, k + 1.3)
    out = _outdir(args)
    data = {"lam_over_mu": report.lam_over_mu,
            "energy_errors": report.energy_errors,
            "rates": report.rates,
            "ratio_finest": report.ratio_finest,
            "rate_band": list(band),
            "pass": report.passed(rate_band=band)}
    _dump_json(out / "locking.json", data)
    for lam, rate in zip(report.lam_over_mu, report.rates):
        print(f"lambda/mu = {lam:g}: energy rate {rate:.3f}")
    print(f"finest-mesh error ratio across lambda: {report.ratio_finest:.3f}")
    if not data["pass"]:
        bad = [f"rate {r:.2f} outside [{band[0]:.2f}, {band[1]:.2f}]"
               for r in report.rates if not band[0] <= r <= band[1]]
        reason = bad[0] if bad else f"error ratio {report.ratio_finest:.2f} > 3"
        print(f"locking check failed: {reason}")
        return 1
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="pyhho",
                                description="hybrid high-order solver and "
                                            "verification harness")
    p.add_argument("--config", help="JSON file with default option values")
    sub = p.add_subparsers(dest="command", required=True)
    registry = {}

    def common(sp, mode=True, solve=True):
        sp.add_argument("--k", type=int, default=1, help="face polynomial degree")
        if mode:
            sp.add_argument("--mode", choices=["equal", "plus"], default="equal",
                            help="cell degree equal to k or k+1")
        sp.add_argument("--out", default=None, help="output directory")
        if solve:
            sp.add_argument("--solver", choices=SOLVERS, default="direct")
            sp.add_argument("--tol", type=tolerance, default=1e-12)
            sp.add_argument("--problem", default="poisson",
                            choices=sorted(problems.PROBLEMS))
        # a no-op: runs are serial, but existing command lines still pass it
        # and perfbench/workloads.py reads its default
        sp.add_argument("--threads", type=int,
                        default=max(1, os.cpu_count() or 1),
                        help="ignored: runs are serial")

    sp = registry["solve"] = sub.add_parser("solve", help="solve one problem on one mesh")
    common(sp)
    sp.add_argument("--mesh", help="mesh JSON file")
    sp.add_argument("--gen", help="mesh generator, e.g. quad:8:8, tri:4:4, "
                                  "interval:16, hanging:4:4:left")
    sp.set_defaults(func=cmd_solve)

    sp = registry["converge"] = sub.add_parser("converge", help="convergence study over refinements")
    common(sp)
    sp.add_argument("--family", default="auto",
                    choices=["auto", "quad", "tri", "hanging", "interval"])
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--base", type=int, default=8)
    sp.add_argument("--dim", type=int, default=2)
    sp.set_defaults(func=cmd_converge)

    sp = registry["verify"] = sub.add_parser("verify", help="operator decay-rate verification")
    common(sp, mode=False, solve=False)
    sp.add_argument("--family", default="quad",
                    choices=["quad", "tri", "hanging", "interval"])
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--base", type=int, default=4)
    sp.set_defaults(func=cmd_verify)

    sp = registry["oracle1d"] = sub.add_parser("oracle1d", help="compare against an independent P1 FEM build")
    common(sp, mode=False, solve=False)
    sp.add_argument("--n", type=int, default=32, help="number of interval cells")
    sp.add_argument("--grading", type=float, default=1.1,
                    help="cell-size ratio (non-uniform mesh)")
    sp.set_defaults(func=cmd_oracle1d)

    sp = registry["locking"] = sub.add_parser("locking", help="incompressibility robustness sweep")
    common(sp, solve=False)
    sp.add_argument("--family", default="tri", choices=["tri", "quad"])
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--base", type=int, default=8)
    sp.set_defaults(func=cmd_locking)
    return p, registry


def parse_config(argv=None) -> argparse.Namespace:
    """Parse flags; values from ``--config`` act as overridable defaults."""
    parser, _ = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            defaults = json.load(fh)
        unknown = set(defaults) - set(vars(args))
        if unknown:
            raise SystemExit(
                f"error: unknown config keys for {args.command!r}: {sorted(unknown)}")
        parser, registry = build_parser()
        registry[args.command].set_defaults(**defaults)
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    np.seterr(all="raise", under="ignore")
    args = parse_config(argv)
    try:
        return args.func(args)
    except ValueError as exc:       # input the library rejects, e.g. a MeshError
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
