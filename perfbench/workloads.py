"""The benchmark's workloads: seeded inputs, one operation each, checks.

An operation is the whole user job, from generated input to checked
result.  Inputs depend only on the seed; the program sees only them.
Each operation returns an ``Outcome``; ``failures`` lists what is wrong
with it by name, so a run can count failures and go on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pyhho.cli as cli
import pyhho.harness as harness
from pyhho import problems
from pyhho.mesh import Mesh, build_hanging_node_mesh, build_structured_mesh, save_mesh_json
from pyhho.projection import HhoDegrees, equal_order

# the acceptance bands of criterion 1 for k = 1
RATE_H1 = (1.85, 2.25)
RATE_L2 = (2.75, 3.35)
MAX_RESIDUAL = 1e-8
MAX_EQUILIBRIUM = 1e-10
MAX_BALANCE = 1e-9

GRID = 10
LADDER_BASE = 4   # the ladder's meshes: 4x4, 8x8, 16x16 quads
JITTER = 0.2    # largest vertex move per coordinate, in units of h


@dataclass
class Outcome:
    err_h1: float
    dofs: int                  # reduced face DoFs solved
    failures: list = field(default_factory=list)
    fingerprint: bytes = b""   # output bytes every operation must repeat


def _limit(failures: list, name: str, value: float, limit: float) -> None:
    if not value <= limit:
        failures.append(f"{name} = {value:.3e} exceeds {limit:.0e}")


# ---------------------------------------------------------------------------
# seeded inputs


def hanging_mesh(seed: int, n: int = GRID) -> Mesh:
    """n x n quads with a seeded random half of the cells split in four;
    their unsplit neighbours become polygons with 5 to 8 faces."""
    base = build_structured_mesh("quad", n, n)
    rng = np.random.default_rng(seed)
    refine = rng.choice(base.n_cells, base.n_cells // 2, replace=False)
    return build_hanging_node_mesh(base, sorted(int(c) for c in refine))


def jittered_tri_mesh(seed: int, n: int = GRID) -> Mesh:
    """n x n triangles whose interior vertices move by a seeded amount of
    at most ``JITTER * h`` per coordinate; the boundary stays fixed."""
    base = build_structured_mesh("tri", n, n)
    rng = np.random.default_rng(seed)
    h = 1.0 / n
    verts = base.vertices.copy()
    interior = np.all((verts > 0.5 * h) & (verts < 1.0 - 0.5 * h), axis=1)
    verts[interior] += rng.uniform(-JITTER * h, JITTER * h, (int(interior.sum()), 2))
    return Mesh(2, verts, base.cells)


# ---------------------------------------------------------------------------
# operations


class PoissonLadder:
    """Acceptance criterion 1 cut at 16x16: quads 4, 8, 16 with k = 1."""

    def __init__(self, seed: int, outdir: Path):
        # the acceptance family does not depend on the seed
        self.spec = problems.poisson_sin_2d()
        self.degrees = equal_order(1)

    def run(self, spec=None) -> Outcome:
        # keep what the study computes but does not return: the solver
        # residual and the flux residuals of every level
        residuals, fluxes = [], []
        solve, flux = harness.solve_problem, harness.flux_residuals

        def solve_probe(*args, **kwargs):
            sol = solve(*args, **kwargs)
            residuals.append(sol.residual)
            return sol

        def flux_probe(*args, **kwargs):
            fluxes.append(flux(*args, **kwargs))
            return fluxes[-1]

        harness.solve_problem, harness.flux_residuals = solve_probe, flux_probe
        try:
            report = harness.convergence_study(spec or self.spec, "quad", self.degrees,
                                               levels=3, base=LADDER_BASE,
                                               check_fluxes=True)
        finally:
            harness.solve_problem, harness.flux_residuals = solve, flux
        out = Outcome(err_h1=float(report.rows[-1].err_h1),
                      dofs=sum(r.n_dofs for r in report.rows))
        for name, rate, (lo, hi) in (("rate_h1", report.rate_h1, RATE_H1),
                                     ("rate_l2", report.rate_l2, RATE_L2)):
            if not lo <= rate <= hi:
                out.failures.append(f"{name} = {rate:.3f} outside [{lo}, {hi}]")
        for level, res in enumerate(residuals):
            _limit(out.failures, f"level {level} solver residual", res, MAX_RESIDUAL)
        for level, (eq, bal) in enumerate(fluxes):
            _limit(out.failures, f"level {level} flux equilibrium", eq, MAX_EQUILIBRIUM)
            _limit(out.failures, f"level {level} flux balance", bal, MAX_BALANCE)
        if len(fluxes) != 3:
            out.failures.append(f"{len(fluxes)} flux checks ran, expected 3")
        return out


class CliHanging:
    """``pyhho solve`` on a seeded hanging-node mesh read from JSON."""

    def __init__(self, seed: int, outdir: Path):
        self.mesh_path = outdir / f"hanging-seed{seed}.json"
        save_mesh_json(hanging_mesh(seed), self.mesh_path)
        self.report_dir = outdir / f"solve-seed{seed}"
        self.argv = ["solve", "--mesh", str(self.mesh_path), "--problem", "poisson",
                     "--k", "1", "--mode", "plus", "--out", str(self.report_dir)]
        # the thread count the CLI resolves when --threads is not given
        self.threads = cli.build_parser()[0].parse_args(self.argv).threads

    def run(self, spec=None) -> Outcome:
        report = self.report_dir / "solve.json"
        report.unlink(missing_ok=True)
        code = cli.main(list(self.argv))
        if code != 0:
            return Outcome(err_h1=float("nan"), dofs=0,
                           failures=[f"CLI exit code {code}"])
        data = report.read_bytes()
        info = json.loads(data)
        out = Outcome(err_h1=float(info["errors"]["h1"]),
                      dofs=int(info["reduced_dofs"]), fingerprint=data)
        _limit(out.failures, "solver residual", info["solver_residual"], MAX_RESIDUAL)
        _limit(out.failures, "flux equilibrium", info["flux_equilibrium"], MAX_EQUILIBRIUM)
        _limit(out.failures, "flux balance", info["flux_balance"], MAX_BALANCE)
        return out


class ElasticityCG:
    """Near-incompressible elasticity (lambda/mu = 1e4) on jittered triangles,
    solved by block-Jacobi preconditioned CG."""

    def __init__(self, seed: int, outdir: Path):
        self.mesh = jittered_tri_mesh(seed)
        self.degrees = HhoDegrees(1, 1, rank=2)
        self.spec = problems.elasticity_divfree(mu=1.0, lam=1e4)

    def run(self, spec=None) -> Outcome:
        sol = harness.solve_problem(self.mesh, self.degrees, spec or self.spec,
                                    solver="cg")
        row = harness.error_norms(sol)
        eq, neu, bal = harness.traction_residuals(sol)
        out = Outcome(err_h1=float(row.err_h1), dofs=int(sol.dofmap.n_reduced))
        _limit(out.failures, "solver residual", sol.residual, MAX_RESIDUAL)
        _limit(out.failures, "traction equilibrium", eq, MAX_EQUILIBRIUM)
        _limit(out.failures, "traction Neumann consistency", neu, MAX_EQUILIBRIUM)
        _limit(out.failures, "traction balance", bal, MAX_BALANCE)
        return out


WORKLOADS = {
    "poisson-ladder": PoissonLadder,
    "cli-hanging": CliHanging,
    "elasticity-cg": ElasticityCG,
}
