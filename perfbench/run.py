"""pyhho benchmark: four solve workloads, end-to-end and per-layer metrics.

Run from the root of a pyhho checkout:

    python3 perfbench/run.py --workload poisson-ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload runs in its own fresh process (``worker.py``) with ``src``
on ``PYTHONPATH``.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it prints the per-layer metrics of a traced
run.  Every line before the last is for people; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("poisson-ladder", "cli-hanging", "elasticity-cg")
SETUP_SAMPLES = 3        # set-up is timed in this many fresh processes
DEADLINE_S = 170.0       # a run must end within 180 s

# Operation times are in units of the reference kernel's time ("ref",
# see reference.py), so that the machine's drifting speed cancels.
END_TO_END = {           # name -> unit
    "setup_s": "s",
    "op_ref.mean": "ref",
    "dofs_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "err_h1": "1",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_cell"):
        return "us"
    if name == "trace.coverage":
        return "ratio"
    return "count"


def tail(walls: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(walls)
    if n < 11:
        return None
    return sorted(walls)[n - 11], 100.0 * (n - 10) / n


class Worker:
    """A ``worker.py`` process; ``setup_s`` is the time until it is ready."""

    def __init__(self, args: list, deadline: float):
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path.cwd() / "src"), env.get("PYTHONPATH")) if p)
        # the workload process runs no threads but the CLI's own pool;
        # OpenBLAS would otherwise start one per CPU
        env["OPENBLAS_NUM_THREADS"] = "1"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                     stdout=subprocess.PIPE, text=True, env=env)
        ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.stop()
            raise BenchError(f"worker {' '.join(args[:2])} did not get ready")

    def _left(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def finish(self) -> None:
        """Wait for the worker; its chatter goes to stderr."""
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker ran past the deadline") from None
        sys.stderr.write(out)
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")

    def stop(self) -> None:
        self.proc.kill()
        self.proc.communicate()


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    outdir = HERE / "out"
    base = ["--workload", name, "--seed", str(seed), "--outdir", str(outdir)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(base + ["--setup-only"], deadline)
            setups.append(probe.setup_s)
            probe.finish()
    result_path = outdir / f"result-{name}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    worker = Worker(base + ["--seconds", str(seconds), "--trace", str(trace),
                            "--result", str(result_path)], deadline)
    setups.append(worker.setup_s)
    worker.finish()
    result = json.loads(result_path.read_text())
    result["setups"] = setups

    if trace:
        metrics = {k: (v, layer_unit(k)) for k, v in sorted(result["layers"].items())}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_ref.mean": result["op_ref"],
            "dofs_per_ref": result["dofs_per_ref"],
            "peak_rss_mb": result["peak_rss_mb"],
            "err_h1": result["err_h1"],
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, trace {result['trace']})")
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    for key, m in result["metrics"].items():
        print(f"{name}  {key:<40} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        walls = result["walls"]
        for key, value, unit in (
                ("first_op_ref", result["first_op_ref"], "ref"),
                ("first_op_s", result["first_op_s"], "s"),
                ("op_s.p50", statistics.median(walls), "s"),
                ("dofs_per_s", result["dofs_per_s"], "1/s"),
                ("ref_s.mean", statistics.mean(result["refs"]), "s")):
            print(f"{name}  {key:<40} {value:.6g} {unit}")
        found = tail(walls)
        text = (f"{found[0]:.6g} s (p{found[1]:.0f})" if found
                else "n/a (needs 11 samples)")
        print(f"{name}  {'op_s.tail':<40} {text}, n={len(walls)}")
    else:
        print(f"{name}  spans written to {result['spans']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name}  {'fail_ratio':<40} {ratio:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for line in result["failures"]:
        print(f"{name}  {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (Path.cwd() / "src" / "pyhho" / "__init__.py").is_file():
        print("error: no src/pyhho here; run from the root of a pyhho checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(results[-1])

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
