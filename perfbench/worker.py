"""One workload in one fresh process: set up, warm up, time, check, trace.

Started by ``run.py``, which puts ``src`` on ``PYTHONPATH``.  Prints
``READY`` on stdout once its inputs exist (``run.py`` times set-up up to
that line) and writes its measurements as JSON to ``--result``.

With ``--trace 0`` every operation runs untraced, and samples of the
reference kernel (``reference.py``) run between operations.  With
``--trace 1`` untraced and traced operations alternate after the
warm-up, so one traced run reports both the per-layer self times and
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import machine
import reference
import tracing
from workloads import WORKLOADS

REF_SHARE = 1.0    # a reference sample lasts this share of the warm-up operation


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--outdir", type=Path, required=True)
    p.add_argument("--result", type=Path)
    return p.parse_args(argv)


class Runner:
    """Runs operations, checks each one, and keeps the failures by name."""

    def __init__(self, name: str, workload):
        self.name = name
        self.workload = workload
        self.attempted = 0
        self.failed_ops = set()
        self.failures = []
        self.first = None

    def op(self, spec=None, before=None, after=None):
        """Run and check one operation.

        Returns ``(wall seconds, Outcome or None if it raised)``.
        """
        index = self.attempted
        self.attempted += 1
        if before is not None:
            before(index)
        t0 = time.perf_counter()
        try:
            out = self.workload.run(spec)
        except Exception as exc:  # a failed operation is counted, not fatal
            wall = time.perf_counter() - t0
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self._fail(index, [f"{type(exc).__name__}: {exc} "
                               f"(at {Path(where.filename).name}:{where.lineno})"])
            return wall, None
        finally:
            if after is not None:
                after()
        wall = time.perf_counter() - t0
        problems = list(out.failures)
        if self.first is None:
            self.first = out
        else:
            if out.err_h1 != self.first.err_h1:
                problems.append(f"err_h1 {out.err_h1!r} differs from the first "
                                f"operation's {self.first.err_h1!r}")
            if out.fingerprint != self.first.fingerprint:
                problems.append("solve.json bytes differ from the first operation's")
        self._fail(index, problems)
        return wall, out

    def _fail(self, index: int, problems: list) -> None:
        for text in problems:
            line = f"FAIL {self.name} op {index}: {text}"
            print(line, file=sys.stderr, flush=True)
            self.failures.append(line)
            self.failed_ops.add(index)


def untraced(runner: Runner, seconds: float) -> dict:
    """Samples of the reference kernel alternate with operations, so that
    both sample the machine over the same stretch of time."""
    threads = getattr(runner.workload, "threads", 1)
    reference.sample(threads, 0.0)               # the kernel's own first call
    first_op_s, _ = runner.op()
    budget = REF_SHARE * first_op_s
    walls, refs, dofs = [], [], 0
    t0 = time.perf_counter()
    while not walls or (time.perf_counter() - t0) * (1 + 1 / len(walls)) < seconds:
        refs.append(reference.sample(threads, budget))
        wall, out = runner.op()
        walls.append(wall)
        dofs += out.dofs if out is not None else 0
    refs.append(reference.sample(threads, budget))
    # ratios of means: the operations and the samples cover disjoint
    # moments, and the machine's speed changes from one second to the next
    ref_s = statistics.mean(refs)
    return {"first_op_s": first_op_s, "walls": walls, "refs": refs,
            "first_op_ref": first_op_s / ref_s,
            "op_ref": statistics.mean(walls) / ref_s,
            "dofs_per_s": dofs / sum(walls), "dofs_per_ref": dofs / sum(walls) * ref_s,
            "err_h1": runner.first.err_h1 if runner.first else float("nan")}


def traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    spec = getattr(runner.workload, "spec", None)
    traced_spec = tracing.wrap_spec(tracer, spec) if spec is not None else None
    undo = []

    def before(index):
        undo.append(tracing.instrument(tracer))
        tracer.begin_op(index)

    def after():
        tracer.end_op()
        undo.pop()()

    runner.op()                                   # warm-up, untraced
    plain, timed = [], []
    t0 = time.perf_counter()
    while not timed or time.perf_counter() - t0 < seconds:
        plain.append(runner.op()[0])
        index = runner.attempted
        timed.append((index, runner.op(traced_spec, before, after)[0]))
    per_op = [tracer.op_summary(index, wall) for index, wall in timed]
    layers = {name: statistics.median(s[name] for s in per_op) for name in per_op[0]}
    layers["trace.overhead_s"] = (statistics.median(w for _, w in timed)
                                  - statistics.median(plain))
    tracer.dump(spans_path)
    return {"layers": layers, "walls": plain, "traced_walls": [w for _, w in timed],
            "err_h1": runner.first.err_h1 if runner.first else float("nan"),
            "spans": str(spans_path)}


def main(argv=None) -> int:
    args = parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.outdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(args.workload, workload)
    if args.trace:
        spans = args.outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = traced(runner, args.seconds, spans)
    else:
        result = untraced(runner, args.seconds)
    result.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": runner.attempted,
        "failed": len(runner.failed_ops),
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine.describe(args.seed),
    })
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
