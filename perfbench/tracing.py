"""Outside-in tracing of pyhho: spans around the calls into each module.

The tracer replaces module attributes with wrappers at the place their
caller resolves them (``pyhho.harness.build_cell_context``,
``pyhho.assembly.condense``, ``pyhho.basis.Basis.eval``, ...), so nothing
inside ``src/`` changes.  Each span records its layer, the wrapped
function, wall start and end (``time.perf_counter``), the thread CPU time
it used (``time.thread_time``), its parent span, its thread and the
operation it belongs to.  Spans stay in memory and are written out at the
end of a run.

A span's self time is its duration minus the union of the intervals its
child spans cover.  A span opened on a worker thread with nothing open on
that thread gets as parent the innermost span open on the thread that
started the operation, so a thread pool's wait is not counted as the
caller's own work.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import threading
import time
from collections import defaultdict

from scipy.sparse.linalg import LinearOperator

# (module, attribute path, layer).  The attribute is the one the calling
# code looks up at call time; a function imported into several modules is
# wrapped in each of them.
SPAN_SITES = [
    ("pyhho.mesh", "Mesh.__init__", "mesh.build"),
    ("pyhho.harness", "build_structured_mesh", "mesh.build"),
    ("pyhho.harness", "build_hanging_node_mesh", "mesh.build"),
    ("pyhho.cli", "load_mesh_json", "mesh.io"),
    ("pyhho.local_ops", "cell_quadrature", "quadrature.cell"),
    ("pyhho.harness", "cell_quadrature", "quadrature.cell"),
    ("pyhho.local_ops", "face_quadrature", "quadrature.face"),
    ("pyhho.harness", "face_quadrature", "quadrature.face"),
    ("pyhho.basis", "Basis.eval", "basis.eval"),
    ("pyhho.local_ops", "scaled_monomial_basis", "basis.construct"),
    ("pyhho.local_ops", "face_basis", "basis.construct"),
    ("pyhho.harness", "face_basis", "basis.construct"),
    ("pyhho.local_ops", "mass_cholesky", "projection.mass_cholesky"),
    ("pyhho.elasticity", "mass_cholesky", "projection.mass_cholesky"),
    ("pyhho.projection", "mass_cholesky", "projection.mass_cholesky"),
    ("pyhho.harness", "l2_project", "projection.l2_project"),
    ("pyhho.harness", "build_cell_context", "local_ops.context"),
    ("pyhho.local_ops", "reconstruction", "local_ops.reconstruction"),
    ("pyhho.local_ops", "gradient_reconstruction", "local_ops.gradient_reconstruction"),
    ("pyhho.local_ops", "stabilization_ls", "local_ops.stabilization"),
    ("pyhho.local_ops", "stabilization_equal_order", "local_ops.stabilization"),
    ("pyhho.harness", "local_bilinear", "local_ops.bilinear"),
    ("pyhho.elasticity", "strain_reconstruction", "elasticity.strain"),
    ("pyhho.elasticity", "divergence_reconstruction", "elasticity.strain"),
    ("pyhho.elasticity", "displacement_reconstruction", "elasticity.displacement"),
    ("pyhho.elasticity", "stabilization_elastic", "elasticity.stabilization"),
    ("pyhho.harness", "local_bilinear_elastic", "elasticity.bilinear"),
    ("pyhho.assembly", "build_dof_map", "assembly.assemble"),
    ("pyhho.assembly", "condense", "assembly.condense"),
    ("pyhho.assembly", "assemble", "assembly.assemble"),
    ("pyhho.assembly", "solve_reduced", "assembly.solve"),
    ("pyhho.assembly", "recover_cells", "assembly.recover"),
    ("pyhho.harness", "local_rhs", "harness.local_rhs"),
    ("pyhho.harness", "dirichlet_data", "harness.boundary"),
    ("pyhho.harness", "neumann_rhs", "harness.boundary"),
    ("pyhho.harness", "error_norms", "harness.errors"),
    ("pyhho.harness", "flux_residuals", "harness.residuals"),
    ("pyhho.harness", "traction_residuals", "harness.residuals"),
    ("pyhho.harness", "discrete_energy", "harness.residuals"),
    ("pyhho.harness", "solve_problem", "harness.glue"),
    ("pyhho.harness", "convergence_study", "harness.glue"),
    ("pyhho.harness", "build_local", "harness.glue"),
    ("pyhho.harness", "mesh_family", "harness.glue"),
    ("pyhho.cli", "main", "cli"),
]

LAYERS = sorted({layer for _, _, layer in SPAN_SITES} | {"problems.eval"})
# layers whose call counts are reported
COUNTED_CALLS = ("quadrature.cell", "quadrature.face", "basis.eval",
                 "projection.mass_cholesky", "local_ops.context",
                 "assembly.condense", "problems.eval")
# counts taken from call results, per operation
COUNTS = ("quadrature.points", "mesh.cells", "mesh.faces", "mesh.polygon_cells",
          "assembly.n_reduced", "assembly.nnz", "assembly.cg_iters")
# top-level spans of the per-cell local-operator stack
LOCAL_STACK = ("local_ops.context", "local_ops.bilinear", "elasticity.bilinear")
SPEC_CALLABLES = ("f", "u_dirichlet", "g_neumann", "exact", "exact_grad")


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans = []   # [layer, fn, start, end, parent, thread, op, cpu]
        self.counts = defaultdict(float)   # (op, name) -> value
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stacks = {}
        self._root_thread = threading.get_ident()

    def begin_op(self, op: int) -> None:
        """Attribute spans from now on to operation ``op`` of this thread."""
        self.op = op
        self._root_thread = threading.get_ident()

    def end_op(self) -> None:
        self.op = -1

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.op, name)] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def open(self, layer: str, fn: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._stacks.get(self._root_thread)
            parent = root[-1] if root and root is not stack else -1
        rec = [layer, fn, 0.0, 0.0, parent, threading.get_ident(), self.op,
               self.cpu_clock()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[2] = self.clock()
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        rec = self.spans[idx]
        rec[3] = end
        rec[7] = self.cpu_clock() - rec[7]
        self._local.stack.pop()

    def wrap(self, fn, layer: str, after=None):
        """``fn`` inside a span of ``layer``; ``after(out)`` sees each result."""
        tracer = self
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(out)
            return out

        return traced

    # -- summaries ----------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's union."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[4] >= 0:
                children[rec[4]].append((rec[2], rec[3]))
        out = []
        for idx, rec in enumerate(self.spans):
            start, end = rec[2], rec[3]
            covered = 0.0
            reach = start
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out.append(end - start - covered)
        return out

    def op_summary(self, op: int, op_wall: float) -> dict:
        """Per-layer metrics of one operation (seconds, calls and counts)."""
        selfs = self.self_times()
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in COUNTED_CALLS})
        out.update({name: 0 for name in COUNTS})
        stack_wall = stack_cpu = 0.0
        roots = 0.0
        for rec, own in zip(self.spans, selfs):
            if rec[6] != op:
                continue
            layer = rec[0]
            out[f"{layer}.self_s"] += own
            if layer in COUNTED_CALLS:
                out[f"{layer}.calls"] += 1
            if layer in LOCAL_STACK:
                stack_wall += rec[3] - rec[2]
                stack_cpu += rec[7]
            if rec[4] < 0:
                roots += rec[3] - rec[2]
        for (cop, name), value in self.counts.items():
            if cop == op:
                out[name] += value
        cells = out["local_ops.context.calls"]
        out["local_ops.us_per_cell"] = 1e6 * stack_wall / cells if cells else 0.0
        out["local_ops.offcpu_s"] = stack_wall - stack_cpu
        out["trace.coverage"] = roots / op_wall if op_wall > 0 else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        keys = ("layer", "fn", "start", "end", "parent", "thread", "op", "cpu")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))))
                fh.write("\n")


def metric_names() -> list:
    """Every per-layer metric a traced run reports."""
    return sorted([f"{layer}.self_s" for layer in LAYERS]
                  + [f"{layer}.calls" for layer in COUNTED_CALLS]
                  + list(COUNTS)
                  + ["local_ops.us_per_cell", "local_ops.offcpu_s",
                     "trace.coverage", "trace.overhead_s"])


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _count_rule(tracer: Tracer, rule):
    tracer.count("quadrature.points", len(rule.weights))


def _count_system(tracer: Tracer, system):
    tracer.count("assembly.n_reduced", system.matrix.shape[0])
    tracer.count("assembly.nnz", system.matrix.nnz)


def _count_mesh(tracer: Tracer, sol):
    mesh = sol.mesh
    tracer.count("mesh.cells", mesh.n_cells)
    tracer.count("mesh.faces", mesh.n_faces)
    tracer.count("mesh.polygon_cells",
                 sum(1 for faces in mesh.cell_faces if len(faces) >= 5))


# sites whose results are counted
AFTER = {
    ("pyhho.local_ops", "cell_quadrature"): _count_rule,
    ("pyhho.harness", "cell_quadrature"): _count_rule,
    ("pyhho.local_ops", "face_quadrature"): _count_rule,
    ("pyhho.harness", "face_quadrature"): _count_rule,
    ("pyhho.assembly", "assemble"): _count_system,
    ("pyhho.harness", "solve_problem"): _count_mesh,
}


def instrument(tracer: Tracer):
    """Install span wrappers at every site; returns an undo callable."""
    saved = []
    for module, path, layer in SPAN_SITES:
        owner, attr = _resolve(module, path)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        after = AFTER.get((module, path))
        hook = None if after is None else functools.partial(after, tracer)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(fn, layer, hook))

    # CG iterations: scipy's cg applies the preconditioner once per iteration
    asm = importlib.import_module("pyhho.assembly")
    block_jacobi = asm._block_jacobi

    def counted_block_jacobi(A, width):
        op = block_jacobi(A, width)

        def apply(x):
            tracer.count("assembly.cg_iters")
            return op.matvec(x)

        return LinearOperator(op.shape, matvec=apply)

    saved.append((asm, "_block_jacobi", block_jacobi))
    asm._block_jacobi = counted_block_jacobi

    # the CLI builds its own problem spec: wrap the one it asks for
    problems = importlib.import_module("pyhho.problems")
    get_problem = problems.get_problem

    def traced_get_problem(name, **kwargs):
        return wrap_spec(tracer, get_problem(name, **kwargs))

    saved.append((problems, "get_problem", get_problem))
    problems.get_problem = traced_get_problem

    def undo():
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

    return undo


def wrap_spec(tracer: Tracer, spec):
    """The same problem with every data callable inside a span."""
    fields = {name: tracer.wrap(getattr(spec, name), "problems.eval")
              for name in SPEC_CALLABLES if getattr(spec, name) is not None}
    return dataclasses.replace(spec, **fields)
