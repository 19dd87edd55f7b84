"""A fixed reference kernel that measures how fast the machine runs right now.

The test machine's single-thread speed drifts by up to a factor 1.8
within minutes, and CPU time drifts with it (see README.md).  The
benchmark therefore times this kernel next to every operation and
reports operation times in units of the kernel's time.  A change to
pyhho leaves the kernel alone, so it moves the ratio; a change in the
machine's speed moves both and cancels.

The kernel does the kind of work pyhho does, with none of pyhho's code:
a Python loop over the cells of a small P2 finite-element mesh that
builds dense element matrices with numpy (quadrature, small solves),
then a sparse assembly and a conjugate-gradient solve with scipy, whose
block-Jacobi preconditioner loops over small blocks in Python.
"""

from __future__ import annotations

import gc
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

N = 12  # the mesh is N x N squares, each cut into two triangles

# degree-4 symmetric rule on the reference triangle (6 points)
_A, _B = 0.445948490915965, 0.091576213509771
_W1, _W2 = 0.223381589678011 / 2, 0.109951743655322 / 2
QP = np.array([[_A, _A], [1 - 2 * _A, _A], [_A, 1 - 2 * _A],
               [_B, _B], [1 - 2 * _B, _B], [_B, 1 - 2 * _B]])
QW = np.array([_W1, _W1, _W1, _W2, _W2, _W2])


def _p2(xi: np.ndarray):
    """P2 shape functions and their reference gradients at points ``xi``."""
    x, y = xi[:, 0], xi[:, 1]
    l0, l1, l2 = 1 - x - y, x, y
    phi = np.stack([l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
                    4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0], axis=1)
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    lam = np.stack([l0, l1, l2], axis=1)
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)]
    grad = np.empty((len(xi), 6, 2))
    for i, (a, b) in enumerate(pairs):
        if a == b:
            grad[:, i] = (4 * lam[:, a] - 1)[:, None] * dl[a]
        else:
            grad[:, i] = 4 * (lam[:, b][:, None] * dl[a] + lam[:, a][:, None] * dl[b])
    return phi, grad


def _mesh(n: int):
    """P2 triangles on the unit square: vertices, cells (6 node ids each)."""
    nodes, ids = [], {}

    def node(p):
        key = (round(p[0] * 2 * n), round(p[1] * 2 * n))
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(p)
        return ids[key]

    cells = []
    h = 1.0 / n
    for i in range(n):
        for j in range(n):
            a, b, c, d = (i * h, j * h), ((i + 1) * h, j * h), \
                ((i + 1) * h, (j + 1) * h), (i * h, (j + 1) * h)
            for tri in ((a, b, c), (a, c, d)):
                mids = [((tri[k][0] + tri[(k + 1) % 3][0]) / 2,
                         (tri[k][1] + tri[(k + 1) % 3][1]) / 2) for k in range(3)]
                cells.append([node(p) for p in (*tri, *mids)])
    return np.array(nodes), np.array(cells)


def kernel(n: int = N) -> float:
    """Solve -div(grad u) = f on an n x n P2 mesh; return (u, f)."""
    nodes, cells = _mesh(n)
    phi, grad = _p2(QP)
    rows, cols, vals = [], [], []
    rhs = np.zeros(len(nodes))
    for cell in cells:
        v = nodes[cell[:3]]
        jac = np.array([v[1] - v[0], v[2] - v[0]]).T
        det = abs(np.linalg.det(jac))
        inv_t = np.linalg.inv(jac).T
        g = grad @ inv_t.T                                   # (qp, 6, 2)
        w = QW * det
        ke = np.einsum("q,qid,qjd->ij", w, g, g)
        me = np.einsum("q,qi,qj->ij", w, phi, phi)
        xq = (1 - QP.sum(1))[:, None] * v[0] + QP[:, :1] * v[1] + QP[:, 1:] * v[2]
        f = np.sin(np.pi * xq[:, 0]) * np.sin(np.pi * xq[:, 1])
        fe = np.linalg.solve(me, phi.T @ (w * f))             # an L2 projection
        rhs[cell] += me @ fe
        rows.append(np.repeat(cell, 6))
        cols.append(np.tile(cell, 6))
        vals.append(ke.ravel())
    a = sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                   np.concatenate(cols))),
                          shape=(len(nodes),) * 2).tocsr()
    x, y = nodes[:, 0], nodes[:, 1]
    inner = np.flatnonzero((x > 0) & (x < 1) & (y > 0) & (y < 1))
    u = np.zeros(len(nodes))
    u[inner], info = spla.cg(a[inner][:, inner], rhs[inner], rtol=1e-10, atol=0.0,
                             M=_block_jacobi(a[inner][:, inner].tocsr(), 6))
    if info != 0:
        raise RuntimeError(f"reference CG did not converge (info={info})")
    return float(u @ rhs)


def _block_jacobi(a: sparse.csr_matrix, width: int) -> spla.LinearOperator:
    """Inverse diagonal blocks applied in a Python loop, once per CG step."""
    starts = range(0, a.shape[0], width)
    blocks = [np.linalg.inv(a[s:s + width, s:s + width].toarray()) for s in starts]

    def apply(r):
        z = np.empty_like(r)
        for s, inv in zip(starts, blocks):
            z[s:s + width] = inv @ r[s:s + width]
        return z

    return spla.LinearOperator(a.shape, matvec=apply)


def sample(threads: int, budget: float) -> float:
    """Wall seconds of one round: ``threads`` kernels run at once.

    Rounds repeat for at least ``budget`` seconds; this is the unit
    ``ref`` in which the benchmark reports operation times.  The threads
    exist only while the sample runs.
    """
    # The kernel leaves no reference cycles.  With the cyclic collector
    # on, its passes would scan every object the workload keeps alive,
    # and the kernel's time would depend on pyhho's heap.
    gc.disable()
    try:
        rounds = 0
        t0 = time.perf_counter()
        with ThreadPoolExecutor(threads) as pool:
            while True:
                for fut in [pool.submit(kernel) for _ in range(threads)]:
                    fut.result()
                rounds += 1
                wall = time.perf_counter() - t0
                if rounds >= 2 and wall >= budget:
                    return wall / rounds
    finally:
        gc.enable()
