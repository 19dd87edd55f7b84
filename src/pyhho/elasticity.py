"""Cell-local operators for 2D linear elasticity (face degree k >= 1).

The strain reconstruction maps the hybrid displacement unknowns into
symmetric-tensor polynomials of degree k.  It is the symmetric part of the
scalar gradient reconstruction of :mod:`pyhho.local_ops` tensorized with
the 2D identity, ``sym(G (x) I)``, so the hybrid face terms are assembled
once, in ``G``.  The divergence reconstruction is its trace, and the
displacement reconstruction of degree k+1 is the field whose strain is
nearest to it, by the Poisson reconstruction's least squares, pinned by
mean-value and skew-gradient constraints that remove the rigid-body
ambiguity.  The local bilinear form is the shared local form of
:mod:`pyhho.local_ops` with the strain as the field and the stress ``2 mu E
+ lam tr(E) I`` as its image, plus a stabilization weighted by ``2 mu / h``:
the one stabilization of :mod:`pyhho.local_ops`, tensorized with the 2D
identity and fed the displacement reconstruction in either order.  The face
tractions are the face rows of the form.

Vector DoFs interleave components: scalar function ``i``, component ``a``
sits at ``2 i + a`` inside each block.  Like :mod:`pyhho.local_ops`, every
operator is built for a group of cells, stacked along a leading cell axis.
"""

from __future__ import annotations

import numpy as np

from . import local_ops
from .local_ops import CellContext, LocalOperators, _bundle, _mass_rows, constrained_projection
# the one stabilization, under the name perfbench/tracing.py wraps as
# elasticity.stabilization; ROADMAP item 1b deletes the alias
from .local_ops import stabilization_equal_order as stabilization_elastic
# unused here; perfbench/tracing.py resolves it among its SPAN_SITES, so the
# name stays until those sites change
from .projection import mass_cholesky  # noqa: F401

ROOT_WEIGHTS = np.sqrt([1.0, 1.0, 2.0])[:, None, None]    # of the ':' product of xx, yy, xy


def _symmetric_part(G: np.ndarray) -> np.ndarray:
    """``sym(G (x) I)`` (nb, 3, n_k, 2 m) of scalar gradient maps ``G`` (nb, 2,
    n_k, m) applied to each component of a vector field, whose entry ``s``
    sits at ``2 s + a``; component m lives on the m-th unit tensor."""
    S = np.zeros((len(G), 3, G.shape[2], 2 * G.shape[3]))
    S[:, 0, :, 0::2] = G[:, 0]                           # eps_xx = dx u_x
    S[:, 1, :, 1::2] = G[:, 1]                           # eps_yy = dy u_y
    S[:, 2, :, 0::2] = 0.5 * G[:, 1]                     # eps_xy = (dy u_x + dx u_y) / 2
    S[:, 2, :, 1::2] = 0.5 * G[:, 0]
    return S


def strain_reconstruction(ctx: CellContext) -> np.ndarray:
    """Coefficient maps ``Es`` of shape (nb, 3, n_k, size) of the symmetric
    strain reconstruction; component m lives on the m-th unit tensor.

    The strain is the symmetric part of the vector gradient reconstruction,
    ``sym(G (x) I)`` (:func:`_symmetric_part`): the scalar ``G`` of
    :func:`pyhho.local_ops.gradient_reconstruction` applied to each
    displacement component, whose DoF ``s`` sits at ``2 s + a``.
    """
    if ctx.degrees.rank != 2 or ctx.mesh.dim != 2:
        raise ValueError("strain reconstruction requires 2D vector degrees")
    if ctx.degrees.k_face < 1:
        raise ValueError("elasticity requires face degree k >= 1")
    # looked up through the module, where perfbench/tracing.py wraps it
    return _symmetric_part(local_ops.gradient_reconstruction(ctx))


def divergence_reconstruction(ctx: CellContext, Es: np.ndarray | None = None) -> np.ndarray:
    """Divergence reconstruction as the trace of the strain reconstruction."""
    if Es is None:
        Es = strain_reconstruction(ctx)
    return Es[:, 0] + Es[:, 1]


def displacement_reconstruction(ctx: CellContext, rows: np.ndarray | None = None) -> np.ndarray:
    """Degree-(k+1) displacement reconstruction with rigid-body constraints.

    ``eps(Dep v)`` is the strain nearest to ``Es v`` in the ``:`` product:
    the rows (:func:`pyhho.local_ops._mass_rows`, xy weighted by sqrt(2)) of
    ``sym(grad_maps (x) I) Dep v`` fit ``rows``, those of ``Es v``, so
    ``(eps(Dep v), eps(w)) = (Es v, eps(w))``, exact as ``eps(w)`` has degree
    k.  Two mean rows and one skew-gradient row ``C Dep = D`` fix the rigid
    part, so ``Dep @ v`` are the full vector coefficients.  The skew row's
    data is the cell integral of ``Es[:, 2]``, since ``int_T G_c v = sum_F
    int_F v_F n_c``: as ``phi_0 = 1`` and ``Lam`` is lower triangular, ``int_T
    q = Lam_00 (Lam^T q)_0``.  ``rows`` are built here unless passed in.
    """
    if rows is None:
        rows = _mass_rows(ctx, strain_reconstruction(ctx), ROOT_WEIGHTS)
    layout, nb, nv = ctx.layout, len(ctx.cells), 2 * ctx.n_rec
    # constraint rows: component means and the mean skew gradient
    C = np.zeros((nb, 3, nv))
    C[:, 0, 0::2] = ctx.ints_full
    C[:, 1, 1::2] = ctx.ints_full
    int_grad = ctx.ints_full[:, None, None, : ctx.n_k] @ ctx.grad_maps    # int_T d_c phi_j
    C[:, 2, 0::2] = 0.5 * int_grad[:, 1, 0]
    C[:, 2, 1::2] = -0.5 * int_grad[:, 0, 0]

    D = np.zeros((nb, 3, layout.size))
    D[:, :2, layout.cell] = C[:, :2, : layout.cell_width]
    # int eps_xy(v) = (int G_y v_x + int G_x v_y) / 2; the skew part flips the sign of v_y
    int_exy = ctx.mass_factor[:, 0, :1] * rows[:, 2 * ctx.n_k] / ROOT_WEIGHTS[2, 0]
    D[:, 2, 0::2] = int_exy[:, 0::2]
    D[:, 2, 1::2] = -int_exy[:, 1::2]

    return constrained_projection(
        ctx, _mass_rows(ctx, _symmetric_part(ctx.grad_maps), ROOT_WEIGHTS), rows, C, D,
        what="displacement-reconstruction")


def local_bilinear_elastic(ctx: CellContext, mu: float, lam: float) -> LocalOperators:
    """Local elastic matrix ``(sigma(Es v), Es w) + 2mu/h (stab, stab)``, the
    stress ``sigma(E) = 2mu E + lam tr(E) I``."""
    if mu <= 0 or lam < 0:
        raise ValueError("need mu > 0 and lambda >= 0")
    T = _mass_rows(ctx, strain_reconstruction(ctx), ROOT_WEIGHTS)
    Dep = displacement_reconstruction(ctx, T)
    stab = stabilization_elastic(ctx, Dep)
    E = T.reshape(len(T), 3, ctx.n_k, -1)    # the law is linear, and xx and yy weigh 1
    sig = 2 * mu * E
    sig[:, :2] += lam * divergence_reconstruction(ctx, E)[:, None]
    tests = _mass_rows(ctx, _symmetric_part(ctx.grad_maps[..., : ctx.n_k]), ROOT_WEIGHTS)
    return _bundle(ctx, tests, T, sig.reshape(T.shape), stab, 2.0 * mu, Dep)
