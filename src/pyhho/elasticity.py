"""Cell-local operators for 2D linear elasticity (face degree k >= 1).

The strain reconstruction maps the hybrid displacement unknowns into
symmetric-tensor polynomials of degree k.  It is the symmetric part of the
scalar gradient reconstruction of :mod:`pyhho.local_ops` tensorized with
the 2D identity, ``sym(G (x) I)``, so the hybrid face terms are assembled
once, in ``G``.  The divergence reconstruction is its trace, and the
displacement reconstruction of degree k+1 is its projection onto
symmetric gradients, pinned by mean-value and skew-gradient constraints
that remove the rigid-body ambiguity.  The local bilinear form is the
shared local form of :mod:`pyhho.local_ops` with the strain as the field
and the stress ``2 mu E + lam tr(E) I`` as its image, plus a stabilization
weighted by ``2 mu / h``; the stabilizations are the scalar ones, tensorized
with the 2D identity, and the face tractions are the face rows of the form.

Vector DoFs interleave components: scalar function ``i``, component ``a``
sits at ``2 i + a`` inside each block.  Like :mod:`pyhho.local_ops`, every
operator is built for a group of cells, stacked along a leading cell axis.
"""

from __future__ import annotations

import numpy as np

from . import local_ops
from .local_ops import (CellContext, LocalOperators, _bundle, _gradient_moments,
                        constrained_projection, stabilization_equal_order, stabilization_ls)
# unused here; perfbench/tracing.py resolves it among its SPAN_SITES, so the
# name stays until those sites change
from .projection import mass_cholesky  # noqa: F401

def strain_reconstruction(ctx: CellContext) -> np.ndarray:
    """Coefficient maps ``Es`` of shape (nb, 3, n_k, size) of the symmetric
    strain reconstruction; component m lives on the m-th unit tensor.

    The strain is the symmetric part of the vector gradient reconstruction,
    ``sym(G (x) I)``: the scalar ``G`` of
    :func:`pyhho.local_ops.gradient_reconstruction` applied to each
    displacement component, whose DoF ``s`` sits at ``2 s + a``.
    """
    if ctx.degrees.rank != 2 or ctx.mesh.dim != 2:
        raise ValueError("strain reconstruction requires 2D vector degrees")
    if ctx.degrees.k_face < 1:
        raise ValueError("elasticity requires face degree k >= 1")
    # looked up through the module, where perfbench/tracing.py wraps it
    G = local_ops.gradient_reconstruction(ctx)           # (nb, 2, n_k, size // 2)
    Es = np.zeros((len(G), 3, ctx.n_k, ctx.layout.size))
    Es[:, 0, :, 0::2] = G[:, 0]                          # eps_xx = dx u_x
    Es[:, 1, :, 1::2] = G[:, 1]                          # eps_yy = dy u_y
    Es[:, 2, :, 0::2] = 0.5 * G[:, 1]                    # eps_xy = (dy u_x + dx u_y) / 2
    Es[:, 2, :, 1::2] = 0.5 * G[:, 0]
    return Es


def _tensor_columns(S: np.ndarray) -> np.ndarray:
    """Columns (nb, 2, 2 n_k, size) of symmetric-tensor maps ``S`` (nb, 3,
    n_k, size), as :func:`pyhho.local_ops._gradient_moments` reads them."""
    xx, yy, xy = S[:, 0], S[:, 1], S[:, 2]
    cols = np.stack([np.stack([xx, xy], axis=2), np.stack([xy, yy], axis=2)], axis=1)
    return cols.reshape(len(S), 2, -1, S.shape[-1])


def divergence_reconstruction(ctx: CellContext, Es: np.ndarray | None = None) -> np.ndarray:
    """Divergence reconstruction as the trace of the strain reconstruction."""
    if Es is None:
        Es = strain_reconstruction(ctx)
    return Es[:, 0] + Es[:, 1]


def strain_gram(ctx: CellContext) -> np.ndarray:
    """``(eps(phi_i e_a), eps(phi_j e_b))`` at ``(2 i + a, 2 j + b)``: with ``D =
    ctx.grad_gram`` and its trace ``S``, ``(delta_ab S_ij + D[i, b, j, a]) / 2``."""
    nb, n_rec = ctx.stiff_full.shape[:2]
    S = ctx.stiff_full[:, :, None, :, None] * np.eye(2)[:, None, :]
    return (0.5 * (S + ctx.grad_gram.swapaxes(2, 4))).reshape(nb, 2 * n_rec, 2 * n_rec)


def displacement_reconstruction(ctx: CellContext, Es: np.ndarray | None = None) -> np.ndarray:
    """Degree-(k+1) displacement reconstruction with rigid-body constraints.

    The projection of the strain reconstruction ``Es`` onto symmetric
    gradients of degree k+1: ``(eps(Dep v), eps(w)) = (Es v, eps(w)) = H v``
    for every ``w``, the defining equation because ``eps(w)`` has degree k.
    Two mean-value rows and one skew-gradient row ``C Dep = D``, one-to-one
    on the rigid kernel of the strain Gram (:func:`strain_gram`), fix the
    rigid part as in the Poisson reconstruction
    (:func:`pyhho.local_ops.constrained_projection`), so ``Dep @ v`` are the
    full vector coefficients.  The skew row's data is the cell integral of
    ``Es[:, 2]``, since ``int_T G_c v = sum_F int_F v_F n_c``.
    """
    if Es is None:
        Es = strain_reconstruction(ctx)
    layout = ctx.layout
    nb, nv = len(ctx.cells), 2 * ctx.n_rec

    H = _gradient_moments(ctx.grad_mass, _tensor_columns(Es))     # (eps(w), Es v)

    # constraint rows: component means and the mean skew gradient
    C = np.zeros((nb, 3, nv))
    C[:, 0, 0::2] = ctx.ints_full
    C[:, 1, 1::2] = ctx.ints_full
    int_grad = ctx.grad_mass[..., 0]          # (d_c phi_j, phi_0), phi_0 = 1: integrals
    C[:, 2, 0::2] = 0.5 * int_grad[..., 1]
    C[:, 2, 1::2] = -0.5 * int_grad[..., 0]

    D = np.zeros((nb, 3, layout.size))
    D[:, :2, layout.cell] = C[:, :2, : layout.cell_width]
    # int eps_xy(v) = (int G_y v_x + int G_x v_y) / 2; the skew part flips the sign of v_y
    int_exy = (ctx.ints_full[:, None, : ctx.n_k] @ Es[:, 2])[:, 0]
    D[:, 2, 0::2] = int_exy[:, 0::2]
    D[:, 2, 1::2] = -int_exy[:, 1::2]

    return constrained_projection(ctx, strain_gram(ctx), C, D, H,
                                  what="singular displacement-reconstruction system")


def stabilization_elastic(ctx: CellContext, Dep: np.ndarray | None):
    """Vector stabilization ``(face_ops, penalty)``, ``penalty`` with the plain
    ``1/h`` weight (the bilinear form applies ``2 mu``); equal order needs ``Dep``."""
    if ctx.degrees.mixed:
        return stabilization_ls(ctx)
    if Dep is None:
        raise ValueError("equal-order elastic stabilization needs the displacement reconstruction")
    return stabilization_equal_order(ctx, Dep)


def local_bilinear_elastic(ctx: CellContext, mu: float, lam: float) -> LocalOperators:
    """Local elastic matrix ``(sigma(Es v), Es w) + 2mu/h (stab, stab)``, the
    stress ``sigma(E) = 2mu E + lam tr(E) I``."""
    if mu <= 0 or lam < 0:
        raise ValueError("need mu > 0 and lambda >= 0")
    Es = strain_reconstruction(ctx)
    Dep = displacement_reconstruction(ctx, Es)
    stab = stabilization_elastic(ctx, Dep)
    sig = 2 * mu * Es
    sig[:, :2] += lam * divergence_reconstruction(ctx, Es)[:, None]
    return _bundle(ctx, _tensor_columns(Es), _tensor_columns(sig), stab, 2.0 * mu, Dep)
