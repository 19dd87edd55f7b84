"""Cell-local operators for 2D linear elasticity (face degree k >= 1).

The strain reconstruction maps the hybrid displacement unknowns into
symmetric-tensor polynomials of degree k, the divergence reconstruction is
its trace, and the displacement reconstruction of degree k+1 is pinned by
mean-value and skew-gradient constraints that remove the rigid-body
ambiguity.  The local bilinear form combines the strain and divergence
terms with a stabilization weighted by ``2 mu / h``; the stabilizations
and the face-flux (traction) builder are the scalar ones of
:mod:`pyhho.local_ops`, tensorized with the 2D identity.

Vector DoFs interleave components: scalar function ``i``, component ``a``
sits at ``2 i + a`` inside each block.  Like :mod:`pyhho.local_ops`, every
operator is built for a group of cells, stacked along a leading cell axis.
"""

from __future__ import annotations

import numpy as np

from .local_ops import (CellContext, LocalOperators, _face_flux, _kron_apply,
                        stabilization_equal_order, stabilization_ls)
from .projection import checked, mass_cholesky

# symmetric unit tensors E_xx, E_yy, E_xy([[0,1],[1,0]]) and their ':' norms
TENSOR_WEIGHTS = np.array([1.0, 1.0, 2.0])


def _strain_columns(dphi: np.ndarray) -> np.ndarray:
    """Strain components of the vector basis built from scalar gradients.

    ``dphi`` has shape (..., nq, n, 2); the result has shape (..., nq, 2n, 3)
    holding (eps_xx, eps_yy, eps_xy) of each vector basis function,
    components interleaved.
    """
    eps = np.zeros(dphi.shape[:-2] + (2 * dphi.shape[-2], 3))
    eps[..., 0::2, 0] = dphi[..., 0]             # e_x phi: eps_xx = dx phi
    eps[..., 1::2, 1] = dphi[..., 1]             # e_y phi: eps_yy = dy phi
    eps[..., 0::2, 2] = 0.5 * dphi[..., 1]       # eps_xy of e_x phi
    eps[..., 1::2, 2] = 0.5 * dphi[..., 0]
    return eps


def _tensor_normals(normal: np.ndarray) -> np.ndarray:
    """(nb, 3, 2): the Cartesian components of ``E_m n`` for the unit
    tensors E_xx, E_yy and E_xy."""
    en = np.zeros((len(normal), 3, 2))
    en[:, 0, 0] = normal[:, 0]
    en[:, 1, 1] = normal[:, 1]
    en[:, 2, 0], en[:, 2, 1] = normal[:, 1], normal[:, 0]
    return en


def strain_reconstruction(ctx: CellContext) -> np.ndarray:
    """Coefficient maps ``Es`` of shape (nb, 3, n_k, size) of the symmetric
    strain reconstruction; component m lives on the m-th unit tensor."""
    if ctx.degrees.rank != 2 or ctx.mesh.dim != 2:
        raise ValueError("strain reconstruction requires 2D vector degrees")
    if ctx.degrees.k_face < 1:
        raise ValueError("elasticity requires face degree k >= 1")
    n_k, n_cell = ctx.n_k, ctx.n_cell
    layout = ctx.layout
    w = ctx.rule.weights
    Mk_inv = mass_cholesky(ctx.mass_full[:, :n_k, :n_k], ctx.cells)

    eps_cell = _strain_columns(ctx.dphi[:, :, :n_cell, :])   # (nb, nq, 2 n_cell, 3)
    rhs = np.zeros((len(ctx.cells), 3, n_k, layout.size))
    # cell pairing (eps(v_T) : E_m, phi_i); the xy tensor carries both
    # off-diagonal entries, hence the contraction weight
    rhs[..., layout.cell] = TENSOR_WEIGHTS[:, None, None] * np.einsum(
        "bqi,bqjm->bmij", w[..., None] * ctx.phi[:, :, :n_k], eps_cell)
    for i, f in enumerate(ctx.faces):
        # (E_m n) picks the Cartesian components paired with each face term
        en = _tensor_normals(f.normal)[..., None, None]
        wq = (f.rule.weights[..., None] * f.phi[:, :, :n_k]).mT
        blk = (wq @ f.phi[:, :, :n_cell])[:, None]
        fb = (wq @ f.psi)[:, None]
        for a in range(2):
            rhs[..., layout.cell][..., a::2] -= blk * en[:, :, a]
            rhs[..., layout.face(i)][..., a::2] += fb * en[:, :, a]
    return (Mk_inv[:, None] @ rhs) / TENSOR_WEIGHTS[:, None, None]


def divergence_reconstruction(ctx: CellContext, Es: np.ndarray | None = None) -> np.ndarray:
    """Divergence reconstruction as the trace of the strain reconstruction."""
    if Es is None:
        Es = strain_reconstruction(ctx)
    return Es[:, 0] + Es[:, 1]


def displacement_reconstruction(ctx: CellContext) -> np.ndarray:
    """Degree-(k+1) displacement reconstruction with rigid-body constraints.

    Solves the symmetric-gradient stiffness system augmented by two
    mean-value rows and one skew-gradient row (Lagrange multipliers), so
    ``Dep @ v`` are the full vector coefficients including the rigid part.
    """
    n_rec, n_cell = ctx.n_rec, ctx.n_cell
    layout = ctx.layout
    nb = len(ctx.cells)
    w = ctx.rule.weights
    nv = 2 * n_rec

    eps_full = _strain_columns(ctx.dphi)                  # (nb, nq, nv, 3)
    weighted = eps_full * (w[..., None, None] * TENSOR_WEIGHTS)
    K = np.einsum("bqim,bqjm->bij", weighted, eps_full)
    K = 0.5 * (K + K.mT)

    H = np.zeros((nb, nv, layout.size))
    H[:, :, layout.cell] = np.einsum("bqim,bqjm->bij", weighted,
                                     eps_full[:, :, : 2 * n_cell])
    for i, f in enumerate(ctx.faces):
        feps = _strain_columns(f.dphi)                    # (nb, nq, nv, 3)
        n = f.normal[:, None, None, :]
        # traction (eps(q) n) of each vector basis function
        tr = [feps[..., 0] * n[..., 0] + feps[..., 2] * n[..., 1],
              feps[..., 2] * n[..., 0] + feps[..., 1] * n[..., 1]]
        fw = f.rule.weights[..., None]
        for a in range(2):
            H[:, :, layout.cell][..., a::2] -= tr[a].mT @ (fw * f.phi[:, :, :n_cell])
            H[:, :, layout.face(i)][..., a::2] += tr[a].mT @ (fw * f.psi)

    # constraint rows: component means and the mean skew gradient
    C = np.zeros((nb, 3, nv))
    C[:, 0, 0::2] = ctx.ints_full
    C[:, 1, 1::2] = ctx.ints_full
    int_grad = np.einsum("bq,bqjc->bjc", w, ctx.dphi)    # integrals of (dx, dy) phi_j
    C[:, 2, 0::2] = 0.5 * int_grad[..., 1]
    C[:, 2, 1::2] = -0.5 * int_grad[..., 0]

    D = np.zeros((nb, 3, layout.size))
    D[:, 0, layout.cell][:, 0::2] = ctx.ints_full[:, :n_cell]
    D[:, 1, layout.cell][:, 1::2] = ctx.ints_full[:, :n_cell]
    for i, f in enumerate(ctx.faces):
        ints_psi = np.einsum("bq,bqj->bj", f.rule.weights, f.psi)
        D[:, 2, layout.face(i)][:, 0::2] += 0.5 * ints_psi * f.normal[:, 1:2]
        D[:, 2, layout.face(i)][:, 1::2] -= 0.5 * ints_psi * f.normal[:, 0:1]

    saddle = np.zeros((nb, nv + 3, nv + 3))
    saddle[:, :nv, :nv] = K
    saddle[:, :nv, nv:] = C.mT
    saddle[:, nv:, :nv] = C
    sol = checked(np.linalg.solve, saddle, np.concatenate([H, D], axis=1),
                  ids=ctx.cells, what="singular displacement-reconstruction system")
    return sol[:, :nv]


def stabilization_elastic(ctx: CellContext, Dep: np.ndarray | None):
    """Vector stabilization; the equal-order variant needs ``Dep``.

    Returns ``(face_ops, penalty)`` where ``penalty`` carries the plain
    ``1/h`` weight (the ``2 mu`` factor is applied by the bilinear form).
    """
    if ctx.degrees.mixed:
        return stabilization_ls(ctx)
    if Dep is None:
        raise ValueError("equal-order elastic stabilization needs the "
                         "displacement reconstruction")
    return stabilization_equal_order(ctx, Dep)


def local_bilinear_elastic(ctx: CellContext, mu: float, lam: float) -> LocalOperators:
    """Local elastic matrix ``2mu (strain, strain) + lam (div, div) +
    2mu/h (stab, stab)`` with its face tractions."""
    if mu <= 0 or lam < 0:
        raise ValueError("need mu > 0 and lambda >= 0")
    n_k = ctx.n_k
    Mk = ctx.mass_full[:, None, :n_k, :n_k]
    Es = strain_reconstruction(ctx)
    Dv = divergence_reconstruction(ctx, Es)
    Dep = displacement_reconstruction(ctx)
    stab_face, penalty = stabilization_elastic(
        ctx, None if ctx.degrees.mixed else Dep)

    strain_term = np.einsum("m,bmij->bij", TENSOR_WEIGHTS, Es.mT @ Mk @ Es)
    div_term = Dv.mT @ Mk[:, 0] @ Dv
    L = 2 * mu * strain_term + lam * div_term + 2 * mu * penalty
    L = 0.5 * (L + L.mT)

    # stress coefficient maps on the tensor basis
    sig = np.stack([(2 * mu + lam) * Es[:, 0] + lam * Es[:, 1],
                    lam * Es[:, 0] + (2 * mu + lam) * Es[:, 1], 2 * mu * Es[:, 2]],
                   axis=1)
    consistency = []
    for f in ctx.faces:
        n = f.normal[:, :, None, None]
        # -(sigma n), components interleaved, tested with the face basis
        sn = np.stack([sig[:, 0] * n[:, 0] + sig[:, 2] * n[:, 1],
                       sig[:, 2] * n[:, 0] + sig[:, 1] * n[:, 1]], axis=2)
        pairing = (f.rule.weights[..., None] * f.psi).mT @ f.phi[:, :, :n_k]
        consistency.append(-_kron_apply(pairing, sn.reshape(len(sn), 2 * n_k, -1)))
    # (sigma, eps(q)) for the vector cell basis q of degree k
    wphi = ctx.rule.weights[..., None] * ctx.phi[:, :, :n_k]
    epsq = _strain_columns(ctx.dphi[:, :, :n_k, :])
    balance = np.einsum("m,bmij->bij", TENSOR_WEIGHTS,
                        epsq.transpose(0, 3, 2, 1) @ wphi[:, None] @ sig)
    return LocalOperators(
        ctx=ctx, L=L, penalty=penalty, rec=Dep,
        flux=_face_flux(ctx, np.concatenate(consistency, axis=1), stab_face,
                        2.0 * mu / ctx.h),
        balance=balance)
