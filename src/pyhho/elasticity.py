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
sits at ``2 i + a`` inside each block.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve

from .local_ops import (CellContext, LocalOperators, _face_flux, _kron_apply,
                        stabilization_equal_order, stabilization_ls)
from .projection import mass_cholesky

# symmetric unit tensors E_xx, E_yy, E_xy([[0,1],[1,0]]) and their ':' norms
TENSOR_WEIGHTS = np.array([1.0, 1.0, 2.0])


def _strain_columns(dphi: np.ndarray) -> np.ndarray:
    """Strain components of the vector basis built from scalar gradients.

    ``dphi`` has shape (nq, n, 2); the result has shape (nq, 2n, 3) holding
    (eps_xx, eps_yy, eps_xy) of each vector basis function, components
    interleaved.
    """
    nq, n, _ = dphi.shape
    eps = np.zeros((nq, 2 * n, 3))
    eps[:, 0::2, 0] = dphi[:, :, 0]              # e_x phi: eps_xx = dx phi
    eps[:, 1::2, 1] = dphi[:, :, 1]              # e_y phi: eps_yy = dy phi
    eps[:, 0::2, 2] = 0.5 * dphi[:, :, 1]        # eps_xy of e_x phi
    eps[:, 1::2, 2] = 0.5 * dphi[:, :, 0]
    return eps


def strain_reconstruction(ctx: CellContext) -> np.ndarray:
    """Coefficient maps ``Es`` of shape (3, n_k, size) of the symmetric
    strain reconstruction; component m lives on the m-th unit tensor."""
    if ctx.degrees.rank != 2 or ctx.mesh.dim != 2:
        raise ValueError("strain reconstruction requires 2D vector degrees")
    if ctx.degrees.k_face < 1:
        raise ValueError("elasticity requires face degree k >= 1")
    n_k, n_cell = ctx.n_k, ctx.n_cell
    layout = ctx.layout
    w = ctx.rule.weights
    Mk_cho = mass_cholesky(ctx.mass_full[:n_k, :n_k])

    eps_cell = _strain_columns(ctx.dphi[:, :n_cell, :])   # (nq, 2 n_cell, 3)
    Es = np.zeros((3, n_k, layout.size))
    for m in range(3):
        rhs = np.zeros((n_k, layout.size))
        # cell pairing (eps(v_T) : E_m, phi_i); the xy tensor carries both
        # off-diagonal entries, hence the contraction weight
        rhs[:, layout.cell] = TENSOR_WEIGHTS[m] * (
            ctx.phi[:, :n_k].T @ (w[:, None] * eps_cell[:, :, m]))
        for i, f in enumerate(ctx.faces):
            # (E_m n) picks the Cartesian components paired with each face term
            en = np.zeros(2)
            if m == 0:
                en[0] = f.normal[0]
            elif m == 1:
                en[1] = f.normal[1]
            else:
                en[0], en[1] = f.normal[1], f.normal[0]
            fw = f.rule.weights
            for a in range(2):
                if en[a] == 0.0:
                    continue
                blk = f.phi[:, :n_k].T @ (fw[:, None] * f.phi[:, :n_cell]) * en[a]
                rhs[:, layout.cell][:, a::2] -= blk
                fb = f.phi[:, :n_k].T @ (fw[:, None] * f.psi) * en[a]
                rhs[:, layout.face(i)][:, a::2] += fb
        Es[m] = cho_solve(Mk_cho, rhs) / TENSOR_WEIGHTS[m]
    return Es


def divergence_reconstruction(ctx: CellContext, Es: np.ndarray | None = None) -> np.ndarray:
    """Divergence reconstruction as the trace of the strain reconstruction."""
    if Es is None:
        Es = strain_reconstruction(ctx)
    return Es[0] + Es[1]


def displacement_reconstruction(ctx: CellContext) -> np.ndarray:
    """Degree-(k+1) displacement reconstruction with rigid-body constraints.

    Solves the symmetric-gradient stiffness system augmented by two
    mean-value rows and one skew-gradient row (Lagrange multipliers), so
    ``Dep @ v`` are the full vector coefficients including the rigid part.
    """
    n_rec, n_cell = ctx.n_rec, ctx.n_cell
    layout = ctx.layout
    w = ctx.rule.weights
    nv = 2 * n_rec

    eps_full = _strain_columns(ctx.dphi)                  # (nq, nv, 3)
    weighted = eps_full * TENSOR_WEIGHTS[None, None, :]
    K = np.einsum("qim,q,qjm->ij", weighted, w, eps_full)
    K = 0.5 * (K + K.T)

    H = np.zeros((nv, layout.size))
    eps_cell = eps_full[:, : 2 * n_cell, :]
    H[:, layout.cell] = np.einsum("qim,q,qjm->ij", weighted, w, eps_cell)
    for i, f in enumerate(ctx.faces):
        feps = _strain_columns(f.dphi)                    # (nq, nv, 3)
        n = f.normal
        # traction (eps(q) n) of each vector basis function
        tr = np.zeros((len(f.rule.weights), nv, 2))
        tr[:, :, 0] = feps[:, :, 0] * n[0] + feps[:, :, 2] * n[1]
        tr[:, :, 1] = feps[:, :, 2] * n[0] + feps[:, :, 1] * n[1]
        fw = f.rule.weights
        for a in range(2):
            H[:, layout.cell][:, a::2] -= tr[:, :, a].T @ (fw[:, None] * f.phi[:, :n_cell])
            H[:, layout.face(i)][:, a::2] += tr[:, :, a].T @ (fw[:, None] * f.psi)

    # constraint rows: component means and the mean skew gradient
    C = np.zeros((3, nv))
    C[0, 0::2] = ctx.ints_full
    C[1, 1::2] = ctx.ints_full
    int_grad = w @ ctx.dphi.reshape(len(w), -1)
    int_grad = int_grad.reshape(n_rec, 2)                 # integrals of (dx, dy) phi_j
    C[2, 0::2] = 0.5 * int_grad[:, 1]
    C[2, 1::2] = -0.5 * int_grad[:, 0]

    D = np.zeros((3, layout.size))
    D[0, layout.cell][0::2] = ctx.ints_full[:n_cell]
    D[1, layout.cell][1::2] = ctx.ints_full[:n_cell]
    for i, f in enumerate(ctx.faces):
        ints_psi = f.rule.weights @ f.psi
        D[2, layout.face(i)][0::2] += 0.5 * ints_psi * f.normal[1]
        D[2, layout.face(i)][1::2] -= 0.5 * ints_psi * f.normal[0]

    saddle = np.zeros((nv + 3, nv + 3))
    saddle[:nv, :nv] = K
    saddle[:nv, nv:] = C.T
    saddle[nv:, :nv] = C
    rhs = np.vstack([H, D])
    try:
        sol = np.linalg.solve(saddle, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"cell {ctx.cell}: singular displacement-reconstruction system") from exc
    return sol[:nv]


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
    Mk = ctx.mass_full[:n_k, :n_k]
    Es = strain_reconstruction(ctx)
    Dv = divergence_reconstruction(ctx, Es)
    Dep = displacement_reconstruction(ctx)
    stab_face, penalty = stabilization_elastic(
        ctx, None if ctx.degrees.mixed else Dep)

    strain_term = sum(TENSOR_WEIGHTS[m] * Es[m].T @ Mk @ Es[m] for m in range(3))
    div_term = Dv.T @ Mk @ Dv
    L = 2 * mu * strain_term + lam * div_term + 2 * mu * penalty
    L = 0.5 * (L + L.T)

    # stress coefficient maps on the tensor basis
    sig = np.stack([(2 * mu + lam) * Es[0] + lam * Es[1],
                    lam * Es[0] + (2 * mu + lam) * Es[1], 2 * mu * Es[2]])
    consistency = []
    for f in ctx.faces:
        n = f.normal
        # -(sigma n), components interleaved, tested with the face basis
        sn = np.stack([sig[0] * n[0] + sig[2] * n[1], sig[2] * n[0] + sig[1] * n[1]],
                      axis=1).reshape(2 * n_k, -1)
        pairing = f.psi.T @ (f.rule.weights[:, None] * f.phi[:, :n_k])
        consistency.append(-_kron_apply(pairing, sn))
    # (sigma, eps(q)) for the vector cell basis q of degree k
    wphi = ctx.rule.weights[:, None] * ctx.phi[:, :n_k]
    epsq = _strain_columns(ctx.dphi[:, :n_k, :])
    balance = sum(TENSOR_WEIGHTS[m] * epsq[:, :, m].T @ wphi @ sig[m] for m in range(3))
    return LocalOperators(
        ctx=ctx, L=L, penalty=penalty, rec=Dep,
        flux=_face_flux(ctx, np.vstack(consistency), stab_face, 2.0 * mu / ctx.h),
        balance=balance)
