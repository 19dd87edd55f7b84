"""Meshes, quadrature references and checks shared by the test modules."""

import dataclasses

import numpy as np

from pyhho.basis import _lowered, face_basis, scaled_monomial_basis
from pyhho.harness import _apply, data_order
from pyhho.mesh import Mesh, build_hanging_node_mesh, build_structured_mesh
from pyhho.problems import ProblemSpec
from pyhho.projection import gather_local, l2_project
from pyhho.quadrature import cell_quadrature, face_quadrature

# symmetric unit tensors E_xx, E_yy, E_xy ([[0, 1], [1, 0]]) and their ':' norms
TENSOR_WEIGHTS = np.array([1.0, 1.0, 2.0])


def jittered_mesh(kind, n, seed, amplitude=None):
    """n x n ``kind`` cells ('tri' or 'quad') on the unit square whose
    interior vertices move by a seeded uniform draw of at most
    ``amplitude`` per coordinate (default a fifth of the cell width); the
    boundary stays fixed.  Jittered quads are not parallelograms."""
    base = build_structured_mesh(kind, n, n)
    h = 1.0 / n
    if amplitude is None:
        amplitude = 0.2 * h
    verts = base.vertices.copy()
    interior = np.all((verts > 0.5 * h) & (verts < 1.0 - 0.5 * h), axis=1)
    verts[interior] += np.random.default_rng(seed).uniform(
        -amplitude, amplitude, (int(interior.sum()), 2))
    return Mesh(2, verts, base.cells)


def random_half(n, seed, neumann=None):
    """n x n quads with a seeded random half of the cells split in four, as
    the benchmark's hanging-node input; polygons of 5 to 8 faces."""
    base = build_structured_mesh("quad", n, n, neumann=neumann)
    rng = np.random.default_rng(seed)
    return build_hanging_node_mesh(base, rng.choice(base.n_cells, base.n_cells // 2,
                                                    replace=False))


def jittered_hanging():
    """4x4 quads with cells 0, 2 and 9 split and vertex (0.75, 0.75) moved:
    three 4-vertex cells that are no parallelograms share the padded polygon
    group with the pentagons and hexagons."""
    mesh = build_hanging_node_mesh(build_structured_mesh("quad", 4, 4), [0, 2, 9])
    verts = mesh.vertices.copy()
    verts[np.all(verts == 0.75, axis=1)] += [0.03, -0.02]
    return Mesh(2, verts, mesh.cells)


def rotation(degrees):
    """The counterclockwise rotation by ``degrees`` as a 2 x 2 matrix."""
    t = np.radians(degrees)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def rotated(mesh, degrees):
    """``mesh`` rotated counterclockwise about the origin."""
    return Mesh(2, mesh.vertices @ rotation(degrees).T, mesh.cells)


def strip_problem(length, angle=0.0):
    """sin(pi x / length) sin(pi y) on [0, length] x [0, 1], turned like
    :func:`rotated` by ``angle`` degrees."""
    rot = rotation(angle)

    def u(x):
        x = x @ rot                  # rows of R^T x
        return np.sin(np.pi * x[:, 0] / length) * np.sin(np.pi * x[:, 1])

    def grad(x):
        a, b = (np.pi * (x @ rot) / [length, 1.0]).T
        return np.pi * np.column_stack([np.cos(a) * np.sin(b) / length,
                                        np.sin(a) * np.cos(b)]) @ rot.T

    return ProblemSpec(kind="poisson", name="poisson-strip",
                       f=lambda x: np.pi ** 2 * (1.0 + length ** -2) * u(x),
                       u_dirichlet=u, exact=u, exact_grad=grad)


def scaled_condition(M):
    """Condition numbers of a stack of Gram matrices after Jacobi scaling."""
    s = 1.0 / np.sqrt(np.diagonal(M, axis1=-2, axis2=-1))
    return np.linalg.cond(s[..., :, None] * M * s[..., None, :])


def basis_gradients(basis, points):
    """Gradients ``(..., nq, n, dim)`` of ``basis`` at ``points`` from its
    values and its derivative maps."""
    return np.einsum("...ql,...cli->...qic", basis.eval(points), basis.derivatives())


def pointwise_gradients(basis, points):
    """Gradients ``(..., nq, n, dim)`` of ``basis`` at ``points``, point by
    point: ``d phi_i / d x^_c = exps[i, c] phi_(i lowered in c)``, turned by
    the map; the reference for :meth:`pyhho.basis.Basis.derivatives`."""
    low = basis.eval(points)[..., _lowered(basis.degree, basis.entity_dim)]
    return (basis.exponents.T * low).mT @ basis.map[..., None, :, :]


def face_point_grams(ctx):
    """``(mass_full, grad_mass, grad_gram)`` of the cells of ``ctx`` as one
    Gram of the basis values and pointwise gradients at the order-2(k+1)
    face points, each entry of degree ``p`` a face sum ``sum_F (n_F . (x -
    x_T)) int_F q / (d + p)``, a gradient having degree ``p - 1`` (a
    constant's is 0: any positive divisor does): the reference for the
    gradient Grams that the build derives from the mass Gram."""
    geom, basis, n, n_k = ctx.geom, ctx.rec_basis, ctx.n_rec, ctx.n_k
    nb, nf, d = geom.face_normals.shape
    points = face_quadrature(ctx.mesh, geom.face_indices, 2 * (ctx.degrees.k_face + 1)).points
    lever = ((points - geom.barycenter[:, None, None]) @ geom.face_normals[..., None]).mean(axis=2)
    w = (ctx.faces.weights * lever).reshape(nb, -1, 1)
    points = points.reshape(nb, -1, d)
    V = np.concatenate([basis.eval(points),
                        pointwise_gradients(basis, points).reshape(nb, -1, n * d)], axis=-1)
    deg = basis.exponents.sum(axis=1)
    deg = np.concatenate([deg, np.repeat(deg - 1, d)])
    gram = (V.mT @ (w * V)) / np.maximum(d + deg[:, None] + deg, 1)
    gram = 0.5 * (gram + gram.mT)
    return (gram[:, :n, :n], gram[:, n:, :n_k].reshape(nb, n, d, n_k),
            gram[:, n:, n:].reshape(nb, n, d, n, d))


def grad_mass(ctx):
    """``(d_c phi_i, phi_j)`` (nb, n_rec, d, n_k), ``phi_j`` of degree <= k, of
    the cells of ``ctx``: ``D M`` from the degree-k block of ``ctx.mass_full``
    and the derivative maps ``D = ctx.grad_maps``.  This and the Grams below
    are references that the build no longer forms."""
    n_k = ctx.n_k
    return ctx.grad_maps.transpose(0, 3, 1, 2) @ ctx.mass_full[:, None, :n_k, :n_k]


def gradient_gram(ctx):
    """``(d_a phi_i, d_b phi_j)`` (nb, n_rec, d, n_rec, d) of the cells of
    ``ctx``, ``D M D^T`` like :func:`grad_mass`."""
    D, n_k = ctx.grad_maps, ctx.n_k
    gram = np.einsum("zali,zlm,zcmj->ziajc", D, ctx.mass_full[:, :n_k, :n_k], D)
    return 0.5 * (gram + gram.transpose(0, 3, 4, 1, 2))


def stiffness_gram(ctx):
    """``(grad phi_i, grad phi_j)`` (nb, n_rec, n_rec): the trace of
    :func:`gradient_gram` over its two component axes."""
    return np.trace(gradient_gram(ctx), axis1=2, axis2=4)


def strain_gram(ctx):
    """``(eps(phi_i e_a), eps(phi_j e_b))`` at ``(2 i + a, 2 j + b)``: with ``D``
    the :func:`gradient_gram` and ``S`` its trace, ``(delta_ab S_ij + D[i, b,
    j, a]) / 2``."""
    D = gradient_gram(ctx)
    nb, n = D.shape[:2]
    S = np.trace(D, axis1=2, axis2=4)[:, :, None, :, None] * np.eye(2)[:, None, :]
    return (0.5 * (S + D.swapaxes(2, 4))).reshape(nb, 2 * n, 2 * n)


def gradient_moments(grad_mass, T):
    """``(grad w, T)`` for each basis function ``w = phi_i e_a`` of the rows
    ``i`` of ``grad_mass`` (:func:`grad_mass`, or its first ``n_k``), at row
    ``rank * i + a``.  ``T[:, c]`` maps DoFs to the degree-k coefficients of
    column ``c`` of a field, ``T_ac`` at row ``rank * j + a``: the right-hand
    side of the normal equations the reconstructions no longer form."""
    nb, n, d, n_k = grad_mass.shape
    B = grad_mass.reshape(nb, n, d * n_k)
    return (B @ T.reshape(nb, d * n_k, -1)).reshape(nb, -1, T.shape[-1])


def tensor_columns(S):
    """Columns (nb, 2, 2 n_k, size) of symmetric-tensor maps ``S`` (nb, 3,
    n_k, size), as :func:`gradient_moments` reads them."""
    xx, yy, xy = S[:, 0], S[:, 1], S[:, 2]
    cols = np.stack([np.stack([xx, xy], axis=2), np.stack([xy, yy], axis=2)], axis=1)
    return cols.reshape(len(S), 2, -1, S.shape[-1])


def data_rule_basis(ctx):
    """The problem-data rule of order ``data_order`` on the cells of
    ``ctx``, and ``ctx.rec_basis``'s values ``(nb, nq, n_rec)`` and
    gradients ``(nb, nq, n_rec, d)`` at its points."""
    rule = cell_quadrature(ctx.geom, data_order(ctx.degrees))
    return rule, ctx.rec_basis.eval(rule.points), basis_gradients(ctx.rec_basis, rule.points)


def strain_columns(dphi):
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


def face_measure(mesh, face):
    """Length of a face of a 2D mesh; 1 for the vertex-face of a 1D mesh."""
    if mesh.dim == 1:
        return 1.0
    pa, pb = mesh.vertices[mesh.face_nodes[face]]
    return float(np.linalg.norm(pb - pa))


def face_slice(dofmap, face):
    """The rows of ``face``'s unknowns in the reduced system of ``dofmap``."""
    rows = dofmap.rows(face)
    if rows[0] < 0:
        raise KeyError(f"face {face} is a Dirichlet face")
    return slice(rows[0], rows[-1] + 1)


def reduce_at_order(mesh, cells, degrees, v, order):
    """:func:`pyhho.projection.reduce_local` of ``v`` on a group of ``cells``
    with projections at quadrature ``order`` instead of ``2(k+2)``."""
    geom = mesh.cell_geometry(cells)
    faces = geom.face_indices.ravel()
    cell = l2_project(scaled_monomial_basis(geom, degrees.k_cell), cell_quadrature(geom, order), v)
    face = l2_project(face_basis(mesh, faces, degrees.k_face),
                      face_quadrature(mesh, faces, order), v)
    return np.concatenate([cell.reshape(len(cells), -1), face.reshape(len(cells), -1)], axis=1)


def flux_matrix(ops):
    """The face fluxes of a group's :class:`~pyhho.local_ops.LocalOperators`
    as matrices ``(nb, n_faces * face_width, size)``: column ``j`` is
    ``ops.face_fluxes`` of the ``j``-th unit vector."""
    each = np.arange(len(ops.L))
    columns = [ops.face_fluxes(e, each) for e in np.eye(ops.layout.size)]
    return np.stack(columns, axis=-1).reshape(len(each), -1, ops.layout.size)


def operator(ops, name):
    """The kept operator ``name`` of ``ops``; ``"flux"`` is :func:`flux_matrix`."""
    return flux_matrix(ops) if name == "flux" else getattr(ops, name)


def seminorm_gram(ctx):
    """Gram matrix of the H1-like seminorm |grad v_T|^2 + h^-1 |v_T - v_F|^2
    on the scalar layout of the cells of ``ctx``."""
    layout, f, n_cell = ctx.layout, ctx.faces, ctx.n_cell
    nb, nf, nq, _ = f.psi.shape
    # the trace gaps v_T - v_F at every face point of the cell
    D = np.zeros((nb, nf, nq, layout.size))
    D[..., layout.cell] = f.phi[..., :n_cell]
    D[..., layout.faces] = -(f.psi[:, :, :, None] * np.eye(nf)[:, None, :, None]).reshape(
        nb, nf, nq, -1)
    D = D.reshape(nb, nf * nq, -1)
    N = D.mT @ (f.weights.reshape(nb, -1, 1) * D) / ctx.h[:, None, None]
    N[:, layout.cell, layout.cell] += stiffness_gram(ctx)[:, :n_cell, :n_cell]
    return 0.5 * (N + N.mT)


def galerkin_residual(sol, n_tests=10, seed=7):
    """max |a_h(u, w) - l(w)| / scale over random admissible test states."""
    rng = np.random.default_rng(seed)
    mesh = sol.mesh
    Lu = [_apply(g.ops.L, g.shapes, sol.local_dofs(g.cells)) for g in sol.groups]
    worst = 0.0
    for _ in range(n_tests):
        wc = rng.standard_normal(sol.cell_coeffs.shape)
        wf = rng.standard_normal((mesh.n_faces, sol.dofmap.face_width))
        wf[mesh.dirichlet_faces] = 0.0
        a_val = l_val = scale = 0.0
        for g, lu in zip(sol.groups, Lu):
            w = gather_local(mesh, g.cells, sol.degrees, wc, wf)
            a_cells = np.sum(w * lu, axis=1)
            a_val += a_cells.sum()
            l_val += np.sum(g.rhs * w[:, g.ops.layout.cell])
            scale += np.abs(a_cells).sum()
        l_val += np.sum(sol.neumann * wf)
        worst = max(worst, abs(a_val - l_val) / max(scale, 1e-30))
    return worst


def reachable(record, path):
    """``(path, value)`` of every dataclass and array reachable from ``record``
    through dataclass fields and list items; a mesh field is not followed, as
    the mesh is no record's own."""
    if isinstance(record, np.ndarray):
        yield path, record
    elif isinstance(record, list):
        for i, item in enumerate(record):
            yield from reachable(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(record):
        yield path, record
        for f in dataclasses.fields(record):
            if f.name != "mesh":
                yield from reachable(getattr(record, f.name), f"{path}.{f.name}")


def kept_arrays(groups):
    """What a solve's or ``build_local``'s cell groups keep alive: the set of
    the dataclass types :func:`reachable` from ``groups``, and its arrays by
    the buffer that owns them (following ``.base``), ``{id: (owner,
    [arrays])}``.  The kept bytes are the owners' ``nbytes`` summed."""
    types, owners = set(), {}
    for _, obj in reachable(groups, "groups"):
        if isinstance(obj, np.ndarray):
            owner = obj
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            owners.setdefault(id(owner), (owner, []))[1].append(obj)
        else:
            types.add(type(obj))
    return types, owners
