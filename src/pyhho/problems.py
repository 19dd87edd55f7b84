"""Boundary-value problem descriptions and manufactured solutions.

All data callables are vectorized: they take an ``(npts, dim)`` coordinate
array and return values of shape ``(npts,)`` for scalar fields or
``(npts, 2)`` for displacements.  Sources of the manufactured solutions
were differentiated by hand once and are cross-checked against finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProblemSpec:
    """Poisson or linear-elasticity problem with optional exact solution."""

    kind: str                  # "poisson" | "elasticity"
    f: object                  # body source
    u_dirichlet: object
    g_neumann: object = None
    mu: float = 1.0
    lam: float = 0.0
    exact: object = None
    exact_grad: object = None  # (npts, dim) / (npts, 2, 2) Jacobian
    name: str = ""
    dim: int = 2               # space dimension of the data's coordinates

    def __post_init__(self):
        if self.kind not in ("poisson", "elasticity"):
            raise ValueError(f"unknown problem kind {self.kind!r}")


def poisson_sin_1d() -> ProblemSpec:
    u = lambda x: np.sin(np.pi * x[:, 0])
    return ProblemSpec(
        kind="poisson", name="poisson-sin-1d", dim=1,
        f=lambda x: np.pi ** 2 * np.sin(np.pi * x[:, 0]),
        u_dirichlet=u, exact=u,
        exact_grad=lambda x: np.pi * np.cos(np.pi * x[:, 0:1]))


def poisson_sin_2d() -> ProblemSpec:
    def u(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def grad(x):
        sx, cx = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
        sy, cy = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
        return np.pi * np.column_stack([cx * sy, sx * cy])

    return ProblemSpec(
        kind="poisson", name="poisson-sin",
        f=lambda x: 2 * np.pi ** 2 * u(x),
        u_dirichlet=u, exact=u, exact_grad=grad)


def poisson_polynomial(degree: int, dim: int = 2) -> ProblemSpec:
    """Global polynomial solution of the given total degree (patch tests)."""
    if dim == 1:
        def u(x):
            return x[:, 0] ** degree + 0.5 * x[:, 0]

        def f(x):
            if degree < 2:
                return np.zeros(len(x))
            return -degree * (degree - 1) * x[:, 0] ** (degree - 2)

        def grad(x):
            return degree * x[:, 0:1] ** max(degree - 1, 0) + 0.5

        return ProblemSpec(kind="poisson", name=f"poisson-p{degree}-1d", dim=1, f=f,
                           u_dirichlet=u, exact=u, exact_grad=grad)

    def u(x):
        # harmonic-ish mix exercising both variables up to the full degree
        out = (x[:, 0] + 0.5 * x[:, 1]) ** degree
        if degree >= 2:
            out = out + x[:, 0] * x[:, 1]
        return out

    def f(x):
        if degree < 2:
            return np.zeros(len(x))
        base = (x[:, 0] + 0.5 * x[:, 1]) ** (degree - 2)
        return -degree * (degree - 1) * 1.25 * base

    def grad(x):
        g = degree * (x[:, 0] + 0.5 * x[:, 1]) ** (degree - 1)
        gx, gy = g, 0.5 * g
        if degree >= 2:
            gx = gx + x[:, 1]
            gy = gy + x[:, 0]
        return np.column_stack([gx, gy])

    return ProblemSpec(kind="poisson", name=f"poisson-p{degree}", f=f,
                       u_dirichlet=u, exact=u, exact_grad=grad)


def elasticity_divfree(mu: float = 1.0, lam: float = 1.0) -> ProblemSpec:
    """Divergence-free displacement (curl of sin^2 sin^2), zero on the boundary."""
    pi = np.pi

    def u(x):
        sx, sy = np.sin(pi * x[:, 0]), np.sin(pi * x[:, 1])
        s2x, s2y = np.sin(2 * pi * x[:, 0]), np.sin(2 * pi * x[:, 1])
        return np.column_stack([pi * sx ** 2 * s2y, -pi * s2x * sy ** 2])

    def grad(x):
        s2x, s2y = np.sin(2 * pi * x[:, 0]), np.sin(2 * pi * x[:, 1])
        c2x, c2y = np.cos(2 * pi * x[:, 0]), np.cos(2 * pi * x[:, 1])
        sx2 = np.sin(pi * x[:, 0]) ** 2
        sy2 = np.sin(pi * x[:, 1]) ** 2
        J = np.empty((len(x), 2, 2))
        J[:, 0, 0] = pi ** 2 * s2x * s2y
        J[:, 0, 1] = 2 * pi ** 2 * sx2 * c2y
        J[:, 1, 0] = -2 * pi ** 2 * c2x * sy2
        J[:, 1, 1] = -pi ** 2 * s2x * s2y
        return J

    def f(x):
        s2x, s2y = np.sin(2 * pi * x[:, 0]), np.sin(2 * pi * x[:, 1])
        c2x, c2y = np.cos(2 * pi * x[:, 0]), np.cos(2 * pi * x[:, 1])
        # f = -mu * laplace(u); the pressure term vanishes since div u = 0
        f1 = -mu * 2 * pi ** 3 * s2y * (2 * c2x - 1)
        f2 = mu * 2 * pi ** 3 * s2x * (2 * c2y - 1)
        return np.column_stack([f1, f2])

    return ProblemSpec(kind="elasticity", name="elasticity-divfree",
                       f=f, u_dirichlet=u, mu=mu, lam=lam,
                       exact=u, exact_grad=grad)


def elasticity_compressible(mu: float = 1.0, lam: float = 1.0) -> ProblemSpec:
    """Compressible manufactured displacement, zero on the unit-square boundary."""
    pi = np.pi

    def u(x):
        sx, sy = np.sin(pi * x[:, 0]), np.sin(pi * x[:, 1])
        bub = (x[:, 0] - x[:, 0] ** 2) * (x[:, 1] - x[:, 1] ** 2)
        return np.column_stack([sx * sy, bub])

    def grad(x):
        sx, cx = np.sin(pi * x[:, 0]), np.cos(pi * x[:, 0])
        sy, cy = np.sin(pi * x[:, 1]), np.cos(pi * x[:, 1])
        px, py = x[:, 0] - x[:, 0] ** 2, x[:, 1] - x[:, 1] ** 2
        J = np.empty((len(x), 2, 2))
        J[:, 0, 0] = pi * cx * sy
        J[:, 0, 1] = pi * sx * cy
        J[:, 1, 0] = (1 - 2 * x[:, 0]) * py
        J[:, 1, 1] = px * (1 - 2 * x[:, 1])
        return J

    def f(x):
        sx, cx = np.sin(pi * x[:, 0]), np.cos(pi * x[:, 0])
        sy, cy = np.sin(pi * x[:, 1]), np.cos(pi * x[:, 1])
        px, py = x[:, 0] - x[:, 0] ** 2, x[:, 1] - x[:, 1] ** 2
        lap1 = -2 * pi ** 2 * sx * sy
        lap2 = -2 * py - 2 * px
        ddiv1 = -pi ** 2 * sx * sy + (1 - 2 * x[:, 0]) * (1 - 2 * x[:, 1])
        ddiv2 = pi ** 2 * cx * cy - 2 * px
        return np.column_stack([-mu * lap1 - (mu + lam) * ddiv1,
                                -mu * lap2 - (mu + lam) * ddiv2])

    return ProblemSpec(kind="elasticity", name="elasticity-compressible",
                       f=f, u_dirichlet=u, mu=mu, lam=lam,
                       exact=u, exact_grad=grad)


def rigid_body_problem(mu: float = 1.0, lam: float = 0.5) -> ProblemSpec:
    """Rigid displacement (translation + rotation): zero strain, zero source."""
    def u(x):
        return np.column_stack([1.0 - x[:, 1], 0.5 + x[:, 0]])

    def grad(x):
        J = np.zeros((len(x), 2, 2))
        J[:, 0, 1] = -1.0
        J[:, 1, 0] = 1.0
        return J

    return ProblemSpec(kind="elasticity", name="elasticity-rigid",
                       f=lambda x: np.zeros((len(x), 2)),
                       u_dirichlet=u, mu=mu, lam=lam, exact=u, exact_grad=grad)


def elasticity_polynomial(degree: int, mu: float = 1.0, lam: float = 0.7) -> ProblemSpec:
    """Vector polynomial solution of the given total degree (patch tests)."""
    if degree == 2:
        def u(x):
            return np.column_stack([x[:, 0] ** 2 + x[:, 0] * x[:, 1],
                                    x[:, 1] ** 2 - 2 * x[:, 0] * x[:, 1]])

        def grad(x):
            J = np.empty((len(x), 2, 2))
            J[:, 0, 0] = 2 * x[:, 0] + x[:, 1]
            J[:, 0, 1] = x[:, 0]
            J[:, 1, 0] = -2 * x[:, 1]
            J[:, 1, 1] = 2 * x[:, 1] - 2 * x[:, 0]
            return J

        # lap u = (2, 2); div u = 3y; grad(div) = (0, 3)
        def f(x):
            out = np.empty((len(x), 2))
            out[:, 0] = -2.0 * mu
            out[:, 1] = -2.0 * mu - 3.0 * (mu + lam)
            return out
    elif degree == 3:
        def u(x):
            return np.column_stack([x[:, 0] ** 3 + x[:, 1] ** 3,
                                    x[:, 0] * x[:, 1] ** 2])

        def grad(x):
            J = np.empty((len(x), 2, 2))
            J[:, 0, 0] = 3 * x[:, 0] ** 2
            J[:, 0, 1] = 3 * x[:, 1] ** 2
            J[:, 1, 0] = x[:, 1] ** 2
            J[:, 1, 1] = 2 * x[:, 0] * x[:, 1]
            return J

        # lap u = (6x + 6y, 2x); div u = 3x^2 + 2xy; grad(div) = (6x+2y, 2x)
        def f(x):
            out = np.empty((len(x), 2))
            out[:, 0] = -mu * (6 * x[:, 0] + 6 * x[:, 1]) \
                - (mu + lam) * (6 * x[:, 0] + 2 * x[:, 1])
            out[:, 1] = -mu * 2 * x[:, 0] - (mu + lam) * 2 * x[:, 0]
            return out
    else:
        raise ValueError("polynomial elasticity patch test defined for degree 2 or 3")
    return ProblemSpec(kind="elasticity", name=f"elasticity-p{degree}",
                       f=f, u_dirichlet=u, mu=mu, lam=lam, exact=u, exact_grad=grad)


PROBLEMS = {
    "poisson": poisson_sin_2d,
    "poisson1d": poisson_sin_1d,
    "elasticity": elasticity_divfree,
    "elasticity-compressible": elasticity_compressible,
}


def get_problem(name: str, **kwargs) -> ProblemSpec:
    try:
        return PROBLEMS[name](**kwargs)
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {sorted(PROBLEMS)}") from None
