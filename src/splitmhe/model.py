"""Discrete-time system models with analytic first- and second-order derivatives.

Every solver in this package consumes models through :class:`SystemModel`: a
state transition ``f(x, u)``, an observation map ``h(x)``, their Jacobians, and
weighted second-derivative contractions used for exact Lagrangian curvature.
The differential-drive robot of the benchmark is provided by
:func:`robot_model`; :func:`make_linear_model` builds linear test systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OriginSingularityError

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Container for a twice-differentiable discrete-time system.

    ``d2f(x, u, w)`` returns the Hessian of ``w @ f(., u)`` at ``x`` and
    ``d2h(x, w)`` the Hessian of ``w @ h`` at ``x``; both are symmetric
    ``nx x nx`` matrices for any weight vector ``w``.
    """

    nx: int
    nu: int
    ny: int
    T: float
    f: Callable[[Array, Array], Array]
    h: Callable[[Array], Array]
    df_dx: Callable[[Array, Array], Array]
    df_du: Callable[[Array, Array], Array]
    dh_dx: Callable[[Array], Array]
    d2f: Callable[[Array, Array, Array], Array]
    d2h: Callable[[Array, Array], Array]
    name: str = "model"

    def __post_init__(self):
        if min(self.nx, self.nu, self.ny) < 1:
            raise ValueError("state, input and output dimensions must all be >= 1")
        if not self.T > 0:
            raise ValueError("sampling time must be positive")


def rollout(model: SystemModel, x0: Array, controls: Array) -> Array:
    """Simulate the exact dynamics; returns ``(K+1, nx)`` states."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    states = np.zeros((len(controls) + 1, model.nx))
    states[0] = np.asarray(x0, dtype=float)
    for n, u in enumerate(controls):
        states[n + 1] = model.f(states[n], u)
    return states


def robot_model(T: float = 0.2, eps_origin: float = 1e-12) -> SystemModel:
    """Differential-drive robot with range/bearing observations.

    State ``(phi, psi, theta)`` is planar position and heading, input
    ``(v, omega)`` linear and angular velocity, and the discrete step is
    ``x + T * (v cos(theta), v sin(theta), omega)``. The output is
    ``(sqrt(phi^2 + psi^2), atan2(psi, phi))``; the two-argument arctangent
    keeps the bearing defined everywhere except the origin, where
    :class:`OriginSingularityError` is raised (threshold ``eps_origin`` on
    ``phi^2 + psi^2``).
    """

    def _range_sq(x: Array) -> float:
        r2 = x[0] * x[0] + x[1] * x[1]
        if r2 < eps_origin:
            raise OriginSingularityError(
                f"observation undefined at ({x[0]:.3e}, {x[1]:.3e}): "
                f"phi^2 + psi^2 < {eps_origin:g}"
            )
        return r2

    def f(x: Array, u: Array) -> Array:
        theta = x[2]
        return np.array(
            [
                x[0] + T * u[0] * np.cos(theta),
                x[1] + T * u[0] * np.sin(theta),
                x[2] + T * u[1],
            ]
        )

    def h(x: Array) -> Array:
        r2 = _range_sq(x)
        return np.array([np.sqrt(r2), np.arctan2(x[1], x[0])])

    def df_dx(x: Array, u: Array) -> Array:
        theta = x[2]
        out = np.eye(3)
        out[0, 2] = -T * u[0] * np.sin(theta)
        out[1, 2] = T * u[0] * np.cos(theta)
        return out

    def df_du(x: Array, u: Array) -> Array:
        theta = x[2]
        return T * np.array([[np.cos(theta), 0.0], [np.sin(theta), 0.0], [0.0, 1.0]])

    def dh_dx(x: Array) -> Array:
        r2 = _range_sq(x)
        r = np.sqrt(r2)
        phi, psi = x[0], x[1]
        return np.array([[phi / r, psi / r, 0.0], [-psi / r2, phi / r2, 0.0]])

    def d2f(x: Array, u: Array, w: Array) -> Array:
        theta = x[2]
        out = np.zeros((3, 3))
        out[2, 2] = -T * u[0] * (w[0] * np.cos(theta) + w[1] * np.sin(theta))
        return out

    def d2h(x: Array, w: Array) -> Array:
        r2 = _range_sq(x)
        r3 = r2 * np.sqrt(r2)
        r4 = r2 * r2
        phi, psi = x[0], x[1]
        range_curv = np.array(
            [
                [psi * psi / r3, -phi * psi / r3, 0.0],
                [-phi * psi / r3, phi * phi / r3, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        bearing_curv = np.array(
            [
                [2.0 * phi * psi / r4, (psi * psi - phi * phi) / r4, 0.0],
                [(psi * psi - phi * phi) / r4, -2.0 * phi * psi / r4, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        return w[0] * range_curv + w[1] * bearing_curv

    return SystemModel(3, 2, 2, T, f, h, df_dx, df_du, dh_dx, d2f, d2h, name="robot")


def make_linear_model(A: Array, B: Array, C: Array, T: float = 1.0, name: str = "linear") -> SystemModel:
    """Linear system ``f = A x + B u``, ``h = C x`` (zero curvature)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    nx = A.shape[0]
    if A.shape != (nx, nx) or B.shape[0] != nx or C.shape[1] != nx:
        raise ValueError("inconsistent linear model dimensions")
    zero_curv = np.zeros((nx, nx))
    return SystemModel(
        nx=nx,
        nu=B.shape[1],
        ny=C.shape[0],
        T=T,
        f=lambda x, u: A @ x + B @ u,
        h=lambda x: C @ x,
        df_dx=lambda x, u: A.copy(),
        df_du=lambda x, u: B.copy(),
        dh_dx=lambda x: C.copy(),
        d2f=lambda x, u, w: zero_curv.copy(),
        d2h=lambda x, w: zero_curv.copy(),
        name=name,
    )


def gaussian_draws(seed: int, count: int) -> Array:
    """Reproducible standard-normal draws.

    Uniforms come from a PCG64 stream and are mapped through the cosine branch
    of the Box-Muller transform, ``sqrt(-2 ln(1 - u1)) * cos(2 pi u2)``, so the
    sequence is a pure function of the seed.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    u1 = 1.0 - gen.random(count)  # (0, 1]: keeps the log finite
    u2 = gen.random(count)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def central_jacobian(func: Callable[[Array], Array], x: Array, eps: float = 1e-6) -> Array:
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    y0 = np.atleast_1d(np.asarray(func(x), dtype=float))
    out = np.zeros((y0.size, x.size))
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += eps
        xm[k] -= eps
        yp = np.atleast_1d(np.asarray(func(xp), dtype=float))
        ym = np.atleast_1d(np.asarray(func(xm), dtype=float))
        out[:, k] = (yp - ym) / (2.0 * eps)
    return out


def _relative_error(analytic: Array, reference: Array) -> float:
    num = np.abs(np.asarray(analytic) - reference).max()
    return float(num / (1.0 + np.abs(reference).max()))


def fd_check(
    model: SystemModel,
    num_points: int = 100,
    eps: float = 1e-6,
    seed: int = 0,
    x_sampler: Callable[[np.random.Generator], Array] | None = None,
    u_sampler: Callable[[np.random.Generator], Array] | None = None,
) -> float:
    """Max relative error of all analytic derivatives against central differences.

    First-order Jacobians are differenced from ``f`` and ``h``; the curvature
    contractions are differenced from the analytic Jacobians, so the whole
    derivative chain is validated. Samples default to ``x in [0.5, 1.5]^nx``
    (clear of the robot observation singularity) and ``u in [-1, 1]^nu``.
    """
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    if x_sampler is None:
        x_sampler = lambda r: r.uniform(0.5, 1.5, model.nx)
    if u_sampler is None:
        u_sampler = lambda r: r.uniform(-1.0, 1.0, model.nu)

    worst = 0.0
    for _ in range(num_points):
        x = x_sampler(rng)
        u = u_sampler(rng)
        fd = central_jacobian(lambda z: model.f(z, u), x, eps)
        worst = max(worst, _relative_error(model.df_dx(x, u), fd))
        fd = central_jacobian(lambda z: model.f(x, z), u, eps)
        worst = max(worst, _relative_error(model.df_du(x, u), fd))
        fd = central_jacobian(model.h, x, eps)
        worst = max(worst, _relative_error(model.dh_dx(x), fd))
        wx = rng.standard_normal(model.nx)
        wy = rng.standard_normal(model.ny)
        fd = central_jacobian(lambda z: model.df_dx(z, u).T @ wx, x, eps)
        worst = max(worst, _relative_error(model.d2f(x, u, wx), fd))
        fd = central_jacobian(lambda z: model.dh_dx(z).T @ wy, x, eps)
        worst = max(worst, _relative_error(model.d2h(x, wy), fd))
    return worst
