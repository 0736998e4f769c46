"""Discrete-time system models with analytic first- and second-order derivatives.

Every solver in this package consumes models through :class:`SystemModel`: a
state transition ``f(x, u)``, an observation map ``h(x)``, their Jacobians, and
weighted second-derivative contractions used for exact Lagrangian curvature,
each evaluated over a whole stack of points in one call.
The differential-drive robot of the benchmark is provided by
:func:`robot_model`; :func:`make_linear_model` builds linear test systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OriginSingularityError

Array = np.ndarray

# below this squared range the robot observation is treated as undefined
_ORIGIN_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Container for a twice-differentiable discrete-time system.

    ``d2f(x, u, w)`` returns the Hessian of ``w @ f(., u)`` at ``x`` and
    ``d2h(x, w)`` the Hessian of ``w @ h`` at ``x``; both are symmetric
    ``nx x nx`` matrices for any weight vector ``w``.

    Every callable maps points stacked along leading axes to results stacked
    the same way: ``h`` maps ``(k, nx)`` to ``(k, ny)``, ``df_dx`` maps
    ``(k, nx), (k, nu)`` to ``(k, nx, nx)``, ``d2h`` maps ``(k, nx), (k, ny)``
    to ``(k, nx, nx)``, and a single point is the stack with no leading axis.
    The package evaluates a whole sub-window in one call, so a model written
    for single points only does not work with it.
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


def _fill(base: Array, x: Array, entries: dict) -> Array:
    """``base`` repeated over the leading (stack) axes of the points ``x``, with
    entry ``(i, j)`` of every copy set to the matching element of ``entries[i, j]``."""
    out = np.empty(np.shape(x)[:-1] + base.shape)
    out[...] = base
    for (i, j), value in entries.items():
        out[..., i, j] = value
    return out


def robot_model(T: float = 0.2) -> SystemModel:
    """Differential-drive robot with range/bearing observations.

    State ``(phi, psi, theta)`` is planar position and heading, input
    ``(v, omega)`` linear and angular velocity, and the discrete step is
    ``x + T * (v cos(theta), v sin(theta), omega)``. The output is
    ``(sqrt(phi^2 + psi^2), atan2(psi, phi))``; the two-argument arctangent
    keeps the bearing defined everywhere except the origin, where
    :class:`OriginSingularityError` is raised (threshold ``1e-12`` on
    ``phi^2 + psi^2``) naming the first offending state of the stack.
    """

    def _range_sq(x: Array) -> Array:
        r2 = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
        if np.min(r2) < _ORIGIN_EPS:
            first = np.flatnonzero(r2 < _ORIGIN_EPS)[0]
            phi, psi = x.reshape(-1, 3)[first, :2]
            raise OriginSingularityError(
                f"observation undefined at state {first} ({phi:.3e}, {psi:.3e}): "
                f"phi^2 + psi^2 < {_ORIGIN_EPS:g}"
            )
        return r2

    def f(x: Array, u: Array) -> Array:
        theta, v = x[..., 2], T * u[..., 0]
        step = np.empty(np.shape(x))
        step[..., 0] = v * np.cos(theta)
        step[..., 1] = v * np.sin(theta)
        step[..., 2] = T * u[..., 1]
        return x + step

    def h(x: Array) -> Array:
        r2 = _range_sq(x)
        return np.stack([np.sqrt(r2), np.arctan2(x[..., 1], x[..., 0])], axis=-1)

    def df_dx(x: Array, u: Array) -> Array:
        theta, v = x[..., 2], T * u[..., 0]
        return _fill(np.eye(3), x, {(0, 2): -v * np.sin(theta), (1, 2): v * np.cos(theta)})

    def df_du(x: Array, u: Array) -> Array:
        cos, sin = np.cos(x[..., 2]), np.sin(x[..., 2])
        return T * _fill(np.zeros((3, 2)), x, {(0, 0): cos, (1, 0): sin, (2, 1): 1.0})

    def dh_dx(x: Array) -> Array:
        r2 = _range_sq(x)
        r = np.sqrt(r2)
        phi, psi = x[..., 0], x[..., 1]
        entries = {(0, 0): phi / r, (0, 1): psi / r, (1, 0): -psi / r2, (1, 1): phi / r2}
        return _fill(np.zeros((2, 3)), x, entries)

    def d2f(x: Array, u: Array, w: Array) -> Array:
        theta = x[..., 2]
        curv = -T * u[..., 0] * (w[..., 0] * np.cos(theta) + w[..., 1] * np.sin(theta))
        return _fill(np.zeros((3, 3)), x, {(2, 2): curv})

    def d2h(x: Array, w: Array) -> Array:
        r2 = _range_sq(x)
        r3 = r2 * np.sqrt(r2)
        r4 = r2 * r2
        phi, psi = x[..., 0], x[..., 1]
        cross, diff, twice = -phi * psi / r3, (psi * psi - phi * phi) / r4, 2.0 * phi * psi / r4
        range_curv = {(0, 0): psi * psi / r3, (0, 1): cross, (1, 0): cross, (1, 1): phi * phi / r3}
        bearing_curv = {(0, 0): twice, (0, 1): diff, (1, 0): diff, (1, 1): -twice}
        return (
            w[..., 0, None, None] * _fill(np.zeros((3, 3)), x, range_curv)
            + w[..., 1, None, None] * _fill(np.zeros((3, 3)), x, bearing_curv)
        )

    return SystemModel(3, 2, 2, T, f, h, df_dx, df_du, dh_dx, d2f, d2h, name="robot")


def make_linear_model(A: Array, B: Array, C: Array) -> SystemModel:
    """Linear system ``f = A x + B u``, ``h = C x`` (zero curvature), sampled
    at ``T = 1``."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    nx = A.shape[0]
    if A.shape != (nx, nx) or B.shape[0] != nx or C.shape[1] != nx:
        raise ValueError("inconsistent linear model dimensions")
    return SystemModel(
        nx=nx,
        nu=B.shape[1],
        ny=C.shape[0],
        T=1.0,
        f=lambda x, u: (A @ x[..., None])[..., 0] + (B @ u[..., None])[..., 0],
        h=lambda x: (C @ x[..., None])[..., 0],
        df_dx=lambda x, u: np.broadcast_to(A, x.shape[:-1] + A.shape).copy(),
        df_du=lambda x, u: np.broadcast_to(B, x.shape[:-1] + B.shape).copy(),
        dh_dx=lambda x: np.broadcast_to(C, x.shape[:-1] + C.shape).copy(),
        d2f=lambda x, u, w: np.zeros(x.shape + (nx,)),
        d2h=lambda x, w: np.zeros(x.shape + (nx,)),
        name="linear",
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


def fd_check(model: SystemModel, num_points: int = 100, seed: int = 0) -> float:
    """Max relative error of all analytic derivatives against central differences.

    First-order Jacobians are differenced from ``f`` and ``h``; the curvature
    contractions are differenced from the analytic Jacobians, so the whole
    derivative chain is validated. Samples are ``x in [0.5, 1.5]^nx`` (clear of
    the robot observation singularity) and ``u in [-1, 1]^nu``, differenced
    with the default step of :func:`central_jacobian`.
    """
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))

    worst = 0.0
    for _ in range(num_points):
        x = rng.uniform(0.5, 1.5, model.nx)
        u = rng.uniform(-1.0, 1.0, model.nu)
        fd = central_jacobian(lambda z: model.f(z, u), x)
        worst = max(worst, _relative_error(model.df_dx(x, u), fd))
        fd = central_jacobian(lambda z: model.f(x, z), u)
        worst = max(worst, _relative_error(model.df_du(x, u), fd))
        fd = central_jacobian(model.h, x)
        worst = max(worst, _relative_error(model.dh_dx(x), fd))
        wx = rng.standard_normal(model.nx)
        wy = rng.standard_normal(model.ny)
        fd = central_jacobian(lambda z: model.df_dx(z, u).T @ wx, x)
        worst = max(worst, _relative_error(model.d2f(x, u, wx), fd))
        fd = central_jacobian(lambda z: model.dh_dx(z).T @ wy, x)
        worst = max(worst, _relative_error(model.d2h(x, wy), fd))
    return worst
