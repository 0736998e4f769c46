"""Discrete-time system models with analytic first- and second-order derivatives.

Every solver in this package consumes models through :class:`SystemModel`: a
state transition ``f(x, u)``, an observation map ``h(x)``, their Jacobians, and
weighted second-derivative contractions used for exact Lagrangian curvature,
each evaluated over a whole stack of points in one call.
The differential-drive robot of the benchmark is provided by
:func:`robot_model`; :func:`make_linear_model` builds linear test systems.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import OriginSingularityError, check_count, check_real

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

    The optional init-only kernels ``f_kernel(x, u) -> (f, df_dx)`` and
    ``h_kernel(x) -> (h, dh_dx)`` share work between a function and its
    Jacobian and must match the separate callables bit for bit. They are kept
    as ``f_and_jac`` and ``h_and_jac``, composed of the separate callables where
    none is given, and anew by :func:`dataclasses.replace`.
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
    f_kernel: InitVar[Callable[[Array, Array], tuple[Array, Array]] | None] = None
    h_kernel: InitVar[Callable[[Array], tuple[Array, Array]] | None] = None
    f_and_jac: Callable[[Array, Array], tuple[Array, Array]] = field(init=False, repr=False)
    h_and_jac: Callable[[Array], tuple[Array, Array]] = field(init=False, repr=False)

    def __post_init__(self, f_kernel, h_kernel):
        for name in ("nx", "nu", "ny"):
            check_count(name, getattr(self, name), 1)
        check_real("sampling time", self.T)
        f, df_dx, h, dh_dx = self.f, self.df_dx, self.h, self.dh_dx
        object.__setattr__(self, "f_and_jac", f_kernel or (lambda x, u: (f(x, u), df_dx(x, u))))
        object.__setattr__(self, "h_and_jac", h_kernel or (lambda x: (h(x), dh_dx(x))))


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
    out = np.empty(x.shape[:-1] + base.shape)
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
    ``phi^2 + psi^2``) naming the first offending state of the stack in its
    message and in ``state``.
    """

    eye = np.eye(3)

    def _range_sq(x: Array) -> Array:
        phi, psi = x[..., 0], x[..., 1]
        r2 = phi * phi + psi * psi
        if np.minimum.reduce(r2, axis=None) < _ORIGIN_EPS:
            first = np.flatnonzero(r2 < _ORIGIN_EPS)[0]
            phi, psi = x.reshape(-1, 3)[first, :2]
            error = OriginSingularityError(
                f"observation undefined at state {first} ({phi:.3e}, {psi:.3e}): "
                f"phi^2 + psi^2 < {_ORIGIN_EPS:g}"
            )
            error.state = int(first)
            raise error
        return r2

    def _dynamics(jac: bool, x: Array, u: Array):
        """``f``, and with ``jac`` also ``df_dx``, from one ``cos`` and ``sin`` of the heading."""
        theta, Tu = x[..., 2], T * u
        cos, sin, step = np.cos(theta), np.sin(theta), np.empty(x.shape)
        np.multiply(Tu[..., 0], cos, out=step[..., 0])
        np.multiply(Tu[..., 0], sin, out=step[..., 1])
        step[..., 2] = Tu[..., 1]
        if not jac:
            return x + step
        return x + step, _fill(eye, x, {(0, 2): -Tu[..., 0] * sin, (1, 2): Tu[..., 0] * cos})

    def _observation(jac: bool, x: Array):
        """``h``, and with ``jac`` also ``dh_dx``, from one origin check and range."""
        r2 = _range_sq(x)
        out = np.empty(x.shape[:-1] + (2,))
        np.sqrt(r2, out=out[..., 0])
        np.arctan2(x[..., 1], x[..., 0], out=out[..., 1])
        if not jac:
            return out
        r, phi, psi = out[..., 0], x[..., 0], x[..., 1]
        J = np.zeros(x.shape[:-1] + (2, 3))
        np.divide(phi, r, out=J[..., 0, 0])
        np.divide(psi, r, out=J[..., 0, 1])
        np.divide(-psi, r2, out=J[..., 1, 0])
        np.divide(phi, r2, out=J[..., 1, 1])
        return out, J

    def df_du(x: Array, u: Array) -> Array:
        cos, sin = np.cos(x[..., 2]), np.sin(x[..., 2])
        return T * _fill(np.zeros((3, 2)), x, {(0, 0): cos, (1, 0): sin, (2, 1): 1.0})

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

    f_kernel, h_kernel = partial(_dynamics, True), partial(_observation, True)
    return SystemModel(
        3, 2, 2, T, partial(_dynamics, False), partial(_observation, False),
        lambda x, u: f_kernel(x, u)[1], df_du, lambda x: h_kernel(x)[1], d2f, d2h,
        name="robot", f_kernel=f_kernel, h_kernel=h_kernel,
    )


def make_linear_model(A: Array, B: Array, C: Array) -> SystemModel:
    """Linear system ``f = A x + B u``, ``h = C x`` (zero curvature), sampled
    at ``T = 1``."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    nx = A.shape[0]
    if A.shape != (nx, nx) or B.ndim != 2 or C.ndim != 2 or B.shape[0] != nx or C.shape[1] != nx:
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
    with the default step of :func:`central_jacobian`; the kernels are compared
    against the separate callables at every sample.
    """
    check_count("num_points", num_points, 1)
    rng = np.random.Generator(np.random.PCG64(seed))

    worst = 0.0
    for _ in range(num_points):
        x = rng.uniform(0.5, 1.5, model.nx)
        u = rng.uniform(-1.0, 1.0, model.nu)
        pairs = zip(model.f_and_jac(x, u) + model.h_and_jac(x),
                    (model.f(x, u), model.df_dx(x, u), model.h(x), model.dh_dx(x)))
        worst = max(worst, *(_relative_error(a, b) for a, b in pairs))
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
