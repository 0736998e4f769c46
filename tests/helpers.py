"""Shared test oracles: finite differences and dense reference solvers.

These stay independent of the package's own derivative and solver code so the
tests cross-check two separate routes to the same numbers.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np


def fd_jacobian(func, x, eps=1e-6):
    """Central-difference Jacobian, the reference for analytic derivatives."""
    x = np.asarray(x, dtype=float)
    y0 = np.atleast_1d(np.asarray(func(x), dtype=float))
    out = np.zeros((y0.size, x.size))
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += eps
        xm[k] -= eps
        out[:, k] = (np.atleast_1d(func(xp)) - np.atleast_1d(func(xm))) / (2.0 * eps)
    return out


def counting_model(model, calls):
    """``model`` with every callable counting its calls in the Counter ``calls``."""
    names = ("f", "h", "df_dx", "df_du", "dh_dx", "d2f", "d2h")

    def counted(name):
        fn = getattr(model, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    return replace(model, **{name: counted(name) for name in names})


def rel_err(a, b):
    """Relative deviation with the usual 1 + |b| guard."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / (1.0 + np.abs(b).max()))


def dense_equality_least_squares(M, m, C, d):
    """Solve min ||M x - m||^2 s.t. C x = d through the full KKT system."""
    M = np.asarray(M, dtype=float)
    C = np.asarray(C, dtype=float)
    n = M.shape[1]
    mc = C.shape[0]
    K = np.zeros((n + mc, n + mc))
    K[:n, :n] = M.T @ M
    K[:n, n:] = C.T
    K[n:, :n] = C
    rhs = np.concatenate([M.T @ np.asarray(m, dtype=float), np.asarray(d, dtype=float)])
    sol = np.linalg.solve(K, rhs)
    return sol[:n]


def stack_window_least_squares(instance):
    """Dense affine data (M, m, C, d) of a linear-model estimation window."""
    model = instance.model
    nx, ny, L = model.nx, model.ny, instance.L
    nvar = (L + 1) * nx

    A = model.df_dx(np.zeros(nx), np.zeros(model.nu))
    B = model.df_du(np.zeros(nx), np.zeros(model.nu))
    Cm = model.dh_dx(np.zeros(nx))

    rows = nx + (L + 1) * ny
    M = np.zeros((rows, nvar))
    m = np.zeros(rows)
    M[:nx, :nx] = instance.p_inv_sqrt
    m[:nx] = instance.p_inv_sqrt @ instance.prior
    row = nx
    for n in range(L + 1):
        M[row:row + ny, n * nx:(n + 1) * nx] = instance.v_inv_sqrt @ Cm
        m[row:row + ny] = instance.v_inv_sqrt @ instance.measurements[n]
        row += ny

    C = np.zeros((L * nx, nvar))
    d = np.zeros(L * nx)
    for n in range(L):
        C[n * nx:(n + 1) * nx, n * nx:(n + 1) * nx] = -A
        C[n * nx:(n + 1) * nx, (n + 1) * nx:(n + 2) * nx] = np.eye(nx)
        d[n * nx:(n + 1) * nx] = B @ instance.controls[n]
    return M, m, C, d


def linear_window_optimum(instance):
    """Reference trajectory of a linear-model window via the dense LS oracle."""
    M, m, C, d = stack_window_least_squares(instance)
    x = dense_equality_least_squares(M, m, C, d)
    return x.reshape(instance.L + 1, instance.model.nx)


def random_stage_blocks(
    rng, n_blocks, nx, max_length=5, with_offsets=True, lengths=None, stable=False
):
    """Random time-split coupled-QP instances in stage form.

    Consecutive blocks are chained like the sub-windows of a split horizon:
    block ``i`` carries ``+I`` on its last state in coupling block row ``i``
    and ``-I`` on its first state in row ``i - 1``. Per-state Hessians are
    ``M'M + I`` and dynamics Jacobians ``I + 0.3 * noise``, the near-identity
    shape of a sampled system. Block lengths are drawn from 1 to
    ``max_length`` unless ``lengths`` gives them. ``stable`` scales every
    ``D_k`` to spectral norm at most 1: over a long chain, products of
    expanding ``D_k`` grow the multipliers geometrically (to 1e7 over 130
    stages), and the dense oracle itself resolves those only to about 1e-9.
    """
    from splitmhe.qp_core import StageBlock

    r = (n_blocks - 1) * nx
    blocks = []
    for i in range(n_blocks):
        t = int(rng.integers(1, max_length + 1)) if lengths is None else lengths[i]
        M = rng.standard_normal((t + 1, nx, nx))
        g = rng.standard_normal((t + 1) * nx)
        D = np.eye(nx) + 0.3 * rng.standard_normal((t, nx, nx))
        if stable:
            D /= np.maximum(np.linalg.norm(D, ord=2, axis=(1, 2)), 1.0)[:, None, None]
        blocks.append(
            StageBlock(
                H=np.swapaxes(M, 1, 2) @ M + np.eye(nx),
                g=g,
                D=D,
                d=rng.standard_normal(t * nx) if with_offsets else np.zeros(t * nx),
                plus_row=i if i < n_blocks - 1 else None,
                minus_row=i - 1 if i > 0 else None,
                r=r,
                anchor=rng.standard_normal(r),
            )
        )
    return blocks
