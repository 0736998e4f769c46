"""Shared test oracles: finite differences and dense reference solvers.

These stay independent of the package's own derivative and solver code so the
tests cross-check two separate routes to the same numbers.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.linalg


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


def counted(calls, name, fn):
    """``fn`` counting its calls under ``name`` in the Counter ``calls``."""
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def counting_model(model, calls):
    """``model`` with every callable counting its calls in the Counter ``calls``;
    ``replace`` composes its kernels of the counted callables, so a kernel call
    counts as one call of each callable it pairs."""
    names = ("f", "h", "df_dx", "df_du", "dh_dx", "d2f", "d2h")
    return replace(model, **{name: counted(calls, name, getattr(model, name)) for name in names})


def stage_transpose_reference(layout, D, mu):
    """``C' mu`` on a lifted stack by scatter, the reference for the banded
    product ``qp_core.link_transpose``: stage ``k`` sets ``-D_k' mu_k`` on
    state ``prev[k]``, then adds ``mu_k`` to state ``next[k]``."""
    out = np.zeros((layout.n_states, D.shape[1]))
    out[layout.prev] = -(mu[:, None, :] @ D)[:, 0]
    out[layout.next] += mu
    return out


def first_order_reference(sub, x, mu, lam, y_ref, rho):
    """The stacked first-order conditions ``[J'b + A' lam + rho (x - y_ref) + C' mu; F]``
    of a run's augmented sub-problem, flat, from the dense residual and constraint
    Jacobians and the dense coupling rows: the reference for the stationarity of
    ``local_nlp`` and the function whose finite differences check its curvature."""
    from splitmhe.problem import eval_constraints, eval_residual_stack

    x, y_ref = np.ravel(x), np.ravel(y_ref)
    b, J = eval_residual_stack(sub, x)
    F, C = eval_constraints(sub, x)
    grad = J.T @ b + sub.coupling_matrix().T @ lam + rho * (x - y_ref) + C.T @ np.ravel(mu)
    return np.concatenate([grad, F])


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


def random_stage_stack(
    rng, n_blocks, nx, max_length=5, with_offsets=True, lengths=None, stable=False
):
    """Random time-split coupled-QP instances in stage form.

    Consecutive sub-windows are chained like those of a split horizon: the
    last state of sub-window ``i`` minus the first state of ``i + 1`` is
    coupling block row ``i``. Per-state Hessians are ``M'M + I`` and dynamics
    Jacobians ``I + 0.3 * noise``, the near-identity shape of a sampled
    system. Sub-window lengths are drawn from 1 to ``max_length`` unless
    ``lengths`` gives them. ``stable`` scales every ``D_k`` to spectral norm at
    most 1: over a long chain, products of expanding ``D_k`` grow the
    multipliers geometrically (to 1e7 over 130 stages), and the dense oracle
    itself resolves those only to about 1e-9. The anchor is the sum of one
    random draw per sub-window.
    """
    from splitmhe.problem import lifted_layout
    from splitmhe.qp_core import StageStack

    r = (n_blocks - 1) * nx
    ts, H, g, D, d, anchors = [], [], [], [], [], []
    for i in range(n_blocks):
        t = int(rng.integers(1, max_length + 1)) if lengths is None else lengths[i]
        M = rng.standard_normal((t + 1, nx, nx))
        ts.append(t)
        H.append(np.swapaxes(M, 1, 2) @ M + np.eye(nx))
        g.append(rng.standard_normal((t + 1, nx)))
        D_i = np.eye(nx) + 0.3 * rng.standard_normal((t, nx, nx))
        if stable:
            D_i /= np.maximum(np.linalg.norm(D_i, ord=2, axis=(1, 2)), 1.0)[:, None, None]
        D.append(D_i)
        d.append(rng.standard_normal((t, nx)) if with_offsets else np.zeros((t, nx)))
        anchors.append(rng.standard_normal(r))
    return StageStack(
        layout=lifted_layout(tuple(ts), nx),
        H=np.concatenate(H),
        g=np.concatenate(g),
        D=np.concatenate(D),
        d=np.concatenate(d),
        anchor=np.stack(anchors).sum(axis=0),
    )


def dense_blocks(stack):
    """The dense ``QpBlock`` list of a stage stack, for the dense KKT oracle.

    Block ``i`` carries ``-I`` on its first state in coupling block row
    ``i - 1`` and ``+I`` on its last state in row ``i``. The whole anchor sits
    on block 0: the coupled QP sees only the sum of the anchors.
    """
    from splitmhe.qp_core import QpBlock

    lay = stack.layout
    n_blocks, nx = len(lay.lengths), stack.H.shape[-1]
    r = (n_blocks - 1) * nx
    blocks = []
    for i, (first, last, s, t) in enumerate(zip(lay.first, lay.last, lay.start, lay.lengths)):
        n = (t + 1) * nx
        H = np.zeros((n, n))
        C = np.zeros((t * nx, n))
        for k in range(t + 1):
            H[k * nx:(k + 1) * nx, k * nx:(k + 1) * nx] = stack.H[first + k]
        for k in range(t):
            C[k * nx:(k + 1) * nx, k * nx:(k + 1) * nx] = -stack.D[s + k]
            C[k * nx:(k + 1) * nx, (k + 1) * nx:(k + 2) * nx] = np.eye(nx)
        A = np.zeros((r, n))
        if i > 0:
            A[(i - 1) * nx:i * nx, :nx] = -np.eye(nx)
        if i < n_blocks - 1:
            A[i * nx:(i + 1) * nx, n - nx:] = np.eye(nx)
        blocks.append(
            QpBlock(
                H=H,
                g=stack.g[first:last + 1].reshape(-1),
                C=C,
                d=stack.d[s:s + t].reshape(-1),
                A=A,
                anchor=stack.anchor if i == 0 else np.zeros(r),
            )
        )
    return blocks


def dense_kkt(layout, H, D):
    """The dense local KKT matrix ``[[H, C'], [C, 0]]`` of a run of sub-windows:
    ``H`` block-diagonal per state, and stage ``k``'s row of ``C`` holding
    ``-D_k`` on state ``prev[k]`` and ``I`` on state ``next[k]``."""
    n, nx = H.shape[:2]
    m = len(D)
    K = np.zeros(((n + m) * nx, (n + m) * nx))
    for j in range(n):
        K[j * nx:(j + 1) * nx, j * nx:(j + 1) * nx] = H[j]
    for k, (p, q) in enumerate(zip(layout.prev, layout.next)):
        row = slice((n + k) * nx, (n + k + 1) * nx)
        K[row, p * nx:(p + 1) * nx] = -D[k]
        K[row, q * nx:(q + 1) * nx] = np.eye(nx)
    K[:n * nx, n * nx:] = K[n * nx:, :n * nx].T
    return K


def kkt_residual_qp(blocks, solution):
    """Infinity norm of the stacked first-order conditions of a coupled QP
    over ``QpBlock`` lists, the check of a solution's optimality."""
    worst = 0.0
    coupling = np.zeros(blocks[0].r)
    for b, dx, mu_i in zip(blocks, solution.delta_x, solution.mu):
        stationarity = b.H @ dx + b.g + b.C.T @ mu_i + b.A.T @ solution.lam
        worst = max(worst, float(np.abs(stationarity).max()))
        if b.m:
            worst = max(worst, float(np.abs(b.C @ dx + b.d).max()))
        coupling += b.anchor + b.A @ dx
    if coupling.size:
        worst = max(worst, float(np.abs(coupling).max()))
    return worst


def failing_for(solve_window, n_subwindows, error):
    """``solve_window`` that raises ``error`` in place of a solve with
    ``n_subwindows`` sub-windows, the fourth positional argument."""

    def wrapper(*args, **kwargs):
        if args[3:4] == (n_subwindows,):
            raise error
        return solve_window(*args, **kwargs)
    return wrapper


def zero_curvature(sub, *args, **kwargs):
    """``local_nlp.hessian_blocks`` patched to ``H = 0``: with more variables than
    constraints, every local KKT matrix ``[[H, C'], [C, 0]]`` is singular."""
    return np.zeros((sub.layout.n_states, sub.model.nx, sub.model.nx))


def refined_solve(K, b):
    """``K^-1 b`` from one LU with two steps of iterative refinement: the
    robot's local KKT matrices are badly scaled (cond 2e16), and the plain
    dense solve is off by up to 4.3e-8 where the refined one settles."""
    lu = scipy.linalg.lu_factor(K)
    x = scipy.linalg.lu_solve(lu, b)
    for _ in range(2):
        x += scipy.linalg.lu_solve(lu, b - K @ x)
    return x
