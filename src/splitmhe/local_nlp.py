"""Local solves, optimality residuals, and parametric sensitivities.

The augmented sub-problem of one sub-window is

    min over X   0.5 * ||b(X)||^2 + lam' A X + (rho/2) * ||X - Y||^2
    s.t.         F(X) = 0

where ``b`` stacks the sub-window's weighted residuals and ``F`` its dynamics
defects. ``(Y, lam)`` act as parameters: the prox center and the coupling
price. The solver is an equality-constrained SQP over this objective; the
tangent predictor continues a solved ``(X, mu)`` pair to nearby parameter
values through the Jacobians of the first-order conditions. A
:class:`~splitmhe.problem.SubProblem` is a run of consecutive sub-windows,
whose sub-problems share no variable: every function here treats the run's
lifted stack at once, and one sub-window is the run of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import OriginSingularityError, SingularKktError, check_count, check_real
from .problem import (
    StageEvaluation,
    SubProblem,
    constraint_vector,
    evaluate_stack,
    residual_vector,
    stage_constraint_matrix,
)
from .qp_core import link_band, link_transpose, solve_local_kkt

Array = np.ndarray

_MIN_STEP_FRACTION = 2.0 ** -30
# KKT residual below which the inner solve takes the full step outright
_FULL_STEP_TOL = 1e-3


@dataclass
class LocalSolveConfig:
    """Stopping rule of the inner sub-problem solver: the KKT residual
    tolerance and the iteration budget."""

    inner_tol: float = 1e-10
    inner_max_iter: int = 50

    def __post_init__(self):
        check_real("inner_tol", self.inner_tol)
        check_count("inner_max_iter", self.inner_max_iter, 1)


@dataclass(eq=False)
class LocalSolveResult:
    """Solution of a run's augmented sub-problems (best iterates where not
    converged). ``iterations`` counts lockstep rounds, the most KKT solves any
    sub-window took; ``evaluation`` is the run's evaluation at ``x`` if the
    solve converged, taken in its last round, else None."""

    x: Array
    mu: Array
    iterations: int
    converged: bool
    kkt_inf: float
    evaluation: StageEvaluation | None = field(default=None, repr=False)


@dataclass(eq=False)
class SensitivityPair:
    """Jacobians of the sub-problem first-order conditions.

    ``M`` differentiates the stacked conditions with respect to the solution
    pair ``(X, mu)``; ``N`` with respect to the parameters ``(Y, lam)``. ``M``
    is the symmetric KKT matrix with exact Lagrangian curvature; ``N`` has the
    fixed sparsity ``[[-rho*I, A'], [0, 0]]``.
    """

    M: Array
    N: Array


def first_order_conditions(
    sub: SubProblem, x: Array, mu: Array, lam: Array, y_ref: Array, rho: float
) -> Array:
    """Stacked first-order conditions of the augmented sub-problem.

    Rows: the augmented-Lagrangian gradient (objective gradient plus coupling
    price, proximal pull, and constraint terms), then the dynamics defects.
    Affine in the parameters ``(y_ref, lam)``.
    """
    ev = evaluate_stack(sub, x)
    return _conditions(sub, x, mu, lam, y_ref, rho, ev, link_band(sub.layout, ev.D, False))


def _conditions(sub: SubProblem, x, mu, lam, y_ref, rho: float, ev, band: Array) -> Array:
    """:func:`first_order_conditions` at the evaluation ``ev`` and unlinked ``band`` of ``x``."""
    at_mu = _at_mu(sub, band, mu).reshape(-1)
    grad = ev.g.reshape(-1) + sub.apply_coupling_transpose(lam)
    grad = grad + rho * (sub.states(x) - sub.states(y_ref)).reshape(-1) + at_mu
    return np.concatenate([grad, ev.F.reshape(-1)])


def _at_mu(sub: SubProblem, band: Array, mu) -> Array:
    """``C' mu`` through the run's unlinked ``band``: ``mu`` on the stage rows."""
    nu = np.zeros(sub.layout.shapes[1])
    nu[sub.layout.next] = np.reshape(mu, (sub.length, -1))
    return link_transpose(band, nu).reshape(nu.shape)


def hessian_blocks(sub: SubProblem, x, mu, rho: float, ev: StageEvaluation, exact: bool) -> Array:
    """The ``(states, nx, nx)`` blocks of :func:`lagrangian_hessian`; the
    Gauss-Newton blocks ``rho I + J'J`` are symmetric as formed."""
    H = rho * sub.layout.eye + ev.W
    if not exact:
        return H
    X, prev, m = sub.states(x), sub.layout.prev, sub.model
    # the observation curvature's weights V^-1/2' b, per measured state
    w = (sub.v_inv_sqrt.T @ ev.b[m.nx * sub.has_prior:].reshape(-1, m.ny, 1))[..., 0]
    H[sub.measured] += m.d2h(X[sub.measured], w)
    H[prev] -= m.d2f(X[prev], sub.controls, np.reshape(mu, (sub.length, -1)))
    return 0.5 * (H + H.swapaxes(1, 2))


def lagrangian_hessian(
    sub: SubProblem, x: Array, mu: Array, rho: float, mode: str = "exact_lagrangian",
    evaluation: StageEvaluation | None = None,
) -> Array:
    """Curvature of the local Lagrangian plus the proximal shift ``rho * I``.

    ``gauss_newton`` keeps only ``J'J + rho*I``; ``exact_lagrangian`` adds the
    residual curvature (weighted observation Hessians) and the constraint
    curvature (dynamics Hessians contracted with ``mu``). Every residual and
    every dynamics defect touches one state (the defects' curvature sits on
    the earlier state), so the matrix is block-diagonal per state. Always
    symmetric. ``evaluation`` is the run's evaluation at ``x`` when the
    caller already has it.
    """
    if mode not in ("gauss_newton", "exact_lagrangian"):
        raise ValueError(f"unknown hessian mode {mode!r}")
    ev = evaluation or evaluate_stack(sub, x)
    blocks = hessian_blocks(sub, x, mu, rho, ev, mode == "exact_lagrangian")
    return scipy.linalg.block_diag(*blocks)


def sensitivity_matrices(
    sub: SubProblem, x: Array, mu: Array, lam: Array, y_ref: Array, rho: float
) -> SensitivityPair:
    """Build ``M`` and ``N`` at a solved ``(x, mu)`` pair.

    The parameters enter the conditions linearly, so ``N`` is constant and
    ``M`` depends on the solution point only; ``lam`` and ``y_ref`` document
    the evaluation point. ``M`` is the dense form of the local KKT matrix whose
    system :func:`~splitmhe.qp_core.solve_local_kkt` condenses, with exact curvature.
    """
    ev = evaluate_stack(sub, x)
    W = lagrangian_hessian(sub, x, mu, rho, "exact_lagrangian", ev)
    C = stage_constraint_matrix(sub.layout, ev.D)
    n, m, r = sub.block_dim, sub.constraint_dim, sub.partition.r
    N = np.zeros((n + m, n + r))
    N[:n, :n] = -rho * np.eye(n)
    N[:n, n:] = sub.apply_coupling_transpose(np.eye(r))
    return SensitivityPair(M=np.block([[W, C.T], [C, np.zeros((m, m))]]), N=N)


def tangent_predictor(s: Array, xi_old: Array, xi_new: Array, pair: SensitivityPair) -> Array:
    """First-order continuation of a parametric KKT solution.

    ``s`` stacks ``(X, mu)`` solved at parameters ``xi_old``; the return value
    predicts the solution at ``xi_new``, exactly on affine solution manifolds
    and to second order otherwise. ``M`` is factored once, and one step of
    iterative refinement with that factor recovers the accuracy that a plain
    LU loses on the ill-conditioned ``M`` of long sub-windows.
    """
    s = np.asarray(s, dtype=float)
    delta = np.asarray(xi_new, dtype=float) - np.asarray(xi_old, dtype=float)
    lu, piv, info = scipy.linalg.lapack.dgetrf(pair.M)
    if info > 0:
        raise SingularKktError(f"sensitivity KKT matrix is singular (zero pivot {info})")
    rhs = pair.N @ delta
    step = scipy.linalg.lapack.dgetrs(lu, piv, rhs)[0]
    step += scipy.linalg.lapack.dgetrs(lu, piv, rhs - pair.M @ step)[0]
    return s - step


def _block_max(sub: SubProblem, state_rows: Array, stage_rows: Array) -> Array:
    """Per-sub-window infinity norm of ``(states, nx)`` and ``(L, nx)`` rows."""
    return np.maximum(
        np.maximum.reduceat(np.abs(state_rows).max(axis=1), sub.layout.first),
        np.maximum.reduceat(np.abs(stage_rows).max(axis=1), sub.layout.start),
    )


def _merits(sub, x, sigma, at_lam, y_ref, rho, values=None) -> Array:
    """Per-sub-window l1 merits at the stack ``x``; ``values`` is ``(b, F)``
    there when the caller has it."""
    b, F = values or (residual_vector(sub, x), constraint_vector(sub, x))
    lay = sub.layout
    dx = x - y_ref
    per_state = (at_lam * x).sum(axis=1) + 0.5 * rho * (dx * dx).sum(axis=1)
    return (
        0.5 * np.add.reduceat(b * b, sub.residual_rows)
        + np.add.reduceat(per_state, lay.first)
        + sigma * np.add.reduceat(np.abs(F).reshape(sub.length, -1).sum(axis=1), lay.start)
    )


def _line_search(sub, x, dx, searching, sigma, at_lam, y_ref, rho, merit0, slack) -> Array:
    """Halve each searching sub-window's step until its l1 merit decreases;
    all trials are one stack, the others sitting at ``x``. Returns per
    sub-window the step of the first trial below ``merit0 - slack``, else of
    the best trial below ``merit0``, else 0. A trial at the observation
    singularity halves only the step of the sub-window it names."""
    lay = sub.layout
    alpha = np.ones(len(lay.lengths))
    best, best_merit = np.zeros_like(alpha), merit0.copy()
    searching = searching.copy()
    while True:
        searching &= alpha >= _MIN_STEP_FRACTION
        on = searching[lay.state_block][:, None]
        trial = np.where(on, x + alpha[lay.state_block][:, None] * dx, x)
        # where a trial rounds to x, so does every shorter step, with merit exactly merit0
        searching &= np.logical_or.reduceat((trial != x).any(axis=1), lay.first)
        if not searching.any():
            return best
        try:
            merit = _merits(sub, trial, sigma, at_lam, y_ref, rho)
        except OriginSingularityError as exc:
            # the others sit at x, where the round's evaluation succeeded
            hit = searching if exc.state is None else lay.state_block[sub.measured[exc.state]]
            alpha[hit] *= 0.5
            continue
        accepted = searching & (merit < merit0 - slack)
        better = searching & ~accepted & (merit < best_merit)
        best[accepted | better] = alpha[accepted | better]
        best_merit[better] = merit[better]
        searching &= ~accepted
        alpha[searching] *= 0.5


def solve_local_subproblem(
    sub: SubProblem,
    lam: Array,
    y_ref: Array,
    rho: float,
    cfg: LocalSolveConfig | None = None,
    x0: Array | None = None,
    evaluation: StageEvaluation | None = None,
) -> LocalSolveResult:
    """Solve a run's augmented sub-problems to their first-order conditions.

    Equality-constrained SQP: at each iterate the KKT system
    ``[[W, C'], [C, 0]]`` is solved for the full step, with ``W`` the exact
    Lagrangian curvature plus ``rho*I`` (Gauss-Newton's dropped curvature
    stalls on the coupling-tilted blocks, where the residual stays large at
    the solution). Steps are halved until an l1-penalized merit decreases;
    when the curvature step finds no descent the iteration retries with the
    Gauss-Newton matrix ``J'J + rho*I``. Below a KKT residual of ``1e-3`` the
    full step is taken outright: merit differences there are at float
    resolution and the SQP contraction stands on its own.

    The sub-windows step in lockstep: a round evaluates the run once and
    takes one condensed :func:`~splitmhe.qp_core.solve_local_kkt` (ladder seeded
    by ``rho``), while the convergence test, merits, step lengths and retry
    are per sub-window and a converged one stops moving, so each takes the
    iterates of its own solve. ``evaluation`` is the run's evaluation at the
    start point, ``x0`` or else ``y_ref``, when the caller already has it; the
    first round takes it in place of its own.
    """
    cfg = cfg or LocalSolveConfig()
    check_real("proximal weight rho", rho)
    lay = sub.layout
    y_ref = sub.states(y_ref)
    x = np.array(y_ref if x0 is None else sub.states(x0))
    mu = np.zeros((sub.length, sub.model.nx))
    at_lam = sub.apply_coupling_transpose(lam).reshape(x.shape)

    active = np.ones(len(lay.lengths), dtype=bool)
    steps = np.zeros(len(lay.lengths), dtype=int)
    kkt = np.full(len(lay.lengths), np.inf)
    for k in range(cfg.inner_max_iter):
        ev = evaluate_stack(sub, x) if k or evaluation is None else evaluation
        band = link_band(lay, ev.D, False)
        grad = ev.g + at_lam + rho * (x - y_ref)
        kkt[active] = _block_max(sub, grad + _at_mu(sub, band, mu), ev.F)[active]
        active &= ~(kkt <= cfg.inner_tol)
        if not active.any():
            return LocalSolveResult(x.reshape(-1), mu.reshape(-1), int(steps.max()), True,
                                    float(kkt.max()), ev)

        H = hessian_blocks(sub, x, mu, rho, ev, True)
        dx, mu_new = solve_local_kkt(lay, H, band, -grad, -ev.F, rho, active)
        search = active & ~(kkt <= _FULL_STEP_TOL)  # a NaN residual searches too
        step = (active & ~search).astype(float)
        if search.any():
            sigma = 1.0 + 2.0 * np.maximum.reduceat(np.abs(mu_new).max(axis=1), lay.start)
            merit0 = _merits(sub, x, sigma, at_lam, y_ref, rho, (ev.b, ev.F))
            slack = 1e-14 * np.maximum(1.0, np.abs(merit0))
            found = _line_search(sub, x, dx, search, sigma, at_lam, y_ref, rho, merit0, slack)
            # indefinite curvature can make the Newton step an ascent
            # direction far from the solution; retry with Gauss-Newton
            retry = search & (found == 0)
            if retry.any():
                H = hessian_blocks(sub, x, mu, rho, ev, False)
                dx_gn, mu_gn = solve_local_kkt(lay, H, band, -grad, -ev.F, rho, retry)
                dx = np.where(retry[lay.state_block][:, None], dx_gn, dx)
                mu_new = np.where(retry[lay.stage_block][:, None], mu_gn, mu_new)
                found += _line_search(sub, x, dx, retry, sigma, at_lam, y_ref, rho, merit0, slack)
            step += found  # zero outside the searching sub-windows
        moved = (step > 0)[lay.state_block][:, None]
        x = np.where(moved, x + step[lay.state_block][:, None] * dx, x)
        mu = np.where(active[lay.stage_block][:, None], mu_new, mu)
        steps += active

    return LocalSolveResult(x.reshape(-1), mu.reshape(-1), int(steps.max()), False,
                            float(kkt.max()))


def predictor_corrector(
    sub: SubProblem, x: Array, mu: Array, lam: Array, y_ref: Array, rho: float,
    evaluation: StageEvaluation, tol: float,
) -> tuple[Array, Array, Array]:
    """Continue solved local pairs ``(x, mu)`` to new parameters ``(y_ref, lam)``.

    The conditions are affine in the parameters, so the tangent move plus the
    Newton correction of the current defect is one local KKT solve with exact
    curvature at the pair, whose evaluation is ``evaluation``. Trusted only on
    sub-windows with drift at most ``tol`` (NaN is not); returns the stacks,
    unmoved where untrusted, and the trusted mask.
    """
    band = link_band(sub.layout, evaluation.D, False)
    drift = _conditions(sub, x, mu, lam, y_ref, rho, evaluation, band)
    gx, gm = np.split(drift.reshape(-1, sub.model.nx), [sub.layout.n_states])
    trusted = _block_max(sub, gx, gm) <= tol
    if not trusted.any():
        return x, mu, trusted
    H = hessian_blocks(sub, x, mu, rho, evaluation, True)
    dx, dmu = solve_local_kkt(sub.layout, H, band, gx, gm, rho, trusted)
    return x - dx, mu - dmu, trusted
