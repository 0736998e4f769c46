"""Per-sub-window solves, optimality residuals, and parametric sensitivities.

The augmented sub-problem treated here is

    min over X   0.5 * ||b(X)||^2 + lam' A X + (rho/2) * ||X - Y||^2
    s.t.         F(X) = 0

where ``b`` stacks the sub-window's weighted residuals and ``F`` its dynamics
defects. ``(Y, lam)`` act as parameters: the prox center and the coupling
price. The solver is an equality-constrained SQP over this objective; the
tangent predictor continues a solved ``(X, mu)`` pair to nearby parameter
values through the Jacobians of the first-order conditions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import LocalSolveError, OriginSingularityError, SingularKktError
from .problem import (
    StageEvaluation,
    SubProblem,
    block_diagonal_matrix,
    constraint_vector,
    evaluate_block,
    lifted_layout,
    residual_vector,
    stage_constraint_matrix,
    stage_transpose,
)

logger = logging.getLogger(__name__)

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
        if not 0 < self.inner_tol < math.inf or self.inner_max_iter < 1:
            raise ValueError("inner tolerances must be positive and finite")


@dataclass(eq=False)
class LocalSolveResult:
    """Solution of one augmented sub-problem (best iterate when not converged)."""

    x: Array
    mu: Array
    iterations: int
    converged: bool
    kkt_inf: float


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
    sub: SubProblem, x: Array, mu: Array, lam: Array, y_ref: Array, rho: float,
    evaluation: StageEvaluation | None = None,
) -> Array:
    """Stacked first-order conditions of the augmented sub-problem.

    Rows: the augmented-Lagrangian gradient (objective gradient plus coupling
    price, proximal pull, and constraint terms), then the dynamics defects.
    Affine in the parameters ``(y_ref, lam)``. ``evaluation`` is the block's
    evaluation at ``x`` when the caller already has it.
    """
    ev = evaluation or evaluate_block(sub, x)
    mu = np.reshape(mu, (sub.length, sub.model.nx))
    at_mu = stage_transpose(lifted_layout((sub.length,)), ev.D, mu).reshape(-1)
    grad = ev.g.reshape(-1) + sub.apply_coupling_transpose(lam)
    grad = grad + rho * (np.asarray(x, dtype=float) - y_ref) + at_mu
    return np.concatenate([grad, ev.F.reshape(-1)])


def kkt_residual(sub: SubProblem, x: Array, mu: Array, lam: Array, y_ref: Array, rho: float) -> float:
    """Infinity norm of the augmented-Lagrangian gradient and the dynamics defects."""
    return float(np.abs(first_order_conditions(sub, x, mu, lam, y_ref, rho)).max())


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
    symmetric. ``evaluation`` is the block's evaluation at ``x`` when the
    caller already has it.
    """
    if mode not in ("gauss_newton", "exact_lagrangian"):
        raise ValueError(f"unknown hessian mode {mode!r}")
    ev = evaluation or evaluate_block(sub, x)
    m = sub.model
    H = rho * np.eye(m.nx) + ev.W
    if mode == "exact_lagrangian":
        states = sub.states(x)
        offsets = list(sub.meas_offsets)
        H[offsets] += m.d2h(states[offsets], ev.w)
        H[:-1] -= m.d2f(states[:-1], sub.controls, np.reshape(mu, (sub.length, m.nx)))
    return block_diagonal_matrix(0.5 * (H + np.swapaxes(H, 1, 2)))


def sensitivity_matrices(
    sub: SubProblem, x: Array, mu: Array, lam: Array, y_ref: Array, rho: float
) -> SensitivityPair:
    """Build ``M`` and ``N`` at a solved ``(x, mu)`` pair.

    The parameters enter the conditions linearly, so ``N`` is constant and
    ``M`` depends on the solution point only; ``lam`` and ``y_ref`` document
    the evaluation point. ``M`` is the local KKT matrix of
    :func:`solve_local_kkt` with exact curvature.
    """
    ev = evaluate_block(sub, x)
    W = lagrangian_hessian(sub, x, mu, rho, "exact_lagrangian", ev)
    n = sub.block_dim
    r = sub.partition.r
    N = np.zeros((n + sub.constraint_dim, n + r))
    N[:n, :n] = -rho * np.eye(n)
    N[:n, n:] = sub.apply_coupling_transpose(np.eye(r))
    return SensitivityPair(M=_kkt_matrix(W, stage_constraint_matrix(ev.D)), N=N)


def tangent_predictor(s: Array, xi_old: Array, xi_new: Array, pair: SensitivityPair) -> Array:
    """First-order continuation of a parametric KKT solution.

    ``s`` stacks ``(X, mu)`` solved at parameters ``xi_old``; the return value
    predicts the solution at ``xi_new``, exactly on affine solution manifolds
    and to second order otherwise.
    """
    s = np.asarray(s, dtype=float)
    delta = np.asarray(xi_new, dtype=float) - np.asarray(xi_old, dtype=float)
    try:
        step = np.linalg.solve(pair.M, pair.N @ delta)
    except np.linalg.LinAlgError as exc:
        raise SingularKktError("sensitivity KKT matrix is singular") from exc
    return s - step


def _merit(sub, x, sigma, at_lam, y_ref, rho, values=None) -> float:
    """l1 merit at ``x``; ``values`` is ``(b, F)`` there when the caller has it."""
    b, F = values or (residual_vector(sub, x), constraint_vector(sub, x))
    dx = x - y_ref
    return float(0.5 * b @ b + at_lam @ x + 0.5 * rho * dx @ dx + sigma * np.abs(F).sum())


def _kkt_matrix(H: Array, C: Array) -> Array:
    """The local KKT matrix ``[[H, C'], [C, 0]]``."""
    n = H.shape[0]
    K = np.zeros((n + C.shape[0], n + C.shape[0]))
    K[:n, :n] = H
    K[:n, n:] = C.T
    K[n:, :n] = C
    return K


def solve_local_kkt(H: Array, C: Array, rhs: Array, eps0: float) -> Array:
    """Solve ``[[H, C'], [C, 0]] s = rhs``.

    The inner SQP step and the ``sa_aladin`` predictor-corrector are both this
    solve. A singular matrix is retried with ``H`` shifted by ``eps0 * 10**k``,
    ``k = 0, 1, 2``, and raises :class:`LocalSolveError` if it stays singular.
    """
    n = H.shape[0]
    K = _kkt_matrix(H, C)
    for k in range(4):
        try:
            return np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            if k < 3:
                shift = eps0 * 10.0 ** k
                logger.warning("local KKT matrix singular; retrying with shift %.3e", shift)
                K[:n, :n] = H + shift * np.eye(n)
    raise LocalSolveError("local KKT matrix remained singular after regularization")


def _line_search(sub, x, dx, sigma, at_lam, y_ref, rho, merit0, slack):
    """Halve the step until the l1 merit decreases; returns the best trial."""
    alpha = 1.0
    best_x, best_merit = None, merit0
    while alpha >= _MIN_STEP_FRACTION:
        trial = x + alpha * dx
        if np.array_equal(trial, x):
            # every shorter step rounds to x as well, with merit exactly merit0
            break
        try:
            trial_merit = _merit(sub, trial, sigma, at_lam, y_ref, rho)
        except OriginSingularityError:
            alpha *= 0.5
            continue
        if trial_merit < merit0 - slack:
            return trial, trial_merit
        if trial_merit < best_merit:
            best_x, best_merit = trial, trial_merit
        alpha *= 0.5
    return best_x, best_merit


def solve_local_subproblem(
    sub: SubProblem,
    lam: Array,
    y_ref: Array,
    rho: float,
    cfg: LocalSolveConfig | None = None,
    x0: Array | None = None,
) -> LocalSolveResult:
    """Solve one augmented sub-problem to its first-order conditions.

    Equality-constrained SQP: at each iterate the KKT system
    ``[[W, C'], [C, 0]]`` is solved for the full step, with ``W`` the exact
    Lagrangian curvature plus ``rho*I`` (Gauss-Newton's dropped curvature
    stalls on the coupling-tilted blocks, where the residual stays large at
    the solution). Steps are halved until an l1-penalized merit decreases;
    when the curvature step finds no descent the iteration retries with the
    Gauss-Newton matrix ``J'J + rho*I``. Below a KKT residual of ``1e-3`` the
    full step is taken outright: merit differences there are at float
    resolution and the SQP contraction stands on its own. Each step is one
    :func:`solve_local_kkt`, whose ladder is seeded by ``rho``. The iteration
    count reports the number of KKT solves taken.
    """
    cfg = cfg or LocalSolveConfig()
    if not 0 < rho < math.inf:
        raise ValueError("proximal weight rho must be positive and finite")
    y_ref = np.asarray(y_ref, dtype=float)
    x = np.array(y_ref if x0 is None else x0, dtype=float)
    mu = np.zeros(sub.constraint_dim)
    at_lam = sub.apply_coupling_transpose(lam)

    n = sub.block_dim
    steps = 0
    kkt = np.inf
    for _ in range(cfg.inner_max_iter):
        ev = evaluate_block(sub, x)
        F = ev.F.reshape(-1)
        C = stage_constraint_matrix(ev.D)
        grad = ev.g.reshape(-1) + at_lam + rho * (x - y_ref)
        kkt = float(np.abs(grad + C.T @ mu).max())
        if F.size:
            kkt = max(kkt, float(np.abs(F).max()))
        if kkt <= cfg.inner_tol:
            return LocalSolveResult(x, mu, steps, converged=True, kkt_inf=kkt)

        rhs = np.concatenate([-grad, -F])
        H = lagrangian_hessian(sub, x, mu, rho, "exact_lagrangian", ev)
        dx, mu_new = np.split(solve_local_kkt(H, C, rhs, rho), [n])

        if kkt <= _FULL_STEP_TOL:
            x = x + dx
        else:
            sigma = 1.0 + 2.0 * float(np.abs(mu_new).max()) if mu_new.size else 1.0
            merit0 = _merit(sub, x, sigma, at_lam, y_ref, rho, (ev.b, F))
            slack = 1e-14 * max(1.0, abs(merit0))
            trial, _ = _line_search(sub, x, dx, sigma, at_lam, y_ref, rho, merit0, slack)
            if trial is None:
                # indefinite curvature can make the Newton step an ascent
                # direction far from the solution; retry with Gauss-Newton
                H = lagrangian_hessian(sub, x, mu, rho, "gauss_newton", ev)
                dx, mu_new = np.split(solve_local_kkt(H, C, rhs, rho), [n])
                trial, _ = _line_search(sub, x, dx, sigma, at_lam, y_ref, rho, merit0, slack)
            if trial is not None:
                x = trial
        mu = mu_new
        steps += 1

    return LocalSolveResult(x=x, mu=mu, iterations=steps, converged=False, kkt_inf=kkt)
