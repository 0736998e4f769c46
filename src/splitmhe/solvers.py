"""Outer solvers: three splitting algorithms and the centralized baseline.

All four share the same skeleton per iteration: per-block work (local solves
or derivative evaluation), one closed-form coupled-QP coordination step, and a
convergence record evaluated at the new consensus iterate. Block work is a
pure map over sub-windows with a fixed-order reduction, so runs are
deterministic regardless of how the map is scheduled.

* ``gn_aladin``  -- exact local solves, Gauss-Newton QP data, homogeneous
  constraint rows (the local solutions are feasible).
* ``sa_aladin``  -- QP data with constraint offsets, evaluated at local
  solution pairs that are continued between iterations by a tangent
  predictor-corrector wherever the continuation is trustworthy, and pinned to
  the coordination output (or re-solved exactly, per config) elsewhere.
* ``dsqp``       -- no local solves at all: derivative evaluation at the
  consensus iterate plus the coordination step, i.e. one full-space SQP step
  per iteration expressed block-wise.
* ``centralized`` -- ``dsqp`` on the degenerate single-window partition; used
  as the reference oracle for the distributed runs.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NotPositiveDefiniteError, SplitMheError
from .local_nlp import (
    LocalSolveConfig,
    first_order_conditions,
    lagrangian_hessian_stages,
    sensitivity_matrices,
    solve_local_subproblem,
)
from .problem import (
    MheInstance,
    Partition,
    SubProblem,
    build_partition,
    centralized_objective,
    coupling_residual,
    eval_constraint_stages,
    eval_residual_stack,
    extract_trajectory,
    lift_initial_guess,
    split_instance,
    stage_constraint_transpose,
)
from .qp_core import QpSolution, StageBlock, solve_coupled_qp

logger = logging.getLogger(__name__)

Array = np.ndarray

ALGORITHMS = ("gn_aladin", "sa_aladin", "dsqp", "centralized")

_DEFAULT_RHO = {"gn_aladin": 25.0, "sa_aladin": 1e3, "dsqp": 1e3, "centralized": 1e3}


@dataclass
class SolverConfig:
    """Algorithm selection and outer-loop parameters.

    ``rho`` defaults per algorithm (25 for ``gn_aladin``, 1e3 otherwise);
    ``qp_regularization`` shifts the Gauss-Newton QP Hessians of ``gn_aladin``
    and seeds the escalation ladder for the others, defaulting to ``rho``.
    ``sa_switch_tol`` is the stationarity threshold below which ``sa_aladin``
    trusts the predictor-corrector continuation; beyond it the local pair
    follows ``sa_fallback``.
    """

    algorithm: str = "dsqp"
    rho: float | None = None
    tol: float = 1e-8
    max_iter: int = 50
    hessian_mode: str = "gauss_newton"
    local: LocalSolveConfig = field(default_factory=LocalSolveConfig)
    qp_regularization: float | None = None
    sa_first_iter_exact: bool = True
    sa_switch_tol: float = 1e-5
    sa_fallback: str = "coordination"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.rho is None:
            self.rho = _DEFAULT_RHO[self.algorithm]
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.hessian_mode not in ("gauss_newton", "exact_lagrangian"):
            raise ValueError(f"unknown hessian mode {self.hessian_mode!r}")
        if self.sa_fallback not in ("coordination", "exact_solve"):
            raise ValueError(f"unknown sa fallback {self.sa_fallback!r}")

    @property
    def qp_eps(self) -> float:
        return self.rho if self.qp_regularization is None else self.qp_regularization


@dataclass(eq=False)
class IterateState:
    """Primal blocks, consensus blocks, and multipliers of one outer iterate."""

    x_blocks: list[Array]
    y_blocks: list[Array]
    lam: Array
    mu_blocks: list[Array]
    iteration: int = 0


@dataclass(eq=False)
class ConvergenceRecord:
    """Per-iteration progress metrics; norms are infinity norms."""

    iteration: int
    primal_step_inf: float
    coupling_inf: float
    dynamics_inf: float
    stationarity_inf: float
    dist_to_ref: float | None
    objective: float
    wall_ms: float
    local_ms: float = 0.0
    qp_ms: float = 0.0


@dataclass(eq=False)
class SolveResult:
    """Outcome of an outer solve: trajectory, certificates, and history."""

    trajectory: Array
    objective: float
    records: list[ConvergenceRecord]
    status: str
    final_metrics: dict
    final_state: IterateState
    info: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.records)


def termination_check(record: ConvergenceRecord, cfg: SolverConfig) -> bool:
    """Converged iff every internal metric is at or below the outer tolerance."""
    worst = max(
        record.primal_step_inf,
        record.coupling_inf,
        record.dynamics_inf,
        record.stationarity_inf,
    )
    return worst <= cfg.tol


def _initial_iterate(
    instance: MheInstance, partition: Partition, warm: IterateState | None
) -> tuple[list[Array], Array, list[Array]]:
    if warm is not None:
        y = [np.array(b, dtype=float) for b in warm.y_blocks]
        lam = np.array(warm.lam, dtype=float)
        mu = [np.array(b, dtype=float) for b in warm.mu_blocks]
        if len(y) != partition.N or lam.shape != (partition.r,):
            raise SplitMheError("warm start does not match the partition dimensions")
        return y, lam, mu
    y = lift_initial_guess(instance.initial_guess, partition)
    lam = np.zeros(partition.r)
    mu = [np.zeros(m) for m in partition.constraint_dims]
    return y, lam, mu


def _stage_block(
    sub: SubProblem, x: Array, mu: Array, rho: float, mode: str, with_offsets: bool
) -> StageBlock:
    """Coordination-QP data of one sub-window, linearized at ``x``, in stage form.

    The Hessian is the Lagrangian curvature of ``mode`` shifted by ``rho``;
    without offsets the constraint rows are homogeneous.
    """
    b, J = eval_residual_stack(sub, x)
    F, D = eval_constraint_stages(sub, x)
    return StageBlock(
        H=lagrangian_hessian_stages(sub, x, mu, rho, mode),
        g=J.T @ b,
        D=D,
        d=F if with_offsets else np.zeros_like(F),
        plus_row=sub.plus_row,
        minus_row=sub.minus_row,
        r=sub.partition.r,
        anchor=sub.apply_coupling(x),
    )


def _solve_qp_escalating(blocks: list[StageBlock], eps0: float) -> QpSolution:
    """Coordination solve with a bounded regularization ladder on failure.

    Each rung shifts every per-state Hessian block by ``eps0 * 10**rung``.
    """
    try:
        return solve_coupled_qp(blocks)
    except NotPositiveDefiniteError as exc:
        failure = exc
    for attempt in range(3):
        shift = eps0 * 10.0 ** attempt
        logger.warning("coordination Hessian not PD; retrying with shift %.3e", shift)
        shifted = [replace(b, H=b.H + shift * np.eye(b.H.shape[-1])) for b in blocks]
        try:
            return solve_coupled_qp(shifted)
        except NotPositiveDefiniteError as exc:
            failure = exc
    raise NotPositiveDefiniteError(
        "coordination Hessians remained indefinite after regularization escalation "
        f"(last failure: {failure})",
        block_index=failure.block_index,
    ) from failure


def _iterate_metrics(
    subs: list[SubProblem],
    partition: Partition,
    y_new: list[Array],
    y_old: list[Array],
    lam: Array,
    mu: list[Array],
    coupling_blocks: list[Array],
) -> tuple[float, float, float, float]:
    primal = max(float(np.abs(yn - yo).max()) for yn, yo in zip(y_new, y_old))
    coupling = 0.0
    if partition.r:
        coupling = float(np.abs(coupling_residual(partition, coupling_blocks)).max())
    dynamics = 0.0
    stationarity = 0.0
    for sub, y, mu_i in zip(subs, y_new, mu):
        F, D = eval_constraint_stages(sub, y)
        b, J = eval_residual_stack(sub, y)
        stat = J.T @ b + stage_constraint_transpose(D, mu_i) + sub.apply_coupling_transpose(lam)
        dynamics = max(dynamics, float(np.abs(F).max()))
        stationarity = max(stationarity, float(np.abs(stat).max()))
    return primal, coupling, dynamics, stationarity


def _distance_to_reference(trajectory: Array, reference: Array | None) -> float | None:
    if reference is None:
        return None
    return float(np.abs(trajectory - np.asarray(reference, dtype=float)).max())


def _wrap_iteration_error(exc: SplitMheError, algorithm: str, iteration: int):
    """Re-raise with the iteration in the message; context such as the failing
    block's index carries over, and ``iteration`` is added to it."""
    wrapped = type(exc)(f"{algorithm} iteration {iteration}: {exc}")
    wrapped.__dict__.update(exc.__dict__)
    wrapped.iteration = iteration
    raise wrapped from exc


def _finish(
    instance: MheInstance,
    partition: Partition,
    subs: list[SubProblem],
    y: list[Array],
    x: list[Array],
    lam: Array,
    mu: list[Array],
    records: list[ConvergenceRecord],
    status: str,
    reference: Array | None,
    info: dict,
) -> SolveResult:
    trajectory, mismatch = extract_trajectory(y, partition)
    final_metrics = {}
    if records:
        last = records[-1]
        final_metrics = {
            "primal_step_inf": last.primal_step_inf,
            "coupling_inf": last.coupling_inf,
            "dynamics_inf": last.dynamics_inf,
            "stationarity_inf": last.stationarity_inf,
        }
        if last.dist_to_ref is not None:
            final_metrics["dist_to_ref"] = last.dist_to_ref
    final_metrics["boundary_mismatch"] = mismatch
    state = IterateState(
        x_blocks=[b.copy() for b in x],
        y_blocks=[b.copy() for b in y],
        lam=lam.copy(),
        mu_blocks=[b.copy() for b in mu],
        iteration=len(records),
    )
    return SolveResult(
        trajectory=trajectory,
        objective=centralized_objective(instance, trajectory),
        records=records,
        status=status,
        final_metrics=final_metrics,
        final_state=state,
        info=info,
    )


def run_gauss_newton_aladin(
    instance: MheInstance,
    partition: Partition,
    cfg: SolverConfig | None = None,
    warm: IterateState | None = None,
    reference: Array | None = None,
) -> SolveResult:
    """Splitting solver with exact local solves and Gauss-Newton coordination.

    Per iteration: solve every augmented sub-problem exactly in parallel,
    assemble residual-based gradients and Gauss-Newton Hessians (shifted by
    ``qp_regularization`` to restore positive definiteness), coordinate through
    the closed-form coupled QP with homogeneous constraint rows, and take the
    full consensus update.
    """
    cfg = cfg or SolverConfig(algorithm="gn_aladin")
    if cfg.algorithm != "gn_aladin":
        raise ValueError(f"config selects {cfg.algorithm!r}, expected 'gn_aladin'")
    subs = split_instance(instance, partition)
    y, lam, mu = _initial_iterate(instance, partition, warm)
    x = [b.copy() for b in y]
    records: list[ConvergenceRecord] = []
    status = "max_iter"

    for it in range(1, cfg.max_iter + 1):
        t_iter = time.perf_counter()
        try:
            t0 = time.perf_counter()
            locals_ = [
                solve_local_subproblem(sub, lam, y_i, cfg.rho, cfg.local)
                for sub, y_i in zip(subs, y)
            ]
            x = [res.x for res in locals_]
            local_ms = 1e3 * (time.perf_counter() - t0)

            t0 = time.perf_counter()
            blocks = [
                _stage_block(sub, x_i, mu_i, cfg.qp_eps, "gauss_newton", with_offsets=False)
                for sub, x_i, mu_i in zip(subs, x, mu)
            ]
            sol = _solve_qp_escalating(blocks, cfg.qp_eps)
            lam = sol.lam
            mu = sol.mu
            y_new = [x_i + dx for x_i, dx in zip(x, sol.delta_x)]
            qp_ms = 1e3 * (time.perf_counter() - t0)

            primal, coupling, dynamics, stationarity = _iterate_metrics(
                subs, partition, y_new, y, lam, mu, coupling_blocks=x
            )
            trajectory, _ = extract_trajectory(y_new, partition)
        except SplitMheError as exc:
            _wrap_iteration_error(exc, "gn_aladin", it)
        records.append(
            ConvergenceRecord(
                iteration=it,
                primal_step_inf=primal,
                coupling_inf=coupling,
                dynamics_inf=dynamics,
                stationarity_inf=stationarity,
                dist_to_ref=_distance_to_reference(trajectory, reference),
                objective=centralized_objective(instance, trajectory),
                wall_ms=1e3 * (time.perf_counter() - t_iter),
                local_ms=local_ms,
                qp_ms=qp_ms,
            )
        )
        y = y_new
        if termination_check(records[-1], cfg):
            status = "converged"
            break

    local_iters = sum(res.iterations for res in locals_) if records else 0
    return _finish(
        instance, partition, subs, y, x, lam, mu, records, status, reference,
        info={"last_local_inner_iterations": local_iters},
    )


def _sqp_loop(
    instance: MheInstance,
    partition: Partition,
    cfg: SolverConfig,
    warm: IterateState | None,
    reference: Array | None,
) -> SolveResult:
    """Shared loop of ``dsqp`` and ``centralized``: derivative evaluation at the
    consensus iterate plus one closed-form coordination step per iteration."""
    subs = split_instance(instance, partition)
    y, lam, mu = _initial_iterate(instance, partition, warm)
    records: list[ConvergenceRecord] = []
    status = "max_iter"

    for it in range(1, cfg.max_iter + 1):
        t_iter = time.perf_counter()
        try:
            t0 = time.perf_counter()
            blocks = [
                _stage_block(sub, y_i, mu_i, cfg.rho, cfg.hessian_mode, with_offsets=True)
                for sub, y_i, mu_i in zip(subs, y, mu)
            ]
            local_ms = 1e3 * (time.perf_counter() - t0)

            t0 = time.perf_counter()
            sol = _solve_qp_escalating(blocks, cfg.qp_eps)
            lam = sol.lam
            mu = sol.mu
            y_new = [y_i + dx for y_i, dx in zip(y, sol.delta_x)]
            qp_ms = 1e3 * (time.perf_counter() - t0)

            primal, coupling, dynamics, stationarity = _iterate_metrics(
                subs, partition, y_new, y, lam, mu, coupling_blocks=y_new
            )
            trajectory, _ = extract_trajectory(y_new, partition)
        except SplitMheError as exc:
            _wrap_iteration_error(exc, cfg.algorithm, it)
        records.append(
            ConvergenceRecord(
                iteration=it,
                primal_step_inf=primal,
                coupling_inf=coupling,
                dynamics_inf=dynamics,
                stationarity_inf=stationarity,
                dist_to_ref=_distance_to_reference(trajectory, reference),
                objective=centralized_objective(instance, trajectory),
                wall_ms=1e3 * (time.perf_counter() - t_iter),
                local_ms=local_ms,
                qp_ms=qp_ms,
            )
        )
        y = y_new
        if termination_check(records[-1], cfg):
            status = "converged"
            break

    return _finish(
        instance, partition, subs, y, y, lam, mu, records, status, reference, info={}
    )


def run_distributed_sqp(
    instance: MheInstance,
    partition: Partition,
    cfg: SolverConfig | None = None,
    warm: IterateState | None = None,
    reference: Array | None = None,
) -> SolveResult:
    """Splitting solver with no local solves at all.

    Each iteration evaluates gradients, Lagrangian Hessians (plus the ``rho``
    shift), constraint values and Jacobians at the current consensus blocks and
    applies one closed-form coordination step; this is exactly one full-space
    SQP step on the lifted problem, computed block-wise.
    """
    cfg = cfg or SolverConfig(algorithm="dsqp")
    if cfg.algorithm != "dsqp":
        raise ValueError(f"config selects {cfg.algorithm!r}, expected 'dsqp'")
    return _sqp_loop(instance, partition, cfg, warm, reference)


def run_centralized(
    instance: MheInstance,
    cfg: SolverConfig | None = None,
    warm: IterateState | None = None,
    reference: Array | None = None,
) -> SolveResult:
    """Self-contained baseline: the SQP loop on the single-window partition.

    No coupling rows exist (``r = 0``), so the coordination step degenerates to
    one equality-constrained QP over the whole window. The converged trajectory
    serves as the reference oracle for the distributed runs.
    """
    cfg = cfg or SolverConfig(algorithm="centralized")
    if cfg.algorithm != "centralized":
        raise ValueError(f"config selects {cfg.algorithm!r}, expected 'centralized'")
    partition = build_partition(instance.L, 1, instance.model.nx)
    return _sqp_loop(instance, partition, cfg, warm, reference)


def run_sensitivity_aladin(
    instance: MheInstance,
    partition: Partition,
    cfg: SolverConfig | None = None,
    warm: IterateState | None = None,
    reference: Array | None = None,
) -> SolveResult:
    """Splitting solver with tangent-predictor local updates.

    Per iteration: evaluate gradients, Hessians, constraint values and
    Jacobians at the current local solution pairs; coordinate through the
    offset form of the coupled QP; then continue each local solution to the
    new parameters ``(Y, lam)`` by a predictor-corrector step: the conditions
    are affine in the parameters, so the tangent move plus the Newton
    correction of the current defect is one solve against the sensitivity
    KKT matrix at the new parameters. The continuation is trusted only while
    the current pair nearly satisfies the new first-order conditions
    (threshold ``sa_switch_tol``); otherwise the local pair falls back to the
    coordination output itself (``sa_fallback='coordination'``, the stable
    choice on stiff data) or to an exact local solve (``'exact_solve'``).
    With ``sa_first_iter_exact`` the initial local pairs are solved exactly
    at the initial parameters before the first coordination.
    """
    cfg = cfg or SolverConfig(algorithm="sa_aladin")
    if cfg.algorithm != "sa_aladin":
        raise ValueError(f"config selects {cfg.algorithm!r}, expected 'sa_aladin'")
    subs = split_instance(instance, partition)
    y, lam, mu = _initial_iterate(instance, partition, warm)
    if warm is not None:
        x = [b.copy() for b in warm.x_blocks]
    elif cfg.sa_first_iter_exact:
        first = [
            solve_local_subproblem(sub, lam, y_i, cfg.rho, cfg.local)
            for sub, y_i in zip(subs, y)
        ]
        x = [res.x for res in first]
        mu = [res.mu for res in first]
    else:
        x = [b.copy() for b in y]
    records: list[ConvergenceRecord] = []
    status = "max_iter"
    counts = {"exact_local_updates": 0, "predictor_updates": 0, "coordination_fallbacks": 0}

    for it in range(1, cfg.max_iter + 1):
        t_iter = time.perf_counter()
        try:
            t0 = time.perf_counter()
            blocks = [
                _stage_block(sub, x_i, mu_i, cfg.rho, cfg.hessian_mode, with_offsets=True)
                for sub, x_i, mu_i in zip(subs, x, mu)
            ]
            sol = _solve_qp_escalating(blocks, cfg.qp_eps)
            lam_new = sol.lam
            mu_hat = sol.mu
            y_new = [x_i + dx for x_i, dx in zip(x, sol.delta_x)]
            qp_ms = 1e3 * (time.perf_counter() - t0)

            t0 = time.perf_counter()
            x_new = []
            mu_new = []
            for i, sub in enumerate(subs):
                drift = first_order_conditions(
                    sub, x[i], mu[i], lam_new, y_new[i], cfg.rho
                )
                if float(np.abs(drift).max()) <= cfg.sa_switch_tol:
                    pair = sensitivity_matrices(sub, x[i], mu[i], lam, y[i], cfg.rho)
                    try:
                        # tangent move plus defect correction in one solve:
                        # the conditions are affine in (Y, lam)
                        step = np.linalg.solve(pair.M, drift)
                        s_new = np.concatenate([x[i], mu[i]]) - step
                        x_new.append(s_new[:sub.block_dim])
                        mu_new.append(s_new[sub.block_dim:])
                        counts["predictor_updates"] += 1
                    except np.linalg.LinAlgError:
                        logger.warning(
                            "sub-window %d: singular sensitivity system, exact solve",
                            sub.index,
                        )
                        res = solve_local_subproblem(
                            sub, lam_new, y_new[i], cfg.rho, cfg.local, x0=x[i]
                        )
                        x_new.append(res.x)
                        mu_new.append(res.mu)
                        counts["exact_local_updates"] += 1
                elif cfg.sa_fallback == "exact_solve":
                    res = solve_local_subproblem(
                        sub, lam_new, y_new[i], cfg.rho, cfg.local, x0=x[i]
                    )
                    x_new.append(res.x)
                    mu_new.append(res.mu)
                    counts["exact_local_updates"] += 1
                else:
                    x_new.append(y_new[i].copy())
                    mu_new.append(mu_hat[i].copy())
                    counts["coordination_fallbacks"] += 1
            local_ms = 1e3 * (time.perf_counter() - t0)

            primal, coupling, dynamics, stationarity = _iterate_metrics(
                subs, partition, y_new, y, lam_new, mu_hat, coupling_blocks=y_new
            )
            trajectory, _ = extract_trajectory(y_new, partition)
        except SplitMheError as exc:
            _wrap_iteration_error(exc, "sa_aladin", it)
        records.append(
            ConvergenceRecord(
                iteration=it,
                primal_step_inf=primal,
                coupling_inf=coupling,
                dynamics_inf=dynamics,
                stationarity_inf=stationarity,
                dist_to_ref=_distance_to_reference(trajectory, reference),
                objective=centralized_objective(instance, trajectory),
                wall_ms=1e3 * (time.perf_counter() - t_iter),
                local_ms=local_ms,
                qp_ms=qp_ms,
            )
        )
        x, mu, y, lam = x_new, mu_new, y_new, lam_new
        if termination_check(records[-1], cfg):
            status = "converged"
            break

    return _finish(
        instance, partition, subs, y, x, lam, mu, records, status, reference, info=counts
    )


def solve(
    instance: MheInstance,
    partition: Partition | None,
    cfg: SolverConfig,
    warm: IterateState | None = None,
    reference: Array | None = None,
) -> SolveResult:
    """Dispatch to the solver selected by ``cfg.algorithm``."""
    if cfg.algorithm == "centralized":
        return run_centralized(instance, cfg, warm, reference)
    if partition is None:
        raise ValueError("distributed algorithms need a partition")
    runner = {
        "gn_aladin": run_gauss_newton_aladin,
        "sa_aladin": run_sensitivity_aladin,
        "dsqp": run_distributed_sqp,
    }[cfg.algorithm]
    return runner(instance, partition, cfg, warm, reference)
