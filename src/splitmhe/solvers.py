"""Outer solvers: three splitting algorithms and the centralized baseline.

All four run through one driver, :func:`_drive`. It holds the lifted iterate
of all sub-windows as one stack of ``L + N`` states (see
:class:`~splitmhe.problem.LiftedLayout`). Per iteration it evaluates the whole
stack once at its linearization point, assembles the stage-form coordination
QP from that evaluation, with Gauss-Newton Hessians shifted by ``rho``, solves
it in closed form as one :class:`~splitmhe.qp_core.StageStack`, takes the
consensus update, and records convergence metrics from one evaluation of the
stack at the new consensus iterate. Wherever that iterate is the next
linearization point, the metrics evaluation doubles as the next iteration's QP
data. Each of these steps is a fixed number of array calls, whatever the
number of sub-windows, so runs are deterministic.

The algorithms differ only in a per-block step around the coordination:

* ``gn_aladin``  -- before the QP, an exact local solve per block; its QP data
  take homogeneous constraint rows (the local solutions are feasible), and
  its coupling metric is taken on the local solutions.
* ``sa_aladin``  -- after the QP, each local pair is continued to the new
  parameters by a tangent predictor-corrector wherever the continuation is
  trustworthy, and pinned to the coordination output elsewhere.
* ``dsqp``       -- none: the QP data are taken at the consensus iterate, so
  each iteration is one full-space SQP step expressed block-wise.
* ``centralized`` -- ``dsqp`` on the degenerate single-window partition; used
  as the reference oracle for the distributed runs.

The per-block steps see per-block views of the stacks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SplitMheError
from .local_nlp import (
    first_order_conditions,
    lagrangian_hessian,
    solve_local_kkt,
    solve_local_subproblem,
)
from .problem import (
    MheInstance,
    Partition,
    StageEvaluation,
    SubProblem,
    block_evaluation,
    build_partition,
    centralized_objective,
    coupling_residual,
    coupling_transpose,
    evaluate_stack,
    extract_trajectory,
    join_blocks,
    lift,
    split_instance,
    stage_constraint_matrix,
    stage_transpose,
)
from .qp_core import StageStack, solve_coupled_qp

Array = np.ndarray

ALGORITHMS = ("gn_aladin", "sa_aladin", "dsqp", "centralized")

_DEFAULT_RHO = {"gn_aladin": 25.0, "sa_aladin": 1e3, "dsqp": 1e3, "centralized": 1e3}

# stationarity drift below which sa_aladin trusts its predictor-corrector
_SA_SWITCH_TOL = 1e-5


@dataclass
class SolverConfig:
    """Algorithm selection and outer-loop parameters.

    ``rho`` defaults per algorithm (25 for ``gn_aladin``, 1e3 otherwise). Every
    algorithm coordinates with Gauss-Newton Hessians shifted by ``rho``, which
    keeps each per-state block positive definite. ``rho`` and ``tol`` must be
    finite.
    """

    algorithm: str = "dsqp"
    rho: float | None = None
    tol: float = 1e-8
    max_iter: int = 50

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.rho is None:
            self.rho = _DEFAULT_RHO[self.algorithm]
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if not 0 <= self.tol < math.inf:
            raise ValueError("tol must be nonnegative and finite")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass(eq=False)
class IterateState:
    """Primal blocks, consensus blocks, and multipliers of one outer iterate."""

    x_blocks: list[Array]
    y_blocks: list[Array]
    lam: Array
    mu_blocks: list[Array]


@dataclass(eq=False)
class ConvergenceRecord:
    """Per-iteration progress metrics; norms are infinity norms.

    The timings mean the same for every algorithm. ``local_ms`` is all
    per-block work: local solves, the ``sa_aladin`` predictor, evaluation at
    the linearization points not reused from the last metrics, and stage-block
    assembly. ``qp_ms`` is the coordination solve and the consensus update.
    The rest of ``wall_ms`` is the metrics at the new consensus iterate.
    """

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


def _check_warm(warm: IterateState, partition: Partition) -> None:
    """Raise, naming the first misfit, unless ``warm`` has the partition's shapes."""
    if (shape := np.shape(warm.lam)) != (partition.r,):
        raise SplitMheError(f"warm start: lam has shape {shape}, expected ({partition.r},)")
    sizes = {
        "x_blocks": partition.block_dims,
        "y_blocks": partition.block_dims,
        "mu_blocks": partition.constraint_dims,
    }
    for name, dims in sizes.items():
        blocks = getattr(warm, name)
        if len(blocks) != partition.N:
            raise SplitMheError(f"warm start: {len(blocks)} {name} for {partition.N} sub-windows")
        for i, (block, n) in enumerate(zip(blocks, dims)):
            if (shape := np.shape(block)) != (n,):
                raise SplitMheError(f"warm start: {name}[{i}] has shape {shape}, expected ({n},)")


def _initial_iterate(
    instance: MheInstance, partition: Partition, warm: IterateState | None
) -> tuple[Array, Array, Array]:
    """Stacked consensus states ``(L + N, nx)``, ``lam`` and stage multipliers ``(L, nx)``."""
    if warm is not None:
        _check_warm(warm, partition)
        y = join_blocks(warm.y_blocks, partition.nx)
        mu = join_blocks(warm.mu_blocks, partition.nx)
        return y, np.array(warm.lam, dtype=float), mu
    y = lift(instance.initial_guess, partition)
    return y, np.zeros(partition.r), np.zeros((partition.L, partition.nx))


def _stage_stack(
    partition: Partition, x: Array, ev: StageEvaluation, rho: float, with_offsets: bool
) -> StageStack:
    """Coordination-QP data of the whole stack, linearized at ``x``.

    ``ev`` is the stack's evaluation at ``x``. The Hessian is the Gauss-Newton
    curvature shifted by ``rho``; without offsets the constraint rows are
    homogeneous.
    """
    H = rho * np.eye(partition.nx) + ev.W
    return StageStack(
        layout=partition.layout,
        H=0.5 * (H + np.swapaxes(H, 1, 2)),
        g=ev.g,
        D=ev.D,
        d=ev.F if with_offsets else np.zeros_like(ev.F),
        anchor=coupling_residual(partition, x),
    )


def _iterate_metrics(
    partition: Partition,
    y_new: Array,
    y_old: Array,
    lam: Array,
    mu: Array,
    coupled: Array,
    ev: StageEvaluation,
) -> tuple[float, float, float, float]:
    """Step, coupling, dynamics and stationarity norms; ``ev`` is the stack's
    evaluation at ``y_new`` and ``coupled`` the stack whose coupling counts."""
    primal = float(np.abs(y_new - y_old).max())
    coupling = 0.0
    if partition.r:
        coupling = float(np.abs(coupling_residual(partition, coupled)).max())
    lay = partition.layout
    stat = (
        ev.g + stage_transpose(lay, ev.D, mu)
        + coupling_transpose(lay, lam.reshape(-1, partition.nx))
    )
    return primal, coupling, float(np.abs(ev.F).max()), float(np.abs(stat).max())


def _wrap_iteration_error(exc: SplitMheError, algorithm: str, iteration: int):
    """Re-raise with the iteration in the message; context such as the failing
    block's index carries over, and ``iteration`` is added to it."""
    wrapped = type(exc)(f"{algorithm} iteration {iteration}: {exc}")
    wrapped.__dict__.update(exc.__dict__)
    wrapped.iteration = iteration
    raise wrapped from exc


def _drive(
    instance: MheInstance,
    partition: Partition,
    cfg: SolverConfig,
    warm: IterateState | None,
    reference: Array | None,
    info: dict | None = None,
    *,
    local_solve=None,
    start=None,
    advance=None,
) -> SolveResult:
    """The outer iteration of all four algorithms.

    The QP data is the Gauss-Newton curvature shifted by ``rho``. Without
    hooks this is ``dsqp``: every block is linearized at its consensus block,
    with the dynamics defects as constraint offsets, and its new consensus
    block is its next linearization point. The per-block steps of the ALADIN
    variants, which see flat per-block views:

    * ``local_solve(sub, y_i, lam)`` (``gn_aladin``) returns the block's exact
      local solution, its linearization point for this iteration. Local
      solutions are feasible, so the QP takes homogeneous constraint rows, and
      the coupling metric is measured on them.
    * ``start(subs, y, lam, mu)`` (``sa_aladin``) returns the initial local
      pairs ``(x, mu)`` as lists of blocks. ``advance(sub, x_i, mu_i, ev_i,
      y_new_i, lam_new, mu_hat_i)`` returns the next local pair
      ``(x_i, mu_i)`` of a block; ``ev_i`` is the block's part of the stack
      evaluation at ``x``, and ``(y_new_i, lam_new, mu_hat_i)`` the
      coordination output. An error in ``start`` is reported as iteration 0.

    ``info`` becomes the result's ``info``; the hooks may update it.
    """
    subs = split_instance(instance, partition)
    lay, nx = partition.layout, partition.nx
    y, lam, mu = _initial_iterate(instance, partition, warm)
    # ev: the stack's evaluation at x, carried from the last metrics
    x, ev = y, None
    if start:
        try:
            x_blocks, mu_blocks = start(subs, lay.split(y), lam, lay.split_stages(mu))
        except SplitMheError as exc:
            _wrap_iteration_error(exc, cfg.algorithm, 0)
        x, mu = join_blocks(x_blocks, nx), join_blocks(mu_blocks, nx)
    records: list[ConvergenceRecord] = []
    status = "max_iter"

    for it in range(1, cfg.max_iter + 1):
        t_iter = time.perf_counter()
        try:
            t0 = time.perf_counter()
            if local_solve:
                solved = [local_solve(sub, y_i, lam) for sub, y_i in zip(subs, lay.split(y))]
                x, ev = join_blocks(solved, nx), None
            if ev is None:
                ev = evaluate_stack(instance, partition, x)
            stack = _stage_stack(partition, x, ev, cfg.rho, not local_solve)
            local_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            sol = solve_coupled_qp(stack)
            y_new = x + sol.delta_x
            qp_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            if advance:
                pairs = [
                    advance(sub, x_i, mu_i, block_evaluation(ev, partition, i), yn_i, sol.lam, mh_i)
                    for i, (sub, x_i, mu_i, yn_i, mh_i) in enumerate(zip(
                        subs, lay.split(x), lay.split_stages(mu),
                        lay.split(y_new), lay.split_stages(sol.mu),
                    ))
                ]
                x_new = join_blocks([p[0] for p in pairs], nx)
                mu_new = join_blocks([p[1] for p in pairs], nx)
            else:
                x_new, mu_new = (x if local_solve else y_new), sol.mu
            local_s += time.perf_counter() - t0

            ev_new = evaluate_stack(instance, partition, y_new)
            primal, coupling, dynamics, stationarity = _iterate_metrics(
                partition, y_new, y, sol.lam, sol.mu, x if local_solve else y_new, ev_new
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
                dist_to_ref=(
                    None if reference is None else float(np.abs(trajectory - reference).max())
                ),
                objective=centralized_objective(instance, trajectory),
                wall_ms=1e3 * (time.perf_counter() - t_iter),
                local_ms=1e3 * local_s,
                qp_ms=1e3 * qp_s,
            )
        )
        # where the next linearization point is the new consensus iterate,
        # the metrics evaluation there is the next QP data
        ev = ev_new if np.array_equal(x_new, y_new) else None
        x, mu, y, lam = x_new, mu_new, y_new, sol.lam
        if termination_check(records[-1], cfg):
            status = "converged"
            break

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
        x_blocks=[b.copy() for b in lay.split(x)],
        y_blocks=[b.copy() for b in lay.split(y)],
        lam=lam.copy(),
        mu_blocks=[b.copy() for b in lay.split_stages(mu)],
    )
    return SolveResult(
        trajectory=trajectory,
        objective=centralized_objective(instance, trajectory),
        records=records,
        status=status,
        final_metrics=final_metrics,
        final_state=state,
        info={} if info is None else info,
    )


def _checked(cfg: SolverConfig | None, algorithm: str) -> SolverConfig:
    cfg = cfg or SolverConfig(algorithm=algorithm)
    if cfg.algorithm != algorithm:
        raise ValueError(f"config selects {cfg.algorithm!r}, expected {algorithm!r}")
    return cfg


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
    ``rho`` to restore positive definiteness), coordinate through the
    closed-form coupled QP with homogeneous constraint rows, and take the full
    consensus update. The local solves run with the default
    :class:`LocalSolveConfig`.
    """
    cfg = _checked(cfg, "gn_aladin")

    def local_solve(sub: SubProblem, y: Array, lam: Array) -> Array:
        return solve_local_subproblem(sub, lam, y, cfg.rho).x

    return _drive(instance, partition, cfg, warm, reference, local_solve=local_solve)


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
    return _drive(instance, partition, _checked(cfg, "dsqp"), warm, reference)


def run_centralized(
    instance: MheInstance,
    cfg: SolverConfig | None = None,
    warm: IterateState | None = None,
    reference: Array | None = None,
) -> SolveResult:
    """Self-contained baseline: the SQP iteration on the single-window partition.

    No coupling rows exist (``r = 0``), so the coordination step degenerates to
    one equality-constrained QP over the whole window. The converged trajectory
    serves as the reference oracle for the distributed runs.
    """
    partition = build_partition(instance.L, 1, instance.model.nx)
    return _drive(instance, partition, _checked(cfg, "centralized"), warm, reference)


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
    correction of the current defect is one :func:`solve_local_kkt` against
    the local KKT matrix that the exact local solve also uses, with exact
    curvature at the current pair. The continuation is trusted only while
    the current pair nearly satisfies the new first-order conditions (drift
    at most ``1e-5``); otherwise the local pair falls back to the coordination
    output itself. A cold start solves its initial local pairs exactly at the
    initial parameters before the first coordination, with the default
    :class:`LocalSolveConfig`; a warm start takes them from ``warm``.
    """
    cfg = _checked(cfg, "sa_aladin")
    info = {"predictor_updates": 0, "coordination_fallbacks": 0}

    def start(subs, y, lam, mu):
        if warm is not None:
            return warm.x_blocks, mu
        first = [solve_local_subproblem(sub, lam, y_i, cfg.rho) for sub, y_i in zip(subs, y)]
        return [r.x for r in first], [r.mu for r in first]

    def advance(sub, x, mu, ev, y_new, lam_new, mu_hat):
        drift = first_order_conditions(sub, x, mu, lam_new, y_new, cfg.rho, evaluation=ev)
        if not float(np.abs(drift).max()) <= _SA_SWITCH_TOL:  # NaN drift falls back too
            info["coordination_fallbacks"] += 1
            return y_new, mu_hat
        # tangent move plus defect correction in one solve against the local
        # KKT matrix: the conditions are affine in (Y, lam)
        H = lagrangian_hessian(sub, x, mu, cfg.rho, "exact_lagrangian", ev)
        step = solve_local_kkt(H, stage_constraint_matrix(ev.D), drift, cfg.rho)
        info["predictor_updates"] += 1
        return x - step[:sub.block_dim], mu - step[sub.block_dim:]

    return _drive(
        instance, partition, cfg, warm, reference, info, start=start, advance=advance
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
