"""Outer solvers: three splitting algorithms and the centralized baseline.

All four run through one driver, :func:`_drive`. Per iteration it evaluates
every block once at its linearization point, assembles the stage-form
coordination QP from that evaluation, with Gauss-Newton Hessians shifted by
``rho``, solves it in closed form, takes the
consensus update, and records convergence metrics from one evaluation at the
new consensus iterate. Wherever that iterate is the next linearization point,
the metrics evaluation doubles as the next iteration's QP data. Block work is
a pure map over sub-windows with a fixed-order reduction, so runs are
deterministic regardless of how the map is scheduled.

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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SplitMheError
from .local_nlp import (
    BlockEvaluation,
    first_order_conditions,
    lagrangian_hessian,
    lagrangian_hessian_stages,
    solve_local_kkt,
    solve_local_subproblem,
)
from .problem import (
    MheInstance,
    Partition,
    SubProblem,
    build_partition,
    centralized_objective,
    coupling_residual,
    extract_trajectory,
    lift_initial_guess,
    split_instance,
    stage_constraint_matrix,
    stage_constraint_transpose,
)
from .qp_core import StageBlock, solve_coupled_qp

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
    iteration: int = 0


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
) -> tuple[list[Array], Array, list[Array]]:
    if warm is not None:
        _check_warm(warm, partition)
        y = [np.array(b, dtype=float) for b in warm.y_blocks]
        mu = [np.array(b, dtype=float) for b in warm.mu_blocks]
        return y, np.array(warm.lam, dtype=float), mu
    y = lift_initial_guess(instance.initial_guess, partition)
    lam = np.zeros(partition.r)
    mu = [np.zeros(m) for m in partition.constraint_dims]
    return y, lam, mu


def _stage_block(
    sub: SubProblem, x: Array, mu: Array, ev: BlockEvaluation, rho: float, with_offsets: bool
) -> StageBlock:
    """Coordination-QP data of one sub-window, linearized at ``x``, in stage form.

    ``ev`` is the block's evaluation at ``x``. The Hessian is the Gauss-Newton
    curvature shifted by ``rho``; without offsets the constraint rows are
    homogeneous.
    """
    return StageBlock(
        H=lagrangian_hessian_stages(sub, x, mu, rho, "gauss_newton", residuals=(ev.b, ev.J)),
        g=ev.g,
        D=ev.D,
        d=ev.F if with_offsets else np.zeros_like(ev.F),
        plus_row=sub.plus_row,
        minus_row=sub.minus_row,
        r=sub.partition.r,
        anchor=sub.apply_coupling(x),
    )


def _iterate_metrics(
    subs: list[SubProblem],
    partition: Partition,
    y_new: list[Array],
    y_old: list[Array],
    lam: Array,
    mu: list[Array],
    coupling_blocks: list[Array],
    evals: list[BlockEvaluation],
) -> tuple[float, float, float, float]:
    """Step, coupling, dynamics and stationarity norms; ``evals`` holds the
    blocks' evaluations at ``y_new``."""
    primal = max(float(np.abs(yn - yo).max()) for yn, yo in zip(y_new, y_old))
    coupling = 0.0
    if partition.r:
        coupling = float(np.abs(coupling_residual(partition, coupling_blocks)).max())
    dynamics = 0.0
    stationarity = 0.0
    for sub, ev, mu_i in zip(subs, evals, mu):
        stat = ev.g + stage_constraint_transpose(ev.D, mu_i) + sub.apply_coupling_transpose(lam)
        dynamics = max(dynamics, float(np.abs(ev.F).max()))
        stationarity = max(stationarity, float(np.abs(stat).max()))
    return primal, coupling, dynamics, stationarity


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

    Each block's QP data is the Gauss-Newton curvature shifted by ``rho``.
    Without hooks this is ``dsqp``: each block is linearized at its consensus
    block, with the dynamics defects as constraint offsets, and its new
    consensus block is its next linearization point. The per-block steps of
    the ALADIN variants:

    * ``local_solve(sub, y_i, lam)`` (``gn_aladin``) returns the block's exact
      local solution, its linearization point for this iteration, and the
      solve's evaluation there (None if it has none). Local solutions are
      feasible, so the QP takes homogeneous constraint rows, and the coupling
      metric is measured on them.
    * ``start(subs, y, lam, mu)`` (``sa_aladin``) returns the initial local
      pairs ``(x, mu)`` and the blocks' evaluations at ``x`` (None where it has
      none). ``advance(sub, x_i, mu_i, ev_i, y_new_i, lam_new, mu_hat_i)``
      returns the next local pair ``(x_i, mu_i)`` of a block; ``ev_i`` is its
      evaluation at ``x_i``, and ``(y_new_i, lam_new, mu_hat_i)`` the
      coordination output. An error in ``start`` is reported as iteration 0.

    ``info`` becomes the result's ``info``; the hooks may update it.
    """
    subs = split_instance(instance, partition)
    y, lam, mu = _initial_iterate(instance, partition, warm)
    # evals: the blocks' evaluations at x, carried from the last metrics
    x, evals = list(y), [None] * partition.N
    if start:
        try:
            x, mu, evals = start(subs, y, lam, mu)
        except SplitMheError as exc:
            _wrap_iteration_error(exc, cfg.algorithm, 0)
    records: list[ConvergenceRecord] = []
    status = "max_iter"

    for it in range(1, cfg.max_iter + 1):
        t_iter = time.perf_counter()
        try:
            t0 = time.perf_counter()
            if local_solve:
                solved = [local_solve(sub, y_i, lam) for sub, y_i in zip(subs, y)]
                x, evals = [s[0] for s in solved], [s[1] for s in solved]
            evals = [ev or BlockEvaluation.at(sub, x_i) for sub, x_i, ev in zip(subs, x, evals)]
            blocks = [
                _stage_block(sub, x_i, mu_i, ev, cfg.rho, not local_solve)
                for sub, x_i, mu_i, ev in zip(subs, x, mu, evals)
            ]
            local_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            sol = solve_coupled_qp(blocks)
            y_new = [x_i + dx for x_i, dx in zip(x, sol.delta_x)]
            qp_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            if advance:
                pairs = [
                    advance(sub, x_i, mu_i, ev, yn_i, sol.lam, mu_hat_i)
                    for sub, x_i, mu_i, ev, yn_i, mu_hat_i
                    in zip(subs, x, mu, evals, y_new, sol.mu)
                ]
                x_new, mu_new = [p[0] for p in pairs], [p[1] for p in pairs]
            else:
                x_new, mu_new = (x if local_solve else y_new), sol.mu
            local_s += time.perf_counter() - t0

            evals_new = [BlockEvaluation.at(sub, yn_i) for sub, yn_i in zip(subs, y_new)]
            primal, coupling, dynamics, stationarity = _iterate_metrics(
                subs, partition, y_new, y, sol.lam, sol.mu,
                coupling_blocks=x if local_solve else y_new, evals=evals_new,
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
        # a block whose next linearization point is its new consensus block
        # reuses the metrics evaluation there as its next QP data
        evals = [ev if x_i is yn_i else None for ev, x_i, yn_i in zip(evals_new, x_new, y_new)]
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

    def local_solve(sub: SubProblem, y: Array, lam: Array) -> tuple:
        res = solve_local_subproblem(sub, lam, y, cfg.rho)
        return res.x, res.evaluation

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
            return [b.copy() for b in warm.x_blocks], mu, [None] * len(subs)
        first = [solve_local_subproblem(sub, lam, y_i, cfg.rho) for sub, y_i in zip(subs, y)]
        return [r.x for r in first], [r.mu for r in first], [r.evaluation for r in first]

    def advance(sub, x, mu, ev, y_new, lam_new, mu_hat):
        drift = first_order_conditions(sub, x, mu, lam_new, y_new, cfg.rho, evaluation=ev)
        if not float(np.abs(drift).max()) <= _SA_SWITCH_TOL:  # NaN drift falls back too
            info["coordination_fallbacks"] += 1
            return y_new, mu_hat  # not a copy: the driver reuses its evaluation there
        # tangent move plus defect correction in one solve against the local
        # KKT matrix: the conditions are affine in (Y, lam)
        H = lagrangian_hessian(sub, x, mu, cfg.rho, "exact_lagrangian", (ev.b, ev.J))
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
