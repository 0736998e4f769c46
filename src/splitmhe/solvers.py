"""Outer solvers: three splitting algorithms and the centralized baseline.

All four run through one driver, :func:`_drive`. It holds the lifted iterate
of all sub-windows as one stack of ``L + N`` states (see
:class:`~splitmhe.problem.LiftedLayout`). Per iteration it evaluates the whole
stack once at its linearization point, assembles the stage-form coordination
QP from that evaluation, with Gauss-Newton Hessians shifted by ``rho``, solves
it in closed form as one :class:`~splitmhe.qp_core.StageStack`, takes the
consensus update, and records the metrics of a :class:`ConvergenceRecord`.
Wherever the new consensus iterate is the next linearization point, its
metrics evaluation and link band double as the next iteration's QP data.
Each of these steps is a fixed number of array calls, whatever the number of
sub-windows, so runs are deterministic.

The algorithms differ only in a local step around the coordination, taken
for all blocks at once on the stack:

* ``gn_aladin``  -- before the QP, an exact local solve of every block, all
  in lockstep from the consensus iterate, whose first round takes the last
  metrics evaluation; the QP data come from the local solve's last round.
* ``sa_aladin``  -- after the QP, each local pair is continued to the new
  parameters by a tangent predictor-corrector wherever the continuation is
  trustworthy, and pinned to the coordination output elsewhere.
* ``dsqp``       -- none: the QP data are taken at the consensus iterate, so
  each iteration is one full-space SQP step expressed block-wise.
* ``centralized`` -- ``dsqp`` on the degenerate single-window partition; used
  as the reference oracle for the distributed runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SplitMheError, check_count, check_real, check_shape
from .local_nlp import hessian_blocks, predictor_corrector, solve_local_subproblem
from .problem import (
    LiftedLayout,
    MheInstance,
    SubProblem,
    build_partition,
    centralized_objective,
    coupling_residual,
    evaluate_stack,
    extract_trajectory,
    lift,
    subproblem,
)
from .qp_core import StageStack, link_band, link_transpose, solve_coupled_qp

Array = np.ndarray

ALGORITHMS = ("gn_aladin", "sa_aladin", "dsqp", "centralized")

_DEFAULT_RHO = {"gn_aladin": 25.0, "sa_aladin": 1e3, "dsqp": 1e3, "centralized": 1e3}

# stationarity drift below which sa_aladin trusts its predictor-corrector
_SA_SWITCH_TOL = 1e-5

# the termination metrics of a ConvergenceRecord, in result.json order
_METRICS = ("primal_step_inf", "coupling_inf", "dynamics_inf", "stationarity_inf")
_ZERO = np.zeros(1)


@dataclass
class SolverConfig:
    """Algorithm selection and outer-loop parameters.

    ``rho`` defaults per algorithm (25 for ``gn_aladin``, 1e3 otherwise). Every
    algorithm coordinates with Gauss-Newton Hessians shifted by ``rho``. Only the
    QP's reduced Hessian must be positive definite, and for Gauss-Newton blocks
    the prior makes it at least ``P^-1``, so ``dsqp`` and ``centralized`` take
    ``rho = 0``, plain Gauss-Newton; the ALADIN variants, whose local problems
    are proximal, need ``rho > 0``. ``rho`` and ``tol`` must be finite.
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
        check_real("rho", self.rho, zero=self.algorithm in ("dsqp", "centralized"))
        check_real("tol", self.tol, zero=True)
        check_count("max_iter", self.max_iter, 0)


@dataclass(eq=False)
class IterateState:
    """The lifted stacks of one outer iterate: local states ``x_blocks`` and
    consensus states ``y_blocks``, both ``(L + N, nx)``, the coupling price
    ``lam`` ``(r,)`` and the stage multipliers ``mu_blocks`` ``(L, nx)``.
    ``x_blocks`` is where the next iteration's local step starts: the advanced
    local pairs for ``sa_aladin``, the consensus iterate otherwise. A warm
    start takes these arrays only: a field of another shape, or no array,
    raises :class:`~splitmhe.errors.DimensionMismatchError` naming it."""

    x_blocks: Array
    y_blocks: Array
    lam: Array
    mu_blocks: Array


@dataclass(eq=False)
class ConvergenceRecord:
    """Per-iteration progress metrics; norms are infinity norms. ``coupling_inf``
    is the consensus violation at the QP's linearization point, its ``anchor``:
    the local solutions for the ALADIN variants, the consensus iterate before
    the step for ``dsqp`` and ``centralized``. ``dynamics_inf``,
    ``stationarity_inf`` and ``objective``, ``0.5 ‖b‖²`` of the whole-window
    residual vector ``b``, are read from one stack evaluation at the new
    consensus iterate.

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
    """Converged iff every metric is at or below the outer tolerance; a NaN
    metric never is."""
    r, t = record, cfg.tol
    return r.primal_step_inf <= t >= r.coupling_inf and r.dynamics_inf <= t >= r.stationarity_inf


def _initial_iterate(
    instance: MheInstance, partition: LiftedLayout, warm: IterateState | None
) -> tuple[Array | None, Array, Array, Array]:
    """The fields of :class:`IterateState` (``x_blocks`` None on a cold start)."""
    _, states, _, stages, r = partition.shapes
    if warm is None:
        return None, lift(instance.initial_guess, partition), np.zeros(r), np.zeros(stages)
    shapes = dict(x_blocks=states, y_blocks=states, lam=r, mu_blocks=stages)
    for name, shape in shapes.items():
        check_shape(name, getattr(warm, name), shape)
    return tuple(np.asarray(getattr(warm, name), dtype=float) for name in shapes)


def _wrap_iteration_error(exc: SplitMheError, algorithm: str, iteration: int):
    """Re-raise with the iteration in the message; context such as the failing
    block's index carries over, and ``iteration`` is added to it."""
    wrapped = type(exc)(f"{algorithm} iteration {iteration}: {exc}")
    wrapped.__dict__.update(exc.__dict__)
    wrapped.iteration = iteration
    raise wrapped from exc


def _record(it, step, anchor, ev, stat, dist, t_iter, local_s, qp_s) -> ConvergenceRecord:
    """Iteration ``it``'s record from the consensus ``step``, the QP ``anchor``, and ``ev`` and
    ``stat`` at the new consensus iterate. The norms are one reduction over ``(step, F, stat,
    anchor, 0)``: the zero reads the anchor of one sub-window, empty, as 0; a NaN stays NaN."""
    s, f = step.size, ev.F.size
    parts = np.abs(np.concatenate((step.ravel(), ev.F.ravel(), stat, anchor, _ZERO)))
    starts = (0, s, s + f, 2 * s + f)  # the stationarity has the step's size
    primal, dynamics, stationarity, coupling = np.maximum.reduceat(parts, starts).tolist()
    return ConvergenceRecord(
        it, primal, coupling, dynamics, stationarity, dist, 0.5 * float(ev.b.dot(ev.b)),
        1e3 * (time.perf_counter() - t_iter), 1e3 * local_s, 1e3 * qp_s,
    )


def _drive(
    instance: MheInstance,
    partition: LiftedLayout,
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

    The QP data of every algorithm come from the linearization point ``x``
    and the stack's evaluation there: Gauss-Newton curvature shifted by
    ``rho``, with the dynamics defects as constraint offsets. Without hooks
    this is ``dsqp``: every block is linearized at its consensus block, and
    its new consensus block is its next linearization point. The ALADIN local
    steps take ``run``, the :class:`SubProblem` of all sub-windows, and
    stacks; an evaluation they take or return is the run's at ``x``, or None:

    * ``local_solve(run, y, lam, ev)`` (``gn_aladin``) starts at ``y``, where
      ``ev`` is evaluated, and returns the local solutions ``x``, this
      iteration's linearization point, and an evaluation.
    * ``start(run, x, y, lam, mu)`` (``sa_aladin``) returns the initial local
      pairs ``(x, mu)`` and an evaluation, where ``x`` is the warm start's
      local states or None; an error in it is reported as iteration 0.
      ``advance(run, x, mu, ev, y_new, lam_new, mu_hat)`` returns the next
      pairs from the coordination output; only where it returns ``y_new``
      itself is the metrics evaluation at ``y_new`` reused.

    ``info`` becomes the result's ``info``; the hooks may update it. A
    ``reference`` trajectory ``(L + 1, nx)``, checked before the first
    iteration, gives each record's ``dist_to_ref``.
    """
    run = subproblem(instance, partition, range(partition.N))
    if reference is not None:
        check_shape("reference", reference, (partition.L + 1, partition.nx))
    x_warm, y, lam, mu = _initial_iterate(instance, partition, warm)
    # ev: the stack's evaluation at x, carried from the last metrics; band: band_ev's link band
    x, ev, band_ev, band = y, None, None, None
    if start:
        try:
            x, mu, ev = start(run, x_warm, y, lam, mu)
        except SplitMheError as exc:
            _wrap_iteration_error(exc, cfg.algorithm, 0)
    records: list[ConvergenceRecord] = []
    status = "max_iter"

    for it in range(1, cfg.max_iter + 1):
        # three clock reads time the three phases: local, QP and the metrics in _record
        t_iter = time.perf_counter()
        try:
            if local_solve:
                x, ev = local_solve(run, y, lam, ev)
            if ev is None:
                ev = evaluate_stack(run, x)
            stack = StageStack(
                layout=partition, H=hessian_blocks(run, x, None, cfg.rho, ev, False),
                g=ev.g, D=ev.D, d=ev.F, anchor=coupling_residual(partition, x),
                band=band if band_ev is ev else None,
            )
            t_qp = time.perf_counter()
            local_s = t_qp - t_iter
            sol = solve_coupled_qp(stack)
            y_new = x + sol.delta_x
            t_step = time.perf_counter()

            x_new, mu_new = y_new, sol.mu
            if advance:
                x_new, mu_new = advance(run, x, mu, ev, y_new, sol.lam, sol.mu)
                local_s += time.perf_counter() - t_step

            ev_new = evaluate_stack(run, y_new)
            band_ev, band = ev_new, link_band(partition, ev_new.D, True)
            stat = ev_new.g.ravel() + link_transpose(band, sol.nu)
            dist = None
            if reference is not None:  # the QP enforces the coupling rows: both copies agree
                dist = float(np.abs(y_new.take(partition.measured, 0) - reference).max())
        except SplitMheError as exc:
            _wrap_iteration_error(exc, cfg.algorithm, it)
        records.append(_record(
            it, y_new - y, stack.anchor, ev_new, stat, dist, t_iter, local_s, t_step - t_qp
        ))
        # where the next x is y_new itself, the next iteration reuses its metrics evaluation
        ev = ev_new if x_new is y_new else None
        x, mu, y, lam = x_new, mu_new, y_new, sol.lam
        if termination_check(records[-1], cfg):
            status = "converged"
            break

    trajectory, mismatch = extract_trajectory(y, partition)
    final_metrics = {}
    if records:
        last = records[-1]
        final_metrics = {name: getattr(last, name) for name in _METRICS}
        if last.dist_to_ref is not None:
            final_metrics["dist_to_ref"] = last.dist_to_ref
    final_metrics["boundary_mismatch"] = mismatch
    return SolveResult(
        trajectory=trajectory,
        objective=centralized_objective(instance, trajectory),
        records=records,
        status=status,
        final_metrics=final_metrics,
        final_state=IterateState(x.copy(), y.copy(), lam.copy(), mu.copy()),
        info={} if info is None else info,
    )


def _checked(cfg: SolverConfig | None, algorithm: str) -> SolverConfig:
    cfg = cfg or SolverConfig(algorithm=algorithm)
    if cfg.algorithm != algorithm:
        raise ValueError(f"config selects {cfg.algorithm!r}, expected {algorithm!r}")
    return cfg


def run_gauss_newton_aladin(
    instance: MheInstance,
    partition: LiftedLayout,
    cfg: SolverConfig | None = None,
    warm: IterateState | None = None,
    reference: Array | None = None,
) -> SolveResult:
    """Splitting solver with exact local solves and Gauss-Newton coordination.

    Per iteration: solve every augmented sub-problem exactly in parallel from
    the consensus iterate, linearize at the local solutions (gradients,
    dynamics defects and Gauss-Newton Hessians shifted by ``rho``), coordinate
    through the closed-form coupled QP, and take the full consensus update.
    The local solves run with the default :class:`LocalSolveConfig`;
    ``info["unconverged_local_solves"]`` counts the iterations whose local
    solve stopped unconverged.
    """
    cfg = _checked(cfg, "gn_aladin")
    info = {"unconverged_local_solves": 0}

    def local_solve(run: SubProblem, y: Array, lam: Array, ev):
        res = solve_local_subproblem(run, lam, y, cfg.rho, evaluation=ev)
        info["unconverged_local_solves"] += not res.converged
        return res.x.reshape(y.shape), res.evaluation

    return _drive(instance, partition, cfg, warm, reference, info, local_solve=local_solve)


def run_distributed_sqp(
    instance: MheInstance,
    partition: LiftedLayout,
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
    partition: LiftedLayout,
    cfg: SolverConfig | None = None,
    warm: IterateState | None = None,
    reference: Array | None = None,
) -> SolveResult:
    """Splitting solver with tangent-predictor local updates.

    Per iteration: evaluate gradients, Hessians, constraint values and
    Jacobians at the current local solution pairs; coordinate through the
    offset form of the coupled QP; then continue the local pairs to the new
    parameters ``(Y, lam)`` by :func:`~splitmhe.local_nlp.predictor_corrector`
    on the blocks whose drift is at most ``1e-5``, and fall back to the
    coordination output on the others. A cold start solves its initial local
    pairs exactly at the initial parameters before the first coordination,
    with the default :class:`LocalSolveConfig`, and
    ``info["unconverged_local_solves"]`` is 1 if that solve stopped
    unconverged; a warm start takes them from ``warm``.
    """
    cfg = _checked(cfg, "sa_aladin")
    info = {"predictor_updates": 0, "coordination_fallbacks": 0, "unconverged_local_solves": 0}

    def start(run, x, y, lam, mu):
        if x is not None:
            return x, mu, None
        first = solve_local_subproblem(run, lam, y, cfg.rho)
        info["unconverged_local_solves"] += not first.converged
        return first.x.reshape(y.shape), first.mu.reshape(mu.shape), first.evaluation

    def advance(run, x, mu, ev, y_new, lam_new, mu_hat):
        x_new, mu_new, trusted = predictor_corrector(
            run, x, mu, lam_new, y_new, cfg.rho, ev, _SA_SWITCH_TOL
        )
        info["predictor_updates"] += int(trusted.sum())
        info["coordination_fallbacks"] += int((~trusted).sum())
        if not trusted.any():
            return y_new, mu_hat
        lay = run.layout
        return (
            np.where(trusted[lay.state_block][:, None], x_new, y_new),
            np.where(trusted[lay.stage_block][:, None], mu_new, mu_hat),
        )

    return _drive(
        instance, partition, cfg, warm, reference, info, start=start, advance=advance
    )


def solve(
    instance: MheInstance,
    partition: LiftedLayout | None,
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
