"""Benchmark harness: scenario generation, window solves, sweeps, and file I/O.

Scenario files, result files and the CSV logs write every float as its
``repr``, the shortest text that reads back to the same double, and JSON
files write non-finite values as ``NaN`` and ``Infinity``, which
``json.loads`` reads back. Identical seeds and configurations produce
byte-identical files apart from wall-clock columns.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    FactorizationError, OriginSingularityError, ScenarioError,
    check_count, check_real, check_shape,
)
from .model import gaussian_draws, robot_model, rollout, fd_check
from .problem import (
    MheInstance,
    build_partition,
    centralized_objective,
    coupling_residual,
    constraint_vector,
    lift_initial_guess,
    split_instance,
    sub_objective,
)
from .qp_core import dense_kkt_oracle, random_blocks, solve_coupled_qp
from .solvers import ConvergenceRecord, SolveResult, SolverConfig, solve

Array = np.ndarray

ROBOT_START = (0.1, 0.1, 0.0)
DEFAULT_HORIZON = 25
DEFAULT_SUB_WINDOWS = 4
# a scenario file: the "model" fields, then the arrays
_SCENARIO_MODEL = ("T", "sigma_r", "sigma_alpha", "seed")
_SCENARIO_ARRAYS = ("controls", "true_states", "measurements")

CONVERGENCE_HEADER = [
    "iter",
    "primal_step_inf",
    "coupling_inf",
    "dynamics_inf",
    "stationarity_inf",
    "dist_to_ref",
    "objective",
    "wall_ms",
]
ESTIMATES_HEADER = [
    "step",
    "phi",
    "psi",
    "theta",
    "true_phi",
    "true_psi",
    "true_theta",
    "err_inf",
    "iterations",
    "status",
]
SWEEP_HEADER = [
    "N",
    "iters_to_tol",
    "total_wall_ms",
    "mean_local_ms",
    "mean_qp_ms",
    "final_error",
    "status",
]

# the self-check's one seed, for its model samples, QP blocks and scenario
_SELF_CHECK_SEED = 7

# the failures a solve can meet on valid input; callers record or report them
NUMERICAL_ERRORS = (FactorizationError, OriginSingularityError)


@dataclass(eq=False)
class Scenario:
    """A simulated run of the benchmark robot with noisy measurements."""

    T: float
    sigma_r: float
    sigma_alpha: float
    seed: int
    controls: Array
    true_states: Array
    measurements: Array

    def __post_init__(self):
        check_real("sampling time", self.T, ScenarioError)
        check_real("noise magnitudes", self.sigma_r, ScenarioError, zero=True)
        check_real("noise magnitudes", self.sigma_alpha, ScenarioError, zero=True)
        check_count("seed", self.seed, 0, ScenarioError)
        for name in _SCENARIO_ARRAYS:
            try:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError) as exc:  # ragged or not numeric
                raise ScenarioError(f"{name} is not a numeric array: {exc}") from None
        schedule = self.controls.shape
        if len(schedule) != 2 or schedule[1] != 2:
            raise ScenarioError(f"control schedule must be (steps, 2), got {schedule}")
        k = schedule[0]
        for name, shape in zip(_SCENARIO_ARRAYS, (schedule, (k + 1, 3), (k + 1, 2))):
            value = getattr(self, name)
            check_shape(f"{name} for {k} steps", value, shape, ScenarioError)
            if not np.isfinite(value).all():
                raise ScenarioError(f"non-finite values in {name}")

    @property
    def steps(self) -> int:
        return len(self.controls)

    @property
    def measurement_variances(self) -> list[float] | None:
        """Diagonal of the measurement weight ``V``; None where ``V`` is the
        identity, which it is unless both noise levels are positive."""
        if self.sigma_r > 0 and self.sigma_alpha > 0:
            return [self.sigma_r ** 2, self.sigma_alpha ** 2]
        return None


@dataclass
class SweepRow:
    """One sub-window count of a benchmark sweep at a fixed iteration budget."""

    n_subwindows: int
    iters_to_tol: int | None
    total_wall_ms: float
    mean_local_ms: float
    mean_qp_ms: float
    final_error: float | None
    status: str


@dataclass(eq=False)
class WindowOutcome:
    """Result of one receding-horizon window (estimate row plus full result).

    ``error`` is ``"<error class>: <message>"`` of a window that failed
    numerically, and None otherwise.
    """

    window_end: int
    status: str
    iterations: int
    estimate: Array
    result: SolveResult | None
    error: str | None = None


def generate_scenario(
    steps: int = 60,
    control: tuple[float, float] | Array = (1.0, 0.4),
    sigma_r: float = 0.05,
    sigma_alpha: float = 0.01,
    seed: int = 0,
    T: float = 0.2,
    x0: tuple[float, float, float] | Array = ROBOT_START,
) -> Scenario:
    """Simulate the robot under a control schedule and add measurement noise.

    ``control`` may be a single ``(v, omega)`` pair, repeated over all steps,
    or a full ``(steps, 2)`` schedule. Noise draws come from the seeded stream
    of :func:`gaussian_draws` in time order (range, bearing), so the scenario
    is a pure function of its arguments.
    """
    check_count("steps", steps, 1, ScenarioError)
    check_count("seed", seed, 0, ScenarioError)
    check_real("sampling time", T, ScenarioError)
    model = robot_model(T=T)
    controls = np.array(control, dtype=float)
    if controls.ndim == 1:
        controls = np.tile(controls, (steps, 1))
    check_shape("control schedule", controls, (steps, 2), ScenarioError)
    if not np.isfinite(controls).all():
        raise ScenarioError("control schedule must be finite")

    states = rollout(model, np.asarray(x0, dtype=float), controls)
    try:
        clean = model.h(states)
    except OriginSingularityError as exc:
        raise ScenarioError(
            "true trajectory passes through the observation singularity at the origin; "
            "choose a different control schedule or start state"
        ) from exc
    noise = gaussian_draws(seed, 2 * (steps + 1)).reshape(steps + 1, 2)
    measurements = clean + noise * np.array([sigma_r, sigma_alpha])
    return Scenario(
        T=T,
        sigma_r=sigma_r,
        sigma_alpha=sigma_alpha,
        seed=seed,
        controls=controls,
        true_states=states,
        measurements=measurements,
    )


def window_instance(
    scenario: Scenario,
    window_end: int,
    horizon: int = DEFAULT_HORIZON,
    prior: Array | None = None,
    initial_guess: Array | None = None,
) -> MheInstance:
    """Assemble the estimation window ending at ``window_end``.

    Defaults follow the benchmark convention: the initial guess lifts the true
    positions with zeroed heading, the prior anchor is the guess's oldest
    state, the prior weight is the identity, and the measurement weight is
    ``diag(sigma_r^2, sigma_alpha^2)`` (see :attr:`Scenario.measurement_variances`).
    """
    check_count("horizon", horizon, 1, ScenarioError)
    check_count("window_end", window_end, horizon, ScenarioError)
    check_count("scenario steps", scenario.steps, window_end, ScenarioError)
    model = robot_model(T=scenario.T)
    lo = window_end - horizon
    if initial_guess is None:
        initial_guess = scenario.true_states[lo:window_end + 1].copy()
        initial_guess[:, 2] = 0.0
    if prior is None:
        prior = np.asarray(initial_guess, dtype=float)[0]
    variances = scenario.measurement_variances
    V = np.eye(2) if variances is None else np.diag(variances)
    return MheInstance(
        L=horizon,
        window_start=lo,
        measurements=scenario.measurements[lo:window_end + 1],
        controls=scenario.controls[lo:window_end],
        prior=prior,
        P=np.eye(3),
        V=V,
        initial_guess=initial_guess,
        model=model,
    )


def solve_window(
    scenario: Scenario,
    window_end: int,
    cfg: SolverConfig,
    n_subwindows: int = DEFAULT_SUB_WINDOWS,
    horizon: int = DEFAULT_HORIZON,
    prior: Array | None = None,
    initial_guess: Array | None = None,
    reference: Array | None = None,
) -> SolveResult:
    """Build the window instance and run the configured solver on it."""
    instance = window_instance(scenario, window_end, horizon, prior, initial_guess)
    partition = None
    if cfg.algorithm != "centralized":
        partition = build_partition(horizon, n_subwindows, instance.model.nx)
    return solve(instance, partition, cfg, reference=reference)


def run_receding_horizon(
    scenario: Scenario,
    cfg: SolverConfig,
    n_subwindows: int = DEFAULT_SUB_WINDOWS,
    horizon: int = DEFAULT_HORIZON,
) -> list[WindowOutcome]:
    """Slide the window over the scenario, warm-starting each solve.

    A window's primal guess is the previous solution shifted one step (with a
    forward-propagated tail state) and its prior anchor is the previous
    window's smoothed estimate of the state leaving the window. The first
    window, and a window after one that failed numerically, start cold; a
    failed window is recorded with its error.
    """
    check_count("horizon", horizon, 1, ScenarioError)
    check_count("scenario steps", scenario.steps, horizon, ScenarioError)
    model = robot_model(T=scenario.T)
    outcomes: list[WindowOutcome] = []
    for l in range(horizon, scenario.steps + 1):
        guess = prior = None
        if outcomes and outcomes[-1].result is not None:
            X = outcomes[-1].result.trajectory
            guess = np.vstack([X[1:], model.f(X[-1], scenario.controls[l - 1])])
            prior = X[1].copy()
        try:
            result = solve_window(
                scenario, l, cfg, n_subwindows, horizon, prior=prior, initial_guess=guess
            )
            outcome = WindowOutcome(
                window_end=l, status=result.status, iterations=result.iterations,
                estimate=result.trajectory[-1].copy(), result=result,
            )
        except NUMERICAL_ERRORS as exc:
            outcome = WindowOutcome(
                window_end=l, status="error", iterations=0,
                estimate=np.full(model.nx, np.nan), result=None,
                error=f"{type(exc).__name__}: {exc}",
            )
        outcomes.append(outcome)
    return outcomes


def sweep_subwindows(
    scenario: Scenario,
    window_end: int,
    n_values: list[int],
    cfg: SolverConfig,
    iters: int = 50,
    horizon: int = DEFAULT_HORIZON,
) -> list[SweepRow]:
    """Run a fixed iteration budget for each sub-window count.

    Every run goes the full ``iters`` iterations (the convergence test is
    disabled); ``iters_to_tol`` reports the first iteration whose distance to
    the converged centralized baseline reaches ``cfg.tol``, and the timing
    columns report wall-clock means that are machine-dependent by nature.
    Raises ``ValueError`` unless ``iters >= 1`` and ``n_values`` is nonempty.
    """
    check_count("iters", iters, 1)
    if not n_values:
        raise ValueError("sweep needs at least one sub-window count")
    baseline_cfg = SolverConfig(
        algorithm="centralized", tol=min(cfg.tol, 1e-10), max_iter=200
    )
    reference = solve_window(scenario, window_end, baseline_cfg, horizon=horizon).trajectory

    run_cfg = replace(cfg, tol=0.0, max_iter=iters)
    rows: list[SweepRow] = []
    for n in n_values:
        t0 = time.perf_counter()
        try:
            result = solve_window(
                scenario, window_end, run_cfg, n, horizon, reference=reference
            )
        except NUMERICAL_ERRORS:
            result = None
        total_ms = 1e3 * (time.perf_counter() - t0)
        if result is None:
            row = SweepRow(
                n_subwindows=n, iters_to_tol=None, total_wall_ms=total_ms,
                mean_local_ms=float("nan"), mean_qp_ms=float("nan"), final_error=None,
                status="error",
            )
        else:
            reached = [
                rec.iteration
                for rec in result.records
                if rec.dist_to_ref is not None and rec.dist_to_ref <= cfg.tol
            ]
            row = SweepRow(
                n_subwindows=n,
                iters_to_tol=min(reached) if reached else None,
                total_wall_ms=total_ms,
                mean_local_ms=float(np.mean([rec.local_ms for rec in result.records])),
                mean_qp_ms=float(np.mean([rec.qp_ms for rec in result.records])),
                final_error=result.records[-1].dist_to_ref,
                status=result.status,
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# file emission: JSON and CSV writers plus matching readers
# ---------------------------------------------------------------------------


def _plain(value):
    """The Python value of a numpy array or scalar, for ``json.dumps``."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_json(payload: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, default=_plain) + "\n")
    return path


def _write_csv(header: list[str], rows: list[list], path: str | Path) -> Path:
    """``csv`` writes ``None`` as an empty cell and a float as its ``repr``."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _read_csv(path: str | Path, ints: tuple[str, ...], strs: tuple[str, ...]) -> list[dict]:
    """The rows of a CSV log: an empty cell reads as None, the columns ``ints``
    and ``strs`` as int and str, and every other column as float."""

    def cell(key: str, value: str):
        if value == "":
            return None
        return int(value) if key in ints else value if key in strs else float(value)

    with Path(path).open(newline="") as fh:
        return [{k: cell(k, v) for k, v in row.items()} for row in csv.DictReader(fh)]


def write_scenario(scenario: Scenario, path: str | Path) -> Path:
    payload = {
        "model": {name: getattr(scenario, name) for name in _SCENARIO_MODEL},
        **{name: getattr(scenario, name) for name in _SCENARIO_ARRAYS},
    }
    return _write_json(payload, path)


def load_scenario(path: str | Path) -> Scenario:
    try:
        payload = json.loads(Path(path).read_text())
        return Scenario(
            **{name: payload["model"][name] for name in _SCENARIO_MODEL},
            **{name: payload[name] for name in _SCENARIO_ARRAYS},
        )
    except (KeyError, ValueError, TypeError, json.JSONDecodeError, ScenarioError) as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc


def write_result(result: SolveResult, config_echo: dict, path: str | Path) -> Path:
    payload = {
        "config": config_echo,
        "status": result.status,
        "trajectory": result.trajectory,
        "objective": result.objective,
        "iterations": result.iterations,
        "final_metrics": result.final_metrics,
    }
    return _write_json(payload, path)


def load_result(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    payload["trajectory"] = np.asarray(payload["trajectory"], dtype=float)
    return payload


def write_convergence_csv(records: list[ConvergenceRecord], path: str | Path) -> Path:
    # the header names the first eight fields, in field order
    rows = [astuple(rec)[:len(CONVERGENCE_HEADER)] for rec in records]
    return _write_csv(CONVERGENCE_HEADER, rows, path)


def read_convergence_csv(path: str | Path) -> list[dict]:
    return _read_csv(path, ("iter",), ())


def write_estimates_csv(
    scenario: Scenario, outcomes: list[WindowOutcome], path: str | Path
) -> Path:
    rows = []
    for oc in outcomes:
        truth = scenario.true_states[oc.window_end]
        err = float(np.abs(oc.estimate - truth).max()) if np.isfinite(oc.estimate).all() else None
        rows.append([oc.window_end, *oc.estimate, *truth, err, oc.iterations, oc.status])
    return _write_csv(ESTIMATES_HEADER, rows, path)


def read_estimates_csv(path: str | Path) -> list[dict]:
    return _read_csv(path, ("step", "iterations"), ("status",))


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> Path:
    return _write_csv(SWEEP_HEADER, [astuple(row) for row in rows], path)


def read_sweep_csv(path: str | Path) -> list[dict]:
    return _read_csv(path, ("N", "iters_to_tol"), ("status",))


# ---------------------------------------------------------------------------
# self-check used by the `check` CLI subcommand
# ---------------------------------------------------------------------------


def run_self_check() -> list[tuple[str, bool, str]]:
    """Fast internal consistency suite: derivative checks, QP oracle agreement,
    and split/centralized identities. Returns (name, passed, detail) items."""
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.Generator(np.random.PCG64(_SELF_CHECK_SEED))

    worst = fd_check(robot_model(), num_points=50, seed=_SELF_CHECK_SEED)
    checks.append(
        ("model-derivatives", worst <= 1e-6, f"max relative error {worst:.3e} (limit 1e-6)")
    )

    worst_qp = 0.0
    for k in range(20):
        r = int(rng.integers(0, 4)) * 3
        blocks = random_blocks(rng, n_blocks=int(rng.integers(2, 5)), r=r)
        fast = solve_coupled_qp(blocks)
        oracle = dense_kkt_oracle(blocks)
        scale = 1.0 + max(np.abs(np.concatenate(oracle.delta_x)).max(), 1.0)
        pairs = zip(
            [fast.lam, *fast.mu, *fast.delta_x], [oracle.lam, *oracle.mu, *oracle.delta_x]
        )
        err = np.abs(np.concatenate([a - b for a, b in pairs])).max()
        worst_qp = max(worst_qp, err / scale)
    checks.append(
        ("qp-oracle", worst_qp <= 1e-9, f"max relative deviation {worst_qp:.3e} (limit 1e-9)")
    )

    scenario = generate_scenario(steps=12, seed=_SELF_CHECK_SEED)
    instance = window_instance(scenario, 12, horizon=12)
    partition = build_partition(12, 3, 3)
    subs = split_instance(instance, partition)
    traj = instance.initial_guess + 0.05 * rng.standard_normal(instance.initial_guess.shape)
    blocks = lift_initial_guess(traj, partition)
    total = sum(sub_objective(sub, blk) for sub, blk in zip(subs, blocks))
    central = centralized_objective(instance, traj)
    obj_err = abs(total - central) / (1.0 + abs(central))
    split_f = np.concatenate([constraint_vector(sub, blk) for sub, blk in zip(subs, blocks)])
    central_f = (traj[1:] - instance.model.f(traj[:-1], instance.controls)).reshape(-1)
    con_err = float(np.abs(split_f - central_f).max())
    coupling = float(np.abs(coupling_residual(partition, blocks)).max())
    ok = obj_err <= 1e-12 and con_err <= 1e-12 and coupling <= 1e-12
    checks.append(
        (
            "split-identities",
            ok,
            f"objective {obj_err:.3e}, constraints {con_err:.3e}, coupling {coupling:.3e} "
            "(limits 1e-12)",
        )
    )
    return checks
