"""Benchmark harness: scenario generation, window solves, sweeps, and file I/O.

Scenario files, result files and the CSV logs are written with fixed float
formatting (17 significant digits), so identical seeds and configurations
produce byte-identical files apart from wall-clock columns.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FactorizationError, LocalSolveError, OriginSingularityError, ScenarioError
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

# the failures a solve can meet on valid input; callers record or report them
NUMERICAL_ERRORS = (FactorizationError, LocalSolveError, OriginSingularityError)


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

    @property
    def steps(self) -> int:
        return len(self.controls)


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
    if steps < 1:
        raise ScenarioError(f"need at least one step, got {steps}")
    if not (0 <= sigma_r < np.inf and 0 <= sigma_alpha < np.inf):
        raise ScenarioError("noise magnitudes must be nonnegative and finite")
    model = robot_model(T=T)
    control = np.asarray(control, dtype=float)
    if control.ndim == 1:
        controls = np.tile(control, (steps, 1))
    else:
        controls = control.copy()
    if controls.shape != (steps, 2):
        raise ScenarioError(f"control schedule must be (steps, 2), got {controls.shape}")
    if not np.isfinite(controls).all():
        raise ScenarioError("control schedule must be finite")

    states = rollout(model, np.asarray(x0, dtype=float), controls)
    range_sq = states[:, 0] ** 2 + states[:, 1] ** 2
    if range_sq.min() < 1e-12:
        raise ScenarioError(
            "true trajectory passes through the observation singularity at the origin; "
            "choose a different control schedule or start state"
        )

    noise = gaussian_draws(seed, 2 * (steps + 1)).reshape(steps + 1, 2)
    noise = noise * np.array([sigma_r, sigma_alpha])
    measurements = model.h(states) + noise
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
    ``diag(sigma_r^2, sigma_alpha^2)`` (identity when a noise level is zero).
    """
    if window_end < horizon or window_end > scenario.steps:
        raise ScenarioError(
            f"window end must satisfy {horizon} <= l <= {scenario.steps}, got {window_end}"
        )
    model = robot_model(T=scenario.T)
    lo = window_end - horizon
    if initial_guess is None:
        initial_guess = scenario.true_states[lo:window_end + 1].copy()
        initial_guess[:, 2] = 0.0
    if prior is None:
        prior = np.asarray(initial_guess, dtype=float)[0]
    if scenario.sigma_r > 0 and scenario.sigma_alpha > 0:
        V = np.diag([scenario.sigma_r ** 2, scenario.sigma_alpha ** 2])
    else:
        V = np.eye(2)
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
    n_subwindows: int = 4,
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
    n_subwindows: int = 4,
    horizon: int = DEFAULT_HORIZON,
) -> list[WindowOutcome]:
    """Slide the window over the scenario, warm-starting each solve.

    The next window's primal guess is the previous solution shifted one step
    (with a forward-propagated tail state) and its prior anchor is the previous
    window's smoothed estimate of the state leaving the window. Windows that
    fail numerically are recorded with their error and the loop restarts cold.
    """
    if scenario.steps < horizon:
        raise ScenarioError(
            f"scenario has {scenario.steps} steps, need at least {horizon}"
        )
    model = robot_model(T=scenario.T)
    outcomes: list[WindowOutcome] = []
    guess: Array | None = None
    prior: Array | None = None
    for l in range(horizon, scenario.steps + 1):
        try:
            result = solve_window(
                scenario, l, cfg, n_subwindows, horizon, prior=prior, initial_guess=guess
            )
        except NUMERICAL_ERRORS as exc:
            outcomes.append(
                WindowOutcome(
                    window_end=l,
                    status="error",
                    iterations=0,
                    estimate=np.full(model.nx, np.nan),
                    result=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            guess = None
            prior = None
            continue
        outcomes.append(
            WindowOutcome(
                window_end=l,
                status=result.status,
                iterations=result.iterations,
                estimate=result.trajectory[-1].copy(),
                result=result,
            )
        )
        if l < scenario.steps:
            tail = model.f(result.trajectory[-1], scenario.controls[l])
            guess = np.vstack([result.trajectory[1:], tail])
            prior = result.trajectory[1].copy()
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
    if iters < 1:
        raise ValueError(f"sweep needs at least one iteration, got iters={iters}")
    if not n_values:
        raise ValueError("sweep needs at least one sub-window count")
    baseline_cfg = SolverConfig(
        algorithm="centralized", tol=min(cfg.tol, 1e-10), max_iter=200
    )
    reference = solve_window(scenario, window_end, baseline_cfg, horizon=horizon).trajectory

    rows: list[SweepRow] = []
    for n in n_values:
        run_cfg = replace(cfg, tol=0.0, max_iter=iters)
        t0 = time.perf_counter()
        try:
            result = solve_window(
                scenario, window_end, run_cfg, n, horizon, reference=reference
            )
        except NUMERICAL_ERRORS:
            rows.append(
                SweepRow(
                    n_subwindows=n,
                    iters_to_tol=None,
                    total_wall_ms=1e3 * (time.perf_counter() - t0),
                    mean_local_ms=float("nan"),
                    mean_qp_ms=float("nan"),
                    final_error=None,
                    status="error",
                )
            )
            continue
        total_ms = 1e3 * (time.perf_counter() - t0)
        reached = [
            rec.iteration
            for rec in result.records
            if rec.dist_to_ref is not None and rec.dist_to_ref <= cfg.tol
        ]
        rows.append(
            SweepRow(
                n_subwindows=n,
                iters_to_tol=min(reached) if reached else None,
                total_wall_ms=total_ms,
                mean_local_ms=float(np.mean([rec.local_ms for rec in result.records])),
                mean_qp_ms=float(np.mean([rec.qp_ms for rec in result.records])),
                final_error=result.records[-1].dist_to_ref,
                status=result.status,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# file emission: fixed-format JSON and CSV writers plus matching readers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_json(payload: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(_fmt(payload) + "\n")
    return path


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(header: list[str], rows: list[list], path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])
    return path


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "model": {
            "T": scenario.T,
            "sigma_r": scenario.sigma_r,
            "sigma_alpha": scenario.sigma_alpha,
            "seed": scenario.seed,
        },
        "controls": scenario.controls,
        "true_states": scenario.true_states,
        "measurements": scenario.measurements,
    }


def write_scenario(scenario: Scenario, path: str | Path) -> Path:
    return _write_json(scenario_to_dict(scenario), path)


def load_scenario(path: str | Path) -> Scenario:
    try:
        payload = json.loads(Path(path).read_text())
        model = payload["model"]
        scenario = Scenario(
            T=float(model["T"]),
            sigma_r=float(model["sigma_r"]),
            sigma_alpha=float(model["sigma_alpha"]),
            seed=int(model["seed"]),
            controls=np.asarray(payload["controls"], dtype=float),
            true_states=np.asarray(payload["true_states"], dtype=float),
            measurements=np.asarray(payload["measurements"], dtype=float),
        )
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc
    if scenario.true_states.shape != (scenario.steps + 1, 3):
        raise ScenarioError(f"inconsistent scenario arrays in {path}")
    if scenario.measurements.shape != (scenario.steps + 1, 2):
        raise ScenarioError(f"inconsistent scenario arrays in {path}")
    values = (scenario.T, scenario.sigma_r, scenario.sigma_alpha)
    arrays = (scenario.controls, scenario.true_states, scenario.measurements)
    if not (np.isfinite(values).all() and all(np.isfinite(a).all() for a in arrays)):
        raise ScenarioError(f"non-finite values in scenario file {path}")
    return scenario


def result_to_dict(result: SolveResult, config_echo: dict) -> dict:
    return {
        "config": config_echo,
        "status": result.status,
        "trajectory": result.trajectory,
        "objective": result.objective,
        "iterations": result.iterations,
        "final_metrics": result.final_metrics,
    }


def write_result(result: SolveResult, config_echo: dict, path: str | Path) -> Path:
    return _write_json(result_to_dict(result, config_echo), path)


def load_result(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    payload["trajectory"] = np.asarray(payload["trajectory"], dtype=float)
    return payload


def write_convergence_csv(records: list[ConvergenceRecord], path: str | Path) -> Path:
    rows = [
        [
            rec.iteration,
            rec.primal_step_inf,
            rec.coupling_inf,
            rec.dynamics_inf,
            rec.stationarity_inf,
            rec.dist_to_ref,
            rec.objective,
            rec.wall_ms,
        ]
        for rec in records
    ]
    return _write_csv(CONVERGENCE_HEADER, rows, path)


def read_convergence_csv(path: str | Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            rec = {k: (None if v == "" else v) for k, v in row.items()}
            rec["iter"] = int(rec["iter"])
            for key in CONVERGENCE_HEADER[1:]:
                if rec[key] is not None:
                    rec[key] = float(rec[key])
            out.append(rec)
    return out


def write_estimates_csv(
    scenario: Scenario, outcomes: list[WindowOutcome], path: str | Path
) -> Path:
    rows = []
    for oc in outcomes:
        truth = scenario.true_states[oc.window_end]
        err = (
            float(np.abs(oc.estimate - truth).max())
            if np.all(np.isfinite(oc.estimate))
            else None
        )
        rows.append(
            [
                oc.window_end,
                oc.estimate[0],
                oc.estimate[1],
                oc.estimate[2],
                truth[0],
                truth[1],
                truth[2],
                err,
                oc.iterations,
                oc.status,
            ]
        )
    return _write_csv(ESTIMATES_HEADER, rows, path)


def read_estimates_csv(path: str | Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            rec = dict(row)
            rec["step"] = int(rec["step"])
            rec["iterations"] = int(rec["iterations"])
            for key in ("phi", "psi", "theta", "true_phi", "true_psi", "true_theta", "err_inf"):
                rec[key] = float(rec[key]) if rec[key] != "" else None
            out.append(rec)
    return out


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> Path:
    table = [
        [
            row.n_subwindows,
            row.iters_to_tol,
            row.total_wall_ms,
            row.mean_local_ms,
            row.mean_qp_ms,
            row.final_error,
            row.status,
        ]
        for row in rows
    ]
    return _write_csv(SWEEP_HEADER, table, path)


def read_sweep_csv(path: str | Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            rec = dict(row)
            rec["N"] = int(rec["N"])
            rec["iters_to_tol"] = int(rec["iters_to_tol"]) if rec["iters_to_tol"] != "" else None
            for key in ("total_wall_ms", "mean_local_ms", "mean_qp_ms", "final_error"):
                rec[key] = float(rec[key]) if rec[key] != "" else None
            out.append(rec)
    return out


# ---------------------------------------------------------------------------
# self-check used by the `check` CLI subcommand
# ---------------------------------------------------------------------------


def run_self_check(seed: int = 7) -> list[tuple[str, bool, str]]:
    """Fast internal consistency suite: derivative checks, QP oracle agreement,
    and split/centralized identities. Returns (name, passed, detail) items."""
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.Generator(np.random.PCG64(seed))

    worst = fd_check(robot_model(), num_points=50, seed=seed)
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
        err = max(
            np.abs(fast.lam - oracle.lam).max() if r else 0.0,
            max(
                np.abs(a - b).max() if a.size else 0.0
                for a, b in zip(fast.mu, oracle.mu)
            ),
            max(np.abs(a - b).max() for a, b in zip(fast.delta_x, oracle.delta_x)),
        )
        worst_qp = max(worst_qp, err / scale)
    checks.append(
        ("qp-oracle", worst_qp <= 1e-9, f"max relative deviation {worst_qp:.3e} (limit 1e-9)")
    )

    scenario = generate_scenario(steps=12, seed=seed)
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
