"""splitmhe benchmark: receding-horizon window latency and long-window iteration cost.

Usage (from the repository root)::

    python3 bench/run.py --workload rh-dsqp [--seed 0] [--seconds 16] [--trace 0|1]

The package is imported from ``src/`` next to this directory and driven only
through its public API. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` it holds
the end-to-end metrics of untraced runs, with ``--trace 1`` the per-layer
metrics of a traced run. The lines before it print every metric by name with
its unit, plus the machine the numbers come from. See ``bench/README.md`` for
the definitions, the workloads and the predictions each metric carries.

The BLAS thread count is inherited from the environment and never set here.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

RH_WORKLOADS = {"rh-dsqp": "dsqp", "rh-sa": "sa_aladin"}
LONG_WORKLOADS = {"long-n1": 1, "long-n4": 4, "long-n66": 66}
WORKLOADS = tuple(RH_WORKLOADS) + tuple(LONG_WORKLOADS)

RH_STEPS = 60
RH_SUBWINDOWS = 4
RH_TOL = 1e-8
RH_MAX_ITER = 120
LONG_STEPS = 400
LONG_BUDGET = 4

SETUP_REPEATS = 3
# Interpreter-bound times (setup_s, and every time of an rh-* workload) are
# reported at a reference host speed: scaled by CALIBRATION_REF_MS over the
# time of calibration_ms() measured in the same run. On a shared 2-core host
# the interpreter speed drifted by up to 2x over tens of seconds, while the
# BLAS-bound long-window solves did not follow it, so those are reported raw.
CALIBRATION_REF_MS = 10.0
# a converged window's newest state must match the polished optimum this closely
CERTIFICATE_TOL = 1e-6
# stored reference values must be reproduced within these relative bounds
REFERENCE_REL_TOL = {"rmse_m": 1e-6, "objective": 1e-8}

LAYER_NAMES = ("model", "problem", "local_nlp", "qp_core", "solvers", "harness")
TRACED_COUNTS = (
    "model.f", "model.h", "model.jac", "model.curv",
    "problem.eval_residual_stack", "problem.eval_constraints",
    "problem.centralized_objective",
    "qp_core.schur_terms", "qp_core.solve_coupled_qp",
    "local_nlp.solve_local_subproblem", "local_nlp.sensitivity_matrices",
    "local_nlp.first_order_conditions", "local_nlp.lagrangian_hessian",
    "harness.solve_window",
)
KEEP_RETURNS = ("solvers.solve", "qp_core.solve_coupled_qp", "local_nlp.solve_local_subproblem")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--update-reference",
        action="store_true",
        help="store this seed's checked outputs in reference.json instead of checking them",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    if not (SRC / "splitmhe" / "__init__.py").is_file():
        raise SystemExit(f"bench: package source not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import splitmhe

    return splitmhe


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def _openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports (read only; nothing is set)."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def machine_info() -> dict:
    import numpy as np
    import scipy

    def blas_of(show_config):
        try:
            blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip()

    env = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(np.show_config),
        "scipy_blas": blas_of(scipy.show_config),
        "blas_thread_env": env,
        "blas_threads_effective": _openblas_threads(),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build_inputs(sm, workload: str, seed: int):
    """Scenario and solver configuration of one workload; a pure function of the seed."""
    if workload in RH_WORKLOADS:
        scenario = sm.generate_scenario(steps=RH_STEPS, seed=seed)
        cfg = sm.SolverConfig(
            algorithm=RH_WORKLOADS[workload], tol=RH_TOL, max_iter=RH_MAX_ITER
        )
        return scenario, cfg
    n = LONG_WORKLOADS[workload]
    scenario = sm.generate_scenario(steps=LONG_STEPS, seed=seed)
    # fixed iteration budget with the convergence test off, as sweep_subwindows runs it
    cfg = sm.SolverConfig(
        algorithm="centralized" if n == 1 else "dsqp", tol=0.0, max_iter=LONG_BUDGET
    )
    return scenario, cfg


def calibration_ms() -> float:
    """Time of a fixed interpreter-bound kernel, independent of the package.

    Small numpy array operations, like the model and residual evaluations
    that dominate a receding-horizon window.
    """
    import numpy as np

    t0 = time.perf_counter()
    x = np.array([0.3, 0.2, 0.1])
    for _ in range(600):
        a = np.array([x[0] + 0.2 * np.cos(x[2]), x[1] + 0.2 * np.sin(x[2]), x[2] + 0.01])
        m = np.eye(3)
        m[0, 2], m[1, 2] = -a[1], a[0]
        j = np.zeros((2, 3))
        j[0, :2] = a[:2] / np.hypot(a[0], a[1])
        float(np.abs(m @ a).max() + (j.T @ j).sum())
        x = a
    return 1e3 * (time.perf_counter() - t0)


@contextmanager
def window_timer(harness, times: list, calibration: list | None):
    """Time each ``harness.solve_window`` call; the only boundary an untraced run touches.

    With a ``calibration`` list, one calibration sample follows each window,
    outside the window's timed interval.
    """
    solve_window = harness.solve_window

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return solve_window(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t0)
            if calibration is not None:
                calibration.append(calibration_ms())

    harness.solve_window = timed
    try:
        yield
    finally:
        harness.solve_window = solve_window


def run_pass(workload, scenario, cfg, calibration: list | None = None):
    """One pass of the workload. Returns (wall seconds, per-window records).

    On ``rh-*`` workloads, a ``calibration`` list receives one sample per
    window; their time is left out of the returned wall time.
    """
    from splitmhe import harness

    if workload in RH_WORKLOADS:
        times: list[float] = []
        t0 = time.perf_counter()
        with window_timer(harness, times, calibration):
            outcomes = harness.run_receding_horizon(scenario, cfg, n_subwindows=RH_SUBWINDOWS)
        wall = time.perf_counter() - t0 - 1e-3 * sum(calibration or ())
        windows = [
            {
                "window_end": oc.window_end,
                "status": oc.status,
                "iterations": oc.iterations,
                "estimate": oc.estimate,
                "result": oc.result,
                "seconds": dt,
            }
            for oc, dt in zip(outcomes, times)
        ]
        return wall, windows
    t0 = time.perf_counter()
    # a budget-limited solve has no error status: a numerical failure ends the run
    result = harness.solve_window(
        scenario, LONG_STEPS, cfg, n_subwindows=LONG_WORKLOADS[workload], horizon=LONG_STEPS
    )
    wall = time.perf_counter() - t0
    window = {
        "window_end": LONG_STEPS,
        "status": result.status,
        "iterations": result.iterations,
        "estimate": result.trajectory[-1],
        "result": result,
        "seconds": wall,
    }
    return wall, [window]


def warm_up(workload, scenario, cfg):
    """One short solve so lazy imports and first-call costs land before timing."""
    from splitmhe import harness

    if workload in RH_WORKLOADS:
        harness.solve_window(scenario, harness.DEFAULT_HORIZON, cfg, n_subwindows=RH_SUBWINDOWS)
    else:
        harness.solve_window(
            scenario, LONG_STEPS, replace(cfg, max_iter=1),
            n_subwindows=LONG_WORKLOADS[workload], horizon=LONG_STEPS,
        )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pass_latency(windows) -> dict:
    secs = sorted(w["seconds"] for w in windows)
    # sorted index of the highest percentile with at least ten windows beyond it
    k = len(secs) - 11 if len(secs) >= 11 else None
    solved = [w for w in windows if w["iterations"]]
    return {
        "p50": statistics.median(secs),
        # with fewer than eleven windows per pass no percentile has ten beyond
        # it, so the tail is the slowest window
        "tail": secs[k] if k is not None else secs[-1],
        "iter": sum(w["seconds"] for w in solved) / sum(w["iterations"] for w in solved),
    }


def position_rmse(estimates, truth) -> float:
    import numpy as np

    est = np.asarray(estimates, dtype=float)[:, :2]
    tru = np.asarray(truth, dtype=float)[:, :2]
    ok = np.isfinite(est).all(axis=1)
    return float(np.sqrt(np.mean(np.sum((est[ok] - tru[ok]) ** 2, axis=1))))


def polished_optima(sm, scenario, windows):
    """Exact window optima for the data and priors each window was solved with.

    ``run_receding_horizon`` documents its warm-start rule: a window's prior
    anchor is the previous window's estimate of the state leaving the window,
    and after a numerical failure the next window starts cold. Each window is
    re-solved from its returned trajectory by the centralized solver at the
    same tolerance, a certificate independent of the distributed algorithm
    under test.
    """
    import numpy as np

    cfg = sm.SolverConfig(algorithm="centralized", tol=RH_TOL, max_iter=400)
    horizon = sm.harness.DEFAULT_HORIZON
    optima = []
    prior = None
    for w in windows:
        result = w["result"]
        if result is None:
            optima.append(None)
            prior = None
            continue
        if prior is None:
            # cold start: the anchor is the default guess's oldest state, the
            # true position with zeroed heading
            prior = scenario.true_states[w["window_end"] - horizon].copy()
            prior[2] = 0.0
        polished = sm.solve_window(
            scenario, w["window_end"], cfg, horizon=horizon,
            prior=prior, initial_guess=result.trajectory,
        )
        optima.append(polished)
        prior = np.array(result.trajectory[1])
    return optima


def same_outputs(a, b) -> bool:
    import numpy as np

    for wa, wb in zip(a, b, strict=True):
        if wa["status"] != wb["status"] or wa["iterations"] != wb["iterations"]:
            return False
        ra, rb = wa["result"], wb["result"]
        if (ra is None) != (rb is None):
            return False
        if ra is not None and not (
            np.array_equal(ra.trajectory, rb.trajectory) and ra.objective == rb.objective
        ):
            return False
    return True


def check_rh(sm, scenario, windows):
    """Receding-horizon checks. Returns (failures, rmse_ratio, stored-value record)."""
    import numpy as np

    failures = []
    for w in windows:
        if w["status"] not in ("converged", "max_iter", "error"):
            failures.append(f"window {w['window_end']}: unknown status {w['status']!r}")
        elif w["status"] != "error" and not np.isfinite(w["estimate"]).all():
            failures.append(f"window {w['window_end']}: non-finite estimate")
    optima = []
    for w, opt in zip(windows, polished_optima(sm, scenario, windows)):
        optima.append(np.full(3, np.nan) if opt is None else opt.trajectory[-1])
        if opt is None:
            continue
        if opt.status != "converged":
            failures.append(f"window {w['window_end']}: reference solve did not converge")
        elif w["status"] == "converged":
            gap = float(np.abs(w["estimate"] - opt.trajectory[-1]).max())
            if gap > CERTIFICATE_TOL:
                failures.append(
                    f"window {w['window_end']}: estimate is {gap:.3e} from the window "
                    f"optimum (limit {CERTIFICATE_TOL:g})"
                )
    truth = scenario.true_states[[w["window_end"] for w in windows]]
    rmse = position_rmse([w["estimate"] for w in windows], truth)
    rmse_opt = position_rmse(optima, truth)
    print(f"rmse_m: {rmse!r} m (window optima: {rmse_opt!r} m)")
    record = {"statuses": [w["status"] for w in windows], "rmse_m": rmse}
    return failures, rmse / rmse_opt, record


def check_long(scenario, windows):
    """Long-window checks. Returns (failures, rmse_ratio, stored-value record)."""
    import numpy as np

    failures = []
    result = windows[0]["result"]
    if result.iterations != LONG_BUDGET:
        failures.append(f"ran {result.iterations} iterations, budget is {LONG_BUDGET}")
    fields = [
        (r.primal_step_inf, r.coupling_inf, r.dynamics_inf, r.stationarity_inf, r.objective)
        for r in result.records
    ]
    if not (np.isfinite(fields).all() and np.isfinite(result.trajectory).all()):
        failures.append("non-finite iteration record or trajectory")
    rmse = position_rmse(result.trajectory, scenario.true_states)
    print(f"rmse_m: {rmse!r} m; objective after the budget: {result.objective!r}")
    # the budget ends mid-transient, far from any optimum, so the reference
    # scale is the range noise level rather than a solve
    return failures, rmse / scenario.sigma_r, {"objective": result.objective}


def compare_reference(stored: dict, record: dict) -> list[str]:
    failures = []
    for key, value in record.items():
        ref = stored[key]
        if isinstance(value, list):
            bad = [i for i, (a, b) in enumerate(zip(value, ref, strict=True)) if a != b]
            if bad:
                failures.append(f"{key} differ from the stored values at positions {bad}")
        elif abs(value - ref) > REFERENCE_REL_TOL[key] * abs(ref):
            failures.append(f"{key} {value!r} differs from the stored {ref!r}")
    return failures


def check_outputs(sm, workload, seed, scenario, passes, update_reference=False):
    """Correctness checks on a run's passes; returns (failures, rmse_ratio).

    ``failures`` holds one message per failed check.
    """
    failures = [
        f"pass {i} outputs differ from pass 1 (passes must be bit-identical, traced or not)"
        for i, other in enumerate(passes[1:], start=2)
        if not same_outputs(passes[0], other)
    ]
    if workload in RH_WORKLOADS:
        found, accuracy, record = check_rh(sm, scenario, passes[0])
    else:
        found, accuracy, record = check_long(scenario, passes[0])
    failures += found

    reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    if update_reference:
        reference.setdefault(workload, {})[str(seed)] = record
        REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    elif str(seed) in reference.get(workload, {}):
        failures += compare_reference(reference[workload][str(seed)], record)
        print(f"outputs checked against the values stored for seed {seed}")
    return failures, accuracy


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing the package and building the
    inputs, each sample at the reference host speed."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, cal_ms = map(float, out.stdout.split())
        samples.append(setup_s * CALIBRATION_REF_MS / cal_ms)
    return statistics.median(samples)


def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    sm = import_package()
    build_inputs(sm, workload, seed)
    setup_s = time.perf_counter() - t0
    print(repr(setup_s), repr(statistics.median(calibration_ms() for _ in range(3))))


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for name in TRACED_COUNTS:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        if not name.startswith("model."):
            m[f"{name}.self_ms"] = (get(name, "self_ms"), "ms")
    for layer in LAYER_NAMES:
        m[f"{layer}.self_ms"] = (
            sum(v["self_ms"] for k, v in summary.items() if k.split(".", 1)[0] == layer), "ms"
        )

    results = tracer.returns["solvers.solve"]
    iterations = sum(r.iterations for r in results)
    block_iters = sum(r.iterations * len(r.final_state.y_blocks) for r in results)
    m["solvers.iterations"] = (iterations, "count")
    m["solvers.iters_per_window"] = (iterations / max(len(results), 1), "count")
    m["problem.evals_per_block_iter"] = (
        get("problem.eval_residual_stack", "calls") / max(block_iters, 1), "count"
    )

    qp_calls = get("qp_core.solve_coupled_qp", "calls")
    m["qp_core.retries_per_iter"] = ((qp_calls - iterations) / max(iterations, 1), "count")
    m["qp_core.lu_fallbacks"] = (
        sum(1 for s in tracer.returns["qp_core.solve_coupled_qp"]
            if s.diagnostics.get("schur_factorization") == "lu"),
        "count",
    )
    local = tracer.returns["local_nlp.solve_local_subproblem"]
    m["local_nlp.inner_iters_per_solve"] = (
        sum(r.iterations for r in local) / max(len(local), 1), "count"
    )
    predicted = sum(r.info.get("predictor_updates", 0) for r in results)
    branches = predicted + sum(
        r.info.get("coordination_fallbacks", 0) + r.info.get("exact_local_updates", 0)
        for r in results
    )
    m["local_nlp.predictor_accept_frac"] = (predicted / max(branches, 1), "ratio")
    m["trace.spans"] = (len(tracer.start), "count")
    return m


def traced_run(args, scenario, cfg):
    sys.path.insert(0, str(BENCH_DIR))
    from tracer import Tracer, installed

    warm_up(args.workload, scenario, cfg)
    untraced_s, plain = run_pass(args.workload, scenario, cfg)
    tracer = Tracer()
    with installed(tracer, keep_returns=KEEP_RETURNS):
        traced_s, traced = run_pass(args.workload, scenario, cfg)
    metrics = layer_metrics(tracer)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    path = tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics, [plain, traced]


# ---------------------------------------------------------------------------
# untraced run
# ---------------------------------------------------------------------------


def timed_run(args, scenario, cfg):
    setup_s = measure_setup(args.workload, args.seed)
    warm_up(args.workload, scenario, cfg)
    calibrate = args.workload in RH_WORKLOADS
    passes, walls, lat, scales = [], [], [], []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        calibration = [] if calibrate else None
        wall, windows = run_pass(args.workload, scenario, cfg, calibration)
        scale = CALIBRATION_REF_MS / statistics.median(calibration) if calibrate else 1.0
        passes.append(windows)
        walls.append(wall * scale)
        lat.append({k: v * scale for k, v in pass_latency(windows).items()})
        scales.append(scale)
    metrics = {
        "setup_s": (setup_s, "s"),
        "estimate_s": (statistics.median(walls), "s"),
        "window_ms_p50": (1e3 * statistics.median(x["p50"] for x in lat), "ms"),
        "window_ms_tail": (1e3 * statistics.median(x["tail"] for x in lat), "ms"),
        "iter_ms": (1e3 * statistics.median(x["iter"] for x in lat), "ms"),
    }
    n = len(passes[0])
    print(
        f"{len(passes)} timed pass(es) of {n} window(s); window_ms_tail is "
        f"p{100.0 * (n - 10) / n if n >= 11 else 100.0:.1f} of each pass; host-speed scale "
        f"per pass {[round(x, 4) for x in scales]}; raw pass seconds "
        f"{[round(w / x, 4) for w, x in zip(walls, scales)]}"
    )
    return metrics, passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    sm = import_package()
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    scenario, cfg = build_inputs(sm, args.workload, args.seed)

    runner = traced_run if args.trace else timed_run
    metrics, passes = runner(args, scenario, cfg)
    failures, accuracy = check_outputs(
        sm, args.workload, args.seed, scenario, passes, args.update_reference
    )
    windows = [w for p in passes for w in p]
    errors = sum(w["status"] == "error" for w in windows)
    # a long-window solve stops at its budget by design, so only errors count there
    budget = sum(w["status"] == "max_iter" for w in windows) if args.workload in RH_WORKLOADS else 0
    fail_frac = (errors + budget + len(failures)) / len(windows)
    print(
        f"fail_frac: {fail_frac:.4f} ({errors} errored, {budget} at the iteration budget, "
        f"{len(failures)} failed checks, of {len(windows)} windows)"
    )
    if args.trace:
        metrics["solvers.fail_frac"] = (fail_frac, "ratio")
    else:
        metrics["rmse_ratio"] = (accuracy, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(windows),
                "failed": errors + len(failures),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
