"""Runs of the drift gate and the writer of its golden file.

``tests/test_drift.py`` compares every cell below against
``tests/drift_golden.json``: per window, the status, the iteration count and
the newest state estimate. The file also holds every record's
:data:`RECORD_FIELDS`, which the gate does not compare. A change that is
meant to move a cell regenerates the file with

    PYTHONPATH=src python tests/drift_golden.py

and says in CHANGES.md which cells moved and why.

    PYTHONPATH=src python tests/drift_golden.py --diff

runs the cells and prints, for each golden cell, any status or iteration
mismatch, the largest estimate deviation and the largest record-metric
deviation, relative to the golden value or the outer tolerance, whichever is
larger, over the iterations both runs have. It rewrites nothing. A cell that
the gate would fail is marked FAIL, and the script then exits 1.

    PYTHONPATH=src python tests/drift_golden.py --digest

prints, per algorithm and proximal weight (its default and the gate's), three
SHA-256s, each cut to 32 hex digits, over every window of two full receding
horizons (60 steps at seed 0, 40 at seed 1, horizon 25, N = 4). The first
hashes the solutions: each window's status, iteration count, estimate bytes
and trajectory bytes. The second hashes the certificate,
``SolveResult.objective``, and the third every record's four termination
metrics and ``objective`` (:data:`RECORD_FIELDS`), so a change that moves a
certificate or a metric at roundoff and leaves the solutions bit for bit
shows as such. Two more lines hash the same of the benchmark's long
windows: one cold window of ``L = 400`` at seed 0 on a 4-iteration budget
with ``tol`` 0, solved by ``centralized`` and by ``dsqp`` at ``N = 66``, both
at their default ``rho``. The last line hashes the same of the seed-0 window
ending at step 25 under non-diagonal prior and measurement weights, solved by
each algorithm at the gate's ``rho``, so a comparison covers full weights too.
It rewrites nothing; run it against two source trees, e.g.
``PYTHONPATH=<tree>/src``, to compare their solutions bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import splitmhe as sm

GOLDEN = Path(__file__).with_name("drift_golden.json")

# every algorithm at a proximal weight on which it converges on these runs
RHO = {"dsqp": 10.0, "centralized": 10.0, "sa_aladin": 10.0, "gn_aladin": 5.0}
TOL, MAX_ITER = 1e-8, 60
# the gate's relative and absolute tolerance on every estimate
ESTIMATE_TOL = 1e-10
# receding horizon: short windows over a short scenario, two seeds
RH_SEEDS, RH_STEPS, RH_HORIZON, RH_N = (0, 1), 13, 10, 4
# one cold long window on a fixed iteration budget: gn_aladin does not
# converge on it at this rho, and each of its iterations costs a tenth of
# a second or more
COLD_SEED, COLD_L, COLD_N, COLD_ITERS = 0, 100, 16, 2
# the digest's receding horizons: (seed, steps) at the default horizon
DIGEST_RUNS = ((0, 60), (1, 40))
# the digest's long windows: seed, L, iteration budget and (algorithm, N) pairs
LONG_SEED, LONG_L, LONG_ITERS = 0, 400, 4
LONG_RUNS = (("centralized", 1), ("dsqp", 66))
# the digest's full-weight window: its end, the prior weight, and the
# correlation of the two measurement noises, whose variances the scenario sets
FULL_END = 25
FULL_P = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
FULL_CORRELATION = 0.5
# the fields of every ConvergenceRecord that the digest hashes: no wall times
RECORD_FIELDS = (
    "primal_step_inf", "coupling_inf", "dynamics_inf", "stationarity_inf", "objective",
)


def _cell(outcome) -> dict:
    return {
        "status": outcome.status,
        "iterations": outcome.iterations,
        "estimate": [float(v) for v in outcome.estimate],
        "records": [] if outcome.result is None else _record_metrics(outcome.result).tolist(),
    }


def run_cells() -> dict[str, list[dict]]:
    """Every cell of the gate, keyed ``<algorithm>/<run>``; a run lists its windows."""
    cells = {}
    for algorithm, rho in RHO.items():
        cfg = sm.SolverConfig(algorithm=algorithm, rho=rho, tol=TOL, max_iter=MAX_ITER)
        for seed in RH_SEEDS:
            scenario = sm.generate_scenario(steps=RH_STEPS, seed=seed)
            outcomes = sm.run_receding_horizon(scenario, cfg, RH_N, RH_HORIZON)
            cells[f"{algorithm}/rh-seed{seed}"] = [_cell(o) for o in outcomes]
        scenario = sm.generate_scenario(steps=COLD_L, seed=COLD_SEED)
        budget = sm.SolverConfig(algorithm=algorithm, rho=rho, tol=0.0, max_iter=COLD_ITERS)
        result = sm.solve_window(scenario, COLD_L, budget, COLD_N, COLD_L)
        cells[f"{algorithm}/cold-L{COLD_L}-N{COLD_N}"] = [_cell(_outcome(result, COLD_L))]
    return cells


def _outcome(result, window_end: int):
    """The :class:`~splitmhe.WindowOutcome` of one window's solve."""
    return sm.WindowOutcome(
        window_end=window_end, status=result.status, iterations=result.iterations,
        estimate=result.trajectory[-1], result=result,
    )


def diff_lines(
    cells: dict[str, list[dict]], golden: dict[str, list[dict]]
) -> tuple[list[str], bool]:
    """One line per cell: its status and iteration mismatches, by window, the
    windows whose estimates miss the golden file by more than the gate's
    :data:`ESTIMATE_TOL`, the largest absolute estimate deviation and the
    largest record-metric deviation (:func:`record_deviation`). A cell that
    the gate fails is marked FAIL; the flag says whether any is."""
    lines = [f"FAIL {name}: not in the golden file" for name in cells if name not in golden]
    for name, want in golden.items():
        got = cells.get(name)
        if got is None:
            lines.append(f"FAIL {name}: not run")
            continue
        notes = [
            f"window {k} {w['status']}/{w['iterations']} -> {g['status']}/{g['iterations']}"
            for k, (g, w) in enumerate(zip(got, want))
            if (g["status"], g["iterations"]) != (w["status"], w["iterations"])
        ]
        if len(got) != len(want):
            notes.append(f"{len(got)} windows, golden {len(want)}")
        notes += [
            f"window {k} estimate beyond {ESTIMATE_TOL:g}"
            for k, (g, w) in enumerate(zip(got, want))
            if not np.allclose(g["estimate"], w["estimate"], ESTIMATE_TOL, ESTIMATE_TOL, True)
        ]
        deviation = max(
            (float(np.abs(np.subtract(g["estimate"], w["estimate"])).max())
             for g, w in zip(got, want)),
            default=0.0,
        )
        records = max((record_deviation(g, w) for g, w in zip(got, want)), default=0.0)
        mark = "FAIL " if notes else ""
        lines.append(f"{mark}{name}: estimate deviation {deviation:.3e}, record deviation "
                     f"{records:.3e}; " + ("; ".join(notes) or "ok"))
    return lines, any(line.startswith("FAIL") for line in lines)


def record_deviation(got: dict, want: dict) -> float:
    """The largest deviation of a window's record metrics from the golden ones,
    relative to the golden value or :data:`TOL`, whichever is larger, over the
    iterations both have; 0 where the golden window holds no records."""
    k = min(len(got["records"]), len(want.get("records", ())))
    if not k:
        return 0.0
    g, w = np.array(got["records"][:k]), np.array(want["records"][:k])
    return float((np.abs(g - w) / np.maximum(np.abs(w), TOL)).max())


def _hash_window(solutions, objective, records, window) -> None:
    solutions.update(f"{window.status}/{window.iterations}/{window.error}".encode())
    solutions.update(np.asarray(window.estimate, dtype=float).tobytes())
    if window.result is not None:
        solutions.update(window.result.trajectory.tobytes())
        objective.update(np.float64(window.result.objective).tobytes())
        records.update(_record_metrics(window.result).tobytes())


def _record_metrics(result) -> np.ndarray:
    """The :data:`RECORD_FIELDS` of every record, one row per iteration."""
    return np.array([[getattr(r, f) for f in RECORD_FIELDS] for r in result.records]).reshape(
        -1, len(RECORD_FIELDS)
    )


def digest_lines() -> list[str]:
    """Per algorithm and ``rho`` (its default, then the gate's) over every
    window of :data:`DIGEST_RUNS`, then per long window of :data:`LONG_RUNS`,
    then over the full-weight window's solves, one line of three SHA-256s: of
    the solutions, the certificate objective and the record metrics."""
    runs = []
    for algorithm, gate_rho in RHO.items():
        for rho in (sm.SolverConfig(algorithm=algorithm).rho, gate_rho):
            cfg = sm.SolverConfig(algorithm=algorithm, rho=rho, tol=TOL, max_iter=MAX_ITER)
            windows = [
                window
                for seed, steps in DIGEST_RUNS
                for window in sm.run_receding_horizon(
                    sm.generate_scenario(steps=steps, seed=seed), cfg, RH_N
                )
            ]
            runs.append((f"{algorithm} rho={rho:g}", windows))
    scenario = sm.generate_scenario(steps=LONG_L, seed=LONG_SEED)
    for algorithm, n in LONG_RUNS:
        cfg = sm.SolverConfig(algorithm=algorithm, tol=0.0, max_iter=LONG_ITERS)
        result = sm.solve_window(scenario, LONG_L, cfg, n, LONG_L)
        runs.append((f"{algorithm} L={LONG_L} N={n} rho={cfg.rho:g}", [_outcome(result, LONG_L)]))
    seed, steps = DIGEST_RUNS[0]
    scenario = sm.generate_scenario(steps=steps, seed=seed)
    sd = np.sqrt(scenario.measurement_variances)
    V = np.outer(sd, sd) * np.array([[1.0, FULL_CORRELATION], [FULL_CORRELATION, 1.0]])
    full = replace(sm.window_instance(scenario, FULL_END), P=FULL_P, V=V)
    partition = sm.build_partition(full.L, RH_N, full.model.nx)
    windows = []
    for algorithm, rho in RHO.items():
        cfg = sm.SolverConfig(algorithm=algorithm, rho=rho, tol=TOL, max_iter=MAX_ITER)
        windows.append(_outcome(sm.solve(full, partition, cfg), FULL_END))
    runs.append((f"full weights window_end={FULL_END} gate rho", windows))
    lines = []
    for name, windows in runs:
        hashes = {key: hashlib.sha256() for key in ("solutions", "objective", "records")}
        for window in windows:
            _hash_window(*hashes.values(), window)
        lines.append(f"{name}: " + " ".join(f"{k} {h.hexdigest()[:32]}" for k, h in hashes.items()))
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--diff", action="store_true",
        help="print each cell's drift from the golden file instead of rewriting it",
    )
    mode.add_argument(
        "--digest", action="store_true",
        help="print SHA-256s of full receding-horizon runs per algorithm and rho",
    )
    args = parser.parse_args()
    if args.diff:
        lines, failed = diff_lines(run_cells(), json.loads(GOLDEN.read_text()))
        print("\n".join(lines))
        sys.exit(1 if failed else 0)
    elif args.digest:
        print("\n".join(digest_lines()))
    else:
        # repr round-trips every float, so the file pins estimates bit for bit
        GOLDEN.write_text(json.dumps(run_cells(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
