"""Per-phase cost of one ``dsqp`` iteration, measured in one process.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/iteration_cost.py [--repeats 7] [--calls 3000]

prints, for the benchmark window (L = 25, N = 4) and one long window
(L = 400, N = 66), each phase of the iteration of ``solvers._drive``, in µs
per call: the best of ``repeats`` runs of ``calls`` calls each, every phase
timed alone on the data of the first iteration of a cold seed-0 window at
``rho`` 1e3. The phases call what the driver calls, in its order:

* ``evaluation``  -- ``evaluate_stack`` at the linearization point;
* ``stack``       -- ``hessian_blocks``, the anchor ``coupling_residual`` and
  the ``StageStack``, with the band of the last metrics evaluation;
* ``qp``          -- ``solve_coupled_qp`` and the consensus step;
* ``band``        -- ``link_band`` of the metrics evaluation;
* ``stationarity`` -- ``g + B' nu`` through ``link_transpose``;
* ``record``      -- the ``ConvergenceRecord`` and the termination test.

``iteration`` is a whole iteration inside ``run_distributed_sqp`` at ``tol``
0: the median of the records' ``wall_ms`` over a solve of ``k = max(calls //
10, 2)`` iterations, the first left out, best of ``repeats`` solves. Then come
the phases' sum and the driver's ``remainder``, ``iteration`` minus that sum:
what the driver does around the phases, and what a phase costs in the loop
beyond its cost alone. As a median less a sum of minima it reads below zero
where the host's speed drifts within a run. Last come the ``Python calls``
and ``C calls`` per iteration: the ``call`` and ``c_call`` events of
``sys.setprofile`` over a 20-iteration solve minus a 10-iteration one,
divided by 10. The first line is the machine, as ``bench/run.py`` prints it;
the BLAS thread count is the environment's.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import splitmhe as sm
from splitmhe import qp_core, solvers
from splitmhe.problem import coupling_residual, evaluate_stack, lift, subproblem

PHASES = ("evaluation", "stack", "qp", "band", "stationarity", "record", "iteration")
# the lines after the phases: their sum, the driver's remainder and the calls per iteration
TOTALS = ("phases, sum", "remainder", "Python calls", "C calls")
# (L, N) of the benchmark's rh-dsqp window and of its long-n66 window
SHAPES = ((25, 4), (400, 66))
RHO = 1e3


def _best_us(fn, calls: int, repeats: int) -> float:
    """The fastest of ``repeats`` runs of ``calls`` calls of ``fn``, in µs per call."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / calls


def _iteration_us(instance, partition, k: int, repeats: int) -> float:
    """The median ``wall_ms`` of the records of a ``k``-iteration solve, its first
    (which also evaluates the start) left out: best of ``repeats`` solves."""
    cfg = sm.SolverConfig(algorithm="dsqp", rho=RHO, tol=0.0, max_iter=k)
    best = float("inf")
    for _ in range(repeats):
        records = sm.run_distributed_sqp(instance, partition, cfg).records
        best = min(best, statistics.median(r.wall_ms for r in records[1:] or records))
    return 1e3 * best


def calls_per_iteration(instance, partition) -> tuple[float, float]:
    """Python-level and C-level calls per ``dsqp`` iteration: ``sys.setprofile``
    events over a 20-iteration solve minus those over a 10-iteration one."""

    def events(k: int) -> Counter:
        cfg = sm.SolverConfig(algorithm="dsqp", rho=RHO, tol=0.0, max_iter=k)
        counts = Counter()
        sys.setprofile(lambda frame, event, arg: counts.update((event,)))
        try:
            sm.run_distributed_sqp(instance, partition, cfg)
        finally:
            sys.setprofile(None)
        return counts

    more, fewer = events(20), events(10)
    return (more["call"] - fewer["call"]) / 10, (more["c_call"] - fewer["c_call"]) / 10


def phase_split(L: int, N: int, calls: int, repeats: int) -> dict[str, float]:
    """µs per call of every name in :data:`PHASES` at ``(L, N)``."""
    instance = sm.window_instance(sm.generate_scenario(steps=L, seed=0), L, L)
    lay = sm.build_partition(L, N, instance.model.nx)
    run = subproblem(instance, lay, range(N))
    x = lift(instance.initial_guess, lay)
    ev = evaluate_stack(run, x)
    band = qp_core.link_band(lay, ev.D, True)

    def stack():
        return qp_core.StageStack(
            layout=lay, H=solvers.hessian_blocks(run, x, None, RHO, ev, False), g=ev.g,
            D=ev.D, d=ev.F, anchor=coupling_residual(lay, x), band=band,
        )

    qp = stack()
    sol = qp_core.solve_coupled_qp(qp)
    y_new = x + sol.delta_x
    ev_new = evaluate_stack(run, y_new)
    band_new = qp_core.link_band(lay, ev_new.D, True)
    stat = ev_new.g.reshape(-1) + qp_core.link_transpose(band_new, sol.nu)
    cfg = sm.SolverConfig(algorithm="dsqp", rho=RHO, tol=0.0)
    t = time.perf_counter()

    def record():
        rec = solvers._record(1, y_new - x, qp.anchor, ev_new, stat, None, t, 0.0, 0.0)
        return solvers.termination_check(rec, cfg)

    phases = {
        "evaluation": lambda: evaluate_stack(run, x),
        "stack": stack,
        "qp": lambda: x + qp_core.solve_coupled_qp(qp).delta_x,
        "band": lambda: qp_core.link_band(lay, ev_new.D, True),
        "stationarity": lambda: ev_new.g.reshape(-1) + qp_core.link_transpose(band_new, sol.nu),
        "record": record,
    }
    split = {name: _best_us(fn, calls, repeats) for name, fn in phases.items()}
    split["iteration"] = _iteration_us(instance, lay, max(calls // 10, 2), repeats)
    split["phases, sum"] = sum(split[name] for name in PHASES[:-1])
    split["remainder"] = split["iteration"] - split["phases, sum"]
    split["Python calls"], split["C calls"] = calls_per_iteration(instance, lay)
    return split


def machine_line() -> str:
    """The machine line of ``bench/run.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return "machine " + json.dumps(run.machine_info(), sort_keys=True)


def report(calls: int, repeats: int) -> list[str]:
    """The machine line, then per shape one line per phase and per total."""
    lines = [machine_line()]
    for L, N in SHAPES:
        split = phase_split(L, N, calls, repeats)
        lines.append(f"L = {L}, N = {N}: best of {repeats} x {calls} calls, µs per call")
        lines += [f"  {name:<13}{split[name]:9.2f}" for name in PHASES + TOTALS]
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--calls", type=int, default=3000)
    args = parser.parse_args()
    print("\n".join(report(args.calls, args.repeats)))
