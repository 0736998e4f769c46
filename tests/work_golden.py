"""Work counts of every algorithm and the writer of their golden file.

``tests/test_work.py`` compares every cell below against
``tests/work_golden.json``. A cell is one solve, and it records the
iterations, the stack evaluations (``problem.evaluate_stack``), the calls of
each model callable, the LAPACK calls by routine, the BLAS banded products
(``dgbmv``), the link band builds (``qp_core.link_band``), the
``np.linalg.solve`` calls, and the calls of ``qp_core.schur_terms`` and
``qp_core.solve_coupled_qp``. Each count is taken where callers look the
function up, as the benchmark's tracer wraps it, so a call that goes round a
wrapped name reads as a moved count. Counts do not move with the host, so the
gate is exact. A change that is meant to move a count regenerates the file
with

    PYTHONPATH=src python tests/work_golden.py

and quotes the ``--diff`` output in CHANGES.md.

    PYTHONPATH=src python tests/work_golden.py --diff

runs the cells and prints, for each golden cell, every count that moved,
without rewriting the file. A cell that moved is marked FAIL, and the script
then exits 1.

The cells: each algorithm at the drift gate's proximal weight, on the
benchmark window (the first window of the 60-step seed-0 scenario, horizon
25, N = 4, the drift gate's tolerance and iteration cap) and on the drift
gate's cold ``L = 100``, ``N = 16`` window on its 2-iteration budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.linalg

import splitmhe as sm
from splitmhe import local_nlp, qp_core, solvers

from drift_golden import COLD_ITERS, COLD_L, COLD_N, COLD_SEED, MAX_ITER, RHO, TOL
from helpers import counting_model

GOLDEN = Path(__file__).with_name("work_golden.json")

LAPACK = ("dtbtrs", "dpotrf", "dpotrs", "dgetrf")
MODEL = ("f", "h", "df_dx", "df_du", "dh_dx", "d2f", "d2h")
# the benchmark window: scenario steps and seed, window end, horizon, sub-windows
BENCH_STEPS, BENCH_SEED, BENCH_END, BENCH_L, BENCH_N = 60, 0, 25, 25, 4


def _counted(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# (owner, attribute, count name): each name where the package looks it up
SITES = [(scipy.linalg.lapack, name, f"lapack.{name}") for name in LAPACK] + [
    (scipy.linalg.blas, "dgbmv", "blas.dgbmv"),
    (qp_core, "link_band", "qp_core.link_band"),
    (solvers, "link_band", "qp_core.link_band"),
    (local_nlp, "link_band", "qp_core.link_band"),
    (np.linalg, "solve", "np.linalg.solve"),
    (solvers, "evaluate_stack", "problem.evaluate_stack"),
    (local_nlp, "evaluate_stack", "problem.evaluate_stack"),
    (qp_core, "schur_terms", "qp_core.schur_terms"),
    (solvers, "solve_coupled_qp", "qp_core.solve_coupled_qp"),
]


@contextmanager
def counting(calls: Counter):
    """Count the package's calls at :data:`SITES` into ``calls`` while the
    block runs; every patched attribute is restored on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in SITES]
    try:
        for (owner, attr, name), (_, _, fn) in zip(SITES, saved):
            setattr(owner, attr, _counted(calls, name, fn))
        yield calls
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _cell(instance, partition, cfg) -> dict:
    calls = Counter()
    model_calls = Counter()
    instance = replace(instance, model=counting_model(instance.model, model_calls))
    with counting(calls):
        result = sm.solve(instance, partition, cfg)
    return {
        "status": result.status,
        "iterations": result.iterations,
        **{name: calls[name] for _, _, name in SITES},
        **{f"model.{name}": model_calls[name] for name in MODEL},
    }


def run_cells() -> dict[str, dict]:
    """Every cell of the gate, keyed ``<algorithm>/<window>``."""
    bench = sm.window_instance(
        sm.generate_scenario(steps=BENCH_STEPS, seed=BENCH_SEED), BENCH_END, BENCH_L
    )
    cold = sm.window_instance(sm.generate_scenario(steps=COLD_L, seed=COLD_SEED), COLD_L, COLD_L)
    cells = {}
    for algorithm, rho in RHO.items():
        central = algorithm == "centralized"
        cfg = sm.SolverConfig(algorithm=algorithm, rho=rho, tol=TOL, max_iter=MAX_ITER)
        partition = None if central else sm.build_partition(BENCH_L, BENCH_N, 3)
        cells[f"{algorithm}/bench-L{BENCH_L}-N{BENCH_N}"] = _cell(bench, partition, cfg)
        budget = replace(cfg, tol=0.0, max_iter=COLD_ITERS)
        partition = None if central else sm.build_partition(COLD_L, COLD_N, 3)
        cells[f"{algorithm}/cold-L{COLD_L}-N{COLD_N}"] = _cell(cold, partition, budget)
    return cells


def diff_lines(cells: dict[str, dict], golden: dict[str, dict]) -> tuple[list[str], bool]:
    """One line per cell: every count that moved from the golden file, or ok.
    A cell that moved is marked FAIL; the flag says whether any is."""
    lines = [f"FAIL {name}: not in the golden file" for name in cells if name not in golden]
    for name, want in golden.items():
        got = cells.get(name)
        if got is None:
            lines.append(f"FAIL {name}: not run")
            continue
        moved = [
            f"{key} {want.get(key)} -> {got.get(key)}"
            for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)
        ]
        lines.append(f"FAIL {name}: " + "; ".join(moved) if moved else f"{name}: ok")
    return lines, any(line.startswith("FAIL") for line in lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff", action="store_true",
        help="print each cell's moved counts instead of rewriting the golden file",
    )
    args = parser.parse_args()
    if args.diff:
        lines, failed = diff_lines(run_cells(), json.loads(GOLDEN.read_text()))
        print("\n".join(lines))
        sys.exit(1 if failed else 0)
    GOLDEN.write_text(json.dumps(run_cells(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
