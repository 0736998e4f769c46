"""Self-test of the benchmark tracer on tiny windows.

Kept out of the package's test paths so the tier-1 suite stays fast; run it
from the repository root with ``python3 -m pytest bench/test_tracer.py``.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import splitmhe as sm  # noqa: E402
from splitmhe import harness  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, installed  # noqa: E402

STEPS, HORIZON = 10, 6


def _tiny_rh(algorithm):
    scenario = sm.generate_scenario(steps=STEPS, seed=3)
    cfg = sm.SolverConfig(algorithm=algorithm, tol=1e-8, max_iter=60)
    return lambda: harness.run_receding_horizon(scenario, cfg, n_subwindows=2, horizon=HORIZON)


def _tiny_long(n):
    scenario = sm.generate_scenario(steps=STEPS, seed=3)
    cfg = sm.SolverConfig(algorithm="centralized" if n == 1 else "dsqp", tol=0.0, max_iter=3)
    return lambda: [harness.solve_window(scenario, STEPS, cfg, n_subwindows=n, horizon=STEPS)]


def _outputs(results):
    out = []
    for r in results:
        r = getattr(r, "result", r)
        out.append((r.status, r.iterations, r.trajectory.copy(), r.objective))
    return out


def _traced(job):
    tracer = Tracer()
    with installed(tracer, keep_returns=run.KEEP_RETURNS):
        results = job()
    return tracer, results


TINY = {
    "rh-dsqp": _tiny_rh("dsqp"),
    "rh-sa": _tiny_rh("sa_aladin"),
    "long-n1": _tiny_long(1),
    "long-n4": _tiny_long(2),
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tracing_leaves_outputs_bit_identical(workload):
    job = TINY[workload]
    plain = _outputs(job())
    _, results = _traced(job)
    traced = _outputs(results)
    assert len(plain) == len(traced)
    for a, b in zip(plain, traced):
        assert a[0] == b[0] and a[1] == b[1] and a[3] == b[3]
        assert np.array_equal(a[2], b[2])


def test_package_is_unpatched_after_tracing():
    modules = [importlib.import_module(f"splitmhe.{ns}") for ns in ("solvers", "harness")]
    before = [dict(vars(mod)) for mod in modules]
    _traced(TINY["rh-dsqp"])
    for mod, attrs in zip(modules, before):
        for name, obj in attrs.items():
            assert getattr(mod, name) is obj


def test_self_times_partition_each_parent_span():
    tracer, _ = _traced(TINY["rh-sa"])
    a = tracer.arrays()
    dur, own = tracer.self_times()
    assert dur.size > 0 and (own >= -1e-9).all()
    child = np.flatnonzero(a["parent"] >= 0)
    parent = a["parent"][child]
    # children lie inside their parent's interval
    assert (a["start"][child] >= a["start"][parent]).all()
    assert (a["end"][child] <= a["end"][parent]).all()
    # parent and child self times add up to the root span of each tree;
    # a parent is always recorded before its children
    root_of = np.arange(dur.size)
    for i, p in zip(child, parent):
        root_of[i] = root_of[p]
    per_root = np.bincount(root_of, weights=own, minlength=dur.size)
    roots = a["parent"] < 0
    assert np.allclose(per_root[roots], dur[roots], rtol=1e-9, atol=1e-12)


# layers each workload is assigned in the prediction table
ASSIGNED = {
    "rh-dsqp": (
        "model.f.calls", "model.h.calls", "model.jac.calls",
        "problem.eval_residual_stack.calls", "problem.eval_constraints.calls",
        "problem.centralized_objective.calls", "harness.solve_window.calls",
        "solvers.iterations",
    ),
    "rh-sa": (
        "model.curv.calls", "problem.eval_residual_stack.calls",
        "local_nlp.solve_local_subproblem.calls", "local_nlp.sensitivity_matrices.calls",
        "local_nlp.first_order_conditions.calls", "local_nlp.lagrangian_hessian.calls",
        "solvers.iterations",
    ),
    "long-n1": ("qp_core.schur_terms.calls", "qp_core.solve_coupled_qp.calls"),
    "long-n4": ("qp_core.schur_terms.calls", "qp_core.solve_coupled_qp.calls"),
}


@pytest.mark.parametrize("workload", sorted(ASSIGNED))
def test_every_assigned_layer_records_spans(workload):
    tracer, _ = _traced(TINY[workload])
    metrics = run.layer_metrics(tracer)
    for layer in run.LAYER_NAMES:
        assert f"{layer}.self_ms" in metrics
    busy = ["model", "problem", "qp_core", "solvers", "harness"]
    if workload == "rh-sa":
        busy.append("local_nlp")
    for name in list(ASSIGNED[workload]) + [f"{layer}.self_ms" for layer in busy]:
        assert metrics[name][0] > 0, name


def test_window_ids_follow_solve_window_calls():
    tracer, results = _traced(TINY["rh-dsqp"])
    a = tracer.arrays()
    windows = set(a["window"][a["window"] >= 0].tolist())
    assert windows == set(range(len(results)))


def test_traced_model_keeps_model_values():
    model = sm.robot_model()
    tracer = Tracer()
    traced = tracer.traced_model(model)
    x, u = np.array([1.0, 0.5, 0.2]), np.array([1.0, 0.4])
    assert np.array_equal(traced.f(x, u), model.f(x, u))
    assert np.array_equal(traced.d2h(x, np.ones(2)), model.d2h(x, np.ones(2)))
    assert tracer.summary()["model.curv"]["calls"] == 1
