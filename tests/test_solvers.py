import logging
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import splitmhe as sm
from splitmhe import local_nlp, problem, qp_core, solvers
from splitmhe.errors import (
    DimensionMismatchError,
    NonFiniteDataError,
    NotPositiveDefiniteError,
    SplitMheError,
)
from splitmhe.local_nlp import lagrangian_hessian
from splitmhe.problem import eval_constraints, eval_residual_stack, split_instance
from splitmhe.solvers import (
    ConvergenceRecord,
    _wrap_iteration_error,
    termination_check,
)

from conftest import build_linear_instance
from drift_golden import RECORD_FIELDS
from helpers import counting_model, linear_window_optimum


def make_record(**overrides):
    base = dict(
        iteration=1,
        primal_step_inf=0.0,
        coupling_inf=0.0,
        dynamics_inf=0.0,
        stationarity_inf=0.0,
        dist_to_ref=None,
        objective=0.0,
        wall_ms=0.0,
    )
    base.update(overrides)
    return ConvergenceRecord(**base)


def test_termination_all_zero_converges():
    cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8)
    assert termination_check(make_record(), cfg)


def test_termination_continues_above_tol():
    cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8)
    assert not termination_check(make_record(coupling_inf=1e-3), cfg)


def test_termination_inclusive_at_tol():
    cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8)
    rec = make_record(
        primal_step_inf=1e-8, coupling_inf=1e-8, dynamics_inf=1e-8, stationarity_inf=1e-8
    )
    assert termination_check(rec, cfg)


@pytest.mark.parametrize(
    "metric", ["primal_step_inf", "coupling_inf", "dynamics_inf", "stationarity_inf"]
)
def test_termination_never_accepts_a_nan_metric(metric):
    cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8)
    assert not termination_check(make_record(**{metric: math.nan}), cfg)


def test_config_defaults_per_algorithm():
    assert sm.SolverConfig(algorithm="gn_aladin").rho == 25.0
    assert sm.SolverConfig(algorithm="sa_aladin").rho == 1e3
    assert sm.SolverConfig(algorithm="dsqp").rho == 1e3
    with pytest.raises(ValueError):
        sm.SolverConfig(algorithm="nope")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(algorithm="dsqp", max_iter=-1),
        dict(algorithm="gn_aladin", rho=0.0),
        dict(algorithm="dsqp", rho=math.nan),
        dict(algorithm="dsqp", rho=math.inf),
        dict(algorithm="dsqp", tol=math.nan),
        dict(algorithm="dsqp", tol=math.inf),
        dict(inner_tol=math.nan),
        dict(inner_tol=math.inf),
    ],
)
def test_config_rejects_out_of_range_values(kwargs):
    config = sm.SolverConfig if "algorithm" in kwargs else sm.LocalSolveConfig
    with pytest.raises(ValueError):
        config(**kwargs)


@pytest.mark.parametrize(
    "config, field", [(sm.SolverConfig, "max_iter"), (sm.LocalSolveConfig, "inner_max_iter")]
)
def test_iteration_budgets_must_be_integers(config, field):
    least = {"max_iter": 0, "inner_max_iter": 1}[field]
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= {least}, got 2.5$"):
        config(**{field: 2.5})
    assert getattr(config(**{field: np.int64(3)}), field) == 3


def test_distributed_runs_need_a_partition_and_their_own_config(linear_instance):
    with pytest.raises(ValueError, match="distributed algorithms need a partition"):
        sm.solve(linear_instance, None, sm.SolverConfig("dsqp"))
    partition = sm.build_partition(linear_instance.L, 2, 2)
    with pytest.raises(ValueError, match="config selects 'gn_aladin', expected 'dsqp'"):
        sm.run_distributed_sqp(linear_instance, partition, sm.SolverConfig("gn_aladin"))


def test_benchmark_runs_reach_reference(benchmark_runs):
    for name, result in benchmark_runs.items():
        reached = [r.iteration for r in result.records if r.dist_to_ref <= 1e-8]
        assert reached, f"{name} never reached 1e-8"
        assert min(reached) <= 40


@pytest.mark.parametrize("algorithm", ["dsqp", "gn_aladin"])
def test_dist_to_ref_is_read_from_one_copy_of_each_window_state(
    benchmark_instance, benchmark_baseline, algorithm, monkeypatch
):
    """Each record's ``dist_to_ref`` reads one copy of each window state of the
    new consensus stack, whose two boundary copies the QP makes agree to
    roundoff: it is the distance of the averaged window trajectory to within
    1e-14, and the driver extracts that trajectory once per solve, not once per
    iteration."""
    points, extracted = [], Counter()

    def evaluate(run, x, *args):
        points.append(x)
        return problem.evaluate_stack(run, x, *args)

    def extract(*args):
        extracted["calls"] += 1
        return problem.extract_trajectory(*args)

    monkeypatch.setattr(solvers, "evaluate_stack", evaluate)
    monkeypatch.setattr(solvers, "extract_trajectory", extract)
    partition = sm.build_partition(25, 4, 3)
    reference = benchmark_baseline.trajectory
    cfg = sm.SolverConfig(algorithm=algorithm, tol=0.0, max_iter=6)
    result = sm.solve(benchmark_instance, partition, cfg, reference=reference)
    assert extracted["calls"] == 1
    # the driver's last evaluation in each iteration is at its new consensus iterate
    assert len(result.records) == 6
    for y, record in zip(points[-6:], result.records):
        want = np.abs(problem.extract_trajectory(y, partition)[0] - reference).max()
        assert abs(record.dist_to_ref - want) <= 1e-14


def test_cross_algorithm_agreement(benchmark_runs, benchmark_baseline):
    trajectories = {name: run.trajectory for name, run in benchmark_runs.items()}
    trajectories["centralized"] = benchmark_baseline.trajectory
    names = sorted(trajectories)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            worst = np.abs(trajectories[a] - trajectories[b]).max()
            assert worst <= 1e-6, f"{a} vs {b}: {worst:.2e}"


def test_converged_runs_pass_centralized_certificate(
    benchmark_runs, benchmark_baseline, benchmark_instance
):
    runs = dict(benchmark_runs)
    runs["centralized"] = benchmark_baseline
    for name, result in runs.items():
        if result.status != "converged":
            continue
        residual = sm.centralized_kkt_residual(benchmark_instance, result.trajectory)
        tol = 1e-10 if name == "centralized" else 1e-8
        assert residual <= 10 * tol, f"{name}: certificate {residual:.2e}"


def test_fixed_point_start_terminates_first_iteration(benchmark_instance):
    partition = sm.build_partition(25, 4, 3)
    seed_cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-11, max_iter=150)
    solved = sm.run_distributed_sqp(benchmark_instance, partition, seed_cfg)
    assert solved.status == "converged"
    warm = solved.final_state

    for algorithm, rho in [("gn_aladin", 1e3), ("sa_aladin", 1e3), ("dsqp", 1e3)]:
        cfg = sm.SolverConfig(algorithm=algorithm, rho=rho, tol=1e-7, max_iter=10)
        result = sm.solve(benchmark_instance, partition, cfg, warm=warm)
        assert result.status == "converged", algorithm
        assert result.iterations == 1, algorithm
        np.testing.assert_allclose(result.trajectory, solved.trajectory, atol=1e-7)


def test_all_solver_paths_match_linear_oracle(linear_instance):
    reference = linear_window_optimum(linear_instance)
    partition = sm.build_partition(linear_instance.L, 2, 2)
    for algorithm in ("centralized", "dsqp", "gn_aladin", "sa_aladin"):
        cfg = sm.SolverConfig(algorithm=algorithm, rho=1.0, tol=1e-12, max_iter=300)
        result = sm.solve(
            linear_instance, None if algorithm == "centralized" else partition, cfg
        )
        assert result.status == "converged", algorithm
        err = np.abs(result.trajectory - reference).max()
        assert err <= 1e-9, f"{algorithm}: {err:.2e}"


def test_sa_matches_dsqp_while_falling_back(linear_instance):
    # before the predictor trust region is entered, the sensitivity variant's
    # local pairs are the coordination outputs, i.e. exactly the SQP iterates
    partition = sm.build_partition(linear_instance.L, 2, 2)
    # the cold start's iterate, handed in as a warm start, skips the initial
    # exact local solves
    lifted = problem.lift(linear_instance.initial_guess, partition)
    cold = sm.IterateState(
        x_blocks=lifted,
        y_blocks=lifted,
        lam=np.zeros(partition.r),
        mu_blocks=np.zeros((linear_instance.L, 2)),
    )
    for iters in (1, 3, 5):
        sa_cfg = sm.SolverConfig(algorithm="sa_aladin", rho=1.0, tol=0.0, max_iter=iters)
        sqp_cfg = sm.SolverConfig(algorithm="dsqp", rho=1.0, tol=0.0, max_iter=iters)
        sa = sm.run_sensitivity_aladin(linear_instance, partition, sa_cfg, warm=cold)
        sqp = sm.run_distributed_sqp(linear_instance, partition, sqp_cfg)
        assert sa.info["predictor_updates"] == 0
        np.testing.assert_allclose(sa.trajectory, sqp.trajectory, atol=1e-12)


def test_sa_predictor_updates_engage_and_converge(linear_instance):
    partition = sm.build_partition(linear_instance.L, 2, 2)
    cfg = sm.SolverConfig(algorithm="sa_aladin", rho=1.0, tol=1e-12, max_iter=300)
    result = sm.run_sensitivity_aladin(linear_instance, partition, cfg)
    assert result.status == "converged"
    assert result.info["predictor_updates"] > 0
    reference = linear_window_optimum(linear_instance)
    assert np.abs(result.trajectory - reference).max() <= 1e-9


def test_dsqp_single_iteration_equals_dense_sqp_step(linear_instance, benchmark_scenario):
    # one coordination step must equal the full-space SQP step assembled densely
    cases = []
    cases.append((linear_instance, sm.build_partition(linear_instance.L, 2, 2), 1.0))
    robot6 = sm.window_instance(benchmark_scenario, 6, horizon=6)
    cases.append((robot6, sm.build_partition(6, 2, 3), 1e3))

    for instance, partition, rho in cases:
        cfg = sm.SolverConfig(algorithm="dsqp", rho=rho, tol=0.0, max_iter=1)
        stepped = sm.run_distributed_sqp(instance, partition, cfg)

        subs = split_instance(instance, partition)
        y = sm.lift_initial_guess(instance.initial_guess, partition)
        sizes = [s.block_dim for s in subs]
        m_sizes = [s.constraint_dim for s in subs]
        n_tot, m_tot, r = sum(sizes), sum(m_sizes), partition.r
        K = np.zeros((n_tot + m_tot + r, n_tot + m_tot + r))
        rhs = np.zeros(n_tot + m_tot + r)
        xo, mo = 0, n_tot
        for sub, y_i in zip(subs, y):
            b, J = eval_residual_stack(sub, y_i)
            F, C = eval_constraints(sub, y_i)
            H = lagrangian_hessian(sub, y_i, np.zeros(sub.constraint_dim), rho, "gauss_newton")
            A = sub.coupling_matrix()
            n_i, m_i = sub.block_dim, sub.constraint_dim
            K[xo:xo + n_i, xo:xo + n_i] = H
            K[mo:mo + m_i, xo:xo + n_i] = C
            K[xo:xo + n_i, mo:mo + m_i] = C.T
            K[n_tot + m_tot:, xo:xo + n_i] = A
            K[xo:xo + n_i, n_tot + m_tot:] = A.T
            rhs[xo:xo + n_i] = -(J.T @ b)
            rhs[mo:mo + m_i] = -F
            rhs[n_tot + m_tot:] -= A @ y_i
            xo += n_i
            mo += m_i
        dense = np.linalg.solve(K, rhs)
        blocks_new = []
        xo = 0
        for sub, y_i in zip(subs, y):
            blocks_new.append(y_i + dense[xo:xo + sub.block_dim])
            xo += sub.block_dim
        expected, _ = sm.extract_trajectory(blocks_new, partition)
        assert np.abs(stepped.trajectory - expected).max() <= 1e-10


def test_centralized_noise_free_exact_guess_converges_immediately():
    scenario = sm.generate_scenario(steps=30, seed=2, sigma_r=0.0, sigma_alpha=0.0)
    guess = scenario.true_states[:26].copy()
    cfg = sm.SolverConfig(algorithm="centralized", tol=1e-8, max_iter=10)
    result = sm.solve_window(scenario, 25, cfg, initial_guess=guess, prior=guess[0])
    assert result.status == "converged"
    assert result.iterations <= 2
    assert np.abs(result.trajectory - scenario.true_states[:26]).max() <= 1e-8


def test_distributed_algorithms_accept_degenerate_partition():
    scenario = sm.generate_scenario(steps=30, seed=3)
    instance = sm.window_instance(scenario, 25)
    partition = sm.build_partition(25, 1, 3)
    for algorithm, rho in [("gn_aladin", 25.0), ("sa_aladin", 1e3)]:
        cfg = sm.SolverConfig(algorithm=algorithm, rho=rho, tol=1e-8, max_iter=80)
        result = sm.solve(instance, partition, cfg)
        assert result.status == "converged", algorithm
        assert result.final_state.lam.size == 0


def test_n_invariance_small_benchmark(benchmark_instance, benchmark_baseline):
    trajectories = []
    for n_sub in (3, 4, 5, 6):
        partition = sm.build_partition(25, n_sub, 3)
        cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8, max_iter=60)
        result = sm.run_distributed_sqp(
            benchmark_instance, partition, cfg, reference=benchmark_baseline.trajectory
        )
        assert result.status == "converged"
        trajectories.append(result.trajectory)
    for i in range(len(trajectories)):
        for j in range(i + 1, len(trajectories)):
            assert np.abs(trajectories[i] - trajectories[j]).max() <= 1e-6


@pytest.mark.parametrize("algorithm, n_sub", [("centralized", 1), ("dsqp", 3)])
def test_sqp_at_rho_zero_needs_no_measurement_information(algorithm, n_sub):
    """Without the proximal term only the reduced Hessian must be positive
    definite, and the prior alone makes it so: with ``C = 0`` the window's
    optimum is the prior propagated through the dynamics, two iterations away."""
    A, B = np.array([[0.9, 0.2], [-0.1, 0.95]]), np.array([[0.1], [0.05]])
    blind = sm.make_linear_model(A, B, np.zeros((1, 2)))
    instance = build_linear_instance(blind)
    partition = sm.build_partition(instance.L, n_sub, 2) if algorithm == "dsqp" else None
    result = sm.solve(instance, partition, sm.SolverConfig(algorithm, rho=0.0))
    assert (result.status, result.iterations) == ("converged", 2)
    propagated = sm.rollout(blind, instance.prior, instance.controls)
    assert np.abs(result.trajectory - propagated).max() <= 1e-12


def test_sqp_at_rho_zero_is_centralized_gauss_newton_for_every_split():
    """At ``rho = 0`` the time splitting changes only the linear algebra: on a
    cold ``L = 100`` window every split takes the centralized iteration count
    (29) to the centralized trajectory (measured 8.4e-15 apart at most)."""
    scenario = sm.generate_scenario(steps=100, seed=0)
    base = sm.solve_window(scenario, 100, sm.SolverConfig("centralized", rho=0.0), 1, 100)
    assert base.status == "converged"
    for n_sub in (1, 4, 16):
        result = sm.solve_window(scenario, 100, sm.SolverConfig("dsqp", rho=0.0), n_sub, 100)
        assert (result.status, result.iterations) == ("converged", base.iterations)
        assert np.abs(result.trajectory - base.trajectory).max() <= 1e-12


def _boundary_shift_halved(run, x, mu, rho, ev, exact):
    """``hessian_blocks`` with ``rho / 2`` on each of the two copies of a
    boundary state in place of ``rho``: the consensus of the two copies then
    damps that window state by ``rho``, as ``centralized`` does."""
    H = local_nlp.hessian_blocks(run, x, mu, rho, ev, exact)
    lay = run.layout
    H[np.concatenate((lay.last[:-1], lay.first[1:]))] -= 0.5 * rho * lay.eye
    return H


def test_dsqp_differs_from_centralized_only_by_the_doubled_boundary_shift(monkeypatch):
    """Why ``dsqp`` takes other iterates than ``centralized`` at ``rho > 0``:
    the lifted QP shifts both copies of each of the ``N - 1`` boundary states
    by ``rho I``, so consensus damps those window states by ``2 rho``. With
    ``rho / 2`` on each copy every split takes the centralized iteration count
    to the centralized trajectory: on the cold ``L = 100`` window at ``rho``
    10 (32 iterations, where the package's ``dsqp`` at N = 4 takes 44 to
    another wrap of the heading), and on the benchmark's 4-iteration
    ``L = 400`` window at N = 66 (measured 1.4e-13 apart)."""
    scenario = sm.generate_scenario(steps=100, seed=0)
    base = sm.solve_window(scenario, 100, sm.SolverConfig("centralized", rho=10.0), 1, 100)
    split = sm.solve_window(scenario, 100, sm.SolverConfig("dsqp", rho=10.0), 4, 100)
    assert (base.status, base.iterations, split.iterations) == ("converged", 32, 44)
    monkeypatch.setattr(solvers, "hessian_blocks", _boundary_shift_halved)
    for n_sub in (4, 16):
        result = sm.solve_window(scenario, 100, sm.SolverConfig("dsqp", rho=10.0), n_sub, 100)
        assert (result.status, result.iterations) == ("converged", base.iterations)
        assert np.abs(result.trajectory - base.trajectory).max() <= 1e-12
    scenario = sm.generate_scenario(steps=400, seed=0)
    runs = [
        sm.solve_window(scenario, 400, sm.SolverConfig(name, tol=0.0, max_iter=4), n_sub, 400)
        for name, n_sub in (("centralized", 1), ("dsqp", 66))
    ]
    assert np.abs(runs[0].trajectory - runs[1].trajectory).max() <= 1e-12


@pytest.mark.parametrize("algorithm", sm.solvers.ALGORITHMS)
def test_records_are_deterministic(benchmark_instance, algorithm):
    partition = None if algorithm == "centralized" else sm.build_partition(25, 4, 3)
    cfg = sm.SolverConfig(algorithm=algorithm, tol=1e-8, max_iter=30)
    a = sm.solve(benchmark_instance, partition, cfg)
    b = sm.solve(benchmark_instance, partition, cfg)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.iteration == rb.iteration
        assert ra.primal_step_inf == rb.primal_step_inf
        assert ra.coupling_inf == rb.coupling_inf
        assert ra.dynamics_inf == rb.dynamics_inf
        assert ra.stationarity_inf == rb.stationarity_inf
        assert ra.objective == rb.objective
    np.testing.assert_array_equal(a.trajectory, b.trajectory)
    assert a.info == b.info
    assert a.records[-1].objective == pytest.approx(a.objective, rel=1e-12)


def _record_local_solves(monkeypatch) -> list:
    """Record every ``gn_aladin`` local solve as ``(handed, result)``, where
    ``handed`` says whether the driver handed it an evaluation, which must be
    the one at its start point."""
    solves = []

    def recorded(run, lam, y, rho, cfg=None, x0=None, evaluation=None):
        if evaluation is not None:
            at_start = problem.evaluate_stack(run, y)
            np.testing.assert_array_equal(evaluation.b, at_start.b)
            np.testing.assert_array_equal(evaluation.F, at_start.F)
        result = local_nlp.solve_local_subproblem(run, lam, y, rho, cfg, x0, evaluation)
        solves.append((evaluation is not None, result))
        return result

    monkeypatch.setattr(solvers, "solve_local_subproblem", recorded)
    return solves


def test_gn_aladin_measures_coupling_on_its_local_solutions(benchmark_instance, monkeypatch):
    solves = _record_local_solves(monkeypatch)
    partition = sm.build_partition(25, 4, 3)
    cfg = sm.SolverConfig(algorithm="gn_aladin", tol=0.0, max_iter=2)
    result = sm.solve(benchmark_instance, partition, cfg)
    local = np.abs(sm.coupling_residual(partition, solves[-1][1].x.reshape(-1, 3))).max()
    consensus = np.abs(sm.coupling_residual(partition, result.final_state.y_blocks)).max()
    assert result.records[-1].coupling_inf == local > 1e3 * consensus


@pytest.mark.parametrize("algorithm", sm.solvers.ALGORITHMS)
def test_coupling_is_evaluated_once_per_iteration_at_the_qp_anchor(
    benchmark_instance, algorithm, monkeypatch
):
    """Each iteration evaluates the coupling once, at the QP's linearization
    point, and its record's ``coupling_inf`` is that evaluation's norm."""
    anchors = []

    def counted(partition, x):
        anchors.append(problem.coupling_residual(partition, x))
        return anchors[-1]

    monkeypatch.setattr(solvers, "coupling_residual", counted)
    cfg = sm.SolverConfig(algorithm=algorithm, tol=0.0, max_iter=4)
    result = sm.solve(benchmark_instance, sm.build_partition(25, 4, 3), cfg)
    assert len(anchors) == result.iterations == 4
    assert [r.coupling_inf for r in result.records] == [
        float(np.abs(a).max(initial=0.0)) for a in anchors
    ]
    if algorithm == "dsqp":
        # a cold start lifts one trajectory, whose sub-windows agree exactly
        assert result.records[0].coupling_inf == 0.0


@pytest.mark.parametrize("algorithm", sm.solvers.ALGORITHMS)
def test_record_norms_are_each_arrays_own_infinity_norm(benchmark_instance, algorithm, monkeypatch):
    """A record takes its four norms in one reduction; each equals, exactly, the
    infinity norm formed alone from the array the driver hands it. The
    centralized run has no coupling rows, so its ``coupling_inf`` reads 0."""
    handed, record = [], solvers._record

    def recorded(it, step, anchor, ev, stat, *rest):
        handed.append((step, anchor, ev.F, stat))
        return record(it, step, anchor, ev, stat, *rest)

    monkeypatch.setattr(solvers, "_record", recorded)
    partition = None if algorithm == "centralized" else sm.build_partition(25, 4, 3)
    cfg = sm.SolverConfig(algorithm=algorithm, tol=1e-8, max_iter=30)
    result = sm.solve(benchmark_instance, partition, cfg)
    assert len(handed) == result.iterations > 0
    for r, (step, anchor, F, stat) in zip(result.records, handed):
        assert r.primal_step_inf == float(np.abs(step).max())
        assert r.coupling_inf == float(np.abs(anchor).max(initial=0.0))
        assert r.dynamics_inf == float(np.abs(F).max())
        assert r.stationarity_inf == float(np.abs(stat).max())
    if algorithm == "centralized":
        assert {r.coupling_inf for r in result.records} == {0.0}


@pytest.mark.parametrize("at", [0, -1])
@pytest.mark.parametrize(
    "part, n_anchor", [(0, 0), (1, 0), (2, 0), (0, 9), (1, 9), (2, 9), (3, 9)]
)
def test_a_nan_in_one_part_of_the_record_reduction_is_that_metric_alone(part, n_anchor, at):
    """A NaN at either end of the step, ``F``, the stationarity or the anchor
    makes exactly that part's metric NaN; no anchor (one sub-window) reads 0."""
    rng = np.random.Generator(np.random.PCG64(3))
    step, F, stat, anchor = (rng.standard_normal(n) for n in (87, 75, 87, n_anchor))
    [step, F, stat, anchor][part][at] = np.nan
    ev = problem.StageEvaluation(b=np.ones(2), g=None, W=None, F=F.reshape(-1, 3), D=None)
    r = solvers._record(1, step.reshape(-1, 3), anchor, ev, stat, None, 0.0, 0.0, 0.0)
    norms = [r.primal_step_inf, r.dynamics_inf, r.stationarity_inf, r.coupling_inf]
    assert [math.isnan(v) for v in norms] == [k == part for k in range(4)]
    if not n_anchor:
        assert r.coupling_inf == 0.0


@pytest.mark.parametrize("algorithm", sm.solvers.ALGORITHMS)
def test_every_qp_takes_the_dynamics_defects_at_its_linearization_point(
    benchmark_instance, algorithm, monkeypatch
):
    """All four algorithms assemble the QP from ``(x, ev)`` alone: its
    constraint offsets ``d`` are ``F`` at the linearization point ``x``, the
    local solutions included, and its anchor is the coupling there."""
    points, stacks = [], []

    def hessian(run, x, *args):
        points.append((run, x.copy()))
        return local_nlp.hessian_blocks(run, x, *args)

    def coupled_qp(stack):
        stacks.append(stack)
        return qp_core.solve_coupled_qp(stack)

    monkeypatch.setattr(solvers, "hessian_blocks", hessian)
    monkeypatch.setattr(solvers, "solve_coupled_qp", coupled_qp)
    cfg = sm.SolverConfig(algorithm=algorithm, tol=0.0, max_iter=3)
    partition = sm.build_partition(25, 4, 3)
    result = sm.solve(benchmark_instance, partition, cfg)
    assert len(points) == len(stacks) == result.iterations == 3
    for (run, x), stack in zip(points, stacks):
        np.testing.assert_array_equal(stack.d, problem.evaluate_stack(run, x).F)
        np.testing.assert_array_equal(stack.anchor, sm.coupling_residual(stack.layout, x))


def test_solver_errors_carry_iteration_context(linear_model):
    # a rank-deficient constraint Jacobian (duplicate state dynamics) cannot
    # happen for these models, so force a failure through a bad warm start
    instance = build_linear_instance(linear_model, L=4, seed=2)
    partition = sm.build_partition(4, 2, 2)
    bad = sm.IterateState(
        x_blocks=np.full((6, 2), np.nan),
        y_blocks=np.full((6, 2), np.nan),
        lam=np.zeros(2),
        mu_blocks=np.zeros((4, 2)),
    )
    with pytest.raises(SplitMheError) as err:
        sm.run_distributed_sqp(
            instance, partition, sm.SolverConfig(algorithm="dsqp", rho=1.0), warm=bad
        )
    assert "iteration 1" in str(err.value)


def test_solve_result_shape_and_final_metrics(benchmark_runs):
    result = benchmark_runs["dsqp"]
    assert result.trajectory.shape == (26, 3)
    assert result.iterations == len(result.records)
    for key in ("primal_step_inf", "coupling_inf", "dynamics_inf", "stationarity_inf"):
        assert result.final_metrics[key] >= 0.0
    assert result.objective >= 0.0
    assert all(r.wall_ms >= 0.0 for r in result.records)


def test_wrapped_iteration_error_keeps_block_index():
    with pytest.raises(NotPositiveDefiniteError) as err:
        _wrap_iteration_error(NotPositiveDefiniteError("boom", block_index=2), "dsqp", 7)
    assert err.value.block_index == 2
    assert err.value.iteration == 7
    assert str(err.value) == "dsqp iteration 7: boom"
    assert err.value.__cause__.block_index == 2


@pytest.mark.parametrize("algorithm", ["gn_aladin", "sa_aladin", "dsqp"])
def test_solver_errors_name_the_failing_block(linear_model, algorithm):
    instance = build_linear_instance(linear_model, L=6, seed=2)
    partition = sm.build_partition(6, 3, 2)
    y = problem.lift(instance.initial_guess, partition)
    y[partition.state_block == 1] = np.nan
    bad = sm.IterateState(
        x_blocks=y, y_blocks=y, lam=np.zeros(partition.r), mu_blocks=np.zeros((6, 2))
    )
    with pytest.raises(NonFiniteDataError) as err:
        sm.solve(instance, partition, sm.SolverConfig(algorithm=algorithm, rho=1.0), warm=bad)
    assert err.value.block_index == 1
    assert err.value.iteration == 1


def test_sa_aladin_cold_start_errors_report_iteration_zero(origin_scenario):
    instance = sm.window_instance(origin_scenario, 25)
    partition = sm.build_partition(25, 4, 3)
    with pytest.raises(sm.OriginSingularityError) as err:
        sm.solve(instance, partition, sm.SolverConfig(algorithm="sa_aladin"))
    assert err.value.iteration == 0
    assert str(err.value).startswith("sa_aladin iteration 0: observation undefined")


@pytest.mark.parametrize("algorithm", ["dsqp", "centralized"])
def test_sqp_evaluates_each_block_once_per_point(benchmark_instance, algorithm):
    """Over k iterations an SQP run visits k + 1 points, and every consumer at a
    point (QP data, Hessian, metrics, the record's objective) shares one
    evaluation of the whole stack: one call of each model callable per point,
    whatever the number of blocks, and one more h for the result's objective."""
    k = 6
    for n_blocks in (1,) if algorithm == "centralized" else (4, 16):
        calls = Counter()
        model = counting_model(benchmark_instance.model, calls)
        instance = replace(benchmark_instance, model=model)
        partition = None if algorithm == "centralized" else sm.build_partition(25, n_blocks, 3)
        cfg = sm.SolverConfig(algorithm=algorithm, tol=0.0, max_iter=k)
        assert sm.solve(instance, partition, cfg).iterations == k
        for name in ("dh_dx", "f", "df_dx"):
            assert calls[name] <= k + 1, f"{name} ran {calls[name]} times at N={n_blocks}"
        assert calls["h"] <= k + 2, f"h ran {calls['h']} times at N={n_blocks}"


@pytest.mark.parametrize("algorithm", ["dsqp", "centralized"])
def test_sqp_work_per_iteration_is_pinned(benchmark_instance, algorithm, monkeypatch):
    """The work counts of an SQP iteration on the benchmark window, exactly:
    one call of each model callable (plus the first evaluation and the
    result's objective), one Cholesky factor of the reduced Hessian with one
    solve against it, two banded triangular solves, and one banded product
    (``dgbmv``) for the stationarity. Every condensed step of this window is at
    roundoff, so none is refined. A change that adds work on this path moves these
    counts."""
    k = 5
    calls = Counter()
    instance = replace(benchmark_instance, model=counting_model(benchmark_instance.model, calls))
    for module, name in [(scipy.linalg.lapack, n) for n in ("dtbtrs", "dpotrf", "dpotrs")] + [
        (scipy.linalg.blas, "dgbmv")
    ]:
        routine = getattr(module, name)

        def counted(*args, _name=name, _routine=routine, **kwargs):
            calls[_name] += 1
            return _routine(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    partition = None if algorithm == "centralized" else sm.build_partition(25, 4, 3)
    cfg = sm.SolverConfig(algorithm=algorithm, tol=0.0, max_iter=k)
    assert sm.solve(instance, partition, cfg).iterations == k
    assert calls == {
        "h": k + 2, "dh_dx": k + 1, "f": k + 1, "df_dx": k + 1,
        "dpotrf": k, "dpotrs": k, "dtbtrs": 2 * k, "dgbmv": k,
    }


@pytest.mark.parametrize("algorithm", ["gn_aladin", "sa_aladin", "dsqp"])
def test_a_shared_band_is_the_band_of_its_qp_evaluation(benchmark_instance, algorithm, monkeypatch):
    """Where ``_drive`` hands the metrics evaluation's link band to the next
    QP, that QP solves bit for bit as one that builds its band from its own
    ``D``, on every path: a band carried past its evaluation, such as into the
    QP at a local solve's or a predictor's points, would move the iterates."""
    partition = sm.build_partition(25, 4, 3)
    cfg = sm.SolverConfig(algorithm=algorithm, tol=1e-8, max_iter=60)
    builds = Counter()

    def run():
        builds.clear()
        result = sm.solve(benchmark_instance, partition, cfg)
        metrics = [[getattr(r, f) for f in RECORD_FIELDS] for r in result.records]
        return result, np.array(metrics), builds["band"]

    def counted_band(*args, _build=qp_core.link_band):
        builds["band"] += 1
        return _build(*args)

    for module in (qp_core, solvers, local_nlp):
        monkeypatch.setattr(module, "link_band", counted_band)
    shared, shared_metrics, shared_builds = run()
    monkeypatch.setattr(
        solvers, "StageStack", lambda band, **fields: qp_core.StageStack(**fields)
    )
    built, built_metrics, built_builds = run()
    assert shared.status == built.status == "converged"
    assert np.array_equal(shared.trajectory, built.trajectory)
    assert np.array_equal(shared_metrics, built_metrics)
    if algorithm == "dsqp":  # each QP but the first takes the last metrics' band
        assert built_builds - shared_builds == shared.iterations - 1


def _refuse(*args, **kwargs):
    raise AssertionError("dense materialisation in an outer loop")


def test_outer_loops_never_materialise_dense_qp_data(linear_instance, monkeypatch):
    """No algorithm forms dense coupling rows or takes the dense QP path, and
    none, local solves and predictor included, forms a dense block Hessian or
    Jacobian."""
    partition = sm.build_partition(linear_instance.L, 2, 2)
    monkeypatch.setattr(sm.SubProblem, "coupling_matrix", _refuse)
    monkeypatch.setattr(qp_core.QpBlock, "__post_init__", _refuse)
    monkeypatch.setattr(problem, "stage_constraint_matrix", _refuse)
    monkeypatch.setattr(local_nlp, "stage_constraint_matrix", _refuse)
    monkeypatch.setattr(scipy.linalg, "block_diag", _refuse)
    runs = {}
    for algorithm in ("gn_aladin", "sa_aladin", "dsqp", "centralized"):
        cfg = sm.SolverConfig(algorithm=algorithm, rho=1.0, tol=1e-12, max_iter=300)
        runs[algorithm] = sm.solve(
            linear_instance, None if algorithm == "centralized" else partition, cfg
        )
        assert runs[algorithm].status == "converged", algorithm
    assert runs["sa_aladin"].info["predictor_updates"] > 0


def _count_evaluations(monkeypatch) -> Counter:
    """Count the driver's and the local solves' evaluations, and the sizes of
    the runs evaluated."""
    calls = Counter()

    def counted(name):
        def wrapper(sub, x):
            calls[name] += 1
            calls[f"blocks={len(sub.layout.lengths)}"] += 1
            return problem.evaluate_stack(sub, x)
        return wrapper

    monkeypatch.setattr(solvers, "evaluate_stack", counted("driver"))
    monkeypatch.setattr(local_nlp, "evaluate_stack", counted("local"))
    return calls


def test_gn_aladin_evaluates_the_stack_once_per_iteration_and_round(
    benchmark_instance, monkeypatch
):
    """Every evaluation is of the whole stack, and no point is evaluated
    twice. The outer loop evaluates it once, at the new consensus point, and
    the next iteration's local solve starts there and takes that evaluation
    as its first round; the QP data come from the local solve's last round,
    which evaluated the local solutions. The lockstep local solve evaluates
    once per round, sharing it between the convergence test and the
    curvature."""
    calls = _count_evaluations(monkeypatch)
    solves = _record_local_solves(monkeypatch)
    cfg = sm.SolverConfig(algorithm="gn_aladin", tol=1e-8, max_iter=60)
    result = sm.solve(benchmark_instance, sm.build_partition(25, 4, 3), cfg)
    assert result.status == "converged"
    assert calls["driver"] == result.iterations == len(solves) == 16
    assert all(r.converged for _, r in solves)
    # iterations 2-16 start from the driver's evaluation
    assert [handed for handed, _ in solves] == [False] + [True] * 15
    # a converged solve of k rounds evaluates k + 1 times, once fewer when
    # handed its first round: 61 - 15 here
    assert calls["local"] == sum(r.iterations + 1 for _, r in solves) - 15 == 46
    assert calls["blocks=4"] == calls["driver"] + calls["local"] == 62


def test_unconverged_local_solves_are_counted(benchmark_runs):
    gn = benchmark_runs["gn_aladin"]
    assert (gn.iterations, gn.info["unconverged_local_solves"]) == (16, 0)
    assert benchmark_runs["sa_aladin"].info["unconverged_local_solves"] == 0
    # the drift gate's cold window: iteration 2's lockstep solve stops at the
    # 50-round cap, and the count says so without changing the iterate
    scenario = sm.generate_scenario(steps=100, seed=0)
    cfg = sm.SolverConfig(algorithm="gn_aladin", rho=5.0, tol=0.0, max_iter=2)
    result = sm.solve_window(scenario, 100, cfg, 16, 100)
    assert result.info["unconverged_local_solves"] == 1


@pytest.mark.parametrize(
    "field, axis, size",
    [
        ("x_blocks", 0, 5), ("y_blocks", 1, 5), ("mu_blocks", 2, 3), ("mu_blocks", None, None),
        ("lam", None, None),
    ],
)
@pytest.mark.parametrize("algorithm", ["gn_aladin", "sa_aladin", "dsqp"])
def test_warm_start_shapes_are_checked_up_front(linear_model, algorithm, field, axis, size):
    """A field whose axis ``axis`` has length ``size`` (5 of 9 states, 5 of 2
    columns, a third axis), or that is one stage or coupling row short, is
    named before any iteration runs."""
    instance = build_linear_instance(linear_model, L=6, seed=2)
    partition = sm.build_partition(6, 3, 2)
    y = problem.lift(instance.initial_guess, partition)
    state = dict(x_blocks=y, y_blocks=y, lam=np.zeros(partition.r), mu_blocks=np.zeros((6, 2)))
    expected = state[field].shape
    if axis is None:
        state[field] = state[field][:-1]
    else:
        state[field] = np.zeros(expected[:axis] + (size,) + expected[axis + 1:])
    message = f"{field} must be an array of shape {expected}, got {state[field].shape}"
    cfg = sm.SolverConfig(algorithm=algorithm, rho=1.0, max_iter=5)
    with pytest.raises(DimensionMismatchError, match=re.escape(message)) as err:
        sm.solve(instance, partition, cfg, warm=sm.IterateState(**state))
    assert not hasattr(err.value, "iteration")


@pytest.mark.parametrize("n_blocks", [4, 5])
@pytest.mark.parametrize("field", ["x_blocks", "y_blocks", "mu_blocks"])
def test_warm_start_takes_no_block_lists(benchmark_instance, field, n_blocks):
    """Warm state is arrays only. A block list, ragged at N = 4 (state blocks
    of 21, 21, 21 and 24 values) or not at N = 5 (five of 18), and even the
    rows of the right stack as a list, raise the field's DimensionMismatchError."""
    guess = benchmark_instance.initial_guess
    partition = sm.build_partition(25, n_blocks, 3)
    y = problem.lift(guess, partition)
    state = dict(x_blocks=y, y_blocks=y, lam=np.zeros(partition.r), mu_blocks=np.zeros((25, 3)))
    if field == "mu_blocks":
        blocks = [np.zeros(3 * n) for n in partition.lengths]
    else:
        blocks = sm.lift_initial_guess(guess, partition)
    assert (len({b.size for b in blocks}) > 1) == (n_blocks == 4)
    message = f"{field} must be an array of shape {state[field].shape}, got list"
    cfg = sm.SolverConfig(algorithm="dsqp", max_iter=5)
    for value in (blocks, state[field].tolist()):
        bad = sm.IterateState(**{**state, field: value})
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            sm.solve(benchmark_instance, partition, cfg, warm=bad)


@pytest.mark.parametrize("algorithm", sm.solvers.ALGORITHMS)
def test_a_warm_restart_continues_the_run_bit_for_bit(benchmark_instance, algorithm):
    """Two iterations warm started from the final state of three cold ones,
    the lifted stacks, are the last two of five cold ones."""
    partition = sm.build_partition(25, 4, 3)
    rho = 5.0 if algorithm == "gn_aladin" else 10.0

    def run(iters, warm=None):
        cfg = sm.SolverConfig(algorithm=algorithm, rho=rho, tol=0.0, max_iter=iters)
        return sm.solve(benchmark_instance, partition, cfg, warm=warm)

    whole = run(5)
    state = run(3).final_state
    n_blocks = 1 if algorithm == "centralized" else 4
    assert state.x_blocks.shape == state.y_blocks.shape == (25 + n_blocks, 3)
    assert (state.lam.shape, state.mu_blocks.shape) == ((3 * n_blocks - 3,), (25, 3))
    rest = run(2, state)
    np.testing.assert_array_equal(rest.trajectory, whole.trajectory)
    assert rest.objective == whole.objective
    for a, b in zip(rest.records, whole.records[3:], strict=True):
        for name in solvers._METRICS:
            assert getattr(a, name) == getattr(b, name), (a.iteration, name)
    short = replace(state, mu_blocks=state.mu_blocks[:-1])
    message = "mu_blocks must be an array of shape (25, 3), got (24, 3)"
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        run(2, short)


def test_sa_aladin_evaluates_the_stack_at_most_twice_per_iteration(
    benchmark_instance, monkeypatch
):
    """Every evaluation is of the whole stack. Only the initial lockstep local
    solve evaluates in local_nlp, once per round; the outer loop evaluates
    the stack at the new consensus point, and again at the local pairs only
    where a predictor update moved them off it."""
    calls = _count_evaluations(monkeypatch)
    cfg = sm.SolverConfig(algorithm="sa_aladin")
    result = sm.solve(benchmark_instance, sm.build_partition(25, 4, 3), cfg)
    assert result.iterations == 50
    # the initial solve takes 5 rounds and evaluates its solutions once more
    assert calls["local"] == 6, calls["local"]
    # 63: 50 consensus points and 13 iterations after a predictor update; the
    # first QP reuses the initial solve's last evaluation
    assert calls["driver"] == 63, calls["driver"]
    assert calls["blocks=4"] == calls["driver"] + calls["local"]


def test_sa_singular_local_kkt_takes_the_shift_ladder(linear_instance, monkeypatch, caplog):
    """A trusted step whose local KKT matrix is singular is shifted by ``rho``,
    as in the exact local solve, and stays a predictor update."""

    def zero_curvature(sub, *args, **kwargs):
        return np.zeros((sub.layout.n_states, sub.model.nx, sub.model.nx))

    # H = 0 with more variables than constraints: [[H, C'], [C, 0]] is
    # singular. A warm start skips the initial local solves, so only the
    # trusted steps see the patched curvature.
    monkeypatch.setattr(local_nlp, "hessian_blocks", zero_curvature)
    partition = sm.build_partition(linear_instance.L, 2, 2)
    lifted = problem.lift(linear_instance.initial_guess, partition)
    warm = sm.IterateState(
        x_blocks=lifted, y_blocks=lifted, lam=np.zeros(partition.r),
        mu_blocks=np.zeros((linear_instance.L, 2)),
    )
    cfg = sm.SolverConfig(algorithm="sa_aladin", rho=1.0, tol=1e-12, max_iter=300)
    with caplog.at_level(logging.WARNING, logger="splitmhe.qp_core"):
        result = sm.run_sensitivity_aladin(linear_instance, partition, cfg, warm=warm)
    shifts = [r.getMessage() for r in caplog.records if "retrying with shift" in r.getMessage()]
    assert result.info["predictor_updates"] > 0
    assert len(shifts) == result.info["predictor_updates"]
    assert all(m.endswith("shift 1.000e+00") for m in shifts)
    steps = result.info["predictor_updates"] + result.info["coordination_fallbacks"]
    assert steps == partition.N * result.iterations
    # the shifted steps still head for the optimum (2.5e-8 away at max_iter)
    reference = linear_window_optimum(linear_instance)
    assert np.abs(result.trajectory - reference).max() <= 1e-6


@pytest.mark.parametrize("L, N", [(400, 66), (1600, 266)])
def test_dsqp_converges_on_cold_long_windows_at_small_rho(L, N):
    """The stage solve's accuracy does not floor the outer iteration: cold
    ``dsqp`` at ``rho`` 0.1 converges in 29 (L = 400) and 13 (L = 1600)
    iterations."""
    cfg = sm.SolverConfig(algorithm="dsqp", rho=0.1, tol=1e-8, max_iter=60)
    result = sm.solve_window(sm.generate_scenario(steps=L, seed=0), L, cfg, N, L)
    assert result.status == "converged"
    assert result.iterations <= 60
