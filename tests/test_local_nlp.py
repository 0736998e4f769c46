from dataclasses import replace

import numpy as np
import pytest

import splitmhe as sm
from splitmhe import local_nlp, problem
from splitmhe.errors import LocalSolveError, SingularKktError
from splitmhe.local_nlp import (
    LocalSolveConfig,
    first_order_conditions,
    lagrangian_hessian,
    sensitivity_matrices,
    solve_local_subproblem,
    tangent_predictor,
)
from splitmhe.problem import constraint_vector, lifted_layout, split_instance, subproblem
from splitmhe.qp_core import link_band, solve_local_kkt

from conftest import build_linear_instance
from helpers import dense_kkt, fd_jacobian, refined_solve, rel_err


def robot_sub(instance, n_sub=3, index=1):
    partition = sm.build_partition(instance.L, n_sub, 3)
    subs = split_instance(instance, partition)
    blocks = sm.lift_initial_guess(instance.initial_guess, partition)
    return subs[index], blocks[index], partition


def kkt_inf(sub, x, mu, lam, y_ref, rho):
    return float(np.abs(first_order_conditions(sub, x, mu, lam, y_ref, rho)).max())


def linear_sub(linear_instance, index=0):
    partition = sm.build_partition(linear_instance.L, 2, 2)
    subs = split_instance(linear_instance, partition)
    blocks = sm.lift_initial_guess(linear_instance.initial_guess, partition)
    return subs[index], blocks[index], partition


def test_feasible_stationary_start_returns_immediately(small_robot_instance):
    model = small_robot_instance.model
    sim = sm.rollout(model, small_robot_instance.initial_guess[0], small_robot_instance.controls)
    perfect = sm.MheInstance(
        L=12,
        window_start=0,
        measurements=np.stack([model.h(s) for s in sim]),
        controls=small_robot_instance.controls,
        prior=sim[0],
        P=np.eye(3),
        V=small_robot_instance.V,
        initial_guess=sim,
        model=model,
    )
    partition = sm.build_partition(12, 3, 3)
    subs = split_instance(perfect, partition)
    for sub, y in zip(subs, sm.lift_initial_guess(sim, partition)):
        res = solve_local_subproblem(sub, np.zeros(partition.r), y, rho=10.0)
        assert res.converged
        assert res.iterations <= 1
        np.testing.assert_allclose(res.x, y, atol=1e-9)
        assert np.abs(res.mu).max() <= 1e-9


def test_one_step_exactness_on_linear_quadratic(linear_instance):
    sub, y, partition = linear_sub(linear_instance)
    rng = np.random.Generator(np.random.PCG64(2))
    lam = 0.1 * rng.standard_normal(partition.r)
    res = solve_local_subproblem(sub, lam, y, rho=1.0)
    assert res.converged
    assert res.iterations == 1
    assert res.kkt_inf <= 1e-10


def test_robot_subproblem_reaches_inner_tolerance(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(3))
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=2)
    lam = 0.5 * rng.standard_normal(partition.r)
    start = y + 0.05 * rng.standard_normal(y.size)
    res = solve_local_subproblem(sub, lam, y, rho=25.0, x0=start)
    assert res.converged
    assert res.kkt_inf <= 1e-10
    assert kkt_inf(sub, res.x, res.mu, lam, y, 25.0) <= 1e-10


def test_an_unconverged_solve_reports_the_residual_before_its_last_step(benchmark_instance):
    """A solve that runs out of rounds returns its last iterates, whose KKT
    residual it never measured: ``kkt_inf`` is that of the iterates one round
    earlier, which a budget one round shorter returns."""
    rng = np.random.Generator(np.random.PCG64(3))
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=2)
    lam = 0.5 * rng.standard_normal(partition.r)
    start = y + 0.05 * rng.standard_normal(y.size)
    short, last = (
        solve_local_subproblem(sub, lam, y, 25.0, LocalSolveConfig(inner_max_iter=k), x0=start)
        for k in (1, 2)
    )
    assert not last.converged and last.iterations == 2 and last.evaluation is None
    assert last.kkt_inf == kkt_inf(sub, short.x, short.mu, lam, y, 25.0)
    assert kkt_inf(sub, last.x, last.mu, lam, y, 25.0) < last.kkt_inf


def test_kkt_residual_echoes_solver_certificate(benchmark_instance):
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=1)
    res = solve_local_subproblem(sub, np.zeros(partition.r), y, rho=25.0)
    echo = kkt_inf(sub, res.x, res.mu, np.zeros(partition.r), y, 25.0)
    assert echo == pytest.approx(res.kkt_inf, abs=1e-14)


def test_kkt_residual_grows_linearly_in_mu_perturbation(benchmark_instance):
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=1)
    lam = np.zeros(partition.r)
    res = solve_local_subproblem(sub, lam, y, rho=25.0)
    rng = np.random.Generator(np.random.PCG64(4))
    direction = rng.standard_normal(res.mu.size)
    direction /= np.abs(direction).max()
    values = []
    for delta in (1e-4, 1e-3, 1e-2):
        values.append(kkt_inf(sub, res.x, res.mu + delta * direction, lam, y, 25.0))
    assert values[1] == pytest.approx(10 * values[0], rel=1e-3)
    assert values[2] == pytest.approx(100 * values[0], rel=1e-3)


def test_kkt_residual_reduces_to_constraint_norm_without_penalties(benchmark_instance):
    # minimize the pure least-squares part (constraints dropped) with a tiny
    # proximal pull toward the unconstrained minimizer itself, then check that
    # the stationarity rows vanish and only the dynamics defects remain
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=1)
    from splitmhe.problem import eval_residual_stack

    x = y.copy()
    for _ in range(200):
        b, J = eval_residual_stack(sub, x)
        grad = J.T @ b
        if np.abs(grad).max() <= 1e-11:
            break
        x = x - np.linalg.solve(J.T @ J + 1e-3 * np.eye(x.size), grad)
    assert np.abs(grad).max() <= 1e-11
    residual = kkt_inf(sub, x, np.zeros(sub.constraint_dim), np.zeros(partition.r), x, 0.0)
    assert residual == pytest.approx(np.abs(constraint_vector(sub, x)).max(), rel=1e-6)


def test_lagrangian_hessian_modes_agree_on_linear_model(linear_instance):
    sub, y, _ = linear_sub(linear_instance)
    mu = np.ones(sub.constraint_dim)
    gn = lagrangian_hessian(sub, y, mu, rho=2.0, mode="gauss_newton")
    exact = lagrangian_hessian(sub, y, mu, rho=2.0, mode="exact_lagrangian")
    np.testing.assert_allclose(gn, exact, atol=1e-13)


def test_lagrangian_hessian_matches_fd(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(5))
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=3)
    x = y + 0.02 * rng.standard_normal(y.size)
    mu = rng.standard_normal(sub.constraint_dim)
    lam = rng.standard_normal(partition.r)
    rho = 7.0
    exact = lagrangian_hessian(sub, x, mu, rho, mode="exact_lagrangian")

    def grad(z):
        return first_order_conditions(sub, z, mu, lam, y, rho)[:sub.block_dim]

    assert rel_err(exact, fd_jacobian(grad, x)) < 1e-5
    assert np.abs(exact - exact.T).max() == 0.0


def test_gauss_newton_blocks_are_exactly_symmetric(benchmark_instance):
    """The Gauss-Newton blocks ``rho I + J'J`` are returned as formed, so they
    must be symmetric bit for bit: on the benchmark window, and on a linear
    model with more outputs than states under full prior and measurement
    weights."""
    rng = np.random.Generator(np.random.PCG64(6))
    A, B, C = rng.standard_normal((2, 2)), rng.standard_normal((2, 1)), rng.standard_normal((3, 2))
    P, V = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
    linear = build_linear_instance(sm.make_linear_model(A, B, C), L=8, seed=3)
    linear = replace(linear, P=P @ P.T + np.eye(2), V=V @ V.T + np.eye(3))
    for instance, n_sub in ((benchmark_instance, 4), (linear, 3)):
        nx = instance.model.nx
        partition = sm.build_partition(instance.L, n_sub, nx)
        run = subproblem(instance, partition, range(n_sub))
        x = problem.lift(instance.initial_guess, partition)
        x += 0.01 * rng.standard_normal(x.shape)
        H = local_nlp.hessian_blocks(run, x, None, 7.0, problem.evaluate_stack(run, x), False)
        assert H.shape == (partition.n_states, nx, nx)
        np.testing.assert_array_equal(H, np.swapaxes(H, 1, 2))


def test_gauss_newton_equals_exact_at_zero_residual_zero_mu(small_robot_instance):
    model = small_robot_instance.model
    sim = sm.rollout(model, small_robot_instance.initial_guess[0], small_robot_instance.controls)
    perfect = sm.MheInstance(
        L=12,
        window_start=0,
        measurements=np.stack([model.h(s) for s in sim]),
        controls=small_robot_instance.controls,
        prior=sim[0],
        P=np.eye(3),
        V=small_robot_instance.V,
        initial_guess=sim,
        model=model,
    )
    partition = sm.build_partition(12, 2, 3)
    subs = split_instance(perfect, partition)
    blocks = sm.lift_initial_guess(sim, partition)
    sub, x = subs[0], blocks[0]
    mu = np.zeros(sub.constraint_dim)
    gn = lagrangian_hessian(sub, x, mu, rho=1.0, mode="gauss_newton")
    exact = lagrangian_hessian(sub, x, mu, rho=1.0, mode="exact_lagrangian")
    np.testing.assert_allclose(gn, exact, atol=1e-9)


def test_sensitivity_of_a_single_window_partition(benchmark_instance):
    # N = 1 has no coupling rows: A is (0, 78) and N carries no lam columns
    sub, y, partition = robot_sub(benchmark_instance, n_sub=1, index=0)
    assert partition.r == 0
    assert sub.coupling_matrix().shape == (0, 78)
    assert sub.apply_coupling_transpose(np.zeros(0)).shape == (78,)
    mu = np.zeros(sub.constraint_dim)
    pair = sensitivity_matrices(sub, y, mu, np.zeros(0), y, 5.0)
    assert pair.N.shape == (153, 78)
    np.testing.assert_array_equal(pair.N[:78], -5.0 * np.eye(78))


def test_sensitivity_structure(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(6))
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=1)
    x = y + 0.01 * rng.standard_normal(y.size)
    mu = rng.standard_normal(sub.constraint_dim)
    lam = rng.standard_normal(partition.r)
    rho = 5.0
    pair = sensitivity_matrices(sub, x, mu, lam, y, rho)
    n, m, r = sub.block_dim, sub.constraint_dim, partition.r
    assert pair.M.shape == (n + m, n + m)
    assert pair.N.shape == (n + m, n + r)
    assert np.abs(pair.M - pair.M.T).max() == 0.0
    np.testing.assert_allclose(pair.N[:n, :n], -rho * np.eye(n), atol=1e-14)
    np.testing.assert_allclose(pair.N[:n, n:], sub.coupling_matrix().T, atol=1e-14)
    assert np.abs(pair.N[n:, :]).max() == 0.0
    # rho = 0 removes the prox response entirely
    pair0 = sensitivity_matrices(sub, x, mu, lam, y, 0.0)
    assert np.abs(pair0.N[:n, :n]).max() == 0.0


def test_sensitivity_m_constant_on_linear_quadratic(linear_instance):
    sub, y, partition = linear_sub(linear_instance)
    rng = np.random.Generator(np.random.PCG64(7))
    mu = rng.standard_normal(sub.constraint_dim)
    lam = rng.standard_normal(partition.r)
    a = sensitivity_matrices(sub, y, mu, lam, y, 3.0)
    b = sensitivity_matrices(sub, y + rng.standard_normal(y.size), mu, lam, y, 3.0)
    np.testing.assert_allclose(a.M, b.M, atol=1e-12)


def test_sensitivity_m_matches_fd_of_conditions(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(8))
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=2)
    x = y + 0.01 * rng.standard_normal(y.size)
    mu = rng.standard_normal(sub.constraint_dim)
    lam = rng.standard_normal(partition.r)
    rho = 4.0
    pair = sensitivity_matrices(sub, x, mu, lam, y, rho)
    n = sub.block_dim

    def phi(s):
        return first_order_conditions(sub, s[:n], s[n:], lam, y, rho)

    fd = fd_jacobian(phi, np.concatenate([x, mu]))
    assert rel_err(pair.M, fd) < 1e-5


def test_tangent_predictor_zero_step(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(9))
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=1)
    res = solve_local_subproblem(sub, np.zeros(partition.r), y, rho=25.0)
    s = np.concatenate([res.x, res.mu])
    xi = np.concatenate([y, np.zeros(partition.r)])
    pair = sensitivity_matrices(sub, res.x, res.mu, np.zeros(partition.r), y, 25.0)
    np.testing.assert_array_equal(tangent_predictor(s, xi, xi, pair), s)


def test_tangent_predictor_on_a_long_cold_sub_window():
    """Sub-window 0 of L = 800, N = 2 (400 stages) at the cold guess: ``M``
    has cond 2.3e16, where a plain dense solve is off by up to 2.5e-8; one
    refinement step with the same LU factor matches a refined reference."""
    L = 800
    instance = sm.window_instance(sm.generate_scenario(steps=L, seed=0), L, horizon=L)
    sub, y, partition = robot_sub(instance, n_sub=2, index=0)
    rng = np.random.Generator(np.random.PCG64(3))
    mu, lam = np.zeros(sub.constraint_dim), np.zeros(partition.r)
    s, xi = np.concatenate([y, mu]), np.concatenate([y, lam])
    for rho in (10.0, 0.1):
        pair = sensitivity_matrices(sub, y, mu, lam, y, rho)
        xi_new = xi + 1e-3 * rng.standard_normal(xi.size)
        step = refined_solve(pair.M, pair.N @ (xi_new - xi))
        predicted = tangent_predictor(s, xi, xi_new, pair)
        # measured 4.9e-15 and 1.2e-15; the plain solve 2.5e-8 and 1.0e-11
        assert np.abs(predicted - (s - step)).max() <= 1e-13 * np.abs(step).max()


def test_tangent_predictor_raises_on_a_singular_kkt_matrix(linear_instance):
    sub, y, partition = linear_sub(linear_instance)
    mu, lam = np.zeros(sub.constraint_dim), np.zeros(partition.r)
    pair = sensitivity_matrices(sub, y, mu, lam, y, 1.0)
    M = pair.M.copy()
    M[:, 3] = M[3, :] = 0.0
    s, xi = np.concatenate([y, mu]), np.concatenate([y, lam])
    with pytest.raises(SingularKktError, match="sensitivity KKT matrix is singular"):
        tangent_predictor(s, xi, xi + 0.1, local_nlp.SensitivityPair(M, pair.N))


def test_tangent_predictor_exact_on_affine_manifold(linear_instance):
    sub, y, partition = linear_sub(linear_instance)
    rng = np.random.Generator(np.random.PCG64(10))
    rho = 2.0
    lam_old = 0.1 * rng.standard_normal(partition.r)
    res_old = solve_local_subproblem(sub, lam_old, y, rho, LocalSolveConfig(inner_tol=1e-12))
    lam_new = lam_old + rng.standard_normal(partition.r)
    y_new = y + rng.standard_normal(y.size)
    pair = sensitivity_matrices(sub, res_old.x, res_old.mu, lam_old, y, rho)
    s_pred = tangent_predictor(
        np.concatenate([res_old.x, res_old.mu]),
        np.concatenate([y, lam_old]),
        np.concatenate([y_new, lam_new]),
        pair,
    )
    res_new = solve_local_subproblem(sub, lam_new, y_new, rho, LocalSolveConfig(inner_tol=1e-12))
    np.testing.assert_allclose(s_pred[:sub.block_dim], res_new.x, atol=1e-9)
    np.testing.assert_allclose(s_pred[sub.block_dim:], res_new.mu, atol=1e-9)


def test_tangent_predictor_second_order_on_robot(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(12))
    sub, y, partition = robot_sub(benchmark_instance, n_sub=4, index=1)
    rho = 25.0
    lam = np.zeros(partition.r)
    tight = LocalSolveConfig(inner_tol=1e-12, inner_max_iter=200)
    res = solve_local_subproblem(sub, lam, y, rho, tight)
    pair = sensitivity_matrices(sub, res.x, res.mu, lam, y, rho)
    s = np.concatenate([res.x, res.mu])
    xi = np.concatenate([y, lam])

    d_xi = rng.standard_normal(xi.size)
    d_xi /= np.abs(d_xi).max()

    def prediction_error(delta):
        xi_new = xi + delta * d_xi
        s_pred = tangent_predictor(s, xi, xi_new, pair)
        res_new = solve_local_subproblem(
            sub, xi_new[sub.block_dim:], xi_new[:sub.block_dim], rho, tight, x0=res.x
        )
        exact = np.concatenate([res_new.x, res_new.mu])
        return np.abs(s_pred - exact).max()

    e1 = prediction_error(0.04)
    e2 = prediction_error(0.02)
    # halving the parameter step quarters the prediction error
    assert 2.8 <= e1 / e2 <= 5.5


def test_predictor_corrector_step_is_the_tangent_predictor(benchmark_instance):
    """At a solved pair the conditions vanish, so sa_aladin's one banded KKT
    solve steps to new parameters exactly as the dense tangent predictor."""
    rng = np.random.Generator(np.random.PCG64(17))
    partition = sm.build_partition(25, 4, 3)
    rho, tight, lam = 25.0, LocalSolveConfig(inner_tol=1e-12), np.zeros(partition.r)
    subs = split_instance(benchmark_instance, partition)
    for sub, y in zip(subs, sm.lift_initial_guess(benchmark_instance.initial_guess, partition)):
        res = solve_local_subproblem(sub, lam, y, rho, tight)
        assert res.converged
        y_new = y + 0.1 * rng.standard_normal(y.size)
        lam_new = lam + 0.1 * rng.standard_normal(lam.size)
        x, mu = sub.states(res.x), res.mu.reshape(sub.length, -1)
        x_new, mu_new, trusted = local_nlp.predictor_corrector(
            sub, x, mu, lam_new, y_new, rho, res.evaluation, np.inf
        )
        assert trusted.tolist() == [True]
        s = np.concatenate([res.x, res.mu])
        pair = sensitivity_matrices(sub, res.x, res.mu, lam, y, rho)
        tangent = tangent_predictor(
            s, np.concatenate([y, lam]), np.concatenate([y_new, lam_new]), pair
        ) - s
        step = np.concatenate([x_new.ravel(), mu_new.ravel()]) - s
        assert np.abs(step - tangent).max() <= 1e-10 * np.abs(tangent).max()


def test_predictor_corrector_leaves_an_untrusted_block_unmoved(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(18))
    partition = sm.build_partition(25, 4, 3)
    run = subproblem(benchmark_instance, partition, range(partition.N))
    rho, lam = 25.0, np.zeros(partition.r)
    y = problem.lift(benchmark_instance.initial_guess, partition)
    res = solve_local_subproblem(run, lam, y, rho, LocalSolveConfig(inner_tol=1e-12))
    x, mu = run.states(res.x), res.mu.reshape(run.length, -1)
    # block 2's prox center moves far, the others' barely
    far = partition.state_block == 2
    y_new = y + np.where(far[:, None], 1.0, 1e-6) * rng.standard_normal(y.shape)
    x_new, mu_new, trusted = local_nlp.predictor_corrector(
        run, x, mu, lam, y_new, rho, res.evaluation, 1e-3
    )
    assert trusted.tolist() == [True, True, False, True]
    np.testing.assert_array_equal(x_new[far], x[far])
    stages = partition.stage_block == 2
    np.testing.assert_array_equal(mu_new[stages], mu[stages])
    assert (x_new[~far] != x[~far]).any()


def test_inner_solver_rejects_bad_rho(benchmark_instance):
    sub, y, partition = robot_sub(benchmark_instance)
    with pytest.raises(ValueError):
        solve_local_subproblem(sub, np.zeros(partition.r), y, rho=0.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("inner_tol", 0.0, "inner_tol must be positive and finite, got 0.0"),
        ("inner_tol", float("inf"), "inner_tol must be positive and finite, got inf"),
        ("inner_max_iter", 0, "inner_max_iter must be an integer >= 1, got 0"),
    ],
)
def test_local_solve_config_names_the_bad_field(field, value, message):
    with pytest.raises(ValueError, match=message):
        LocalSolveConfig(**{field: value})


def test_lagrangian_hessian_rejects_an_unknown_mode(benchmark_instance):
    sub, x, _ = robot_sub(benchmark_instance)
    with pytest.raises(ValueError, match="unknown hessian mode 'bogus'"):
        lagrangian_hessian(sub, x, np.zeros(sub.length * 3), 1.0, mode="bogus")




def test_solve_local_kkt_raises_on_a_singular_matrix():
    rng = np.random.Generator(np.random.PCG64(5))
    nx = 2
    lay = lifted_layout((3,), nx)
    D = rng.standard_normal((3, nx, nx))
    band = link_band(lay, D, False)
    rhs_x, rhs_mu = rng.standard_normal((4, nx)), rng.standard_normal((3, nx))
    # H = 0 with more variables than constraints: [[H, C'], [C, 0]] is
    # singular, and the solve raises instead of shifting H
    with pytest.raises(LocalSolveError, match="^block 0: local KKT matrix singular$") as err:
        solve_local_kkt(lay, np.zeros((4, nx, nx)), band, rhs_x, rhs_mu, np.ones(1, bool))
    assert err.value.block_index == 0
    # the caller's own shift of H makes the same system regular
    H = 0.5 * np.broadcast_to(np.eye(nx), (4, nx, nx))
    dx, mu = solve_local_kkt(lay, H, band, rhs_x, rhs_mu, np.ones(1, bool))
    rhs = np.concatenate([rhs_x.ravel(), rhs_mu.ravel()])
    expected = np.linalg.solve(dense_kkt(lay, H, D), rhs)
    assert rel_err(np.concatenate([dx.ravel(), mu.ravel()]), expected) < 1e-12
    # x0 and x1 = x0 have curvature +2^70 and -2^70, so the reduced Hessian is exactly 0
    H = np.array([[[2.0 ** 70]], [[-2.0 ** 70]]])
    lay = lifted_layout((1,), 1)
    with pytest.raises(LocalSolveError, match="block 0") as err:
        solve_local_kkt(lay, H, link_band(lay, np.ones((1, 1, 1)), False), np.ones((2, 1)),
                        np.zeros((1, 1)), np.ones(1, bool))
    assert err.value.block_index == 0


def test_line_search_stops_once_the_trial_rounds_to_x(benchmark_instance, monkeypatch):
    # x + alpha * dx == x bitwise, and so is every shorter step: their merit is
    # exactly merit0, so no trial is evaluated (halving down to 2^-30 takes 31)
    sub, x, partition = robot_sub(benchmark_instance)
    x = sub.states(x)
    at_lam = sub.apply_coupling_transpose(np.ones(partition.r)).reshape(x.shape)
    one = np.ones(1)
    merit0 = local_nlp._merits(sub, x, one, at_lam, x, 25.0)
    trials = []

    def counted(*args):
        trials.append(args[1])
        return merit(*args)

    merit = local_nlp._merits
    monkeypatch.setattr(local_nlp, "_merits", counted)
    found = local_nlp._line_search(
        sub, x, 1e-30 * x, np.ones(1, dtype=bool), one, at_lam, x, 25.0, merit0, 1e-14 * merit0
    )
    assert found.tolist() == [0.0]
    assert trials == []


def test_a_trial_at_the_origin_halves_only_its_own_block(benchmark_instance, monkeypatch):
    """Three sub-windows search together; the full step of the middle one puts
    a measured state on the observation singularity. Only that block's step
    is halved, as its own search would do, and the others keep theirs."""
    rng = np.random.Generator(np.random.PCG64(15))
    partition = sm.build_partition(25, 3, 3)
    run = subproblem(benchmark_instance, partition, range(partition.N))
    x = problem.lift(benchmark_instance.initial_guess, partition)
    dx = 0.01 * rng.standard_normal(x.shape)
    target = run.layout.first[1] + 2  # a measured interior state of block 1
    x[target, :2], dx[target, :2] = 1.0, -1.0
    searching, sigma, at_lam = np.ones(3, dtype=bool), np.ones(3), np.zeros_like(x)
    evaluated = []

    def counted(*args):
        evaluated.append(args[1])
        return merit(*args)

    merit = local_nlp._merits
    monkeypatch.setattr(local_nlp, "_merits", counted)
    # any finite merit is a decrease from 1e300
    found = local_nlp._line_search(
        run, x, dx, searching, sigma, at_lam, x, 1.0, np.full(3, 1e300), np.zeros(3)
    )
    assert found.tolist() == [1.0, 0.5, 1.0]
    assert len(evaluated) == 2  # the full steps raised, then the halved block's trial
    # the origin error named the stacked state through the measured states
    with pytest.raises(sm.OriginSingularityError) as err:
        problem.residual_vector(run, x + dx)
    assert run.measured[err.value.state] == target
    # the block searched alone takes the same step
    sub = split_instance(benchmark_instance, partition)[1]
    states = slice(run.layout.first[1], run.layout.last[1] + 1)
    alone = local_nlp._line_search(
        sub, x[states], dx[states], searching[:1], sigma[:1], at_lam[states], x[states], 1.0,
        np.full(1, 1e300), np.zeros(1),
    )
    assert alone.tolist() == [0.5]


def test_a_handed_evaluation_saves_the_first_rounds_evaluation(benchmark_instance, monkeypatch):
    """``evaluation=``, the run's evaluation at the start point, gives the
    same solve bit for bit with one evaluation fewer."""
    rng = np.random.Generator(np.random.PCG64(20))
    partition = sm.build_partition(25, 4, 3)
    run = subproblem(benchmark_instance, partition, range(partition.N))
    y = problem.lift(benchmark_instance.initial_guess, partition)
    lam = 0.5 * rng.standard_normal(partition.r)
    at_start = problem.evaluate_stack(run, y)
    calls = []

    def counted(sub, x):
        calls.append(1)
        return problem.evaluate_stack(sub, x)

    monkeypatch.setattr(local_nlp, "evaluate_stack", counted)
    plain = solve_local_subproblem(run, lam, y, 5.0)
    n_plain = len(calls)
    handed = solve_local_subproblem(run, lam, y, 5.0, evaluation=at_start)
    assert len(calls) - n_plain == n_plain - 1
    np.testing.assert_array_equal(handed.x, plain.x)
    np.testing.assert_array_equal(handed.mu, plain.mu)
    assert handed.iterations == plain.iterations
    assert handed.converged and plain.converged


@pytest.mark.parametrize("n_sub", [1, 4, 7])
def test_lockstep_solve_equals_the_solves_of_its_blocks(benchmark_instance, n_sub):
    """A run's lockstep solve gives every block the iterate, the multipliers
    and the iteration count of the block's own solve, bit for bit."""
    rng = np.random.Generator(np.random.PCG64(16))
    partition = sm.build_partition(25, n_sub, 3)
    run = subproblem(benchmark_instance, partition, range(partition.N))
    y = problem.lift(benchmark_instance.initial_guess, partition)
    lam = 0.5 * rng.standard_normal(partition.r)
    together = solve_local_subproblem(run, lam, y, 5.0)
    alone = [
        solve_local_subproblem(sub, lam, y_i, 5.0)
        for sub, y_i in zip(split_instance(benchmark_instance, partition), partition.split(y))
    ]
    np.testing.assert_array_equal(together.x, np.concatenate([r.x for r in alone]))
    np.testing.assert_array_equal(together.mu, np.concatenate([r.mu for r in alone]))
    assert together.iterations == max(r.iterations for r in alone)
    assert together.converged and all(r.converged for r in alone)
    assert together.kkt_inf == max(r.kkt_inf for r in alone)
    # the last round evaluated the run at its solution
    for name, a, b in zip(together.evaluation._fields, together.evaluation,
                          problem.evaluate_stack(run, together.x)):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_a_masked_sub_window_sees_no_links(benchmark_instance):
    """A KKT step over some sub-windows zeroes the others' links in a copy of
    the round's band: their data, even non-finite or a singular zero ``H``,
    leave the step finite and zero there, with no error, and the other
    sub-windows' steps bit for bit unchanged."""
    rng = np.random.Generator(np.random.PCG64(17))
    partition = sm.build_partition(25, 4, 3)
    run = subproblem(benchmark_instance, partition, range(4))
    x = problem.lift(benchmark_instance.initial_guess, partition)
    ev = problem.evaluate_stack(run, x)
    H = local_nlp.hessian_blocks(run, x, None, 5.0, ev, False)
    rhs_x, rhs_mu = rng.standard_normal(x.shape), rng.standard_normal(ev.F.shape)
    blocks = np.array([True, False, True, True])
    broken = np.where((partition.stage_block == 1)[:, None, None], np.nan, ev.D)
    band = local_nlp.link_band(partition, broken, False)
    kept = band.copy()
    got = solve_local_kkt(partition, H, band, rhs_x, rhs_mu, blocks)
    np.testing.assert_array_equal(band, kept)  # the round's band is not masked in place
    want = solve_local_kkt(
        partition, H, local_nlp.link_band(partition, ev.D, False), rhs_x, rhs_mu, blocks
    )
    # H = 0 alone makes sub-window 1's reduced system singular; masked, it raises nothing
    zero = np.where((partition.state_block == 1)[:, None, None], 0.0, H)
    masked = solve_local_kkt(partition, zero, band, rhs_x, rhs_mu, blocks)
    for a, b, c, rows in zip(got, want, masked, (partition.state_block, partition.stage_block)):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(c, b)
        assert not a[rows == 1].any()
