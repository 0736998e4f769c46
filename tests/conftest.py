import numpy as np
import pytest

import splitmhe as sm


@pytest.fixture(scope="session")
def robot():
    return sm.robot_model()


@pytest.fixture(scope="session")
def linear_model():
    A = np.array([[0.9, 0.2], [-0.1, 0.95]])
    B = np.array([[0.1], [0.05]])
    C = np.array([[1.0, 0.3]])
    return sm.make_linear_model(A, B, C)


def build_linear_instance(model, L=6, seed=11, noise=0.1):
    """Random estimation window on a linear model, reproducible per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x0 = rng.standard_normal(model.nx)
    controls = rng.standard_normal((L, model.nu))
    states = sm.rollout(model, x0, controls)
    measurements = np.stack([model.h(s) for s in states])
    measurements = measurements + noise * rng.standard_normal(measurements.shape)
    prior = x0 + noise * rng.standard_normal(model.nx)
    guess = states + 2.0 * noise * rng.standard_normal(states.shape)
    return sm.MheInstance(
        L=L,
        window_start=0,
        measurements=measurements,
        controls=controls,
        prior=prior,
        P=np.eye(model.nx),
        V=np.eye(model.ny),
        initial_guess=guess,
        model=model,
    )


@pytest.fixture(scope="session")
def linear_instance(linear_model):
    return build_linear_instance(linear_model)


@pytest.fixture(scope="session")
def benchmark_scenario():
    return sm.generate_scenario(steps=60, seed=0)


@pytest.fixture(scope="session")
def origin_scenario():
    """A scenario whose true trajectory passes through the observation
    singularity at state 5, so the default initial guess of the first window
    cannot be evaluated."""
    scenario = sm.generate_scenario(steps=30, seed=0)
    scenario.true_states[5, :2] = 0.0
    return scenario


@pytest.fixture(scope="session")
def benchmark_instance(benchmark_scenario):
    return sm.window_instance(benchmark_scenario, 25)


@pytest.fixture(scope="session")
def benchmark_baseline(benchmark_instance):
    cfg = sm.SolverConfig(algorithm="centralized", tol=1e-10, max_iter=300)
    result = sm.run_centralized(benchmark_instance, cfg)
    assert result.status == "converged"
    return result


@pytest.fixture(scope="session")
def benchmark_runs(benchmark_instance, benchmark_baseline):
    """The three distributed algorithms on the benchmark window, N=4."""
    partition = sm.build_partition(25, 4, 3)
    reference = benchmark_baseline.trajectory
    runs = {}
    for algorithm, rho in [("gn_aladin", 25.0), ("sa_aladin", 1e3), ("dsqp", 1e3)]:
        cfg = sm.SolverConfig(algorithm=algorithm, rho=rho, tol=1e-8, max_iter=60)
        runs[algorithm] = sm.solve(benchmark_instance, partition, cfg, reference=reference)
    return runs


@pytest.fixture(scope="session")
def small_robot_instance():
    """A short window away from the observation singularity, for cheap tests."""
    scenario = sm.generate_scenario(steps=12, seed=3)
    return sm.window_instance(scenario, 12, horizon=12)
