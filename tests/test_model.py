import numpy as np
import pytest

import splitmhe as sm
from splitmhe.errors import OriginSingularityError

from helpers import fd_jacobian, rel_err


def test_step_straight_line(robot):
    out = robot.f(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [0.2, 0.0, 0.0], atol=1e-15)


def test_step_quarter_turn_heading(robot):
    out = robot.f(np.array([0.0, 0.0, np.pi / 2]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, 0.2, np.pi / 2 + 0.2], atol=1e-15)


def test_step_zero_input_is_identity(robot):
    x = np.array([0.1, 0.1, 0.0])
    np.testing.assert_array_equal(robot.f(x, np.array([0.0, 0.0])), x)


def test_observe_345_triangle(robot):
    out = robot.h(np.array([3.0, 4.0, 0.7]))
    np.testing.assert_allclose(out, [5.0, np.arctan2(4.0, 3.0)], atol=1e-15)
    assert abs(out[1] - 0.9273) < 1e-4


def test_observe_on_axis(robot):
    np.testing.assert_allclose(robot.h(np.array([1.0, 0.0, 0.3])), [1.0, 0.0], atol=1e-15)


def test_observe_origin_raises(robot):
    with pytest.raises(OriginSingularityError):
        robot.h(np.array([0.0, 0.0, 0.5]))


def test_observe_scaling_property(robot):
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(20):
        x = rng.uniform(0.2, 2.0, 3)
        c = rng.uniform(0.5, 3.0)
        base = robot.h(x)
        scaled = robot.h(np.array([c * x[0], c * x[1], x[2]]))
        assert abs(scaled[0] - c * base[0]) < 1e-12
        assert abs(scaled[1] - base[1]) < 1e-12


def test_jacobian_values_at_zero_heading(robot):
    df_dx = robot.df_dx(np.array([0.5, 0.8, 0.0]), np.array([1.0, 0.3]))
    np.testing.assert_allclose(df_dx, [[1, 0, 0], [0, 1, 0.2], [0, 0, 1]], atol=1e-15)


def test_observation_jacobian_on_axis(robot):
    dh_dx = robot.dh_dx(np.array([1.0, 0.0, 0.2]))
    np.testing.assert_allclose(dh_dx, [[1, 0, 0], [0, 1, 0]], atol=1e-15)


def test_jacobians_match_finite_differences(robot):
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(25):
        x = rng.uniform(0.5, 2.0, 3)
        u = rng.uniform(-1.0, 1.0, 2)
        assert rel_err(robot.df_dx(x, u), fd_jacobian(lambda z: robot.f(z, u), x)) < 1e-6
        assert rel_err(robot.df_du(x, u), fd_jacobian(lambda z: robot.f(x, z), u)) < 1e-6
        assert rel_err(robot.dh_dx(x), fd_jacobian(robot.h, x)) < 1e-6


def test_curvature_contractions_symmetric_and_match_fd(robot):
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(15):
        x = rng.uniform(0.5, 2.0, 3)
        u = rng.uniform(-1.0, 1.0, 2)
        wx = rng.standard_normal(3)
        wy = rng.standard_normal(2)
        d2f = robot.d2f(x, u, wx)
        d2h = robot.d2h(x, wy)
        assert np.abs(d2f - d2f.T).max() == 0.0
        assert np.abs(d2h - d2h.T).max() == 0.0
        assert rel_err(d2f, fd_jacobian(lambda z: robot.df_dx(z, u).T @ wx, x)) < 1e-5
        assert rel_err(d2h, fd_jacobian(lambda z: robot.dh_dx(z).T @ wy, x)) < 1e-5


def test_fd_check_robot_below_tolerance(robot):
    assert sm.fd_check(robot, num_points=100) <= 1e-6


def test_fd_check_flags_broken_jacobian(robot):
    from dataclasses import replace

    broken = replace(robot, df_dx=lambda x, u: np.eye(3) * 1.05)
    assert sm.fd_check(broken, num_points=10) > 1e-2


def test_fd_check_trivial_model_near_zero():
    nx = 2
    zeros = np.zeros((nx, nx))
    toy = sm.SystemModel(
        nx=nx,
        nu=1,
        ny=nx,
        T=1.0,
        f=lambda x, u: x.copy(),
        h=lambda x: x.copy(),
        df_dx=lambda x, u: np.eye(nx),
        df_du=lambda x, u: np.zeros((nx, 1)),
        dh_dx=lambda x: np.eye(nx),
        d2f=lambda x, u, w: zeros.copy(),
        d2h=lambda x, w: zeros.copy(),
        name="toy",
    )
    assert sm.fd_check(toy, num_points=10) <= 1e-9


def test_rollout_obeys_dynamics(robot):
    controls = np.tile([1.0, 0.4], (8, 1))
    states = sm.rollout(robot, [0.1, 0.1, 0.0], controls)
    assert states.shape == (9, 3)
    for n in range(8):
        np.testing.assert_array_equal(states[n + 1], robot.f(states[n], controls[n]))


def test_model_dimension_validation():
    with pytest.raises(ValueError):
        sm.robot_model(T=0.0)


def test_gaussian_draws_deterministic_and_standard():
    a = sm.gaussian_draws(123, 1000)
    b = sm.gaussian_draws(123, 1000)
    np.testing.assert_array_equal(a, b)
    big = sm.gaussian_draws(7, 200_000)
    assert abs(big.mean()) < 0.01
    assert abs(big.std() - 1.0) < 0.01


def _stacked_points(model, k=9, seed=12):
    rng = np.random.Generator(np.random.PCG64(seed))
    return (
        rng.uniform(0.5, 2.0, (k, model.nx)),
        rng.uniform(-1.0, 1.0, (k, model.nu)),
        rng.standard_normal((k, model.nx)),
        rng.standard_normal((k, model.ny)),
    )


@pytest.mark.parametrize("which", ["robot", "linear_model"])
def test_stacked_calls_equal_single_point_calls(which, request):
    model = request.getfixturevalue(which)
    X, U, WX, WY = _stacked_points(model)
    calls = {
        "f": (X, U), "h": (X,), "df_dx": (X, U), "df_du": (X, U), "dh_dx": (X,),
        "d2f": (X, U, WX), "d2h": (X, WY),
    }
    for name, args in calls.items():
        stacked = getattr(model, name)(*args)
        single = np.stack([getattr(model, name)(*row) for row in zip(*args)])
        np.testing.assert_array_equal(stacked, single, err_msg=name)


@pytest.mark.parametrize("name", ["h", "dh_dx", "d2h"])
def test_stacked_origin_raises_naming_the_state(robot, name):
    X = np.array([[1.0, 0.5, 0.0], [0.3, 0.2, 0.1], [0.0, 0.0, 0.4], [0.0, 0.0, 0.9]])
    args = (X,) if name != "d2h" else (X, np.ones((4, 2)))
    with pytest.raises(OriginSingularityError, match=r"state 2 \("):
        getattr(robot, name)(*args)
