import json
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import splitmhe as sm
from splitmhe import harness, local_nlp
from splitmhe.errors import (
    DimensionMismatchError,
    FactorizationError,
    NonFiniteDataError,
    PartitionError,
    ScenarioError,
)
from splitmhe.harness import (
    CONVERGENCE_HEADER,
    ESTIMATES_HEADER,
    SWEEP_HEADER,
    load_result,
    read_convergence_csv,
    read_estimates_csv,
    read_sweep_csv,
    write_convergence_csv,
    write_estimates_csv,
    write_result,
    write_scenario,
    write_sweep_csv,
)
from splitmhe.problem import lift, lifted_layout, subproblem

from helpers import counting_model, failing_for, zero_curvature


def test_scenario_noise_free_measurements_exact(robot):
    scenario = sm.generate_scenario(steps=20, sigma_r=0.0, sigma_alpha=0.0, seed=5)
    for state, meas in zip(scenario.true_states, scenario.measurements):
        np.testing.assert_allclose(meas, robot.h(state), atol=1e-15)


def test_scenario_dynamics_are_exact(robot):
    scenario = sm.generate_scenario(steps=15, seed=4)
    for n in range(scenario.steps):
        np.testing.assert_array_equal(
            scenario.true_states[n + 1],
            robot.f(scenario.true_states[n], scenario.controls[n]),
        )


def test_scenario_same_seed_bit_identical():
    a = sm.generate_scenario(steps=25, seed=9)
    b = sm.generate_scenario(steps=25, seed=9)
    np.testing.assert_array_equal(a.measurements, b.measurements)
    np.testing.assert_array_equal(a.true_states, b.true_states)
    c = sm.generate_scenario(steps=25, seed=10)
    assert np.abs(a.measurements - c.measurements).max() > 0


def test_scenario_noise_statistics(robot):
    scenario = sm.generate_scenario(steps=10_000, seed=1)
    clean = np.stack([robot.h(s) for s in scenario.true_states])
    residuals = scenario.measurements - clean
    assert abs(residuals[:, 0].std() - 0.05) <= 0.05 * 0.05
    assert abs(residuals[:, 1].std() - 0.01) <= 0.01 * 0.05


def test_scenario_rejects_origin_crossing():
    # driving straight through the origin from the negative axis
    message = "true trajectory passes through the observation singularity at the origin"
    with pytest.raises(ScenarioError, match=message) as info:
        sm.generate_scenario(steps=20, control=(1.0, 0.0), x0=(-1.0, 0.0, 0.0), seed=0)
    # the rule is the model's: its error names the state at the origin
    assert isinstance(info.value.__cause__, sm.OriginSingularityError)
    assert info.value.__cause__.state == 5


def _scenario_fields(steps=6, seed=1):
    """The constructor arguments of a generated scenario."""
    scenario = sm.generate_scenario(steps=steps, seed=seed)
    return {k: getattr(scenario, k) for k in sm.Scenario.__dataclass_fields__}


def test_directly_built_scenario_holds_float_arrays():
    fields = _scenario_fields()
    lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
    scenario = sm.Scenario(**lists)
    for name in ("controls", "true_states", "measurements"):
        value = getattr(scenario, name)
        assert isinstance(value, np.ndarray) and value.dtype == float
        np.testing.assert_array_equal(value, fields[name])
    assert scenario.steps == 6


@pytest.mark.parametrize(
    "name, value", [("measurements", np.nan), ("true_states", np.inf), ("controls", -np.inf)]
)
def test_directly_built_scenario_rejects_non_finite_arrays(name, value):
    fields = _scenario_fields(steps=30, seed=0)
    fields[name] = fields[name].copy()
    fields[name][12, 1] = value
    with pytest.raises(ScenarioError, match=f"non-finite values in {name}"):
        sm.Scenario(**fields)


@pytest.mark.parametrize(
    "name, cut, message",
    [
        ("true_states", np.s_[:-1],
         "true_states for 6 steps must be an array of shape (7, 3), got (6, 3)"),
        ("measurements", np.s_[:, :1],
         "measurements for 6 steps must be an array of shape (7, 2), got (7, 1)"),
        ("controls", np.s_[:-1],
         "true_states for 5 steps must be an array of shape (6, 3), got (7, 3)"),
    ],
)
def test_directly_built_scenario_rejects_inconsistent_arrays(name, cut, message):
    fields = _scenario_fields()
    fields[name] = fields[name][cut]
    with pytest.raises(ScenarioError, match=re.escape(message)):
        sm.Scenario(**fields)


@pytest.mark.parametrize("shape", [(6, 3), (6,), (2, 6, 2)])
def test_directly_built_scenario_rejects_a_malformed_schedule(shape):
    fields = _scenario_fields()
    fields["controls"] = np.zeros(shape)
    with pytest.raises(ScenarioError, match=re.escape(f"must be (steps, 2), got {shape}")):
        sm.Scenario(**fields)


@pytest.mark.parametrize("name", ["controls", "true_states", "measurements"])
def test_directly_built_scenario_rejects_a_ragged_array(name):
    fields = _scenario_fields()
    fields[name] = [[1.0, 2.0], [3.0]]
    with pytest.raises(ScenarioError, match=f"{name} is not a numeric array"):
        sm.Scenario(**fields)


@pytest.mark.parametrize("T", [-0.2, 0.0, np.inf, np.nan])
def test_generate_scenario_checks_the_sampling_time_before_simulating(T):
    """As under ``python -W error``: a rollout at ``T = inf`` would warn before
    the scenario contract could reject it, and ``T < 0`` would fail in the
    model with a plain ``ValueError``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match="sampling time must be positive and finite"):
            sm.generate_scenario(steps=5, T=T)


@pytest.mark.parametrize("kwargs, message", [
    ({"steps": 2.5}, "steps must be an integer >= 1, got 2.5"),
    ({"steps": 0}, "steps must be an integer >= 1, got 0"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"steps": True}, "steps must be an integer >= 1, got True"),
])
def test_generate_scenario_checks_steps_and_seed_before_simulating(kwargs, message, monkeypatch):
    """Unchecked, ``steps=2.5`` fails in ``np.tile`` with a ``TypeError``,
    ``seed=-1`` in the PCG64 stream with a ``ValueError`` and ``seed=1.5`` with
    a ``TypeError``."""
    monkeypatch.setattr(sm.harness, "rollout", None)  # calling it would raise TypeError
    with pytest.raises(ScenarioError, match=re.escape(message)):
        sm.generate_scenario(**{"steps": 5, **kwargs})


def _count_cases(entry, name, least, error, call):
    """A fractional count, one below ``least`` and a ``bool``, each with its message."""
    return [
        pytest.param(call, value, error, f"{name} must be an integer >= {least}, got {value!r}",
                     id=f"{entry}-{name}={value!r}")
        for value in (2.5, least - 1, True)
    ]


_ROBOT = sm.robot_model()
_COUNT_CASES = [
    *_count_cases("SolverConfig", "max_iter", 0, ValueError,
                  lambda s, v: sm.SolverConfig(max_iter=v)),
    *_count_cases("LocalSolveConfig", "inner_max_iter", 1, ValueError,
                  lambda s, v: sm.LocalSolveConfig(inner_max_iter=v)),
    *_count_cases("SystemModel", "nx", 1, ValueError, lambda s, v: replace(_ROBOT, nx=v)),
    *_count_cases("SystemModel", "nu", 1, ValueError, lambda s, v: replace(_ROBOT, nu=v)),
    *_count_cases("SystemModel", "ny", 1, ValueError, lambda s, v: replace(_ROBOT, ny=v)),
    *_count_cases("fd_check", "num_points", 1, ValueError,
                  lambda s, v: sm.fd_check(_ROBOT, num_points=v)),
    *_count_cases("build_partition", "L", 1, PartitionError,
                  lambda s, v: sm.build_partition(v, 1, 3)),
    *_count_cases("build_partition", "N", 1, PartitionError,
                  lambda s, v: sm.build_partition(25, v, 3)),
    *_count_cases("build_partition", "nx", 1, PartitionError,
                  lambda s, v: sm.build_partition(25, 4, v)),
    *_count_cases("lifted_layout", "lengths[1]", 1, PartitionError,
                  lambda s, v: lifted_layout((5, v), 3)),
    *_count_cases("lifted_layout", "nx", 1, PartitionError, lambda s, v: lifted_layout((5,), v)),
    *_count_cases("MheInstance", "L", 1, DimensionMismatchError,
                  lambda s, v: sm.MheInstance(v, 0, [], [], [], np.eye(3), np.eye(2), [], _ROBOT)),
    *_count_cases("Scenario", "seed", 0, ScenarioError, lambda s, v: replace(s, seed=v)),
    *_count_cases("window_instance", "horizon", 1, ScenarioError,
                  lambda s, v: sm.window_instance(s, 5, horizon=v)),
    *_count_cases("window_instance", "window_end", 25, ScenarioError,
                  lambda s, v: sm.window_instance(s, v)),
    *_count_cases("run_receding_horizon", "horizon", 1, ScenarioError,
                  lambda s, v: sm.run_receding_horizon(s, sm.SolverConfig(), horizon=v)),
    *_count_cases("sweep_subwindows", "iters", 1, ValueError,
                  lambda s, v: sm.sweep_subwindows(s, 25, [4], sm.SolverConfig(), iters=v)),
    # fractional counts that a sweep over N = L/6 or a hand-made layout produces
    pytest.param(lambda s, v: sm.build_partition(400, v, 3), 400 / 6, PartitionError,
                 "N must be an integer >= 1, got 66.66666666666667", id="build_partition-N=L/6"),
    pytest.param(lambda s, v: lifted_layout(v, 3), (5.5, 5), PartitionError,
                 "lengths[0] must be an integer >= 1, got 5.5", id="lifted_layout-lengths[0]=5.5"),
    pytest.param(lambda s, v: sm.window_instance(s, v), 25.5, ScenarioError,
                 "window_end must be an integer >= 25, got 25.5", id="window_instance-25.5"),
    # the other bounds of the same counts
    pytest.param(lambda s, v: lifted_layout(v, 3), (), PartitionError,
                 "number of sub-windows must be an integer >= 1, got 0", id="lifted_layout-()"),
    pytest.param(lambda s, v: sm.window_instance(s, v), 61, ScenarioError,
                 "scenario steps must be an integer >= 61, got 60", id="window_instance-61"),
    pytest.param(lambda s, v: sm.run_receding_horizon(s, sm.SolverConfig(), horizon=v), 61,
                 ScenarioError, "scenario steps must be an integer >= 61, got 60",
                 id="run_receding_horizon-61"),
]


@pytest.mark.parametrize("call, value, error, message", _COUNT_CASES)
def test_every_count_takes_one_rule(benchmark_scenario, call, value, error, message):
    """Each entry point refuses a count that is not an integer of at least
    its least value with its own error type and the message of
    ``errors.check_count``, before doing any work. ``generate_scenario``'s
    ``steps`` and ``seed`` are the cases of
    ``test_generate_scenario_checks_steps_and_seed_before_simulating``."""
    with pytest.raises(error) as err:
        call(benchmark_scenario, value)
    assert type(err.value) is error
    assert str(err.value) == message


def _local_solve(scenario, rho):
    instance = sm.window_instance(scenario, 25)
    partition = sm.build_partition(25, 4, 3)
    run = subproblem(instance, partition, range(4))
    y = lift(instance.initial_guess, partition)
    return sm.solve_local_subproblem(run, np.zeros(partition.r), y, rho)


def _real_cases(entry, name, zero, error, call, values=("0.2", None, math.nan, math.inf, -1.0)):
    """A string, None, NaN, infinity, a value below the bound and a ``bool``,
    each with its message; a positive input also refuses zero."""
    bound = "nonnegative" if zero else "positive"
    return [
        pytest.param(call, value, error, f"{name} must be {bound} and finite, got {value!r}",
                     id=f"{entry}-{name}={value!r}")
        for value in values + (True,) + (() if zero else (0.0,))
    ]


_REAL_CASES = [
    *_real_cases("Scenario", "sampling time", False, ScenarioError, lambda s, v: replace(s, T=v)),
    *_real_cases("Scenario", "noise magnitudes", True, ScenarioError,
                 lambda s, v: replace(s, sigma_r=v)),
    *_real_cases("Scenario", "noise magnitudes", True, ScenarioError,
                 lambda s, v: replace(s, sigma_alpha=v)),
    *_real_cases("generate_scenario", "sampling time", False, ScenarioError,
                 lambda s, v: sm.generate_scenario(steps=5, T=v)),
    *_real_cases("robot_model", "sampling time", False, ValueError,
                 lambda s, v: sm.robot_model(T=v)),
    # rho=None selects the algorithm's default; the SQP path takes rho = 0, and
    # the ALADIN variants, whose local problems are proximal, refuse it
    *_real_cases("SolverConfig", "rho", True, ValueError, lambda s, v: sm.SolverConfig(rho=v),
                 values=("1", math.nan, math.inf, -1.0)),
    *_real_cases("SolverConfig(gn_aladin)", "rho", False, ValueError,
                 lambda s, v: sm.SolverConfig("gn_aladin", rho=v), values=("1", math.nan, -1.0)),
    *_real_cases("SolverConfig(sa_aladin)", "rho", False, ValueError,
                 lambda s, v: sm.SolverConfig("sa_aladin", rho=v), values=("1", math.inf, -1.0)),
    *_real_cases("SolverConfig", "tol", True, ValueError, lambda s, v: sm.SolverConfig(tol=v)),
    *_real_cases("LocalSolveConfig", "inner_tol", False, ValueError,
                 lambda s, v: sm.LocalSolveConfig(inner_tol=v)),
    *_real_cases("solve_local_subproblem", "proximal weight rho", False, ValueError,
                 _local_solve),
]


@pytest.mark.parametrize("call, value, error, message", _REAL_CASES)
def test_every_real_input_takes_one_rule(benchmark_scenario, call, value, error, message):
    """Each entry point refuses a real-valued input that is not a real number
    within its bounds with its own error type and the message of
    ``errors.check_real``; a string or None no longer escapes as the
    ``TypeError`` of a comparison."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            call(benchmark_scenario, value)
    assert type(err.value) is error
    assert str(err.value) == message


def test_real_inputs_keep_their_type(benchmark_scenario):
    # the rule checks and converts nothing: numpy scalars and integers pass as given
    assert sm.SolverConfig(rho=np.float64(5.0), tol=0).tol == 0
    assert type(sm.SolverConfig(rho=np.float64(5.0)).rho) is np.float64
    assert sm.SolverConfig("dsqp", rho=0.0).rho == sm.SolverConfig("centralized", rho=0).rho == 0
    assert replace(benchmark_scenario, sigma_r=0).sigma_r == 0


_LAYOUT = sm.build_partition(25, 4, 3)  # states (29, 3), stages (25, 3), r = 9


def _warm_solve(s, **fields):
    state = dict(x_blocks=np.zeros((29, 3)), y_blocks=np.zeros((29, 3)), lam=np.zeros(9),
                 mu_blocks=np.zeros((25, 3)))
    warm = sm.IterateState(**{**state, **fields})
    return sm.solve(sm.window_instance(s, 25), _LAYOUT, sm.SolverConfig(max_iter=1), warm=warm)


def _reference_solve(s, reference):
    return sm.solve(sm.window_instance(s, 25), _LAYOUT, sm.SolverConfig(max_iter=1),
                    reference=reference)


def _stage_stack(s, **fields):
    zeros = dict(zip(("H", "g", "D", "d", "anchor"), map(np.zeros, _LAYOUT.shapes)))
    return sm.StageStack(_LAYOUT, **{**zeros, **fields})


def _qp_block(s, **fields):
    block = dict(H=np.eye(3), g=np.zeros(3), C=np.zeros((1, 3)), d=np.zeros(1),
                 A=np.zeros((2, 3)), anchor=np.zeros(2))
    return sm.QpBlock(**{**block, **fields})


def _shape_case(entry, name, call, value, shape, error=DimensionMismatchError):
    """``call(scenario, value)`` raises ``error`` with the message of
    ``errors.check_shape``: the value's shape, or the type name of a list."""
    got = value.shape if isinstance(value, np.ndarray) else type(value).__name__
    return pytest.param(call, value, error, f"{name} must be an array of shape {shape}, got {got}",
                        id=f"{entry}-{name}-{got}")


def _field_cases(entry, build, rows):
    """One row per ``(field, value, shape)`` of ``build(scenario, **{field: value})``."""
    return [_shape_case(entry, name, lambda s, v, name=name: build(s, **{name: v}), value, shape)
            for name, value, shape in rows]


_ARRAY_CASES = [
    *_field_cases("MheInstance", lambda s, **f: replace(sm.window_instance(s, 25), **f), [
        ("measurements", np.zeros((25, 2)), (26, 2)),
        ("controls", np.zeros((25, 3)), (25, 2)),
        ("prior", np.zeros(2), (3,)),
        ("P", np.eye(2), (3, 3)),
        ("V", np.eye(3), (2, 2)),
        ("initial_guess", np.zeros(3), (26, 3)),
    ]),
    # a 1-D control row is no longer read as the one row of an L = 1 window
    _shape_case("MheInstance-L=1", "controls",
                lambda s, v: sm.MheInstance(1, 0, np.zeros((2, 2)), v, np.zeros(3), np.eye(3),
                                            np.eye(2), np.zeros((2, 3)), _ROBOT),
                np.zeros(2), (1, 2)),
    *_field_cases("solve-warm", _warm_solve, [
        ("x_blocks", np.zeros((28, 3)), (29, 3)),
        ("y_blocks", np.zeros((29, 2)), (29, 3)),
        ("lam", np.zeros(8), (9,)),
        ("mu_blocks", np.zeros((24, 3)), (25, 3)),
        ("x_blocks", np.zeros((29, 3)).tolist(), (29, 3)),  # the rows as a list: arrays only
    ]),
    *_field_cases("StageStack", _stage_stack, [
        ("H", np.zeros((29, 3)), (29, 3, 3)),
        ("g", np.zeros((28, 3)), (29, 3)),
        ("D", np.zeros((25, 3, 2)), (25, 3, 3)),
        ("d", np.zeros((25, 2)), (25, 3)),
        ("anchor", np.zeros(6), (9,)),
        ("H", np.zeros((29, 3, 3)).tolist(), (29, 3, 3)),  # the right shape as a list: arrays only
    ]),
    *_field_cases("QpBlock", _qp_block, [
        ("H", np.eye(3)[:, :2], (3, 3)),
        ("g", np.zeros(2), (3,)),
        ("d", np.zeros(2), (1,)),
        ("anchor", np.zeros(3), (2,)),
        ("C", np.zeros((1, 2)), (1, 3)),
        ("A", np.zeros((2, 2)), (2, 3)),
        ("H", np.array(1.0), (1, 1)),  # 0-d: one row
    ]),
    # a transposed C is no longer read, through a reshape, as the rows of its two offsets
    _shape_case("QpBlock-m=2", "C", lambda s, v: _qp_block(s, C=v, d=np.zeros(2)),
                np.arange(6.0).reshape(3, 2), (3, 3)),
    # the dist_to_ref trajectory, checked once before the first iteration: unchecked,
    # (2,) failed in iteration 1 with numpy's ValueError and a list of nx broadcast
    *_field_cases("solve", _reference_solve, [
        ("reference", np.zeros(2), (26, 3)),
        ("reference", [0, 0, 0], (26, 3)),
    ]),
    _shape_case("coupling_residual", "blocks stack",
                lambda s, v: sm.coupling_residual(_LAYOUT, v), np.zeros((28, 3)), (29, 3)),
    _shape_case("extract_trajectory", "blocks stack",
                lambda s, v: sm.extract_trajectory(v, _LAYOUT), np.zeros((29, 2)), (29, 3)),
    _shape_case("lift", "trajectory", lambda s, v: lift(v, _LAYOUT), np.zeros((25, 3)), (26, 3)),
    _shape_case("centralized_objective", "trajectory",
                lambda s, v: sm.centralized_objective(sm.window_instance(s, 25), v),
                np.zeros(3), (26, 3)),
    _shape_case("Scenario", "true_states for 60 steps", lambda s, v: replace(s, true_states=v),
                np.zeros((60, 3)), (61, 3), ScenarioError),
    _shape_case("Scenario", "measurements for 60 steps", lambda s, v: replace(s, measurements=v),
                np.zeros((61, 3)), (61, 2), ScenarioError),
    _shape_case("generate_scenario", "control schedule",
                lambda s, v: sm.generate_scenario(steps=5, control=v), np.ones((5, 3)), (5, 2),
                ScenarioError),
    _shape_case("generate_scenario", "control schedule",
                lambda s, v: sm.generate_scenario(steps=5, control=v), np.ones((4, 2)), (5, 2),
                ScenarioError),
]


@pytest.mark.parametrize("call, value, error, message", _ARRAY_CASES)
def test_every_array_input_takes_one_rule(benchmark_scenario, call, value, error, message):
    """Each entry point refuses a fixed-shape array input of another shape, or
    a list where it takes arrays only, with its own error type and the message
    of ``errors.check_shape``, before doing any work."""
    with pytest.raises(error) as err:
        call(benchmark_scenario, value)
    assert type(err.value) is error
    assert str(err.value) == message


def test_an_instance_takes_lists_of_rows(benchmark_scenario):
    # MheInstance converts what it is given, so the rows of every field as
    # lists build the same window as the arrays
    arrays = sm.window_instance(benchmark_scenario, 25)
    names = ("measurements", "controls", "prior", "P", "V", "initial_guess")
    lists = replace(arrays, **{name: getattr(arrays, name).tolist() for name in names})
    for name in names + ("p_inv_sqrt", "v_inv_sqrt"):
        np.testing.assert_array_equal(getattr(lists, name), getattr(arrays, name))
        assert getattr(lists, name).dtype == float


@pytest.mark.parametrize("field, at, value", [
    pytest.param(field, at, value, id=f"{field}={value}") for field, at, value in (
        ("measurements", (3, 1), math.nan),
        ("controls", (0, 0), math.nan),
        ("prior", (2,), math.nan),
        ("P", ..., math.nan),
        ("V", (0, 0), math.inf),
        ("initial_guess", (4, 0), math.inf),
    )
])
def test_an_instance_refuses_non_finite_data(benchmark_scenario, field, at, value):
    """A NaN or infinite entry in any array of a window raises one
    ``NonFiniteDataError`` naming the field when the instance is built, with no
    numpy warning: a ``P`` full of NaN escaped as numpy's ``LinAlgError``, an
    ``inf`` in the initial guess warned before iteration 1 failed, and the other
    fields failed only in iteration 1."""
    instance = sm.window_instance(benchmark_scenario, 25)
    bad = getattr(instance, field).copy()
    bad[at] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteDataError) as err:
            replace(instance, **{field: bad})
    assert str(err.value) == f"{field} must be finite"
    assert isinstance(err.value, harness.NUMERICAL_ERRORS)


def test_a_scenario_file_crossing_the_origin_still_loads(origin_scenario, tmp_path):
    # only generate_scenario refuses the origin; a file may hold any trajectory
    loaded = sm.load_scenario(write_scenario(origin_scenario, tmp_path / "origin.json"))
    np.testing.assert_array_equal(loaded.true_states, origin_scenario.true_states)
    assert not loaded.true_states[5, :2].any()


def test_scenario_rejects_bad_schedule():
    with pytest.raises(ScenarioError):
        sm.generate_scenario(steps=0)
    with pytest.raises(ScenarioError):
        sm.generate_scenario(steps=5, sigma_r=-1.0)


def test_scenario_takes_a_full_control_schedule():
    pair = sm.generate_scenario(steps=15, control=(0.8, 0.3), seed=2)
    schedule = sm.generate_scenario(steps=15, control=np.tile([0.8, 0.3], (15, 1)), seed=2)
    for name in ("controls", "true_states", "measurements"):
        np.testing.assert_array_equal(getattr(schedule, name), getattr(pair, name))
    message = "control schedule must be an array of shape (15, 2), got (15, 3)"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        sm.generate_scenario(steps=15, control=np.ones((15, 3)))


def test_window_instance_defaults(benchmark_scenario):
    instance = sm.window_instance(benchmark_scenario, 25)
    assert instance.L == 25
    assert instance.window_start == 0
    np.testing.assert_array_equal(instance.initial_guess[:, :2], benchmark_scenario.true_states[:26, :2])
    assert np.abs(instance.initial_guess[:, 2]).max() == 0.0
    np.testing.assert_array_equal(instance.prior, instance.initial_guess[0])
    np.testing.assert_allclose(np.diag(instance.V), [0.05 ** 2, 0.01 ** 2])
    with pytest.raises(ScenarioError):
        sm.window_instance(benchmark_scenario, 10)


def test_solve_window_distributed_matches_centralized(benchmark_scenario):
    central = sm.solve_window(
        benchmark_scenario, 25, sm.SolverConfig(algorithm="centralized", tol=1e-10, max_iter=200)
    )
    distributed = sm.solve_window(
        benchmark_scenario, 25, sm.SolverConfig(algorithm="dsqp", tol=1e-8, max_iter=60), n_subwindows=4
    )
    assert central.status == "converged" and distributed.status == "converged"
    assert np.abs(central.trajectory - distributed.trajectory).max() <= 1e-6


@pytest.fixture(scope="module")
def receding_dsqp(benchmark_scenario):
    cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8, max_iter=120)
    return sm.run_receding_horizon(benchmark_scenario, cfg, n_subwindows=4)


def test_every_window_solves_on_a_model_built_for_it_by_robot_model(monkeypatch):
    """The benchmark's tracer counts model calls by wrapping
    ``harness.robot_model``: if a window's solve used a model built before
    (a cached one, say), its ``model.*`` metrics would read zero."""
    built = []

    def factory(T=0.2, _build=harness.robot_model):
        built.append(Counter())
        return counting_model(_build(T=T), built[-1])

    monkeypatch.setattr(harness, "robot_model", factory)
    scenario = sm.generate_scenario(steps=12, seed=0)
    cfg = sm.SolverConfig(algorithm="dsqp", max_iter=2)
    built.clear()
    sm.solve_window(scenario, 10, cfg, 2, 10)
    assert len(built) == 1 and built[0]["h"] > 0
    built.clear()
    outcomes = sm.run_receding_horizon(scenario, cfg, 2, 10)
    assert len(outcomes) == 3 and sum(calls["h"] > 0 for calls in built) == 3


def test_receding_horizon_noise_free_tracks_truth():
    scenario = sm.generate_scenario(steps=30, seed=6, sigma_r=0.0, sigma_alpha=0.0)
    # zero noise falls back to unit output weights, so the proximal weight is
    # chosen at the matching scale
    cfg = sm.SolverConfig(algorithm="dsqp", rho=1e-3, tol=1e-9, max_iter=120)
    outcomes = sm.run_receding_horizon(scenario, cfg, n_subwindows=4)
    assert len(outcomes) == 6
    for oc in outcomes:
        assert oc.status == "converged"
        truth = scenario.true_states[oc.window_end]
        assert np.abs(oc.estimate - truth).max() <= 1e-6


def test_receding_horizon_all_windows_converge(receding_dsqp):
    assert all(oc.status == "converged" for oc in receding_dsqp)


def test_receding_horizon_rmse_comparable_to_centralized(benchmark_scenario, receding_dsqp):
    horizon = 25
    cfg_c = sm.SolverConfig(algorithm="centralized", tol=1e-8, max_iter=120)
    out_c = sm.run_receding_horizon(benchmark_scenario, cfg_c, horizon=horizon)
    assert all(oc.status == "converged" for oc in out_c)

    truth = benchmark_scenario.true_states[horizon:]
    est_d = np.stack([oc.estimate for oc in receding_dsqp])
    est_c = np.stack([oc.estimate for oc in out_c])
    rmse_d = np.sqrt(np.mean((est_d - truth) ** 2))
    rmse_c = np.sqrt(np.mean((est_c - truth) ** 2))
    assert rmse_d <= 1.01 * rmse_c


def test_warm_start_speeds_up_second_window(benchmark_scenario, receding_dsqp):
    cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8, max_iter=120)
    cold = sm.solve_window(benchmark_scenario, 26, cfg, n_subwindows=4)
    assert receding_dsqp[1].window_end == 26
    assert receding_dsqp[1].iterations < cold.iterations


def test_sweep_rows_and_invariance(benchmark_scenario):
    cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8, max_iter=50)
    rows = sm.sweep_subwindows(benchmark_scenario, 25, [3, 4, 5, 6], cfg, iters=50)
    assert [row.n_subwindows for row in rows] == [3, 4, 5, 6]
    for row in rows:
        assert row.status == "max_iter"  # fixed-budget runs never early-stop
        assert row.final_error is not None and row.final_error <= 1e-8
        assert row.iters_to_tol is not None and row.iters_to_tol <= 50
        assert row.total_wall_ms >= 0.0
        assert row.mean_local_ms >= 0.0 and row.mean_qp_ms >= 0.0


def test_receding_horizon_records_a_singular_local_solve_and_restarts_cold(monkeypatch):
    """A ``gn_aladin`` window whose local KKT matrices are singular (``H = 0``
    from a patched ``local_nlp.hessian_blocks``) is recorded as an error
    naming ``LocalSolveError``, and the next window starts cold."""
    starts = []

    def solve_window(scenario, l, *args, prior=None, initial_guess=None):
        starts.append((prior, initial_guess))
        with monkeypatch.context() as patch:
            if l == 11:
                patch.setattr(local_nlp, "hessian_blocks", zero_curvature)
            return sm.solve_window(scenario, l, *args, prior=prior, initial_guess=initial_guess)

    monkeypatch.setattr(harness, "solve_window", solve_window)
    cfg = sm.SolverConfig(algorithm="gn_aladin", rho=5.0, max_iter=3)
    outcomes = sm.run_receding_horizon(sm.generate_scenario(steps=12, seed=0), cfg, 2, 10)
    assert [oc.status for oc in outcomes] == ["max_iter", "error", "max_iter"]
    failed = outcomes[1]
    assert failed.error.startswith("LocalSolveError: gn_aladin iteration 1: block 0: ")
    assert failed.iterations == 0 and failed.result is None
    assert np.isnan(failed.estimate).all()
    # the failed window started warm; the next one starts cold
    assert all(a is not None for a in starts[1])
    assert starts[2] == (None, None)


def test_sweep_records_a_numerical_failure_as_an_error_row(
    benchmark_scenario, tmp_path, monkeypatch
):
    failure = FactorizationError("forced failure")
    monkeypatch.setattr(sm.harness, "solve_window", failing_for(sm.solve_window, 5, failure))
    cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8)
    rows = sm.sweep_subwindows(benchmark_scenario, 25, [4, 5], cfg, iters=5)
    assert [(row.n_subwindows, row.status) for row in rows] == [(4, "max_iter"), (5, "error")]
    error = rows[1]
    assert error.iters_to_tol is None and error.final_error is None
    assert math.isnan(error.mean_local_ms) and math.isnan(error.mean_qp_ms)
    assert error.total_wall_ms >= 0.0
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    cells = dict(zip(SWEEP_HEADER, path.read_text().splitlines()[2].split(",")))
    assert cells == dict(
        N="5", iters_to_tol="", total_wall_ms=cells["total_wall_ms"],
        mean_local_ms="nan", mean_qp_ms="nan", final_error="", status="error",
    )


def test_scenario_file_round_trip(tmp_path, benchmark_scenario):
    path = tmp_path / "scenario.json"
    write_scenario(benchmark_scenario, path)
    loaded = sm.load_scenario(path)
    np.testing.assert_array_equal(loaded.controls, benchmark_scenario.controls)
    np.testing.assert_array_equal(loaded.true_states, benchmark_scenario.true_states)
    np.testing.assert_array_equal(loaded.measurements, benchmark_scenario.measurements)
    assert loaded.seed == benchmark_scenario.seed
    assert loaded.T == benchmark_scenario.T


def test_scenario_file_deterministic_bytes(tmp_path):
    s1 = sm.generate_scenario(steps=12, seed=3)
    s2 = sm.generate_scenario(steps=12, seed=3)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_scenario(s1, p1)
    write_scenario(s2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_malformed_scenario_file_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {"T": 0.2}}')
    with pytest.raises(ScenarioError):
        sm.load_scenario(path)
    # controls of three columns or one dimension, with consistent other arrays
    good = tmp_path / "good.json"
    write_scenario(sm.generate_scenario(steps=6, seed=1), good)
    for controls in (np.zeros((6, 3)), np.zeros(6)):
        payload = json.loads(good.read_text())
        payload["controls"] = controls.tolist()
        path.write_text(json.dumps(payload))
        message = f"bad.json: control schedule must be (steps, 2), got {controls.shape}"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            sm.load_scenario(path)
    # negative noise levels, which generate_scenario rejects too
    payload = json.loads(good.read_text())
    payload["model"].update(sigma_r=-0.05, sigma_alpha=-0.01)
    path.write_text(json.dumps(payload))
    message = "bad.json: noise magnitudes must be nonnegative and finite"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        sm.load_scenario(path)
    # a sampling time that is not positive, named with the file
    for T in (-0.2, 0.0):
        payload = json.loads(good.read_text())
        payload["model"]["T"] = T
        path.write_text(json.dumps(payload))
        message = "bad.json: sampling time must be positive and finite"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            sm.load_scenario(path)
    # true states or measurements of the wrong length for the controls
    for key in ("true_states", "measurements"):
        payload = json.loads(good.read_text())
        payload[key] = payload[key][:-1]
        path.write_text(json.dumps(payload))
        message = rf"malformed scenario file .*bad\.json: {key} for 6 steps must be an array of "
        with pytest.raises(ScenarioError, match=message):
            sm.load_scenario(path)


def test_result_file_round_trip(tmp_path, benchmark_runs):
    result = benchmark_runs["dsqp"]
    echo = {"algorithm": "dsqp", "rho": 1e3, "sub_windows": 4}
    path = tmp_path / "result.json"
    write_result(result, echo, path)
    loaded = load_result(path)
    assert loaded["config"] == echo
    assert loaded["status"] == result.status
    assert loaded["iterations"] == result.iterations
    np.testing.assert_array_equal(loaded["trajectory"], result.trajectory)
    assert loaded["objective"] == result.objective


def test_result_file_round_trips_non_finite_metrics(tmp_path, benchmark_runs):
    metrics = {"primal_step_inf": math.nan, "coupling_inf": math.inf, "dynamics_inf": -math.inf}
    result = replace(benchmark_runs["dsqp"], final_metrics=metrics)
    path = write_result(result, {"algorithm": "dsqp"}, tmp_path / "result.json")
    loaded = load_result(path)["final_metrics"]
    assert loaded.keys() == metrics.keys()
    assert math.isnan(loaded["primal_step_inf"])
    assert (loaded["coupling_inf"], loaded["dynamics_inf"]) == (math.inf, -math.inf)


def test_result_file_refuses_a_config_echo_it_cannot_write(tmp_path, benchmark_runs):
    # numpy values go out as plain numbers; any other object stops json.dumps
    # before the file is opened, so nothing half-written is left behind
    path = tmp_path / "result.json"
    with pytest.raises(TypeError, match=r"^cannot serialize <class 'set'>$"):
        write_result(benchmark_runs["dsqp"], {"algorithm": "dsqp", "sub_windows": {4}}, path)
    assert not path.exists()


def test_convergence_csv_round_trip(tmp_path, benchmark_runs):
    records = benchmark_runs["dsqp"].records
    path = tmp_path / "iters.csv"
    write_convergence_csv(records, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CONVERGENCE_HEADER)
    loaded = read_convergence_csv(path)
    assert len(loaded) == len(records)
    for row, rec in zip(loaded, records):
        assert row["iter"] == rec.iteration
        assert row["primal_step_inf"] == rec.primal_step_inf
        assert row["stationarity_inf"] == rec.stationarity_inf
        assert row["dist_to_ref"] == rec.dist_to_ref
        assert row["objective"] == rec.objective


def test_estimates_csv_round_trip(tmp_path):
    scenario = sm.generate_scenario(steps=27, seed=8)
    cfg = sm.SolverConfig(algorithm="dsqp", tol=1e-8, max_iter=80)
    outcomes = sm.run_receding_horizon(scenario, cfg, n_subwindows=4)
    path = tmp_path / "estimates.csv"
    write_estimates_csv(scenario, outcomes, path)
    assert path.read_text().splitlines()[0] == ",".join(ESTIMATES_HEADER)
    loaded = read_estimates_csv(path)
    assert [row["step"] for row in loaded] == [oc.window_end for oc in outcomes]
    for row, oc in zip(loaded, outcomes):
        assert row["phi"] == oc.estimate[0]
        assert row["status"] == oc.status


def test_sweep_csv_round_trip(tmp_path):
    rows = [
        sm.SweepRow(3, 12, 100.0, 1.5, 0.5, 1e-9, "max_iter"),
        sm.SweepRow(4, None, 110.0, 1.6, 0.6, None, "error"),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert path.read_text().splitlines()[0] == ",".join(SWEEP_HEADER)
    loaded = read_sweep_csv(path)
    assert len(loaded) == 2
    assert loaded[0]["N"] == 3 and loaded[0]["iters_to_tol"] == 12
    assert loaded[1]["iters_to_tol"] is None and loaded[1]["final_error"] is None


def test_self_check_passes():
    checks = sm.harness.run_self_check()
    for name, passed, detail in checks:
        assert passed, f"{name}: {detail}"


@pytest.mark.parametrize("seed", [-1.5, 2.7])
def test_a_scenario_file_seed_is_not_coerced(tmp_path, seed):
    """The file's seed reaches the scenario contract as written; ``int()``
    would read -1.5 as seed -1 and 2.7 as seed 2."""
    path = write_scenario(sm.generate_scenario(steps=6, seed=1), tmp_path / "seed.json")
    payload = json.loads(path.read_text())
    payload["model"]["seed"] = seed
    path.write_text(json.dumps(payload))
    message = f"malformed scenario file {path}: seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        sm.load_scenario(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_scenario_file_raises(tmp_path, token):
    good = tmp_path / "good.json"
    write_scenario(sm.generate_scenario(steps=6, seed=1), good)
    payload = json.loads(good.read_text())
    payload["measurements"][3][1] = float(token.replace("Infinity", "inf"))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert token in path.read_text()
    with pytest.raises(ScenarioError, match="non-finite"):
        sm.load_scenario(path)
