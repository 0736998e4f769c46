import ast
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import splitmhe as sm
from splitmhe import local_nlp, problem
from splitmhe.errors import DimensionMismatchError, PartitionError
from splitmhe.problem import (
    constraint_vector,
    eval_residual_stack,
    inv_sqrt_spd,
    residual_vector,
    sub_objective,
    subproblem,
)

from helpers import counted, counting_model, fd_jacobian, rel_err


def test_partition_benchmark_shape():
    p = sm.build_partition(25, 4, 3)
    assert p is problem.lifted_layout((6, 6, 6, 7), 3)
    assert (p.lengths, p.r) == ((6, 6, 6, 7), 9)
    assert p.block_dims == (21, 21, 21, 24)
    assert sum(p.block_dims) == (25 + 4) * 3


def test_partition_even_split():
    p = sm.build_partition(25, 5, 3)
    assert p.lengths == (5, 5, 5, 5, 5)
    assert p.start.tolist() == [0, 5, 10, 15, 20]


def test_partition_single_window_degenerate():
    p = sm.build_partition(6, 1, 2)
    assert (p.lengths, p.r) == ((6,), 0)
    assert p.block_dims == (14,)


def test_partition_rejects_bad_counts():
    with pytest.raises(PartitionError):
        sm.build_partition(5, 6, 3)
    with pytest.raises(PartitionError):
        sm.build_partition(5, 0, 3)


@pytest.mark.parametrize("blocks", [range(2, 10), range(0, 4, 2), range(-1, 4), range(2, 2)])
def test_subproblem_rejects_a_block_range_outside_the_partition(benchmark_instance, blocks):
    """A range past ``N`` would drop the run's terminal measurement and a step
    would be ignored, so both are refused."""
    partition = sm.build_partition(25, 4, 3)
    with pytest.raises(PartitionError):
        problem.subproblem(benchmark_instance, partition, blocks)
    run = problem.subproblem(benchmark_instance, partition, range(2, 4))
    assert len(run.measured) == 14


def test_subproblem_refuses_a_partition_of_another_window(benchmark_instance):
    message = r"^partition built for \(L=24, nx=3\) does not match instance \(L=25, nx=3\)$"
    with pytest.raises(DimensionMismatchError, match=message):
        subproblem(benchmark_instance, sm.build_partition(24, 4, 3), range(0, 1))


def test_subproblem_states_take_a_flat_block_or_the_stack_only(benchmark_instance):
    sub = sm.split_instance(benchmark_instance, sm.build_partition(25, 4, 3))[0]
    stack = np.arange(21.0).reshape(7, 3)
    assert sub.states(stack) is stack
    np.testing.assert_array_equal(sub.states(stack.ravel()), stack)
    message = r"^expected a block of shape \(7, 3\) or \(21,\), got \(5,\)$"
    with pytest.raises(DimensionMismatchError, match=message):
        sub.states(np.zeros(5))


def test_split_measurement_and_prior_layout(benchmark_instance):
    partition = sm.build_partition(25, 4, 3)
    subs = sm.split_instance(benchmark_instance, partition)
    assert [s.has_prior for s in subs] == [True, False, False, False]
    # first sub-window measures offsets 0..5, the last one all 8 of its states
    assert subs[0].measured.tolist() == list(range(6))
    assert subs[3].measured.tolist() == list(range(8))
    np.testing.assert_array_equal(subs[0].measurements, benchmark_instance.measurements[0:6])
    np.testing.assert_array_equal(subs[3].measurements, benchmark_instance.measurements[18:26])


def test_single_subwindow_is_centralized(benchmark_instance):
    partition = sm.build_partition(25, 1, 3)
    (sub,) = sm.split_instance(benchmark_instance, partition)
    assert sub.has_prior
    assert sub.measured.tolist() == list(range(26))
    traj = benchmark_instance.initial_guess
    block = sm.lift_initial_guess(traj, partition)[0]
    total = sub_objective(sub, block)
    central = sm.centralized_objective(benchmark_instance, traj)
    assert abs(total - central) <= 1e-12 * (1.0 + abs(central))


def test_split_objective_identity(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(5))
    for n_sub in (2, 3, 4, 5):
        partition = sm.build_partition(25, n_sub, 3)
        subs = sm.split_instance(benchmark_instance, partition)
        traj = benchmark_instance.initial_guess + 0.1 * rng.standard_normal((26, 3))
        blocks = sm.lift_initial_guess(traj, partition)
        total = sum(sub_objective(s, b) for s, b in zip(subs, blocks))
        central = sm.centralized_objective(benchmark_instance, traj)
        assert abs(total - central) <= 1e-12 * (1.0 + abs(central))


def test_split_constraint_identity(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(6))
    partition = sm.build_partition(25, 4, 3)
    subs = sm.split_instance(benchmark_instance, partition)
    model = benchmark_instance.model

    # simulated trajectory satisfies every block constraint exactly
    sim = sm.rollout(model, benchmark_instance.initial_guess[0], benchmark_instance.controls)
    for sub, block in zip(subs, sm.lift_initial_guess(sim, partition)):
        assert np.abs(constraint_vector(sub, block)).max() <= 1e-12

    # on a perturbed trajectory the stacked block defects match the
    # centralized defects entry for entry
    traj = sim + 0.2 * rng.standard_normal(sim.shape)
    blocks = sm.lift_initial_guess(traj, partition)
    stacked = np.concatenate([constraint_vector(s, b) for s, b in zip(subs, blocks)])
    central = np.concatenate(
        [traj[n + 1] - model.f(traj[n], benchmark_instance.controls[n]) for n in range(25)]
    )
    assert np.abs(stacked - central).max() <= 1e-12


def test_residual_stack_zero_at_perfect_fit(small_robot_instance):
    partition = sm.build_partition(12, 3, 3)
    subs = sm.split_instance(small_robot_instance, partition)
    model = small_robot_instance.model
    # synthesize an instance whose data are exactly explained by a trajectory
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
    subs = sm.split_instance(perfect, partition)
    for sub, block in zip(subs, sm.lift_initial_guess(sim, partition)):
        assert np.abs(residual_vector(sub, block)).max() <= 1e-10


def test_residual_norm_equals_objective(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(9))
    partition = sm.build_partition(25, 4, 3)
    subs = sm.split_instance(benchmark_instance, partition)
    traj = benchmark_instance.initial_guess + 0.05 * rng.standard_normal((26, 3))
    for sub, block in zip(subs, sm.lift_initial_guess(traj, partition)):
        b = residual_vector(sub, block)
        assert abs(0.5 * b @ b - sub_objective(sub, block)) <= 1e-12 * (1 + 0.5 * b @ b)


def test_residual_and_constraint_jacobians_match_fd(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(10))
    partition = sm.build_partition(25, 4, 3)
    subs = sm.split_instance(benchmark_instance, partition)
    blocks = sm.lift_initial_guess(
        benchmark_instance.initial_guess + 0.05 * rng.standard_normal((26, 3)), partition
    )
    for sub, block in zip(subs, blocks):
        _, J = sm.eval_residual_stack(sub, block)
        assert rel_err(J, fd_jacobian(lambda z: residual_vector(sub, z), block)) < 1e-6
        _, C = sm.eval_constraints(sub, block)
        assert rel_err(C, fd_jacobian(lambda z: constraint_vector(sub, z), block)) < 1e-6


def test_unit_length_subwindow(benchmark_instance):
    # N = L means every sub-window is one dynamics step with no internal states
    partition = sm.build_partition(25, 25, 3)
    subs = sm.split_instance(benchmark_instance, partition)
    assert all(s.length == 1 for s in subs)
    sub = subs[1]
    block = np.concatenate([[1.0, 1.2, 0.1], [0.9, 1.4, 0.2]])
    F, C = sm.eval_constraints(sub, block)
    model = benchmark_instance.model
    expected = block[3:] - model.f(block[:3], sub.controls[0])
    np.testing.assert_allclose(F, expected, atol=1e-15)
    assert F.shape == (3,)


def test_coupling_residual_values():
    partition = sm.build_partition(4, 2, 3)
    blocks = [
        np.concatenate([[0.0, 0, 0], [0, 0, 0], [1.0, 2.0, 3.0]]),
        np.concatenate([[0.0, 2.0, 3.0], [0, 0, 0], [0, 0, 0]]),
    ]
    np.testing.assert_allclose(sm.coupling_residual(partition, blocks), [1.0, 0.0, 0.0])


def test_coupling_residual_matches_dense_product(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(12))
    for n_sub in (2, 4, 5):
        partition = sm.build_partition(25, n_sub, 3)
        subs = sm.split_instance(benchmark_instance, partition)
        blocks = [rng.standard_normal(n) for n in partition.block_dims]
        dense = sum(s.coupling_matrix() @ b for s, b in zip(subs, blocks))
        structural = sm.coupling_residual(partition, blocks)
        assert np.abs(dense - structural).max() <= 1e-12
        # transpose application agrees with the dense transpose as well
        lam = rng.standard_normal(partition.r)
        for s, b in zip(subs, blocks):
            np.testing.assert_allclose(
                s.apply_coupling_transpose(lam), s.coupling_matrix().T @ lam, atol=1e-14
            )


def test_lift_extract_round_trip(benchmark_instance):
    rng = np.random.Generator(np.random.PCG64(13))
    partition = sm.build_partition(25, 4, 3)
    traj = rng.standard_normal((26, 3))
    blocks = sm.lift_initial_guess(traj, partition)
    assert np.abs(sm.coupling_residual(partition, blocks)).max() == 0.0
    assert blocks[3].shape == (24,)
    np.testing.assert_array_equal(blocks[3][:3], traj[18])
    back, mismatch = sm.extract_trajectory(blocks, partition)
    np.testing.assert_array_equal(back, traj)
    assert mismatch == 0.0


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((8, 6), r"blocks\[1\] has shape \(6,\), expected \(8,\)"),
        # the right total: only a per-block check catches it
        ((10, 6), r"blocks\[0\] has shape \(10,\), expected \(8,\)"),
        ((8, 6, 6), r"^3 blocks for 2 sub-windows$"),
    ],
    ids=["short", "right-total", "one-too-many"],
)
def test_blocks_of_the_wrong_sizes_are_rejected(sizes, message):
    partition = sm.build_partition(6, 2, 2)
    blocks = [np.zeros(n) for n in sizes]
    with pytest.raises(DimensionMismatchError, match=message):
        sm.coupling_residual(partition, blocks)
    with pytest.raises(DimensionMismatchError, match=message):
        sm.extract_trajectory(blocks, partition)


def test_extract_averages_disagreeing_boundaries():
    partition = sm.build_partition(2, 2, 1)
    blocks = [np.array([0.0, 1.0]), np.array([3.0, 4.0])]
    traj, mismatch = sm.extract_trajectory(blocks, partition)
    np.testing.assert_allclose(traj[:, 0], [0.0, 2.0, 4.0])
    assert mismatch == pytest.approx(2.0)


def test_instance_validation(robot):
    with pytest.raises(DimensionMismatchError):
        sm.MheInstance(
            L=3,
            window_start=0,
            measurements=np.zeros((3, 2)),  # needs L+1 rows
            controls=np.zeros((3, 2)),
            prior=np.zeros(3),
            P=np.eye(3),
            V=np.eye(2),
            initial_guess=np.zeros((4, 3)),
            model=robot,
        )
    with pytest.raises(ValueError):
        sm.MheInstance(
            L=3,
            window_start=0,
            measurements=np.zeros((4, 2)),
            controls=np.zeros((3, 2)),
            prior=np.zeros(3),
            P=-np.eye(3),  # not positive definite
            V=np.eye(2),
            initial_guess=np.zeros((4, 3)),
            model=robot,
        )


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("P", np.eye(2), "P must be an array of shape (3, 3), got (2, 2)"),
        ("V", np.eye(3), "V must be an array of shape (2, 2), got (3, 3)"),
        ("V", np.eye(1), "V must be an array of shape (2, 2), got (1, 1)"),
    ],
)
def test_a_mis_sized_weight_fails_when_the_instance_is_built(
    benchmark_scenario, name, value, message
):
    """``P`` and ``V`` are checked against ``nx`` and ``ny`` like the other
    fields: a square SPD weight of the wrong size never reaches a solve,
    where it would fail as numpy's ``ValueError`` outside the error hierarchy."""
    with pytest.raises(DimensionMismatchError) as err:
        replace(sm.window_instance(benchmark_scenario, 25), **{name: value})
    assert str(err.value) == message


def test_windows_get_independent_inverse_square_roots(benchmark_scenario):
    """``P^-1/2`` and ``V^-1/2`` repeat in every window and are computed once,
    but each instance owns its arrays: mutating one window's leaves the next
    window's unchanged."""
    first = sm.window_instance(benchmark_scenario, 25)
    p, v = first.p_inv_sqrt.copy(), first.v_inv_sqrt.copy()
    first.p_inv_sqrt[:] = 7.0
    first.v_inv_sqrt[0, 0] = -1.0
    second = sm.window_instance(benchmark_scenario, 26)
    np.testing.assert_array_equal(second.p_inv_sqrt, p)
    np.testing.assert_array_equal(second.v_inv_sqrt, v)
    third = sm.window_instance(benchmark_scenario, 27)
    assert not np.shares_memory(second.v_inv_sqrt, third.v_inv_sqrt)


def test_inverse_square_root_is_checked_and_exact_after_the_cache():
    good = np.array([[2.0, 0.5], [0.5, 1.0]])
    w, U = np.linalg.eigh(good)
    expected = (U * (1.0 / np.sqrt(w))) @ U.T
    expected = 0.5 * (expected + expected.T)
    for _ in range(2):
        assert np.array_equal(inv_sqrt_spd(good, "P"), expected)
    skewed = good.copy()
    skewed[0, 1] += 1e-3
    for _ in range(2):  # a bad matrix raises every time, never cached
        with pytest.raises(ValueError, match="^P must be symmetric$"):
            inv_sqrt_spd(skewed, "P")
        with pytest.raises(ValueError, match="^P must be positive definite"):
            inv_sqrt_spd(-good, "P")
    with pytest.raises(DimensionMismatchError, match=r"^V must be square, got shape \(2,\)$"):
        inv_sqrt_spd(np.ones(2), "V")


def test_centralized_kkt_residual_at_linear_optimum(linear_instance):
    from helpers import linear_window_optimum

    optimum = linear_window_optimum(linear_instance)
    assert sm.centralized_kkt_residual(linear_instance, optimum) <= 1e-9
    worse = optimum + 1e-3
    assert sm.centralized_kkt_residual(linear_instance, worse) > 1e-6


def test_block_evaluation_calls_the_model_once_per_callable(benchmark_instance):
    """A whole sub-window is one stacked call of each model callable it needs."""
    calls = Counter()

    def counted(name):
        fn = getattr(benchmark_instance.model, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    names = ("f", "h", "df_dx", "df_du", "dh_dx", "d2f", "d2h")
    model = replace(benchmark_instance.model, **{name: counted(name) for name in names})
    instance = replace(benchmark_instance, model=model)
    partition = sm.build_partition(25, 4, 3)
    subs = sm.split_instance(instance, partition)
    blocks = sm.lift_initial_guess(instance.initial_guess, partition)
    for sub, block in zip(subs, blocks):
        eval_residual_stack(sub, block)
    assert calls == Counter(h=4, dh_dx=4)
    calls.clear()
    for sub, block in zip(subs, blocks):
        sm.eval_constraints(sub, block)
    assert calls == Counter(f=4, df_dx=4)


def test_lifted_layout_places_states_and_stages():
    lay = sm.build_partition(25, 4, 3)
    assert lay.first.tolist() == [0, 7, 14, 21] and lay.last.tolist() == [6, 13, 20, 28]
    np.testing.assert_array_equal(lay.stage_block, np.repeat([0, 1, 2, 3], [6, 6, 6, 7]))
    np.testing.assert_array_equal(lay.next, lay.prev + 1)
    # one measured copy per window state; interior terminal copies carry none
    assert len(lay.measured) == 26
    assert not set(lay.last[:-1]) & set(lay.measured)
    traj = np.arange(26.0 * 3).reshape(26, 3)
    stack = problem.lift(traj, lay)
    np.testing.assert_array_equal(stack[lay.measured], traj)
    np.testing.assert_array_equal(stack[lay.last[:-1]], stack[lay.first[1:]])
    assert [b.tolist() for b in lay.split(stack)] == [
        b.tolist() for b in sm.lift_initial_guess(traj, lay)
    ]


def test_layout_caches_the_shapes_it_checks():
    lay = sm.build_partition(25, 4, 3)
    assert (lay.L, lay.N, lay.r, lay.n_states) == (25, 4, 9, 29)
    assert lay.shapes == ((29, 3, 3), (29, 3), (25, 3, 3), (25, 3), (9,))


@pytest.mark.parametrize("n_sub", [1, 4, 25])
def test_stack_evaluation_slices_are_the_block_evaluations(benchmark_instance, n_sub):
    """The whole window's evaluation, cut at the sub-window boundaries, is the
    evaluations of the one-sub-window runs, bit for bit under the benchmark's
    diagonal weights. Under those and under full prior and measurement weights,
    ``g`` and ``W`` are the dense ``J'b`` and ``J'J``, the unmeasured boundary
    copies included, the prior's block sits on state 0 alone, and with one
    sub-window ``0.5 ||b||^2`` is the centralized objective."""
    rng = np.random.Generator(np.random.PCG64(14))
    P, V = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
    full = replace(benchmark_instance, P=P @ P.T + np.eye(3), V=V @ V.T + 0.1 * np.eye(2))
    assert (full.v_inv_sqrt != np.diag(np.diag(full.v_inv_sqrt))).any()
    partition = sm.build_partition(25, n_sub, 3)
    n, nx = partition.n_states, 3
    for instance in (benchmark_instance, full):
        subs = sm.split_instance(instance, partition)
        run = problem.subproblem(instance, partition, range(partition.N))
        y = problem.lift(instance.initial_guess, partition)
        y = y + 0.05 * rng.standard_normal(y.shape)
        ev = problem.evaluate_stack(run, y)
        blocks = [problem.evaluate_stack(sub, x) for sub, x in zip(subs, partition.split(y))]
        cuts = {
            "b": run.residual_rows, "g": run.layout.first, "W": run.layout.first,
            "F": run.layout.start, "D": run.layout.start,
        }
        assert set(cuts) == set(ev._fields)
        # under full weights numpy takes a one-measurement sub-window's product
        # V^-1/2 dy through another BLAS kernel: equal to roundoff only
        tol = 0.0 if instance is benchmark_instance else 1e-15
        for name, whole in zip(ev._fields, ev):
            parts = np.split(whole, cuts[name][1:])
            for part, direct in zip(parts, (getattr(b, name) for b in blocks)):
                np.testing.assert_allclose(part, direct, rtol=tol, atol=tol, err_msg=name)
        for sub, block, direct in zip(subs, partition.split(y), blocks):
            b_dense, J = eval_residual_stack(sub, block)
            np.testing.assert_array_equal(direct.b, b_dense)
            np.testing.assert_allclose(direct.g.reshape(-1), J.T @ b_dense, rtol=1e-13, atol=1e-12)

        b, J = eval_residual_stack(run, y)
        dense = np.zeros((n, nx, n, nx))
        dense[np.arange(n), :, np.arange(n)] = ev.W
        scale = np.abs(ev.W).max()
        np.testing.assert_allclose(ev.g.reshape(-1), J.T @ b, rtol=1e-13, atol=1e-13 * scale)
        np.testing.assert_allclose(dense.reshape(n * nx, -1), J.T @ J, rtol=1e-13,
                                   atol=1e-13 * scale)
        measurements = J[nx:].T @ J[nx:]
        prior = ev.W - measurements.reshape(n, nx, n, nx)[np.arange(n), :, np.arange(n)]
        np.testing.assert_allclose(prior[0], run.prior_curvature, rtol=1e-13, atol=1e-13 * scale)
        np.testing.assert_allclose(prior[1:], 0.0, atol=1e-13 * scale)
        if n_sub == 1:
            central = sm.centralized_objective(instance, y)
            assert abs(0.5 * ev.b @ ev.b - central) <= 1e-13 * central


@pytest.mark.parametrize("n_sub", [1, 4, 25])
def test_value_functions_are_the_stack_evaluation_bit_for_bit(benchmark_instance, n_sub):
    """``residual_vector`` and ``constraint_vector`` read the residual kernels
    that ``evaluate_stack`` reads: the local line search compares trial merits
    from the former with ``merit0`` from the latter, so the two must agree."""
    rng = np.random.Generator(np.random.PCG64(15))
    partition = sm.build_partition(25, n_sub, 3)
    run = problem.subproblem(benchmark_instance, partition, range(partition.N))
    subs = sm.split_instance(benchmark_instance, partition)
    guess = problem.lift(benchmark_instance.initial_guess, partition)
    for scale in (0.0, 0.05, 0.5):
        y = guess + scale * rng.standard_normal(guess.shape)
        for sub, x in [(run, y), *zip(subs, partition.split(y))]:
            ev = problem.evaluate_stack(sub, x)
            np.testing.assert_array_equal(residual_vector(sub, x), ev.b)
            np.testing.assert_array_equal(constraint_vector(sub, x), ev.F.reshape(-1))


def test_each_form_makes_only_the_model_calls_it_needs(benchmark_instance):
    """A value form calls neither a Jacobian nor the other residual's callable,
    so a line-search trial merit stays one ``h`` and one ``f`` call."""
    calls = Counter()
    instance = replace(benchmark_instance, model=counting_model(benchmark_instance.model, calls))
    partition = sm.build_partition(25, 4, 3)
    run = problem.subproblem(instance, partition, range(partition.N))
    y = problem.lift(instance.initial_guess, partition)
    forms = {
        residual_vector: Counter(h=1),
        sub_objective: Counter(h=1),
        constraint_vector: Counter(f=1),
        eval_residual_stack: Counter(h=1, dh_dx=1),
        sm.eval_constraints: Counter(f=1, df_dx=1),
        problem.evaluate_stack: Counter(h=1, dh_dx=1, f=1, df_dx=1),
        lambda sub, x: local_nlp._merits(sub, x, 1.0, np.zeros_like(x), x, 1.0): Counter(h=1, f=1),
    }
    for form, expected in forms.items():
        calls.clear()
        form(run, y)
        assert calls == expected, form


def _kernel_counting_instance(instance, calls, **changes):
    """``instance`` whose model counts its four separate callables and its two
    kernels, wrapped at construction, in the Counter ``calls``."""
    model = replace(instance.model, **changes)
    separate = {n: counted(calls, n, getattr(model, n)) for n in ("f", "h", "df_dx", "dh_dx")}
    return replace(instance, model=replace(
        model, **separate, f_kernel=counted(calls, "f_and_jac", model.f_and_jac),
        h_kernel=counted(calls, "h_and_jac", model.h_and_jac),
    ))


def test_each_jacobian_form_calls_one_kernel_per_function(benchmark_instance):
    calls = Counter()
    instance = _kernel_counting_instance(benchmark_instance, calls)
    partition = sm.build_partition(25, 4, 3)
    run = problem.subproblem(instance, partition, range(partition.N))
    y = problem.lift(instance.initial_guess, partition)
    forms = {
        problem.evaluate_stack: Counter(h_and_jac=1, f_and_jac=1),
        eval_residual_stack: Counter(h_and_jac=1),
        sm.eval_constraints: Counter(f_and_jac=1),
        residual_vector: Counter(h=1),
        constraint_vector: Counter(f=1),
    }
    for form, expected in forms.items():
        calls.clear()
        form(run, y)
        assert calls == expected, form


def test_robot_stack_evaluation_makes_two_model_calls(benchmark_instance):
    # the robot's kernels check the origin once per evaluation, not per callable
    partition = sm.build_partition(25, 4, 3)
    run = problem.subproblem(benchmark_instance, partition, range(partition.N))
    y = problem.lift(benchmark_instance.initial_guess, partition)
    model_file, calls = sm.model.__file__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == model_file:
            calls.append((frame.f_back.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        problem.evaluate_stack(run, y)
    finally:
        sys.setprofile(None)
    assert len([name for caller, name in calls if caller == problem.__file__]) == 2
    assert [name for _, name in calls].count("_range_sq") == 1


def test_replaced_callables_reach_the_stack_evaluation(benchmark_instance):
    # replace composes the kernels anew, so the robot's own kernels are not run
    calls = Counter()
    robot = benchmark_instance.model
    g = lambda x, u: robot.f(x, u) + 0.5  # noqa: E731
    k = lambda x: robot.h(x) - 0.25  # noqa: E731
    instance = _kernel_counting_instance(benchmark_instance, calls, f=g, h=k)
    partition = sm.build_partition(25, 4, 3)
    y = problem.lift(instance.initial_guess, partition)
    run, plain = (problem.subproblem(i, partition, range(partition.N))
                  for i in (instance, benchmark_instance))
    ev, ev0 = problem.evaluate_stack(run, y), problem.evaluate_stack(plain, y)
    assert calls == Counter(h_and_jac=1, f_and_jac=1)
    np.testing.assert_array_equal(ev.F.reshape(-1), constraint_vector(run, y))
    np.testing.assert_array_equal(ev.b, residual_vector(run, y))
    assert np.abs(ev.F - ev0.F).min() > 0.1 and np.abs(ev.b - ev0.b).max() > 0.1
    np.testing.assert_array_equal(ev.D, ev0.D)


def test_problem_calls_h_and_f_in_one_function_each():
    # b and F are each formed in one kernel, so a change to a residual edits
    # one place; the centralized certificates stay independent of the kernels
    certificates = {"centralized_objective", "centralized_kkt_residual"}
    sites = {"h": [], "f": [], "h_and_jac": [], "f_and_jac": []}
    for fn in ast.walk(ast.parse(Path(problem.__file__).read_text())):
        if isinstance(fn, ast.FunctionDef) and fn.name not in certificates:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in sites:
                    sites[node.func.attr].append(fn.name)
    assert sites == {
        "h": ["_residuals"], "f": ["_defects"], "h_and_jac": ["_residuals"],
        "f_and_jac": ["_defects"],
    }


def test_problem_module_imports_no_scipy():
    # importing scipy from inside problem.py slows `import splitmhe` by about
    # a tenth; every scipy call lives in qp_core and local_nlp
    tree = ast.parse(Path(problem.__file__).read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in names if name.split(".")[0] == "scipy"], names


def test_only_errors_calls_operator_index():
    # every count the package takes passes errors.check_count, so the rule
    # for a valid integer, and its message, live in one place
    sites = []
    for path in sorted(Path(problem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            imported = isinstance(node, ast.ImportFrom) and node.module == "operator" and any(
                alias.name == "index" for alias in node.names
            )
            called = isinstance(node, ast.Attribute) and node.attr == "index" and (
                getattr(node.value, "id", None) == "operator"
            )
            if imported or called:
                sites.append(path.name)
    assert sites == ["errors.py"], sites


# the checks that accept more than one shape, or learn the shape from the
# input, so that errors.check_shape cannot state them
_SHAPE_CHECKS = {
    ("model.py", "make_linear_model"): "learns nx, nu and ny from A, B and C",
    ("problem.py", "inv_sqrt_spd"): "a square matrix of any size, called directly too",
    ("problem.py", "_as_stack"): "a list of flat blocks, each named with its own length",
    ("problem.py", "states"): "a flat block vector or its (states, nx) stack",
}


def _compares_a_shape(test: ast.expr) -> bool:
    """Whether ``test`` holds a ``!=`` with ``.shape`` or ``np.shape(...)`` on a side."""
    return any(
        isinstance(node, ast.Compare) and any(isinstance(op, ast.NotEq) for op in node.ops)
        and any(isinstance(n, ast.Attribute) and n.attr == "shape"
                for side in (node.left, *node.comparators) for n in ast.walk(side))
        for node in ast.walk(test)
    )


def test_only_errors_writes_a_shape_check():
    # every fixed-shape array input passes errors.check_shape, so its rule and
    # message live in one place; a new hand-written check fails here
    sites = {}
    for path in sorted(Path(problem.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        # ast.walk is breadth first, so an inner function overwrites its outer one
        owner = {}
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                owner.update({node: fn.name for node in ast.walk(fn) if isinstance(node, ast.If)})
        for node, name in owner.items():
            raises = any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
            if raises and _compares_a_shape(node.test):
                sites[(path.name, name)] = node.lineno
    assert set(sites) == set(_SHAPE_CHECKS), sites


def test_no_module_imports_a_private_name_of_a_sibling():
    # the benchmark tracer (bench/tracer.py) wraps only the public functions
    # of each module, so a call through a sibling's private name escapes its
    # spans: expose the entry point publicly instead
    private = []
    for path in sorted(Path(problem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "splitmhe"
            ):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert not private, private
