import logging
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import splitmhe as sm
from splitmhe.errors import (
    NonFiniteDataError,
    NotPositiveDefiniteError,
    RankDeficientConstraintsError,
    SingularKktError,
)
from splitmhe.local_nlp import hessian_blocks
from splitmhe.problem import evaluate_stack, lift, lifted_layout, subproblem
from splitmhe.qp_core import _block_inverses, random_blocks, schur_terms, solve_local_kkt

from helpers import dense_blocks, dense_kkt, kkt_residual_qp, random_stage_stack


def scalar_pair():
    b1 = sm.QpBlock(H=[[1.0]], g=[0.0], C=np.zeros((0, 1)), d=[], A=[[1.0]], anchor=[2.0])
    b2 = sm.QpBlock(H=[[1.0]], g=[0.0], C=np.zeros((0, 1)), d=[], A=[[-1.0]], anchor=[0.0])
    return [b1, b2]


def _flat(parts):
    """Per-block arrays of a list of blocks, or a stacked array, as one vector."""
    if isinstance(parts, list):
        return np.concatenate([np.ravel(p) for p in parts])
    return parts.ravel()


def solution_deviation(a, b):
    parts = [a.lam - b.lam, _flat(a.mu) - _flat(b.mu), _flat(a.delta_x) - _flat(b.delta_x)]
    scale = 1.0 + max(np.abs(_flat(b.delta_x)).max(), 1.0)
    return max(np.abs(p).max() if p.size else 0.0 for p in parts) / scale


def _dense_schur(block):
    """Dense ``Q = A H^-1 C'`` and ``R = C H^-1 C'`` of a block, and its Schur
    contribution ``A H^-1 A' - Q R^-1 Q'``."""
    Hinv = np.linalg.inv(block.H)
    Q = block.A @ Hinv @ block.C.T
    R = block.C @ Hinv @ block.C.T
    S = block.A @ Hinv @ block.A.T
    if block.m:
        S = S - Q @ np.linalg.solve(R, Q.T)
    return Hinv, Q, R, S


def test_schur_terms_identity_hessian_no_constraints():
    rng = np.random.Generator(np.random.PCG64(0))
    A = rng.standard_normal((2, 5))
    g = rng.standard_normal(5)
    anchor = rng.standard_normal(2)
    block = sm.QpBlock(H=np.eye(5), g=g, C=np.zeros((0, 5)), d=[], A=A, anchor=anchor)
    terms = schur_terms(block)
    np.testing.assert_allclose(terms.S, A @ A.T, atol=1e-14)
    np.testing.assert_allclose(terms.s, anchor - A @ g, atol=1e-14)
    # with H = I and no constraint rows the map is [g, A'] itself
    np.testing.assert_allclose(terms.U, np.column_stack([g, A.T]), atol=1e-14)
    assert terms.V.shape == (0, 3)


def test_schur_terms_match_dense_inverse():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(10):
        (block,) = random_blocks(rng, 1, r=3)
        terms = schur_terms(block)
        Hinv, Q, R, S = _dense_schur(block)
        np.testing.assert_allclose(terms.S, S, atol=1e-10)
        rhs = np.column_stack([block.g, block.A.T])
        V = np.zeros((0, 4))
        if block.m:
            V = np.linalg.solve(R, block.C @ Hinv @ rhs - np.outer(block.d, [1, 0, 0, 0]))
        np.testing.assert_allclose(terms.V, V, atol=1e-10)
        np.testing.assert_allclose(terms.U, Hinv @ (rhs - block.C.T @ V), atol=1e-10)


def test_schur_terms_offset_free_reduction():
    rng = np.random.Generator(np.random.PCG64(2))
    (block,) = random_blocks(rng, 1, r=2)
    if not block.m:
        (block,) = random_blocks(rng, 1, r=2, size_range=(8, 12))
    zeroed = sm.QpBlock(H=block.H, g=block.g, C=block.C, d=np.zeros(block.m), A=block.A, anchor=block.anchor)
    with_d = schur_terms(block)
    without_d = schur_terms(zeroed)
    Hinv, Q, R, _ = _dense_schur(block)
    q_term = zeroed.anchor + (Q @ np.linalg.solve(R, block.C @ Hinv @ block.g)
                              if block.m else 0.0) - block.A @ Hinv @ block.g
    np.testing.assert_allclose(without_d.s, q_term, atol=1e-10)
    # the d-dependent part of s is exactly -Q R^-1 d
    if block.m:
        diff = with_d.s - without_d.s
        np.testing.assert_allclose(diff, -Q @ np.linalg.solve(R, block.d), atol=1e-10)


def test_scalar_consensus_hand_solved():
    sol = sm.solve_coupled_qp(scalar_pair())
    np.testing.assert_allclose(sol.lam, [1.0], atol=1e-14)
    np.testing.assert_allclose(sol.delta_x[0], [-1.0], atol=1e-14)
    np.testing.assert_allclose(sol.delta_x[1], [1.0], atol=1e-14)
    oracle = sm.dense_kkt_oracle(scalar_pair())
    np.testing.assert_allclose(oracle.lam, [1.0], atol=1e-14)
    np.testing.assert_allclose(oracle.delta_x[0], [-1.0], atol=1e-14)


def test_stationary_feasible_point_gives_zero_step():
    rng = np.random.Generator(np.random.PCG64(3))
    blocks = []
    for _ in range(3):
        n = 6
        M = rng.standard_normal((n, n))
        blocks.append(
            sm.QpBlock(
                H=M.T @ M + np.eye(n),
                g=np.zeros(n),
                C=rng.standard_normal((2, n)),
                d=np.zeros(2),
                A=rng.standard_normal((4, n)),
                anchor=np.zeros(4),
            )
        )
    sol = sm.solve_coupled_qp(blocks)
    assert np.abs(sol.lam).max() <= 1e-12
    assert all(np.abs(m).max() <= 1e-12 for m in sol.mu)
    assert all(np.abs(d).max() <= 1e-12 for d in sol.delta_x)


def test_matches_dense_oracle_on_random_instances():
    rng = np.random.Generator(np.random.PCG64(42))
    worst = 0.0
    for _ in range(40):
        n_blocks = int(rng.integers(2, 7))
        r = int(rng.integers(0, 2 * n_blocks))
        blocks = random_blocks(rng, n_blocks, r)
        worst = max(worst, solution_deviation(sm.solve_coupled_qp(blocks), sm.dense_kkt_oracle(blocks)))
    assert worst <= 1e-9


def test_solution_satisfies_feasibility():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(10):
        blocks = random_blocks(rng, 3, r=4)
        sol = sm.solve_coupled_qp(blocks)
        coupling = sum(b.anchor + b.A @ dx for b, dx in zip(blocks, sol.delta_x))
        assert np.abs(coupling).max() <= 1e-9
        for b, dx in zip(blocks, sol.delta_x):
            if b.m:
                assert np.abs(b.C @ dx + b.d).max() <= 1e-9


def test_oracle_self_residual_tiny():
    rng = np.random.Generator(np.random.PCG64(5))
    blocks = random_blocks(rng, 4, r=5)
    oracle = sm.dense_kkt_oracle(blocks)
    assert kkt_residual_qp(blocks, oracle) <= 1e-12
    fast = sm.solve_coupled_qp(blocks)
    assert kkt_residual_qp(blocks, fast) <= 1e-9


def test_kkt_residual_detects_perturbation():
    rng = np.random.Generator(np.random.PCG64(6))
    blocks = random_blocks(rng, 3, r=3)
    sol = sm.solve_coupled_qp(blocks)
    base = kkt_residual_qp(blocks, sol)
    for delta in (1e-6, 1e-4, 1e-2):
        bumped = sm.QpSolution(
            lam=sol.lam + delta, mu=sol.mu, delta_x=sol.delta_x, diagnostics={}
        )
        assert kkt_residual_qp(blocks, bumped) >= 0.1 * delta
        assert kkt_residual_qp(blocks, bumped) > base


def test_kkt_residual_of_zero_solution_is_data_norm():
    rng = np.random.Generator(np.random.PCG64(7))
    blocks = random_blocks(rng, 3, r=3)
    zero = sm.QpSolution(
        lam=np.zeros(3),
        mu=[np.zeros(b.m) for b in blocks],
        delta_x=[np.zeros(b.n) for b in blocks],
        diagnostics={},
    )
    expected = max(
        max(np.abs(b.g).max() for b in blocks),
        max((np.abs(b.d).max() if b.m else 0.0) for b in blocks),
        np.abs(sum(b.anchor for b in blocks)).max(),
    )
    assert kkt_residual_qp(blocks, zero) == pytest.approx(expected)


def test_degenerate_no_coupling():
    rng = np.random.Generator(np.random.PCG64(8))
    blocks = random_blocks(rng, 2, r=0)
    sol = sm.solve_coupled_qp(blocks)
    oracle = sm.dense_kkt_oracle(blocks)
    assert sol.lam.size == 0
    assert solution_deviation(sol, oracle) <= 1e-10


def test_schur_matrix_symmetry_and_conditioning():
    rng = np.random.Generator(np.random.PCG64(9))
    blocks = random_blocks(rng, 4, r=6)
    S = sum(schur_terms(b, i).S for i, b in enumerate(blocks))
    np.testing.assert_allclose(S, sum(_dense_schur(b)[3] for b in blocks), atol=1e-10)
    assert np.abs(S - S.T).max() <= 1e-12 * (1 + np.abs(S).max())
    assert np.linalg.eigvalsh(S).min() > 0


def test_indefinite_hessian_raises_with_block_index():
    good = random_blocks(np.random.Generator(np.random.PCG64(10)), 1, r=2)[0]
    bad = sm.QpBlock(
        H=-np.eye(good.n), g=good.g, C=good.C, d=good.d, A=good.A, anchor=good.anchor
    )
    with pytest.raises(NotPositiveDefiniteError) as err:
        sm.solve_coupled_qp([good, bad])
    assert err.value.block_index == 1


def test_rank_deficient_constraints_raise():
    rng = np.random.Generator(np.random.PCG64(11))
    n = 6
    M = rng.standard_normal((n, n))
    row = rng.standard_normal((1, n))
    block = sm.QpBlock(
        H=M.T @ M + np.eye(n),
        g=rng.standard_normal(n),
        C=np.vstack([row, row]),  # duplicated row: rank deficient
        d=np.zeros(2),
        A=rng.standard_normal((2, n)),
        anchor=np.zeros(2),
    )
    with pytest.raises(RankDeficientConstraintsError):
        sm.solve_coupled_qp([block])


def test_near_singular_constraint_rows_raise_from_condition_estimate():
    rng = np.random.Generator(np.random.PCG64(12))
    n = 6
    M = rng.standard_normal((n, n))
    row = rng.standard_normal((1, n))
    block = sm.QpBlock(
        H=M.T @ M + np.eye(n),
        g=rng.standard_normal(n),
        C=np.vstack([row, row + 1e-9 * rng.standard_normal((1, n))]),
        d=np.zeros(2),
        A=rng.standard_normal((2, n)),
        anchor=np.zeros(2),
    )
    with pytest.raises(RankDeficientConstraintsError) as err:
        schur_terms(block, index=4)
    assert err.value.block_index == 4


@pytest.mark.parametrize("field", ["H", "g", "C", "d", "A", "anchor"])
def test_dense_path_rejects_non_finite_data(field):
    blocks = random_blocks(np.random.Generator(np.random.PCG64(17)), 3, r=3, size_range=(6, 8))
    assert blocks[1].m > 0
    bad = getattr(blocks[1], field).copy()
    bad.flat[0] = np.inf if field == "C" else np.nan
    setattr(blocks[1], field, bad)
    with pytest.raises(NonFiniteDataError) as err:
        sm.solve_coupled_qp(blocks)
    assert err.value.block_index == 1
    assert field in str(err.value)


def test_stage_path_matches_dense_kkt_oracle():
    """Structured path against the dense full-KKT solve, at the relative scale
    of acceptance criterion 1."""
    rng = np.random.Generator(np.random.PCG64(2025))
    worst = 0.0
    n_unit_windows = 0
    for nx in (2, 3):
        for n_blocks in range(1, 7):
            for with_offsets in (True, False):
                for _ in range(4):
                    stack = random_stage_stack(rng, n_blocks, nx, with_offsets=with_offsets)
                    n_unit_windows += stack.layout.lengths.count(1)
                    fast = sm.solve_coupled_qp(stack)
                    oracle = sm.dense_kkt_oracle(dense_blocks(stack))
                    assert fast.lam.shape == ((n_blocks - 1) * nx,)
                    worst = max(worst, solution_deviation(fast, oracle))
    assert n_unit_windows >= 10, "sample must include sub-windows of length 1"
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"


def _chain_pivot_ratio(stack):
    """Smallest squared pivot ratio of a sub-window's links, from a dense
    Cholesky factor of the chain's ``C H^-1 C'``."""
    lay = stack.layout
    n, nx = stack.H.shape[:2]
    C = np.zeros((n - 1, nx, n, nx))
    for j in range(n - 1):
        C[j, :, j + 1] = np.eye(nx)
        C[j, :, j] = -np.eye(nx)  # a coupling link, unless a stage overwrites it
    for k, j in enumerate(lay.prev):
        C[j, :, j] = -stack.D[k]
    C = C.reshape((n - 1) * nx, n * nx)
    Hinv = np.linalg.inv(scipy.linalg.block_diag(*stack.H))
    pivots = np.diag(np.linalg.cholesky(C @ Hinv @ C.T))
    bounds = np.append(lay.first * nx, len(pivots))
    return min(
        (pivots[a:b].min() / pivots[a:b].max()) ** 2 for a, b in zip(bounds[:-1], bounds[1:])
    )


def test_stage_path_reports_its_pivot_ratio():
    rng = np.random.Generator(np.random.PCG64(14))
    for n_blocks in (1, 4):
        stack = random_stage_stack(rng, n_blocks, 3)
        stage = sm.solve_coupled_qp(stack)
        dense = sm.solve_coupled_qp(dense_blocks(stack))
        assert set(stage.diagnostics) == {"pivot_ratio"}
        assert stage.diagnostics["pivot_ratio"] == pytest.approx(
            _chain_pivot_ratio(stack), rel=1e-10
        )
        assert solution_deviation(stage, dense) <= 1e-10


def test_stage_solve_is_one_banded_solve_with_one_column(monkeypatch):
    calls = []
    dpbtrs = scipy.linalg.lapack.dpbtrs

    def spy(ab, b, *args, **kwargs):
        # solves against the chain's band, 2 nx rows; the Hessian blocks' has nx
        if len(ab) == 2 * 3:
            calls.append(np.shape(b))
        return dpbtrs(ab, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", spy)
    rng = np.random.Generator(np.random.PCG64(23))
    for n_blocks in (1, 4, 25):
        stack = random_stage_stack(rng, n_blocks, 3)
        calls.clear()
        sm.solve_coupled_qp(stack)
        links = stack.layout.n_states - 1
        assert calls == [(links * 3,)], f"N = {n_blocks}"


def test_stage_indefinite_state_block_raises_with_block_index():
    stack = random_stage_stack(np.random.Generator(np.random.PCG64(15)), 4, 3)
    stack.H[stack.layout.last[2]] = -np.eye(3)
    with pytest.raises(NotPositiveDefiniteError) as err:
        sm.solve_coupled_qp(stack)
    assert err.value.block_index == 2


def test_stage_hessian_factor_names_the_block_of_a_state_failing_at_its_second_pivot():
    # positive first pivot, negative second: only the band factor's second step fails
    second_pivot_fails = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rng = np.random.Generator(np.random.PCG64(24))
    for where in ("first", "interior", "last"):
        stack = random_stage_stack(rng, 4, 3)
        lay = stack.layout
        state, block = {
            "first": (0, 0), "interior": (lay.last[2], 2), "last": (lay.n_states - 1, 3),
        }[where]
        stack.H[state] = second_pivot_fails
        with pytest.raises(NotPositiveDefiniteError) as err:
            sm.solve_coupled_qp(stack)
        assert err.value.block_index == block, where
        # a NaN anywhere is named before any block that fails to factor
        stack.H[lay.first[1], 0, 0] = np.nan
        with pytest.raises(NonFiniteDataError) as err:
            sm.solve_coupled_qp(stack)
        assert err.value.block_index == 1, where


def test_stage_hessian_inverses_match_dense_inverses():
    rng = np.random.Generator(np.random.PCG64(25))
    for nx in (1, 2, 3, 5):
        Q = np.linalg.qr(rng.standard_normal((30, nx, nx)))[0]
        for cond in (1e2, 1e5, 1e8):
            spread = np.logspace(0, np.log10(cond), nx) if nx > 1 else np.ones(1)
            eigenvalues = spread * 10.0 ** rng.uniform(-3, 3, (30, 1))
            H = (Q * eigenvalues[:, None, :]) @ np.swapaxes(Q, 1, 2)
            H = 0.5 * (H + np.swapaxes(H, 1, 2))
            hinv = _block_inverses(H, np.zeros(30, dtype=int))
            ref = np.linalg.inv(H)
            scale = np.abs(ref).max(axis=(1, 2))
            # two backward-stable inverses agree to about cond * eps, no closer
            deviation = np.abs(hinv - ref).max(axis=(1, 2)) / scale
            assert deviation.max() <= 1e-14 * cond, (nx, cond)
            residual = np.abs(H @ hinv - np.eye(nx)).max(axis=(1, 2))
            assert (residual / (np.abs(H).max(axis=(1, 2)) * scale)).max() <= 1e-14, (nx, cond)


def _cold_stack(L, N, rho=1e3):
    """The ``dsqp`` QP of the cold seed-0 window of ``L`` steps split ``N`` ways."""
    instance = sm.window_instance(sm.generate_scenario(steps=L, seed=0), L, horizon=L)
    lay = sm.build_partition(L, N, 3)
    run = subproblem(instance, lay, range(N))
    x = lift(instance.initial_guess, lay)
    ev = evaluate_stack(run, x)
    return sm.StageStack(
        layout=lay, H=hessian_blocks(run, x, None, rho, ev, False), g=ev.g, D=ev.D, d=ev.F,
        anchor=sm.coupling_residual(lay, x),
    )


@pytest.mark.parametrize("L, N, bound", [(25, 4, 1e-13), (400, 1, 1e-8), (400, 66, 1e-8)])
def test_stage_solve_feasibility_on_the_benchmark_windows(L, N, bound):
    # measured 5.7e-15 to 8.6e-15 at L = 25 and 1.4e-9 to 1.7e-9 at L = 400;
    # the chain loses feasibility with L while its pivot-ratio guard stays silent
    stack = _cold_stack(L, N)
    lay, dX = stack.layout, sm.solve_coupled_qp(stack).delta_x
    stages = dX[lay.next] - (stack.D @ dX[lay.prev][..., None])[..., 0] + stack.d
    coupling = stack.anchor.reshape(-1, 3) + dX[lay.last[:-1]] - dX[lay.first[1:]]
    worst = max(np.abs(stages).max(), np.abs(coupling).max(initial=0.0))
    assert worst / (1.0 + np.abs(stack.d).max()) <= bound


@pytest.mark.parametrize("field", ["H", "g", "D", "d", "anchor"])
def test_stage_path_rejects_non_finite_data(field):
    stack = random_stage_stack(np.random.Generator(np.random.PCG64(16)), 3, 2)
    lay = stack.layout
    # the last state, stage or coupling row of block 1
    row = {"H": lay.last[1], "g": lay.last[1], "D": lay.start[2] - 1, "d": lay.start[2] - 1,
           "anchor": slice(2, 4)}[field]
    getattr(stack, field)[row].flat[-1] = -np.inf if field == "D" else np.nan
    with pytest.raises(NonFiniteDataError) as err:
        sm.solve_coupled_qp(stack)
    assert err.value.block_index == 1
    assert field in str(err.value)


def _stiffen(stack, i):
    """Near-infinite curvature on every state of block ``i`` past its first
    makes ``R = C H^-1 C'`` numerically singular although ``C`` itself has
    full row rank."""
    lay = stack.layout
    stack.H[lay.first[i] + 1:lay.last[i] + 1] = 1e14 * np.eye(3)
    stages = slice(lay.start[i], lay.start[i] + lay.lengths[i])
    stack.D[stages] = 0.0
    stack.D[lay.start[i]] = np.eye(3)


def test_stage_rank_guard_uses_banded_pivot_ratio():
    stack = random_stage_stack(np.random.Generator(np.random.PCG64(17)), 1, 3)
    _stiffen(stack, 0)
    with pytest.raises(RankDeficientConstraintsError) as err:
        sm.solve_coupled_qp(stack)
    assert err.value.block_index == 0


def test_stage_stack_validates_shapes():
    stack = random_stage_stack(np.random.Generator(np.random.PCG64(18)), 1, 2)
    with pytest.raises(sm.DimensionMismatchError):
        replace(stack, D=stack.D[:-1])
    with pytest.raises(sm.DimensionMismatchError):
        replace(stack, anchor=np.zeros(2))  # one sub-window has no coupling rows


def test_mixed_block_forms_are_rejected():
    rng = np.random.Generator(np.random.PCG64(19))
    stack = random_stage_stack(rng, 2, 2)
    for mixed in ([stack], [dense_blocks(stack)[0], stack]):
        with pytest.raises(TypeError):
            sm.solve_coupled_qp(mixed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    nx=st.integers(1, 3),
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=40),
    with_offsets=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_stage_path_matches_dense_kkt_oracle(nx, lengths, with_offsets, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    stack = random_stage_stack(
        rng, len(lengths), nx, with_offsets=with_offsets, lengths=lengths, stable=True
    )
    fast = sm.solve_coupled_qp(stack)
    oracle = sm.dense_kkt_oracle(dense_blocks(stack))
    assert solution_deviation(fast, oracle) <= 1e-9


def test_duplicated_coupling_rows_raise_singular_kkt():
    # H = 2 I and unit coupling rows keep every Schur entry exact: S is the
    # all-ones 2 x 2 matrix, whose second Cholesky pivot is exactly 0
    A = np.zeros((2, 3))
    A[:, 0] = 1.0
    blocks = [
        sm.QpBlock(H=2.0 * np.eye(3), g=np.ones(3), C=np.zeros((0, 3)), d=np.zeros(0),
                   A=sign * A, anchor=np.ones(2))
        for sign in (1.0, -1.0)
    ]
    with pytest.raises(SingularKktError, match="Schur"):
        sm.solve_coupled_qp(blocks)
    # the two coupling rows of K are equal, so its LU meets an exact zero pivot
    with pytest.raises(SingularKktError, match="assembled KKT matrix is singular"):
        sm.dense_kkt_oracle(blocks)


def test_coupled_qp_rejects_no_blocks_and_unequal_coupling_rows():
    with pytest.raises(sm.DimensionMismatchError, match="at least one block"):
        sm.solve_coupled_qp([])
    rng = np.random.Generator(np.random.PCG64(20))
    blocks = random_blocks(rng, 1, 3) + random_blocks(rng, 1, 2)
    with pytest.raises(sm.DimensionMismatchError, match="share the coupling row count"):
        sm.solve_coupled_qp(blocks)


def test_stage_rank_guard_names_an_interior_block_by_its_own_pivots():
    stack = random_stage_stack(np.random.Generator(np.random.PCG64(22)), 5, 3)
    lay = stack.layout
    # a uniformly stiff block has a tiny R but a pivot ratio of order one: a
    # ratio taken over the whole stack would flag it
    stack.H[lay.first[1]:lay.last[1] + 1] *= 1e10
    assert sm.solve_coupled_qp(stack).lam.shape == (12,)
    _stiffen(stack, 3)
    with pytest.raises(RankDeficientConstraintsError) as err:
        sm.solve_coupled_qp(stack)
    assert err.value.block_index == 3
    # one soft state among stiff ones leaves a link pivot that is not
    # positive, so the banded factorization itself fails, before any pivot
    # ratio, and the link's first state names the block
    lay = lifted_layout((2, 2, 2), 1)
    for k in range(1, 8):
        H = np.full((9, 1, 1), 1e20)
        H[k] = 1e-16
        chain = sm.StageStack(
            layout=lay, H=H, g=np.zeros((9, 1)), D=np.ones((6, 1, 1)), d=np.zeros((6, 1)),
            anchor=np.zeros(2),
        )
        with pytest.raises(RankDeficientConstraintsError) as err:
            sm.solve_coupled_qp(chain)
        assert err.value.block_index == lay.state_block[k]
        assert "pivot ratio" not in str(err.value)


def _random_local_kkt(rng, nx, lengths):
    """A run's local KKT data with symmetric indefinite per-state blocks."""
    lay = lifted_layout(tuple(lengths), nx)
    M = rng.standard_normal((lay.n_states, nx, nx))
    D = np.eye(nx) + 0.3 * rng.standard_normal((len(lay.prev), nx, nx))
    rhs = rng.standard_normal((lay.n_states, nx)), rng.standard_normal((len(lay.prev), nx))
    return lay, M + np.swapaxes(M, 1, 2), D, rhs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    nx=st.integers(1, 3),
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_local_kkt_matches_the_dense_solve(nx, lengths, seed):
    lay, H, D, (rhs_x, rhs_mu) = _random_local_kkt(np.random.Generator(np.random.PCG64(seed)), nx, lengths)
    K = dense_kkt(lay, H, D)
    # two backward-stable solves agree to about cond(K) * 1e-16
    assume(np.linalg.cond(K) < 1e5)
    dx, mu = solve_local_kkt(lay, H, D, rhs_x, rhs_mu, 1.0)
    got = np.concatenate([dx.ravel(), mu.ravel()])
    expected = np.linalg.solve(K, np.concatenate([rhs_x.ravel(), rhs_mu.ravel()]))
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def test_local_kkt_ladder_shifts_only_the_singular_blocks(caplog):
    lay, H, D, (rhs_x, rhs_mu) = _random_local_kkt(np.random.Generator(np.random.PCG64(23)), 2, (3, 4, 2, 5))
    H[lay.state_block == 1] = 0.0  # H = 0: blocks 1 and 3 are singular
    H[lay.state_block == 3] = 0.0
    with caplog.at_level(logging.WARNING, logger="splitmhe.qp_core"):
        dx, mu = solve_local_kkt(lay, H, D, rhs_x, rhs_mu, 0.5)
    assert [r.getMessage() for r in caplog.records] == [
        f"block {i}: local KKT matrix singular; retrying with shift 5.000e-01" for i in (1, 3)
    ]
    shifted = H.copy()
    shifted[np.isin(lay.state_block, (1, 3))] = 0.5 * np.eye(2)
    expected = np.linalg.solve(
        dense_kkt(lay, shifted, D), np.concatenate([rhs_x.ravel(), rhs_mu.ravel()])
    )
    got = np.concatenate([dx.ravel(), mu.ravel()])
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()
