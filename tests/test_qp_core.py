from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import splitmhe as sm
from splitmhe.errors import (
    NonFiniteDataError,
    NotPositiveDefiniteError,
    RankDeficientConstraintsError,
)
from splitmhe.qp_core import random_blocks, schur_terms

from helpers import dense_blocks, random_stage_stack


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


def test_schur_terms_identity_hessian_no_constraints():
    rng = np.random.Generator(np.random.PCG64(0))
    A = rng.standard_normal((2, 5))
    g = rng.standard_normal(5)
    anchor = rng.standard_normal(2)
    block = sm.QpBlock(H=np.eye(5), g=g, C=np.zeros((0, 5)), d=[], A=A, anchor=anchor)
    terms = schur_terms(block)
    np.testing.assert_allclose(terms.G, A @ A.T, atol=1e-14)
    assert terms.Q.shape == (2, 0) and terms.R.shape == (0, 0)
    np.testing.assert_allclose(terms.s, anchor - A @ g, atol=1e-14)


def test_schur_terms_match_dense_inverse():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(10):
        (block,) = random_blocks(rng, 1, r=3)
        terms = schur_terms(block)
        Hinv = np.linalg.inv(block.H)
        np.testing.assert_allclose(terms.G, block.A @ Hinv @ block.A.T, atol=1e-10)
        if block.m:
            np.testing.assert_allclose(terms.Q, block.A @ Hinv @ block.C.T, atol=1e-10)
            np.testing.assert_allclose(terms.R, block.C @ Hinv @ block.C.T, atol=1e-10)


def test_schur_terms_offset_free_reduction():
    rng = np.random.Generator(np.random.PCG64(2))
    (block,) = random_blocks(rng, 1, r=2)
    if not block.m:
        (block,) = random_blocks(rng, 1, r=2, size_range=(8, 12))
    zeroed = sm.QpBlock(H=block.H, g=block.g, C=block.C, d=np.zeros(block.m), A=block.A, anchor=block.anchor)
    with_d = schur_terms(block)
    without_d = schur_terms(zeroed)
    Hinv = np.linalg.inv(block.H)
    q_term = zeroed.anchor + (with_d.Q @ np.linalg.solve(with_d.R, block.C @ Hinv @ block.g)
                              if block.m else 0.0) - block.A @ Hinv @ block.g
    np.testing.assert_allclose(without_d.s, q_term, atol=1e-10)
    # the d-dependent part of s is exactly -Q R^-1 d
    if block.m:
        diff = with_d.s - without_d.s
        np.testing.assert_allclose(
            diff, -with_d.Q @ np.linalg.solve(with_d.R, block.d), atol=1e-10
        )


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
    assert sm.kkt_residual_qp(blocks, oracle) <= 1e-12
    fast = sm.solve_coupled_qp(blocks)
    assert sm.kkt_residual_qp(blocks, fast) <= 1e-9


def test_kkt_residual_detects_perturbation():
    rng = np.random.Generator(np.random.PCG64(6))
    blocks = random_blocks(rng, 3, r=3)
    sol = sm.solve_coupled_qp(blocks)
    base = sm.kkt_residual_qp(blocks, sol)
    for delta in (1e-6, 1e-4, 1e-2):
        bumped = sm.QpSolution(
            lam=sol.lam + delta, mu=sol.mu, delta_x=sol.delta_x, diagnostics={}
        )
        assert sm.kkt_residual_qp(blocks, bumped) >= 0.1 * delta
        assert sm.kkt_residual_qp(blocks, bumped) > base


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
    assert sm.kkt_residual_qp(blocks, zero) == pytest.approx(expected)


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
    terms = [schur_terms(b, i) for i, b in enumerate(blocks)]
    S = np.zeros((6, 6))
    for t, b in zip(terms, blocks):
        S += t.G - (t.Q @ np.linalg.solve(t.R, t.Q.T) if b.m else 0.0)
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
    cho_solve_banded = scipy.linalg.cho_solve_banded

    def spy(cb_and_lower, b, *args, **kwargs):
        calls.append(np.shape(b))
        return cho_solve_banded(cb_and_lower, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve_banded", spy)
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


def test_schur_fallback_reports_lu_and_matches_oracle(monkeypatch):
    r = 7
    blocks = random_blocks(np.random.Generator(np.random.PCG64(21)), 3, r, size_range=(4, 6))
    cho_factor = scipy.linalg.cho_factor
    forced = []

    def not_spd(a, *args, **kwargs):
        # every H_i and R_i is smaller than the r x r Schur matrix
        if np.shape(a)[0] == r:
            forced.append(np.shape(a))
            raise scipy.linalg.LinAlgError("forced")
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", not_spd)
    fast = sm.solve_coupled_qp(blocks)
    assert forced == [(r, r)]
    assert fast.diagnostics["schur_factorization"] == "lu"
    assert fast.diagnostics["schur_condition"] > 1.0
    oracle = sm.dense_kkt_oracle(blocks)
    assert solution_deviation(fast, oracle) <= 1e-9


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
