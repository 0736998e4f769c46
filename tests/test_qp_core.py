import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import splitmhe as sm
from splitmhe import qp_core
from splitmhe.errors import (
    LocalSolveError,
    NonFiniteDataError,
    NotPositiveDefiniteError,
    RankDeficientConstraintsError,
    SingularKktError,
)
from splitmhe.local_nlp import hessian_blocks
from splitmhe.problem import evaluate_stack, lift, lifted_layout, subproblem
from splitmhe.qp_core import link_band, link_transpose, random_blocks, solve_local_kkt

from conftest import build_linear_instance
from helpers import (
    dense_blocks,
    dense_kkt,
    kkt_residual_qp,
    random_stage_stack,
    refined_solve,
    rel_err,
    stage_transpose_reference,
)


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
    terms = qp_core._eliminate(block, 0)
    np.testing.assert_allclose(terms.S, A @ A.T, atol=1e-14)
    np.testing.assert_allclose(terms.s, anchor - A @ g, atol=1e-14)
    # with H = I and no constraint rows the map is [g, A'] itself
    np.testing.assert_allclose(terms.U, np.column_stack([g, A.T]), atol=1e-14)
    assert terms.V.shape == (0, 3)


def test_schur_terms_match_dense_inverse():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(10):
        (block,) = random_blocks(rng, 1, r=3)
        terms = qp_core._eliminate(block, 0)
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
    with_d = qp_core._eliminate(block, 0)
    without_d = qp_core._eliminate(zeroed, 0)
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


def test_random_blocks_refuse_more_coupling_rows_than_their_dimensions():
    # at most 12 dimensions in one block: 50 coupling rows cannot be independent
    message = r"^1 blocks of sizes \[\d+\] cannot support 50 coupling rows$"
    with pytest.raises(ValueError, match=message):
        random_blocks(np.random.Generator(np.random.PCG64(0)), 1, r=50)


def test_schur_matrix_symmetry_and_conditioning():
    rng = np.random.Generator(np.random.PCG64(9))
    blocks = random_blocks(rng, 4, r=6)
    S = sum(qp_core._eliminate(b, i).S for i, b in enumerate(blocks))
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
    # R is singular up to roundoff: its Cholesky factor holds, the condition estimate does not
    with pytest.raises(RankDeficientConstraintsError, match="rcond="):
        sm.solve_coupled_qp([block])
    # with H = I and a unit row twice, R = [[1, 1], [1, 1]] exactly: the factorization fails
    unit = np.eye(1, n)
    block = replace(block, H=np.eye(n), C=np.vstack([unit, unit]))
    with pytest.raises(RankDeficientConstraintsError) as err:
        sm.solve_coupled_qp([random_blocks(rng, 1, r=2)[0], block])
    assert str(err.value) == "block 1: constraint rows are rank deficient"
    assert err.value.block_index == 1


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
        qp_core._eliminate(block, 4)
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


@pytest.mark.parametrize(
    "L, N, bound", [(25, 4, 1e-13), (400, 1, 1e-11), (400, 66, 1e-11), (1600, 1, 1e-10),
                    (1600, 266, 1e-10)],
)
def test_stage_solve_feasibility_on_the_benchmark_windows(L, N, bound):
    # measured at rho 1e3, 10 and 0.1: at most 2.2e-16 at L = 25, 2.7e-13 at
    # L = 400 and 4.2e-12 at L = 1600
    for rho in (1e3, 10.0, 0.1):
        stack = _cold_stack(L, N, rho)
        lay, dX = stack.layout, sm.solve_coupled_qp(stack).delta_x
        stages = dX[lay.next] - (stack.D @ dX[lay.prev][..., None])[..., 0] + stack.d
        coupling = stack.anchor.reshape(-1, 3) + dX[lay.last[:-1]] - dX[lay.first[1:]]
        worst = max(np.abs(stages).max(), np.abs(coupling).max(initial=0.0))
        assert worst / (1.0 + np.abs(stack.d).max()) <= bound, rho


def _reduced_hessian(stack):
    """Dense ``Z' H Z``, with ``Z`` the map from ``dX_0`` to every ``dX_j``
    along the chain (a coupling link carries ``D = I``)."""
    lay = stack.layout
    D = np.tile(np.eye(lay.nx), (lay.n_states - 1, 1, 1))
    D[lay.prev] = stack.D
    Z = [np.eye(lay.nx)]
    for D_j in D:
        Z.append(D_j @ Z[-1])
    return sum(Z_j.T @ H_j @ Z_j for Z_j, H_j in zip(Z, stack.H))


def test_stage_solve_needs_only_a_positive_definite_reduced_hessian():
    rng = np.random.Generator(np.random.PCG64(15))
    for n_blocks in (1, 4):
        stack = random_stage_stack(rng, n_blocks, 3)
        stack.H[stack.layout.last[-1] - 1] = -0.5 * np.eye(3)
        assert np.linalg.eigvalsh(_reduced_hessian(stack)).min() > 0
        fast = sm.solve_coupled_qp(stack)
        assert solution_deviation(fast, sm.dense_kkt_oracle(dense_blocks(stack))) <= 1e-9
        # the refined reduced gradient, relative to the multipliers
        assert set(fast.diagnostics) == {"reduced_gradient"}
        assert fast.diagnostics["reduced_gradient"] <= 1e-14


def test_stage_indefinite_reduced_hessian_raises_for_block_0():
    stack = random_stage_stack(np.random.Generator(np.random.PCG64(24)), 4, 3)
    stack.H[:] = -np.eye(3)
    with pytest.raises(NotPositiveDefiniteError, match="reduced Hessian") as err:
        sm.solve_coupled_qp(stack)
    assert err.value.block_index == 0
    # a NaN anywhere is named, with its block, before any factorization
    stack.H[stack.layout.first[1], 0, 0] = np.nan
    with pytest.raises(NonFiniteDataError) as err:
        sm.solve_coupled_qp(stack)
    assert err.value.block_index == 1


def _lapack_spy(monkeypatch, *names):
    """Record ``(name, trans, shape)`` of every call to the named LAPACK
    routines: the right-hand side's shape for a solve, the matrix's for a
    factorization."""
    calls = []

    def spy(name):
        routine = getattr(scipy.linalg.lapack, name)

        def recorded(a, *args, **kwargs):
            shape = np.shape(args[0] if name.endswith("trs") else a)
            # dtbtrs(ab, b, uplo, trans, ...): trans by keyword or by position
            trans = kwargs.get("trans", args[2] if name == "dtbtrs" and len(args) > 2 else "N")
            calls.append((name, trans, shape))
            return routine(a, *args, **kwargs)
        return recorded

    for name in names:
        monkeypatch.setattr(scipy.linalg.lapack, name, spy(name))
    return calls


def test_stage_solve_is_one_banded_triangular_chain_solve(monkeypatch):
    calls = _lapack_spy(monkeypatch, "dpbtrf", "dpbtrs", "dtbtrs")
    rng = np.random.Generator(np.random.PCG64(23))
    for n_blocks, refined in ((1, 0), (4, 0), (25, 1)):
        stack = random_stage_stack(rng, n_blocks, 3)
        calls.clear()
        sm.solve_coupled_qp(stack)
        rows = stack.layout.n_states * 3
        # no Hessian band factor: one forward solve for U = -[e, Z] and one
        # transposed one-column solve for the multipliers; a second follows the
        # refinement, which only the 76 expanding stages of N = 25 need
        assert calls == [("dtbtrs", "N", (rows, 4))] + [("dtbtrs", "T", (rows,))] * (
            1 + refined
        ), f"N = {n_blocks}"


def _transposed_solves(monkeypatch, nan_at=None) -> list:
    """Keep a copy of the solution of every transposed ``dtbtrs``; with ``nan_at``,
    a flat index, every one returns a NaN there."""
    solves, routine = [], scipy.linalg.lapack.dtbtrs

    def recorded(ab, b, *args, **kwargs):
        x, info = routine(ab, b, *args, **kwargs)
        if kwargs.get("trans", args[1] if len(args) > 1 else "N") == "T":
            solves.append(x.copy())
            if nan_at is not None:
                x[nan_at] = np.nan
        return x, info

    monkeypatch.setattr(scipy.linalg.lapack, "dtbtrs", recorded)
    return solves


def test_reduced_gradient_is_row_0_of_the_multipliers_over_their_scale(monkeypatch):
    """The diagnostic is ``max|nu[0]| / (1 + max|nu|)`` on the last multipliers'
    solve before its row 0 is zeroed, exactly as the two maxima taken apart. A
    step whose first solve reads at most ``16 eps`` is at roundoff and keeps
    that one transposed solve; above it, the step is refined once, and a second
    transposed solve gives the multipliers of the refined step."""
    assert qp_core.REFINE_LIMIT == 16 * np.finfo(float).eps
    solves = _transposed_solves(monkeypatch)
    rng = np.random.Generator(np.random.PCG64(41))
    cases = [(random_stage_stack(rng, n_blocks, 3), count) for n_blocks, count in
             ((1, 1), (4, 1), (25, 2))]
    # N = 25 draws 85 expanding stages; the first 180-stage expanding chain of
    # test_stage_condensing_accuracy_follows_the_growth_of_the_chain
    expanding = random_stage_stack(
        np.random.Generator(np.random.PCG64(31)), 3, 3, lengths=(60, 60, 60)
    )
    for stack, count in cases + [(expanding, 2)]:
        solves.clear()
        sol = sm.solve_coupled_qp(stack)
        assert len(solves) == count, f"{stack.layout.lengths}"
        grads = [
            float(np.abs(x[:3]).max()) / (1.0 + float(np.abs(x).max())) for x in solves
        ]
        assert (grads[0] <= qp_core.REFINE_LIMIT) == (count == 1)
        nu = -solves[-1].reshape(-1, 3)
        assert sol.diagnostics["reduced_gradient"] == grads[-1]
        assert np.array_equal(sol.nu[1:], nu[1:]) and not sol.nu[0].any()


@pytest.mark.parametrize("row", [0, 1, -1])
def test_a_nan_multiplier_makes_the_reduced_gradient_nan(monkeypatch, row):
    """A NaN in row 0 of the multipliers or in any other row reads as a NaN
    diagnostic, never as a number: a NaN is never at roundoff, so the step is
    refined, and the refined multipliers carry the NaN too."""
    stack = random_stage_stack(np.random.Generator(np.random.PCG64(43)), 4, 3)
    solves = _transposed_solves(monkeypatch, nan_at=row % stack.layout.n_states * 3 + 1)
    assert np.isnan(sm.solve_coupled_qp(stack).diagnostics["reduced_gradient"])
    assert len(solves) == 2


@pytest.mark.parametrize("linked", [True, False])
@pytest.mark.parametrize("lengths", [(7,), (3, 4, 2, 5)])
@pytest.mark.parametrize("nx", [2, 3])
def test_link_band_product_is_the_stage_and_coupling_transpose(nx, lengths, linked):
    """``B' nu`` on the link band is ``C' mu + A' lam`` for the multipliers that
    ``nu`` holds, row 0 zero: the scatter form of ``C' mu`` plus the dense
    coupling rows. On the unlinked band, with every first row of ``nu`` zero,
    it is ``C' mu`` alone."""
    lay = lifted_layout(lengths, nx)
    model = sm.make_linear_model(np.eye(nx), np.ones((nx, 1)), np.ones((1, nx)))
    run = subproblem(build_linear_instance(model, L=lay.L), lay, range(lay.N))
    rng = np.random.Generator(np.random.PCG64(7))
    D, nu = rng.standard_normal((lay.L, nx, nx)), rng.standard_normal(lay.shapes[1])
    nu[lay.first[:1] if linked else lay.first] = 0.0
    want = stage_transpose_reference(lay, D, nu[lay.next])
    if linked:
        lam = -nu[lay.first[1:]].reshape(-1)
        want += (run.coupling_matrix().T @ lam).reshape(want.shape)
    given = nu.copy()
    got = link_transpose(link_band(lay, D, linked), nu)
    assert rel_err(got, want.reshape(-1)) <= 1e-15
    assert np.array_equal(nu, given)  # the product does not overwrite its input


def test_a_supplied_band_solves_bit_for_bit_as_the_built_one():
    """A stack that brings its evaluation's band solves exactly as one that
    builds the band from ``D``."""
    rng = np.random.Generator(np.random.PCG64(5))
    for n_blocks in (1, 4, 25):
        stack = random_stage_stack(rng, n_blocks, 3)
        built = sm.solve_coupled_qp(stack)
        supplied = sm.solve_coupled_qp(replace(stack, band=link_band(stack.layout, stack.D, True)))
        for name in ("lam", "mu", "delta_x", "nu"):
            assert np.array_equal(getattr(built, name), getattr(supplied, name)), name
        assert built.diagnostics == supplied.diagnostics
        # the link multipliers hold the stage and coupling multipliers, row 0 zero
        lay = stack.layout
        assert not built.nu[0].any()
        assert np.array_equal(built.nu[lay.next], built.mu)
        assert np.array_equal(-built.nu[lay.first[1:]].reshape(-1), built.lam)


def test_stage_condensing_accuracy_follows_the_growth_of_the_chain():
    """The known limit of condensing: ``Z`` holds the products of the ``D_j``
    along the whole chain, so the reduced Hessian's condition number grows
    like their square. On expanding chains the step drifts from the dense
    oracle, and the reported reduced gradient says so. The robot's Jacobians
    are unit upper triangular and grow only polynomially, and criterion 5's
    linear-Gaussian model is a contraction, so its acceptance test passes."""
    rng = np.random.Generator(np.random.PCG64(31))
    deviation, reported = [], []
    for _ in range(5):
        # three sub-windows of 60 expanding stages: the products over one
        # sub-window reach spectral norm 2.8e3 and cond(S) reaches 9e13
        stack = random_stage_stack(rng, 3, 3, lengths=(60, 60, 60))
        fast = sm.solve_coupled_qp(stack)
        oracle = np.concatenate(sm.dense_kkt_oracle(dense_blocks(stack)).delta_x)
        deviation.append(np.abs(fast.delta_x.ravel() - oracle).max() / (1 + np.abs(oracle).max()))
        reported.append(fast.diagnostics["reduced_gradient"])
    # measured 9.9e-7 for the step and 1.2e-6 for the reported figure
    assert max(deviation) <= 2e-6
    assert max(reported) >= 1e-8


def _non_finite_cases():
    """NaN, +inf and -inf in each field of a stack. Each field's first case, NaN
    (-inf for ``D``), keeps the field alone as its id."""
    return [
        pytest.param(field, value, id=field if name == first else f"{field}={name}")
        for field, first in (("H", "nan"), ("g", "nan"), ("D", "-inf"), ("d", "nan"),
                             ("anchor", "nan"))
        for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))
    ]


@pytest.mark.parametrize("field, value", _non_finite_cases())
def test_stage_path_rejects_non_finite_data(field, value):
    """Every sign of a non-finite entry, in every field, fails the one finiteness
    pass over the stack and names the field and its block."""
    stack = random_stage_stack(np.random.Generator(np.random.PCG64(16)), 3, 2)
    lay = stack.layout
    # the last state, stage or coupling row of block 1
    row = {"H": lay.last[1], "g": lay.last[1], "D": lay.start[2] - 1, "d": lay.start[2] - 1,
           "anchor": slice(2, 4)}[field]
    getattr(stack, field)[row].flat[-1] = value
    with pytest.raises(NonFiniteDataError) as err:
        sm.solve_coupled_qp(stack)
    assert err.value.block_index == 1
    assert field in str(err.value)


def test_stage_finiteness_check_passes_finite_data_whose_sum_overflows():
    """The one pass over finite stack data neither rejects entries whose sum
    overflows nor warns about them; a non-finite entry is still named."""
    stack = random_stage_stack(np.random.Generator(np.random.PCG64(16)), 3, 2)
    stack.H[::2] = 1e308
    stack.H[1::2] = -1e308
    stack.g[:] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qp_core._require_finite_stack(stack)
        stack.g[-1, -1] = np.inf
        with pytest.raises(NonFiniteDataError, match="non-finite entries in g"):
            qp_core._require_finite_stack(stack)


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
    dx, mu = solve_local_kkt(
        lay, H, link_band(lay, D, False), rhs_x, rhs_mu, np.ones(lay.N, bool)
    )
    got = np.concatenate([dx.ravel(), mu.ravel()])
    expected = np.linalg.solve(K, np.concatenate([rhs_x.ravel(), rhs_mu.ravel()]))
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def test_local_kkt_names_the_first_singular_block():
    """A singular reduced system raises at once, naming the first sub-window
    whose own LU meets a zero pivot; a masked sub-window is never named."""
    lay, H, D, (rhs_x, rhs_mu) = _random_local_kkt(np.random.Generator(np.random.PCG64(23)), 2, (3, 4, 2, 5))
    H[lay.state_block == 1] = 0.0  # H = 0: blocks 1 and 3 are singular
    H[lay.state_block == 3] = 0.0
    band = link_band(lay, D, False)
    for active, first in (([True] * 4, 1), ([True, False, True, True], 3)):
        message = f"^block {first}: local KKT matrix singular$"
        with pytest.raises(LocalSolveError, match=message) as err:
            solve_local_kkt(lay, H, band, rhs_x, rhs_mu, np.array(active))
        assert err.value.block_index == first
    # the caller's own shift of the singular blocks makes the solve regular
    shifted = H.copy()
    shifted[np.isin(lay.state_block, (1, 3))] = 0.5 * np.eye(2)
    dx, mu = solve_local_kkt(lay, shifted, band, rhs_x, rhs_mu, np.ones(lay.N, bool))
    expected = np.linalg.solve(
        dense_kkt(lay, shifted, D), np.concatenate([rhs_x.ravel(), rhs_mu.ravel()])
    )
    got = np.concatenate([dx.ravel(), mu.ravel()])
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def test_local_kkt_is_one_forward_and_one_transposed_chain_solve(monkeypatch):
    calls = _lapack_spy(monkeypatch, "dgbtrf", "dgbtrs", "dgetrf", "dtbtrs")
    rng = np.random.Generator(np.random.PCG64(23))
    for lengths in ((5,), (3, 4, 2, 5), (1,) * 12):
        lay, H, D, (rhs_x, rhs_mu) = _random_local_kkt(rng, 3, lengths)
        calls.clear()
        solve_local_kkt(
            lay, H, link_band(lay, D, False), rhs_x, rhs_mu, np.ones(lay.N, bool)
        )
        rows = lay.n_states * 3
        # no band LU: the forward solve for [e, Z] and the multipliers' solve
        assert calls == [("dtbtrs", "N", (rows, 4)), ("dtbtrs", "T", (rows,))], lengths
    # a singular solve makes the forward solve, then one LU per sub-window up to
    # the first zero pivot, block 1's, and no transposed solve
    lay, H, D, (rhs_x, rhs_mu) = _random_local_kkt(rng, 2, (3, 4, 2, 5))
    H[np.isin(lay.state_block, (1, 3))] = 0.0
    calls.clear()
    with pytest.raises(LocalSolveError, match="block 1"):
        solve_local_kkt(
            lay, H, link_band(lay, D, False), rhs_x, rhs_mu, np.ones(lay.N, bool)
        )
    rows = lay.n_states * 2
    assert calls == [("dtbtrs", "N", (rows, 3)), *[("dgetrf", "N", (2, 2))] * 2]


def test_local_kkt_raises_when_no_block_has_a_zero_pivot(monkeypatch):
    """The batched solve fails, yet no sub-window's own LU meets a zero pivot:
    the error names no block, after one LU per sub-window."""
    rng = np.random.Generator(np.random.PCG64(23))
    lay, H, D, (rhs_x, rhs_mu) = _random_local_kkt(rng, 2, (3, 4))
    H[lay.state_block == 1] = 0.0
    getrf, calls = scipy.linalg.lapack.dgetrf, []
    monkeypatch.setattr(
        scipy.linalg.lapack, "dgetrf", lambda a: calls.append(a.shape) or (*getrf(a)[:2], 0)
    )
    with pytest.raises(LocalSolveError, match="^block None: local KKT matrix singular$") as err:
        solve_local_kkt(
            lay, H, link_band(lay, D, False), rhs_x, rhs_mu, np.ones(lay.N, bool)
        )
    assert err.value.block_index is None
    assert calls == [(2, 2)] * 2


def test_local_condensing_accuracy_follows_the_growth_of_the_chain():
    """The known limit of condensing a local solve: ``Z`` holds the products
    of the ``D_k`` along a sub-window, so on expanding chains the solution
    loses digits. Three sub-windows of 90 stages with ``D_k = I + 0.3 noise``
    reach products of spectral norm 1e3."""
    rng = np.random.Generator(np.random.PCG64(31))
    worst = 0.0
    for _ in range(5):
        lay, H, D, (rhs_x, rhs_mu) = _random_local_kkt(rng, 3, (90, 90, 90))
        rhs = np.concatenate([rhs_x.ravel(), rhs_mu.ravel()])
        expected = refined_solve(dense_kkt(lay, H, D), rhs)
        dx, mu = solve_local_kkt(
            lay, H, link_band(lay, D, False), rhs_x, rhs_mu, np.ones(lay.N, bool)
        )
        got = np.concatenate([dx.ravel(), mu.ravel()])
        worst = max(worst, np.abs(got - expected).max() / np.abs(expected).max())
    # measured 2.6e-9
    assert worst <= 6e-9


def test_local_kkt_on_the_cold_robot_window():
    """One sub-window of L = 400 with exact curvature: the robot's unit upper
    triangular ``D_k`` grow only polynomially, so condensing keeps its digits."""
    L = 400
    instance = sm.window_instance(sm.generate_scenario(steps=L, seed=0), L, horizon=L)
    lay = sm.build_partition(L, 1, 3)
    run = subproblem(instance, lay, range(1))
    x = lift(instance.initial_guess, lay)
    ev = evaluate_stack(run, x)
    for rho in (10.0, 0.1):
        H = hessian_blocks(run, x, np.zeros((L, 3)), rho, ev, True)
        dx, mu = solve_local_kkt(
            lay, H, link_band(lay, ev.D, False), -ev.g, -ev.F, np.ones(lay.N, bool)
        )
        rhs = -np.concatenate([ev.g.ravel(), ev.F.ravel()])
        expected = refined_solve(dense_kkt(lay, H, ev.D), rhs)
        for got, want in ((dx.ravel(), expected[:dx.size]), (mu.ravel(), expected[dx.size:])):
            # measured 2.9e-14 on dx and 3.6e-14 on mu, whose entries reach 3e9
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_schur_solve_takes_the_summed_schur_matrix_as_it_is():
    """Every block's ``S`` is exactly symmetric, so their sum is too, and the
    dense path's Schur solve needs no re-symmetrisation: dropping it leaves
    every multiplier bit for bit."""
    rng = np.random.Generator(np.random.PCG64(41))
    for _ in range(200):
        blocks = random_blocks(rng, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        terms = [qp_core._eliminate(block, i) for i, block in enumerate(blocks)]
        S, p = sum(t.S for t in terms), sum(t.s for t in terms)
        assert np.array_equal(S, S.T)
        symmetrised = scipy.linalg.cho_factor(0.5 * (S + S.T), lower=True)
        lam = scipy.linalg.cho_solve(symmetrised, p)
        assert np.array_equal(sm.solve_coupled_qp(blocks).lam, lam)
