"""Closed-form solver for block-coupled equality-constrained QPs.

The problem solved here is

    min over {dX_i}   sum_i  0.5 * dX_i' H_i dX_i + g_i' dX_i
    s.t.              C_i dX_i + d_i = 0                (multipliers mu_i)
                      sum_i A_i (X_i^+ + dX_i) = 0      (multiplier lambda)

with every ``H_i`` positive definite and every ``C_i`` full row rank. Blocks
are eliminated through cached Cholesky factors, leaving a Schur system in the
shared multiplier:

    G_i = A_i H_i^-1 A_i',  Q_i = A_i H_i^-1 C_i',  R_i = C_i H_i^-1 C_i'
    S   = sum_i (G_i - Q_i R_i^-1 Q_i')
    S lambda = sum_i s_i,   with per-block right-hand contributions s_i
    mu_i = -R_i^-1 (C_i H_i^-1 g_i + Q_i' lambda - d_i)
    dX_i = -H_i^-1 (g_i + C_i' mu_i + A_i' lambda)

The QP comes in two forms. A list of :class:`QpBlock` holds general dense
data and is eliminated exactly as written above, one block at a time, around
a dense ``r x r`` Schur solve. The sub-windows of a time-split horizon are
one :class:`StageStack`: the ``L + N`` lifted states with per-state Hessian
blocks, the ``L`` stages with rows ``[-D_k, I]``, and signed-identity
coupling between the last state of one sub-window and the first state of the
next. Those two states sit next to each other in the stack, so a coupling
row, negated, is one more link ``[-I, I]`` between consecutive states, and
stages and coupling rows together form one chain of ``L + N - 1`` links. The
chain's ``C H^-1 C'`` is block-tridiagonal over the links: one banded
Cholesky factorization and one banded solve give every link multiplier, and
the steps follow. A whole window costs ``O((L + N) nx^3)`` in a fixed number
of LAPACK calls.

A dense full-KKT solve over ``(dX, mu, lambda)`` is provided as an independent
verification oracle. This module never regularizes: a Hessian that is not
positive definite raises :class:`NotPositiveDefiniteError` with its block index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NonFiniteDataError,
    NotPositiveDefiniteError,
    RankDeficientConstraintsError,
    SingularKktError,
    SingularSchurError,
)
from .problem import LiftedLayout

logger = logging.getLogger(__name__)

Array = np.ndarray

# beyond this condition estimate the Schur solve is treated as singular
SCHUR_CONDITION_LIMIT = 1e14
# at or below this reciprocal condition estimate R_i counts as rank deficient
RANK_RCOND_LIMIT = 1e-12


@dataclass(eq=False)
class QpBlock:
    """One block of the coupled QP: Hessian, gradient, local constraint rows,
    coupling rows, and the block's anchor contribution ``A_i @ X_i^+``.

    ``d`` holds the constraint offsets; pass zeros for the homogeneous form in
    which the local linearization point is already feasible.
    """

    H: Array
    g: Array
    C: Array
    d: Array
    A: Array
    anchor: Array

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        self.C = np.asarray(self.C, dtype=float).reshape(-1, self.H.shape[0])
        self.d = np.asarray(self.d, dtype=float).reshape(-1)
        self.A = np.asarray(self.A, dtype=float).reshape(-1, self.H.shape[0])
        self.anchor = np.asarray(self.anchor, dtype=float).reshape(-1)
        n = self.H.shape[0]
        if self.H.shape != (n, n) or self.g.shape != (n,):
            raise DimensionMismatchError(f"inconsistent H/g shapes: {self.H.shape}, {self.g.shape}")
        if self.d.shape[0] != self.C.shape[0]:
            raise DimensionMismatchError(f"d has {self.d.shape[0]} rows, C has {self.C.shape[0]}")
        if self.anchor.shape[0] != self.A.shape[0]:
            raise DimensionMismatchError(
                f"anchor has {self.anchor.shape[0]} rows, A has {self.A.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def r(self) -> int:
        return self.A.shape[0]


@dataclass(eq=False)
class StageStack:
    """The stage-form blocks of ``N`` chained sub-windows, stacked.

    ``layout`` places the sub-windows' states and stages in the stack. ``H``
    holds the per-state Hessian blocks ``(L + N, nx, nx)`` and ``g`` the
    gradient ``(L + N, nx)``. Stage ``k`` constrains
    ``dX[next_k] - D_k dX[prev_k] + d_k = 0``, with ``D`` ``(L, nx, nx)`` and
    ``d`` ``(L, nx)``. Coupling block row ``c`` reads the last state of
    sub-window ``c`` minus the first state of sub-window ``c + 1``; ``anchor``
    ``((N - 1) nx,)`` is its value at the linearization point.
    """

    layout: LiftedLayout
    H: Array
    g: Array
    D: Array
    d: Array
    anchor: Array

    def __post_init__(self):
        lay = self.layout
        nx = self.H.shape[-1]
        shapes = {
            "H": (lay.n_states, nx, nx), "g": (lay.n_states, nx),
            "D": (len(lay.prev), nx, nx), "d": (len(lay.prev), nx),
            "anchor": ((len(lay.lengths) - 1) * nx,),
        }
        for name, shape in shapes.items():
            if np.shape(getattr(self, name)) != shape:
                raise DimensionMismatchError(
                    f"stage stack: {name} has shape {np.shape(getattr(self, name))}, "
                    f"expected {shape}"
                )


@dataclass(eq=False)
class SchurTerms:
    """Per-block Schur data plus the cached factorizations used to finish the solve."""

    G: Array
    Q: Array
    R: Array
    s: Array
    h_factor: tuple = field(repr=False, default=None)
    r_factor: tuple = field(repr=False, default=None)
    hinv_g: Array = field(repr=False, default=None)
    hinv_Ct: Array = field(repr=False, default=None)
    hinv_At: Array = field(repr=False, default=None)


@dataclass(eq=False)
class StackTerms:
    """The factored chain of a :class:`StageStack`.

    Link ``j`` joins stacked states ``j`` and ``j + 1`` by the row
    ``dX[j + 1] - D[j] dX[j] + d[j] = 0``: stage ``k`` is link ``prev[k]``, and
    coupling row ``c``, negated, is link ``last[c]`` with ``D = I`` and
    ``d = -anchor_c``. ``D`` is ``(L + N - 1, nx, nx)`` and ``d``
    ``(L + N - 1, nx)``. ``factor`` is the upper banded Cholesky factor of
    ``C H^-1 C'`` over the links and ``pivot_ratio`` the smallest squared
    pivot ratio of a sub-window's links.
    """

    hinv: Array
    D: Array
    d: Array
    factor: Array
    pivot_ratio: float


@dataclass(eq=False)
class QpSolution:
    """Multipliers and block steps of the coupled QP, with solve diagnostics.

    ``mu`` and ``delta_x`` are per-block lists for a list of :class:`QpBlock`,
    and the stacked ``(L, nx)`` and ``(L + N, nx)`` arrays for a
    :class:`StageStack`.
    """

    lam: Array
    mu: list[Array] | Array
    delta_x: list[Array] | Array
    diagnostics: dict


def _require_finite(where: str, index: int | None, **arrays: Array) -> None:
    bad = [name for name, a in arrays.items() if not np.isfinite(a).all()]
    if bad:
        raise NonFiniteDataError(
            f"{where}: non-finite entries in {', '.join(bad)}", block_index=index
        )


def _require_finite_stack(stack: StageStack) -> None:
    """Raise on non-finite stack data, naming the block of the first bad field's
    first bad row."""
    fields = ("H", "g", "D", "d", "anchor")
    bad = [name for name in fields if not np.isfinite(getattr(stack, name)).all()]
    if not bad:
        return
    lay = stack.layout
    state_block = np.arange(lay.n_states) - lay.time
    rows = {
        "H": state_block, "g": state_block, "D": lay.stage_block, "d": lay.stage_block,
        "anchor": np.arange(len(lay.lengths) - 1),  # row c: the last state of block c
    }[bad[0]]
    finite = np.isfinite(getattr(stack, bad[0]).reshape(len(rows), -1)).all(axis=1)
    index = int(rows[finite.argmin()])
    raise NonFiniteDataError(
        f"block {index}: non-finite entries in {', '.join(bad)}", block_index=index
    )


def schur_terms(
    block: QpBlock | StageStack, index: int | None = None
) -> SchurTerms | StackTerms:
    """Eliminate one block through its Hessian factorization.

    Returns ``G``, ``Q``, ``R`` and the block's additive contribution ``s`` to
    the Schur right-hand side, which folds in the anchor, the gradient term,
    and the constraint-offset term. All applications of ``H^-1`` reuse a single
    Cholesky factorization; no inverse is ever formed. A :class:`StageStack`
    is factored as one chain and yields :class:`StackTerms`.
    """
    if isinstance(block, StageStack):
        return _stack_terms(block)
    where = f"block {index}" if index is not None else "block"
    _require_finite(
        where, index,
        H=block.H, g=block.g, C=block.C, d=block.d, A=block.A, anchor=block.anchor,
    )
    try:
        h_factor = scipy.linalg.cho_factor(block.H, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"{where}: Hessian is not positive definite", block_index=index
        ) from exc

    hinv_g = scipy.linalg.cho_solve(h_factor, block.g)
    hinv_At = scipy.linalg.cho_solve(h_factor, block.A.T) if block.r else np.zeros((block.n, 0))
    G = block.A @ hinv_At
    G = 0.5 * (G + G.T)

    if block.m:
        hinv_Ct = scipy.linalg.cho_solve(h_factor, block.C.T)
        Q = block.A @ hinv_Ct
        R = block.C @ hinv_Ct
        R = 0.5 * (R + R.T)
        try:
            r_factor = scipy.linalg.cho_factor(R, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise RankDeficientConstraintsError(
                f"{where}: constraint rows are rank deficient", block_index=index
            ) from exc
        # 1-norm condition estimate from the factor already at hand
        rcond, _ = scipy.linalg.lapack.dpocon(r_factor[0], np.abs(R).sum(axis=0).max(), uplo="L")
        if rcond <= RANK_RCOND_LIMIT:
            raise RankDeficientConstraintsError(
                f"{where}: constraint rows are rank deficient (rcond={rcond:.3e})",
                block_index=index,
            )
        s = block.anchor - block.A @ hinv_g + Q @ scipy.linalg.cho_solve(
            r_factor, block.C @ hinv_g - block.d
        )
    else:
        hinv_Ct = np.zeros((block.n, 0))
        Q = np.zeros((block.r, 0))
        R = np.zeros((0, 0))
        r_factor = None
        s = block.anchor - block.A @ hinv_g

    return SchurTerms(
        G=G,
        Q=Q,
        R=R,
        s=s,
        h_factor=h_factor,
        r_factor=r_factor,
        hinv_g=hinv_g,
        hinv_Ct=hinv_Ct,
        hinv_At=hinv_At,
    )


def _solve_schur(S: Array, p: Array) -> tuple[Array, dict]:
    """SPD solve of the Schur system with a one-shot pivoted fallback."""
    S = 0.5 * (S + S.T)
    try:
        lam = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S, lower=True), p)
        return lam, {"schur_factorization": "cholesky"}
    except scipy.linalg.LinAlgError:
        pass
    cond = float(np.linalg.cond(S))
    logger.warning("Schur matrix not SPD; falling back to pivoted solve (cond=%.3e)", cond)
    if not np.isfinite(cond) or cond > SCHUR_CONDITION_LIMIT:
        raise SingularSchurError(
            f"coupling Schur matrix is numerically singular (cond={cond:.3e})"
        )
    try:
        lu = scipy.linalg.lu_factor(S)
        lam = scipy.linalg.lu_solve(lu, p)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSchurError("coupling Schur matrix is singular") from exc
    return lam, {"schur_factorization": "lu", "schur_condition": cond}


def _check_coupling_rows(blocks: list) -> int:
    if not blocks:
        raise DimensionMismatchError("need at least one block")
    r = blocks[0].r
    if any(b.r != r for b in blocks):
        raise DimensionMismatchError("all blocks must share the coupling row count")
    return r


def solve_coupled_qp(blocks: list[QpBlock] | StageStack) -> QpSolution:
    """Closed-form solution of the coupled QP via block elimination.

    A list of :class:`QpBlock` is eliminated block by block around the dense
    ``r x r`` Schur solve, with contributions summed in index order so results
    are reproducible. A :class:`StageStack`, the chained sub-windows of a
    split horizon, is solved as one chain of links.
    """
    if isinstance(blocks, StageStack):
        return _solve_stack(blocks)
    if not all(isinstance(b, QpBlock) for b in blocks):
        raise TypeError("blocks must be a StageStack or a list of QpBlock")
    r = _check_coupling_rows(blocks)

    terms = [schur_terms(block, index=i) for i, block in enumerate(blocks)]

    S = np.zeros((r, r))
    p = np.zeros(r)
    for t in terms:
        if t.R.shape[0]:
            S += t.G - t.Q @ scipy.linalg.cho_solve(t.r_factor, t.Q.T)
        else:
            S += t.G
        p += t.s
    lam, diagnostics = _solve_schur(S, p) if r else (np.zeros(0), {"schur_factorization": "empty"})

    mu = []
    delta_x = []
    for t, block in zip(terms, blocks):
        if block.m:
            mu_i = -scipy.linalg.cho_solve(
                t.r_factor, block.C @ t.hinv_g + t.Q.T @ lam - block.d
            )
        else:
            mu_i = np.zeros(0)
        mu.append(mu_i)
        delta_x.append(-(t.hinv_g + t.hinv_Ct @ mu_i + t.hinv_At @ lam))

    return QpSolution(lam=lam, mu=mu, delta_x=delta_x, diagnostics=diagnostics)


@lru_cache(maxsize=128)
def _band_layout(t: int, nx: int) -> tuple[Array, Array]:
    """Flat positions that move the block rows ``[R_kk, R_k,k+1]`` of a
    ``(t, nx, 2 nx)`` stack into LAPACK upper banded storage ``(2 nx, t nx)``."""
    m, u = t * nx, 2 * nx - 1
    a, c = np.triu_indices(nx, 0, 2 * nx)
    k = np.arange(t)[:, None]
    col = k * nx + c
    keep = col < m
    dst = (u + a - c) * m + col
    src = k * (2 * nx * nx) + a * (2 * nx) + c
    dst, src = dst[keep], src[keep]
    # cached and shared by every caller
    dst.flags.writeable = src.flags.writeable = False
    return dst, src


def _banded(rows: Array) -> Array:
    """Upper banded storage of the block-tridiagonal matrix with block rows ``rows``."""
    t, nx, _ = rows.shape
    dst, src = _band_layout(t, nx)
    band = np.zeros((2 * nx, t * nx))
    band.flat[dst] = rows.flat[src]
    return band


def _first_indefinite(H: Array) -> int:
    """Index of the first block of a stack without a Cholesky factor."""
    for j, h in enumerate(H):
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            return j
    raise AssertionError("every block factors")


def _stack_terms(stack: StageStack) -> StackTerms:
    """Factor the chain of a stack in ``O((L + N) nx^3)``.

    The per-state Hessian blocks are factored in one batched Cholesky call.
    ``R = C H^-1 C'`` over the links is block-tridiagonal, with diagonal blocks
    ``D_j H_j^-1 D_j' + H_{j+1}^-1`` and superdiagonal blocks
    ``-H_{j+1}^-1 D_{j+1}'``, so it takes one banded factorization of
    bandwidth ``2 nx - 1``. The rank guard is the squared pivot ratio over
    each sub-window's stage links and the coupling link after it, which
    bounds ``1/cond`` of that part of ``R`` from above.
    """
    _require_finite_stack(stack)
    lay = stack.layout
    H = stack.H
    n, nx = H.shape[:2]
    try:
        chol = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        j = _first_indefinite(H)
        i = int(j - lay.time[j])
        raise NotPositiveDefiniteError(
            f"block {i}: Hessian is not positive definite", block_index=i
        ) from exc
    linv = np.linalg.inv(chol)
    hinv = np.swapaxes(linv, 1, 2) @ linv

    joins = lay.last[:-1]
    D = np.empty((n - 1, nx, nx))
    D[lay.prev] = stack.D
    D[joins] = np.eye(nx)
    d = np.empty((n - 1, nx))
    d[lay.prev] = stack.d
    d[joins] = -stack.anchor.reshape(-1, nx)

    Dt = np.swapaxes(D, 1, 2)
    band_rows = np.zeros((n - 1, nx, 2 * nx))
    band_rows[:, :, :nx] = D @ hinv[:-1] @ Dt + hinv[1:]
    band_rows[:-1, :, nx:] = -(hinv[1:-1] @ Dt[1:])
    factor, info = scipy.linalg.lapack.dpbtrf(_banded(band_rows))
    if info:
        j = (info - 1) // nx  # the link's first state names the block
        i = int(j - lay.time[j])
        raise RankDeficientConstraintsError(
            f"block {i}: constraint rows are rank deficient", block_index=i
        )
    pivots = factor[-1]
    rows = lay.first * nx
    ratio = (np.minimum.reduceat(pivots, rows) / np.maximum.reduceat(pivots, rows)) ** 2
    if (low := np.flatnonzero(ratio <= RANK_RCOND_LIMIT)).size:
        i = int(low[0])
        raise RankDeficientConstraintsError(
            f"block {i}: constraint rows are rank deficient (pivot ratio {ratio[i]:.3e})",
            block_index=i,
        )
    return StackTerms(hinv=hinv, D=D, d=d, factor=factor, pivot_ratio=float(ratio.min()))


def _solve_stack(stack: StageStack) -> QpSolution:
    """The link multipliers ``nu`` from one banded solve of
    ``R nu = d - C H^-1 g``, then ``dX = -H^-1 (g + C' nu)``."""
    terms = schur_terms(stack)
    lay = stack.layout
    hinv_g = (terms.hinv @ stack.g[..., None])[..., 0]
    rhs = terms.d - hinv_g[1:] + (terms.D @ hinv_g[:-1, :, None])[..., 0]
    nu = scipy.linalg.cho_solve_banded(
        (terms.factor, False), rhs.reshape(-1), check_finite=False
    ).reshape(rhs.shape)
    # link j puts -D_j' nu_j on state j and nu_j on state j + 1
    v = stack.g.copy()
    v[:-1] -= (np.swapaxes(terms.D, 1, 2) @ nu[..., None])[..., 0]
    v[1:] += nu
    delta_x = -(terms.hinv @ v[..., None])[..., 0]
    return QpSolution(
        lam=-nu[lay.last[:-1]].reshape(-1),  # a coupling link's row is minus its coupling row
        mu=nu[lay.prev],
        delta_x=delta_x,
        diagnostics={"pivot_ratio": terms.pivot_ratio},
    )


def dense_kkt_oracle(blocks: list[QpBlock]) -> QpSolution:
    """Assemble and solve the full symmetric KKT system directly.

    Used as an independent cross-check of :func:`solve_coupled_qp`; the two
    agree to roundoff on every well-posed instance.
    """
    r = _check_coupling_rows(blocks)
    n_tot = sum(b.n for b in blocks)
    m_tot = sum(b.m for b in blocks)
    dim = n_tot + m_tot + r
    K = np.zeros((dim, dim))
    rhs = np.zeros(dim)

    x_off = 0
    mu_off = n_tot
    for b in blocks:
        xs = slice(x_off, x_off + b.n)
        K[xs, xs] = b.H
        rhs[xs] = -b.g
        if b.m:
            ms = slice(mu_off, mu_off + b.m)
            K[ms, xs] = b.C
            K[xs, ms] = b.C.T
            rhs[ms] = -b.d
        if r:
            ls = slice(n_tot + m_tot, dim)
            K[ls, xs] += b.A
            K[xs, ls] += b.A.T
        x_off += b.n
        mu_off += b.m
    if r:
        rhs[n_tot + m_tot:] = -sum(b.anchor for b in blocks)

    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularKktError("assembled KKT matrix is singular") from exc

    lam = sol[n_tot + m_tot:]
    mu = []
    delta_x = []
    x_off = 0
    mu_off = n_tot
    for b in blocks:
        delta_x.append(sol[x_off:x_off + b.n])
        mu.append(sol[mu_off:mu_off + b.m])
        x_off += b.n
        mu_off += b.m
    return QpSolution(lam=lam, mu=mu, delta_x=delta_x, diagnostics={"method": "dense_kkt"})


def kkt_residual_qp(blocks: list[QpBlock], solution: QpSolution) -> float:
    """Infinity norm of the stacked first-order conditions of the coupled QP."""
    worst = 0.0
    coupling = np.zeros(blocks[0].r)
    for b, dx, mu_i in zip(blocks, solution.delta_x, solution.mu):
        stationarity = b.H @ dx + b.g + b.C.T @ mu_i + b.A.T @ solution.lam
        worst = max(worst, float(np.abs(stationarity).max()))
        if b.m:
            worst = max(worst, float(np.abs(b.C @ dx + b.d).max()))
        coupling += b.anchor + b.A @ dx
    if coupling.size:
        worst = max(worst, float(np.abs(coupling).max()))
    return worst


def random_blocks(
    rng: np.random.Generator,
    n_blocks: int,
    r: int,
    size_range: tuple[int, int] = (4, 12),
) -> list[QpBlock]:
    """Random strongly convex, LICQ-satisfying coupled-QP instances.

    Used by self-checks and verification suites: Hessians are ``M'M + I``,
    constraint row counts stay at most ``n - 2`` (full row rank with
    probability one), and coupling rows are dense Gaussian. The coupling must
    remain independent on the local feasible subspaces, so constraint rows are
    trimmed until the blocks keep at least ``r + 1`` free dimensions in total.
    """
    sizes = [int(rng.integers(size_range[0], size_range[1] + 1)) for _ in range(n_blocks)]
    if sum(sizes) < r + 1:
        raise ValueError(f"{n_blocks} blocks of sizes {sizes} cannot support {r} coupling rows")
    m_rows = [int(rng.integers(0, n - 1)) for n in sizes]
    free = sum(n - m for n, m in zip(sizes, m_rows))
    idx = 0
    while free < r + 1:
        if m_rows[idx % n_blocks] > 0:
            m_rows[idx % n_blocks] -= 1
            free += 1
        idx += 1

    blocks = []
    for n, m in zip(sizes, m_rows):
        M = rng.standard_normal((n, n))
        H = M.T @ M + np.eye(n)
        C = rng.standard_normal((m, n))
        d = rng.standard_normal(m)
        A = rng.standard_normal((r, n))
        anchor = A @ rng.standard_normal(n)
        blocks.append(QpBlock(H=H, g=rng.standard_normal(n), C=C, d=d, A=A, anchor=anchor))
    return blocks
