"""Closed-form solver for block-coupled equality-constrained QPs.

The problem solved here is

    min over {dX_i}   sum_i  0.5 * dX_i' H_i dX_i + g_i' dX_i
    s.t.              C_i dX_i + d_i = 0                (multipliers mu_i)
                      sum_i A_i (X_i^+ + dX_i) = 0      (multiplier lambda)

with every ``H_i`` positive definite and every ``C_i`` full row rank. Blocks
are eliminated through cached Cholesky factors, leaving a dense ``r x r``
Schur system in the shared multiplier:

    G_i = A_i H_i^-1 A_i',  Q_i = A_i H_i^-1 C_i',  R_i = C_i H_i^-1 C_i'
    S   = sum_i (G_i - Q_i R_i^-1 Q_i')
    S lambda = sum_i s_i,   with per-block right-hand contributions s_i
    mu_i = -R_i^-1 (C_i H_i^-1 g_i + Q_i' lambda - d_i)
    dX_i = -H_i^-1 (g_i + C_i' mu_i + A_i' lambda)

Blocks come in two forms. :class:`QpBlock` holds general dense data and is
eliminated exactly as written above. :class:`StageBlock` holds one sub-window
of a time-split horizon in stage form: the Hessian is block-diagonal per state,
``C_i`` is block-bidiagonal with rows ``[-D_k, I]``, and ``A_i`` is a signed
identity on the first and last state. There ``R_i`` is block-tridiagonal and
is factored in banded storage, ``G_i`` and ``Q_i`` touch only the boundary
states, and a block costs ``O(t * nx^3)`` instead of ``O(n^3)``; only the
``r x r`` Schur solve stays dense.

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
from .problem import block_diagonal_matrix, stage_constraint_matrix, stage_constraint_transpose

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
class StageBlock:
    """One sub-window of a time-split horizon, in stage form.

    The block variable stacks ``t + 1`` states of size ``nx``. ``H`` holds the
    per-state Hessian blocks ``(t + 1, nx, nx)`` and ``g`` the gradient. The
    local constraint rows are ``dX_{k+1} - D_k dX_k + d_k = 0``, so ``D`` holds
    the per-stage dynamics Jacobians ``(t, nx, nx)`` and ``d`` the offsets. Of
    the ``r`` shared coupling rows, block row ``plus_row`` carries ``+I`` on the
    last state and block row ``minus_row`` carries ``-I`` on the first; either
    may be ``None``. ``anchor`` is the block's contribution ``A_i @ X_i^+``.
    """

    H: Array
    g: Array
    D: Array
    d: Array
    plus_row: int | None
    minus_row: int | None
    r: int
    anchor: Array

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.g = np.asarray(self.g, dtype=float).reshape(-1)
        self.D = np.asarray(self.D, dtype=float)
        self.d = np.asarray(self.d, dtype=float).reshape(-1)
        self.anchor = np.asarray(self.anchor, dtype=float).reshape(-1)
        if self.H.ndim != 3 or self.H.shape[0] < 2 or self.H.shape[1] != self.H.shape[2]:
            raise DimensionMismatchError(
                f"H must be a (t+1, nx, nx) stack with t >= 1, got {self.H.shape}"
            )
        t, nx = self.t, self.nx
        if self.g.shape != (self.n,) or self.D.shape != (t, nx, nx) or self.d.shape != (self.m,):
            raise DimensionMismatchError(
                f"inconsistent stage shapes: H {self.H.shape}, g {self.g.shape}, "
                f"D {self.D.shape}, d {self.d.shape}"
            )
        if self.r % nx or self.anchor.shape != (self.r,):
            raise DimensionMismatchError(
                f"anchor has {self.anchor.shape} entries for {self.r} coupling rows of width {nx}"
            )
        rows = [row for row in (self.plus_row, self.minus_row) if row is not None]
        if any(not 0 <= row < self.r // nx for row in rows) or len(set(rows)) < len(rows):
            raise DimensionMismatchError(
                f"coupling block rows {self.plus_row}, {self.minus_row} invalid for r={self.r}"
            )

    @property
    def nx(self) -> int:
        return self.H.shape[1]

    @property
    def t(self) -> int:
        return self.H.shape[0] - 1

    @property
    def n(self) -> int:
        return (self.t + 1) * self.nx

    @property
    def m(self) -> int:
        return self.t * self.nx

    def boundary(self) -> list[tuple[int, float, int]]:
        """``(state, sign, coupling block row)`` of each coupled boundary state."""
        ends = [(0, -1.0, self.minus_row), (self.t, 1.0, self.plus_row)]
        return [end for end in ends if end[2] is not None]

    def to_qp_block(self) -> QpBlock:
        """The same block with dense ``H``, ``C`` and ``A``."""
        nx = self.nx
        A = np.zeros((self.r, self.t + 1, nx))
        for state, sign, row in self.boundary():
            A[row * nx:(row + 1) * nx, state] = sign * np.eye(nx)
        return QpBlock(
            H=block_diagonal_matrix(self.H),
            g=self.g,
            C=stage_constraint_matrix(self.D),
            d=self.d,
            A=A.reshape(self.r, self.n),
            anchor=self.anchor,
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
class QpSolution:
    """Multipliers and block steps of the coupled QP, with solve diagnostics."""

    lam: Array
    mu: list[Array]
    delta_x: list[Array]
    diagnostics: dict


def _require_finite(where: str, index: int | None, **arrays: Array) -> None:
    bad = [name for name, a in arrays.items() if not np.isfinite(a).all()]
    if bad:
        raise NonFiniteDataError(
            f"{where}: non-finite entries in {', '.join(bad)}", block_index=index
        )


def schur_terms(
    block: QpBlock | StageBlock, index: int | None = None
) -> SchurTerms | StageTerms:
    """Eliminate one block through its Hessian factorization.

    Returns ``G``, ``Q``, ``R`` and the block's additive contribution ``s`` to
    the Schur right-hand side, which folds in the anchor, the gradient term,
    and the constraint-offset term. All applications of ``H^-1`` reuse a single
    Cholesky factorization; no inverse is ever formed. A :class:`StageBlock`
    is eliminated in stage form and yields :class:`StageTerms`.
    """
    where = f"block {index}" if index is not None else "block"
    if isinstance(block, StageBlock):
        return _stage_terms(block, index, where)
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


def _coupling_multiplier(S: Array, p: Array) -> tuple[Array, dict]:
    if p.size:
        return _solve_schur(S, p)
    return np.zeros(0), {"schur_factorization": "empty"}


def _check_coupling_rows(blocks: list) -> int:
    if not blocks:
        raise DimensionMismatchError("need at least one block")
    r = blocks[0].r
    if any(b.r != r for b in blocks):
        raise DimensionMismatchError("all blocks must share the coupling row count")
    return r


def solve_coupled_qp(blocks: list[QpBlock] | list[StageBlock]) -> QpSolution:
    """Closed-form solution of the coupled QP via block elimination.

    The Schur reduction and back-substitution are per-block maps; the only
    shared step is the dense ``r x r`` solve for the coupling multiplier. Block
    contributions are summed in index order so results are reproducible.
    Lists of :class:`StageBlock` take the structured path; lists of
    :class:`QpBlock` the dense one.
    """
    r = _check_coupling_rows(blocks)
    if all(isinstance(b, StageBlock) for b in blocks):
        return _solve_stage_qp(blocks, r)
    if not all(isinstance(b, QpBlock) for b in blocks):
        raise TypeError("blocks must be all QpBlock or all StageBlock")

    terms = [schur_terms(block, index=i) for i, block in enumerate(blocks)]

    S = np.zeros((r, r))
    p = np.zeros(r)
    for t in terms:
        if t.R.shape[0]:
            S += t.G - t.Q @ scipy.linalg.cho_solve(t.r_factor, t.Q.T)
        else:
            S += t.G
        p += t.s
    lam, diagnostics = _coupling_multiplier(S, p)

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


@dataclass(eq=False)
class StageTerms:
    """Schur data of one :class:`StageBlock`, restricted to its boundary coupling
    rows, plus what back-substitution reuses."""

    rows: Array  # coupling rows of the boundary states
    S: Array  # G_i - Q_i R_i^-1 Q_i' restricted to those rows
    s: Array  # right-hand contribution on those rows, anchor excluded
    hinv: Array  # per-state inverse Hessian blocks
    z: Array  # R^-1 (C H^-1 g - d)
    Z: Array  # R^-1 C H^-1 A' restricted to the boundary columns


def _stage_terms(block: StageBlock, index: int | None, where: str) -> StageTerms:
    """Eliminate one stage block in ``O(t * nx^3)``.

    The per-state Hessian blocks are factored in one batched Cholesky call.
    ``R = C H^-1 C'`` is block-tridiagonal, with diagonal blocks
    ``D_k H_k^-1 D_k' + H_{k+1}^-1`` and superdiagonal blocks
    ``-H_{k+1}^-1 D_{k+1}'``, so it is assembled and factored in banded storage
    of bandwidth ``2 nx - 1``. ``A`` touches only the boundary states, so
    ``Q' = C H^-1 A'`` is nonzero only in the first and last constraint rows.
    """
    _require_finite(
        where, index, H=block.H, g=block.g, D=block.D, d=block.d, anchor=block.anchor
    )
    t, nx, m = block.t, block.nx, block.m
    D = block.D
    try:
        chol = np.linalg.cholesky(block.H)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"{where}: Hessian is not positive definite", block_index=index
        ) from exc
    linv = np.linalg.inv(chol)
    hinv = np.swapaxes(linv, 1, 2) @ linv
    hinv_g = (hinv @ block.g.reshape(t + 1, nx, 1))[..., 0]

    Dt = np.swapaxes(D, 1, 2)
    band_rows = np.zeros((t, nx, 2 * nx))
    band_rows[:, :, :nx] = D @ hinv[:-1] @ Dt + hinv[1:]
    band_rows[:-1, :, nx:] = -hinv[1:-1] @ Dt[1:]
    dst, src = _band_layout(t, nx)
    band = np.zeros((2 * nx, m))
    band.flat[dst] = band_rows.flat[src]
    try:
        factor = scipy.linalg.cholesky_banded(band, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficientConstraintsError(
            f"{where}: constraint rows are rank deficient", block_index=index
        ) from exc
    # the squared pivot ratio of a Cholesky factor bounds 1/cond(R) from above
    pivots = factor[-1]
    ratio = (pivots.min() / pivots.max()) ** 2
    if ratio <= RANK_RCOND_LIMIT:
        raise RankDeficientConstraintsError(
            f"{where}: constraint rows are rank deficient (pivot ratio {ratio:.3e})",
            block_index=index,
        )

    ends = block.boundary()
    nb = nx * len(ends)
    rhs = np.zeros((m, 1 + nb))
    rhs[:, 0] = (hinv_g[1:] - (D @ hinv_g[:-1, :, None])[..., 0]).reshape(-1) - block.d
    G = np.zeros((nb, nb))
    s = np.zeros(nb)
    rows = np.zeros(nb, dtype=int)
    for j, (state, sign, row) in enumerate(ends):
        cols = slice(j * nx, (j + 1) * nx)
        q_cols = slice(1 + j * nx, 1 + (j + 1) * nx)
        # column of C H^-1 A': only the constraint row holding this state
        if state == 0:
            rhs[:nx, q_cols] = -sign * (D[0] @ hinv[0])
        else:
            rhs[-nx:, q_cols] = sign * hinv[state]
        G[cols, cols] = hinv[state]
        s[cols] = -sign * hinv_g[state]
        rows[cols] = np.arange(row * nx, (row + 1) * nx)
    sol = scipy.linalg.cho_solve_banded((factor, False), rhs, check_finite=False)
    Qt = rhs[:, 1:]
    return StageTerms(
        rows=rows,
        S=G - Qt.T @ sol[:, 1:],
        s=s + Qt.T @ sol[:, 0],
        hinv=hinv,
        z=sol[:, 0],
        Z=sol[:, 1:],
    )


def _solve_stage_qp(blocks: list[StageBlock], r: int) -> QpSolution:
    """Structured twin of the dense elimination: boundary-only Schur assembly,
    the dense ``r x r`` solve, and structural back-substitution."""
    terms = [schur_terms(block, index=i) for i, block in enumerate(blocks)]
    S = np.zeros((r, r))
    p = np.zeros(r)
    for t, block in zip(terms, blocks):
        S[np.ix_(t.rows, t.rows)] += t.S
        p += block.anchor
        p[t.rows] += t.s
    lam, diagnostics = _coupling_multiplier(S, p)

    mu = []
    delta_x = []
    for t, block in zip(terms, blocks):
        lam_b = lam[t.rows]
        mu_i = -(t.z + t.Z @ lam_b)
        v = block.g + stage_constraint_transpose(block.D, mu_i)
        v = v.reshape(block.t + 1, block.nx)
        for j, (state, sign, _) in enumerate(block.boundary()):
            v[state] += sign * lam_b[j * block.nx:(j + 1) * block.nx]
        mu.append(mu_i)
        delta_x.append(-(t.hinv @ v[:, :, None]).reshape(-1))
    return QpSolution(lam=lam, mu=mu, delta_x=delta_x, diagnostics=diagnostics)


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
    constrained: bool = True,
    with_offsets: bool = True,
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
    m_rows = [int(rng.integers(0, n - 1)) if constrained else 0 for n in sizes]
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
        d = rng.standard_normal(m) if (with_offsets and m) else np.zeros(m)
        A = rng.standard_normal((r, n))
        anchor = A @ rng.standard_normal(n)
        blocks.append(QpBlock(H=H, g=rng.standard_normal(n), C=C, d=d, A=A, anchor=anchor))
    return blocks
