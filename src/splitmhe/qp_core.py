"""Closed-form solver for block-coupled equality-constrained QPs.

The problem solved here is

    min over {dX_i}   sum_i  0.5 * dX_i' H_i dX_i + g_i' dX_i
    s.t.              C_i dX_i + d_i = 0                (multipliers mu_i)
                      sum_i A_i (X_i^+ + dX_i) = 0      (multiplier lambda)

with every ``H_i`` positive definite and every ``C_i`` full row rank. Through
one Cholesky factor of ``H_i`` and one of ``R_i = C_i H_i^-1 C_i'``, each
block becomes an affine map of ``z = (1, lambda)``, and the coupling rows
leave a Schur system in the shared multiplier:

    V_i = R_i^-1 (C_i H_i^-1 [g_i, A_i'] - [d_i, 0]),  U_i = H_i^-1 ([g_i, A_i'] - C_i' V_i)
    dX_i = -U_i z,  mu_i = -V_i z
    S lambda = sum_i s_i,  S = sum_i A_i U_i[:, 1:],  s_i = A_i X_i^+ - A_i U_i[:, 0]

Here ``A_i U_i[:, 1:]`` is ``A_i H_i^-1 A_i' - A_i H_i^-1 C_i' R_i^-1 C_i H_i^-1 A_i'``,
and ``s_i`` carries the anchor, the gradient term and the constraint-offset
term ``-A_i H_i^-1 C_i' R_i^-1 d_i``.

The QP comes in two forms. A list of :class:`QpBlock` holds general dense
data and is eliminated exactly as written above, one block at a time, around
a dense ``r x r`` Schur solve. The sub-windows of a time-split horizon are
one :class:`StageStack`: the ``L + N`` lifted states with per-state Hessian
blocks, the ``L`` stages with rows ``[-D_k, I]``, and signed-identity
coupling between the last state of one sub-window and the first state of the
next. Those two states sit next to each other in the stack, so a coupling
row, negated, is one more link ``[-I, I]`` between consecutive states, and
stages and coupling rows together form one chain of ``L + N - 1`` links. The
per-state Hessian blocks are factored as one block-diagonal band, and one
banded solve against stacked identity blocks gives every ``H_j^-1``. The
chain's ``C H^-1 C'`` is block-tridiagonal over the links: one banded
Cholesky factorization and one banded solve give every link multiplier, and
the steps follow. A whole window costs ``O((L + N) nx^3)`` in a fixed number
of LAPACK calls.

A dense full-KKT solve over ``(dX, mu, lambda)`` is provided as an independent
verification oracle. The coupled QP is never regularized: a Hessian that is not
positive definite raises :class:`NotPositiveDefiniteError` with its block index.
:func:`solve_local_kkt` solves the sub-windows' uncoupled local KKT systems, of
any inertia, as one band, and shifts only a singular sub-window's Hessian.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    LocalSolveError,
    NonFiniteDataError,
    NotPositiveDefiniteError,
    RankDeficientConstraintsError,
    SingularKktError,
)
from .problem import LiftedLayout

logger = logging.getLogger(__name__)

Array = np.ndarray

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
        nx = lay.nx
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
    """One block as an affine map of ``z = (1, lambda)``: its step is ``-U z``
    and its local multipliers ``-V z``; ``S`` and ``s`` are its contributions
    to the Schur matrix and right-hand side."""

    S: Array
    s: Array
    U: Array
    V: Array


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
    rows = {
        "H": lay.state_block, "g": lay.state_block, "D": lay.stage_block, "d": lay.stage_block,
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

    Returns the block as the affine map :class:`SchurTerms`. One Cholesky solve
    gives ``H^-1 [g, A', C']``; no inverse is ever formed. A
    :class:`StageStack` is factored as one chain and yields
    :class:`StackTerms`.
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

    # U = H^-1 [g, A'] and W = H^-1 C'
    Y = scipy.linalg.cho_solve(h_factor, np.column_stack([block.g, block.A.T, block.C.T]))
    U, W = Y[:, :1 + block.r], Y[:, 1 + block.r:]
    V = np.zeros((0, 1 + block.r))
    if block.m:
        R = block.C @ W
        R = 0.5 * (R + R.T)
        try:
            factor = scipy.linalg.cho_factor(R, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise RankDeficientConstraintsError(
                f"{where}: constraint rows are rank deficient", block_index=index
            ) from exc
        # 1-norm condition estimate from the factor already at hand
        rcond, _ = scipy.linalg.lapack.dpocon(factor[0], np.abs(R).sum(axis=0).max(), uplo="L")
        if rcond <= RANK_RCOND_LIMIT:
            raise RankDeficientConstraintsError(
                f"{where}: constraint rows are rank deficient (rcond={rcond:.3e})",
                block_index=index,
            )
        offset = block.C @ U
        offset[:, 0] -= block.d
        V = scipy.linalg.cho_solve(factor, offset)
        U = U - W @ V
    S = block.A @ U[:, 1:]
    return SchurTerms(S=0.5 * (S + S.T), s=block.anchor - block.A @ U[:, 0], U=U, V=V)


def _solve_schur(S: Array, p: Array) -> Array:
    """Cholesky solve of the Schur system; a matrix that is not numerically
    positive definite means dependent coupling rows."""
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(0.5 * (S + S.T), lower=True), p)
    except scipy.linalg.LinAlgError as exc:
        raise SingularKktError("coupling Schur matrix is singular") from exc


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
        S += t.S
        p += t.s
    z = np.concatenate([[1.0], _solve_schur(S, p) if r else []])
    return QpSolution(
        lam=z[1:], mu=[-t.V @ z for t in terms], delta_x=[-t.U @ z for t in terms], diagnostics={}
    )


# the zero that every unused slot of a banded matrix takes
_ZERO = np.zeros(1)


@lru_cache(maxsize=128)
def _band_index(t: int, nx: int, width: int) -> Array:
    """Take index of the LAPACK upper banded storage ``(width, t nx)`` of a
    symmetric matrix with ``t`` diagonal ``nx x nx`` blocks and, for ``width``
    ``2 nx``, ``t - 1`` superdiagonal blocks, from the flat concatenation
    ``[diagonal blocks, superdiagonal blocks, 0]``."""
    m, u, size = t * nx, width - 1, nx * nx
    tridiagonal = width > nx
    a, c = np.triu_indices(nx)
    k = np.arange(t)[:, None]
    index = np.full(width * m, (2 * t - 1 if tridiagonal else t) * size, dtype=np.intp)
    index[((u + a - c) * m + k * nx + c).ravel()] = (k * size + a * nx + c).ravel()
    if tridiagonal:
        a, c = np.divmod(np.arange(size), nx)
        k = k[:-1]
        dst = (u - nx + a - c) * m + (k + 1) * nx + c
        index[dst.ravel()] = ((t + k) * size + a * nx + c).ravel()
    index.flags.writeable = False  # cached and shared by every caller
    return index.reshape(width, m)


def _banded(index: Array, *blocks: Array) -> Array:
    """The banded storage that ``index``, a :func:`_band_index`, takes from ``blocks``."""
    return np.concatenate([b.reshape(-1) for b in blocks] + [_ZERO]).take(index)


@lru_cache(maxsize=64)
def _link_index(lay: LiftedLayout) -> tuple[Array, Array]:
    """Link ``j``'s row in ``[stages, coupling rows]``: stage ``k`` is link
    ``prev[k]`` and coupling row ``c`` link ``last[c]``; and the ``N - 1``
    identity blocks ``D`` of the coupling links."""
    index = np.empty(lay.n_states - 1, dtype=np.intp)
    index[lay.prev] = np.arange(lay.L)
    index[lay.last[:-1]] = lay.L + np.arange(lay.N - 1)
    index.flags.writeable = False  # cached and shared by every caller
    return index, np.broadcast_to(np.eye(lay.nx), (lay.N - 1, lay.nx, lay.nx))


@lru_cache(maxsize=128)
def _block_identity(t: int, nx: int) -> Array:
    """``t`` identity blocks stacked, ``(t nx, nx)``: the right-hand side whose
    solve against a block-diagonal factor gives every block's inverse."""
    eye = np.tile(np.eye(nx), (t, 1))
    eye.flags.writeable = False  # cached and shared by every caller
    return eye


def _block_inverses(H: Array, state_block: Array) -> Array:
    """The inverses of the symmetric blocks ``H`` ``(t, nx, nx)``: one banded
    Cholesky factorization of the block-diagonal matrix, of half-bandwidth
    ``nx - 1``, and one banded solve against :func:`_block_identity`. A block
    that is not positive definite raises, named by ``state_block``."""
    t, nx = H.shape[:2]
    factor, info = scipy.linalg.lapack.dpbtrf(_banded(_band_index(t, nx, nx), H))
    if info:
        i = int(state_block[(info - 1) // nx])  # the first state without a pivot
        raise NotPositiveDefiniteError(
            f"block {i}: Hessian is not positive definite", block_index=i
        )
    return scipy.linalg.lapack.dpbtrs(factor, _block_identity(t, nx))[0].reshape(t, nx, nx)


def _stack_terms(stack: StageStack) -> StackTerms:
    """Factor the chain of a stack in ``O((L + N) nx^3)``.

    The per-state Hessian blocks are inverted through one banded Cholesky
    factorization of their block-diagonal band, of half-bandwidth ``nx - 1``
    (:func:`_block_inverses`). ``R = C H^-1 C'`` over the links is
    block-tridiagonal, with diagonal blocks ``D_j H_j^-1 D_j' + H_{j+1}^-1``
    and superdiagonal blocks ``-H_{j+1}^-1 D_{j+1}'``, so it takes one banded
    factorization of bandwidth ``2 nx - 1``. The rank guard is the squared pivot ratio over
    each sub-window's stage links and the coupling link after it, which
    bounds ``1/cond`` of that part of ``R`` from above.
    """
    _require_finite_stack(stack)
    lay = stack.layout
    H = stack.H
    n, nx = H.shape[:2]
    hinv = _block_inverses(H, lay.state_block)
    links, eyes = _link_index(lay)
    D = np.concatenate((stack.D, eyes)).take(links, 0)
    d = np.concatenate((stack.d, -stack.anchor.reshape(-1, nx))).take(links, 0)

    # on a contiguous D' the products below take half the time, bit for bit the same
    Dt = np.ascontiguousarray(np.swapaxes(D, 1, 2))
    diagonal = D @ hinv[:-1] @ Dt + hinv[1:]
    upper = -(hinv[1:-1] @ Dt[1:])
    band = _banded(_band_index(n - 1, nx, 2 * nx), diagonal, upper)
    factor, info = scipy.linalg.lapack.dpbtrf(band)
    if info:
        i = int(lay.state_block[(info - 1) // nx])  # the link's first state names the block
        raise RankDeficientConstraintsError(
            f"block {i}: constraint rows are rank deficient", block_index=i
        )
    pivots = factor[-1]
    rows = lay.first * nx
    ratio = (np.minimum.reduceat(pivots, rows) / np.maximum.reduceat(pivots, rows)) ** 2
    if (worst := float(ratio.min())) <= RANK_RCOND_LIMIT:
        i = int(np.flatnonzero(ratio <= RANK_RCOND_LIMIT)[0])
        raise RankDeficientConstraintsError(
            f"block {i}: constraint rows are rank deficient (pivot ratio {ratio[i]:.3e})",
            block_index=i,
        )
    return StackTerms(hinv=hinv, D=D, d=d, factor=factor, pivot_ratio=worst)


def _solve_stack(stack: StageStack) -> QpSolution:
    """The link multipliers ``nu`` from one banded solve of
    ``R nu = d - C H^-1 g``, then ``dX = -H^-1 (g + C' nu)``."""
    terms = schur_terms(stack)
    lay = stack.layout
    hg = (terms.hinv @ stack.g[..., None])[..., 0]
    rhs = terms.d - hg[1:] + (terms.D @ hg[:-1, :, None])[..., 0]
    nu = scipy.linalg.lapack.dpbtrs(terms.factor, rhs.reshape(-1))[0].reshape(rhs.shape)
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


@lru_cache(maxsize=64)
def _kkt_band_layout(lay: LiftedLayout) -> tuple[Array, Array, Array]:
    """Positions of a run's states and stages in its interleaved local KKT
    system, and the ``gbtrf`` band slots of the blocks ``H_j``, ``-D_k``,
    ``I``, ``-D_k'``, ``I``. State ``j`` sits at ``2 j - state_block[j]`` and
    stage ``k`` right after state ``prev[k]``, so every sub-window reads
    ``[x, mu, x, ..., mu, x]`` (Rao, Wright & Rawlings, JOTA 99(3), 1998) and
    the band has ``2 nx - 1`` sub- and superdiagonals."""
    nx = lay.nx
    xpos = 2 * np.arange(lay.n_states) - lay.state_block
    mpos = xpos[lay.prev] + 1
    rows = np.concatenate([xpos, mpos, mpos, xpos[lay.prev], xpos[lay.next]])[:, None, None]
    cols = np.concatenate([xpos, xpos[lay.prev], xpos[lay.next], mpos, mpos])[:, None, None]
    i, j = rows * nx + np.arange(nx)[:, None], cols * nx + np.arange(nx)
    n, band = (len(xpos) + len(mpos)) * nx, 2 * nx - 1
    dst = ((2 * band + i - j) * n + j).reshape(-1)
    for arr in (xpos, mpos, dst):
        arr.flags.writeable = False  # cached and shared by every caller
    return xpos, mpos, dst


def solve_local_kkt(
    layout: LiftedLayout, H: Array, D: Array, rhs_x: Array, rhs_mu: Array, eps0: float
) -> tuple[Array, Array]:
    """Solve the local KKT systems ``[[H, C'], [C, 0]] (dx, mu) = (rhs_x, rhs_mu)``
    of a run of unlinked sub-windows with one ``dgbtrf`` and one ``dgbtrs``.

    ``H`` holds per-state blocks ``(states, nx, nx)`` of any inertia, and row
    ``k`` of ``C`` is ``-D_k`` on state ``prev[k]`` and ``I`` on ``next[k]``.
    A zero pivot names its sub-window, whose ``H`` alone is retried shifted
    by ``eps0 * 10**k``, ``k = 0, 1, 2``; :class:`LocalSolveError` is raised
    if it stays singular. Returns ``dx`` ``(states, nx)`` and ``mu`` ``(L, nx)``.
    """
    nx = layout.nx
    xpos, mpos, dst = _kkt_band_layout(layout)
    band, n = 2 * nx - 1, (len(xpos) + len(mpos)) * nx
    eye = np.broadcast_to(np.eye(nx), D.shape)
    rungs = np.zeros(len(layout.lengths), dtype=int)
    shifted = H
    while True:
        ab = np.zeros((3 * band + 1, n))
        ab.flat[dst] = np.concatenate([shifted, -D, eye, -np.swapaxes(D, 1, 2), eye]).ravel()
        lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, band, band)
        if info <= 0:
            break
        # the zero pivot's position lies in the sub-window of the state at or before it
        i = int(layout.state_block[np.searchsorted(xpos, (info - 1) // nx, "right") - 1])
        if rungs[i] == 3:
            raise LocalSolveError(
                f"block {i}: local KKT matrix singular after regularization", block_index=i
            )
        shift = eps0 * 10.0 ** rungs[i]
        logger.warning("block %d: local KKT matrix singular; retrying with shift %.3e", i, shift)
        mine = (layout.state_block == i)[:, None, None]
        shifted = np.where(mine, H + shift * np.eye(nx), shifted)
        rungs[i] += 1
    z = np.zeros((n // nx, nx))
    z[xpos], z[mpos] = rhs_x, rhs_mu
    sol = scipy.linalg.lapack.dgbtrs(lu, band, band, z.reshape(-1, 1), piv)[0].reshape(-1, nx)
    return sol[xpos], sol[mpos]


def dense_kkt_oracle(blocks: list[QpBlock]) -> QpSolution:
    """Assemble and solve the full symmetric KKT system directly.

    Used as an independent cross-check of :func:`solve_coupled_qp`; the two
    agree to roundoff on every well-posed instance.
    """
    _check_coupling_rows(blocks)
    # constraint rows, then coupling rows, against the stacked block variables
    rows = np.vstack([
        scipy.linalg.block_diag(*(b.C for b in blocks)), np.hstack([b.A for b in blocks])
    ])
    K = np.block([
        [scipy.linalg.block_diag(*(b.H for b in blocks)), rows.T],
        [rows, np.zeros((len(rows), len(rows)))],
    ])
    rhs = -np.concatenate(
        [b.g for b in blocks] + [b.d for b in blocks] + [sum(b.anchor for b in blocks)]
    )
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularKktError("assembled KKT matrix is singular") from exc

    cuts = np.cumsum([b.n for b in blocks] + [b.m for b in blocks])
    *parts, lam = np.split(sol, cuts)
    delta_x, mu = parts[:len(blocks)], parts[len(blocks):]
    return QpSolution(lam=lam, mu=mu, delta_x=delta_x, diagnostics={"method": "dense_kkt"})


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
