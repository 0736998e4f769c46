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
stages and coupling rows together form one chain of ``L + N - 1`` links.
Every step then follows from the first one, ``dX_{j+1} = D_j dX_j - d_j``,
and the stack is condensed onto ``dX_0`` (the inputless case of the stage
recursions of Rao, Wright & Rawlings, JOTA 99(3), 1998). With the links as
the unit lower block-bidiagonal matrix ``B``, one banded triangular solve
gives ``dX = Z dX_0 + e``; one Cholesky factorization of the ``nx x nx``
reduced Hessian ``Z' H Z`` gives ``dX_0``; and one transposed triangular solve
gives every link multiplier ``nu``, whose first row is the reduced gradient.
Above roundoff, ``dX_0`` is refined once against it and a second transposed
solve gives ``nu``. A whole window costs ``O((L + N) nx^3)`` in at most six
LAPACK calls, and no per-state Hessian is ever factored: only the reduced Hessian
must be positive definite, and the links have full row rank by construction.
The condensed map's conditioning follows the products of the ``D_j``, so it
is accurate on the contracting or polynomially growing dynamics of a sampled
system and loses digits on chains that expand geometrically. This module
alone builds, masks and indexes the band of ``B`` (:func:`link_band`), which a
stack holds and which also gives the stationarity ``C' mu + A' lam`` as one
product ``B' nu``, row 0 of ``nu`` zeroed (:func:`link_transpose`).

A dense full-KKT solve over ``(dX, mu, lambda)`` is provided as an independent
verification oracle. The coupled QP is never regularized: a Hessian that is not
positive definite raises :class:`NotPositiveDefiniteError` with its block index,
block 0 for a stack's reduced Hessian. :func:`solve_local_kkt` condenses the local
KKT systems, of any inertia, of a mask of unlinked sub-windows through their band,
with an LU of each ``nx x nx`` reduced system and a shift that refactors nothing.
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
    check_shape,
)
from .problem import LiftedLayout

logger = logging.getLogger(__name__)

Array = np.ndarray

# at or below this reciprocal condition estimate R_i counts as rank deficient
RANK_RCOND_LIMIT = 1e-12
# at or below this reduced gradient a condensed step is at roundoff and not refined, as in dporfs
REFINE_LIMIT = 16 * np.finfo(float).eps
_ONE = np.ones(1)  # the leading 1 of z, not converted from a list on every call
_ZERO_ONE = np.array((0.0, 1.0))  # the entries of a chain right-hand side after its offsets


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
        for name in ("H", "g", "C", "A"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.d = np.asarray(self.d, dtype=float).reshape(-1)
        self.anchor = np.asarray(self.anchor, dtype=float).reshape(-1)
        # the leading sizes; a 0-d array counts as one row
        n, m, r = ((a.shape or (1,))[0] for a in (self.H, self.C, self.A))
        for name, shape in dict(H=(n, n), g=(n,), C=(m, n), d=(m,), A=(r, n), anchor=(r,)).items():
            check_shape(name, getattr(self, name), shape)

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

    The per-state blocks ``H`` may be indefinite: :func:`solve_coupled_qp`
    needs only the reduced Hessian over ``dX_0`` to be positive definite.
    ``band`` is ``link_band(layout, D, True)``, the chain's link matrix ``B``:
    passed in where the caller built it at the same ``D``, else built here.
    """

    layout: LiftedLayout
    H: Array
    g: Array
    D: Array
    d: Array
    anchor: Array
    band: Array | None = None

    def __post_init__(self):
        try:
            shapes = (self.H.shape, self.g.shape, self.D.shape, self.d.shape, self.anchor.shape)
        except AttributeError:  # not all arrays: compared field by field below
            shapes = None
        if shapes != self.layout.shapes:
            for name, shape in zip(("H", "g", "D", "d", "anchor"), self.layout.shapes):
                check_shape(name, getattr(self, name), shape)
        if self.band is None:
            self.band = link_band(self.layout, self.D, True)


@dataclass(eq=False)
class SchurTerms:
    """One :class:`QpBlock`, eliminated by :func:`_eliminate`, as an affine map of
    ``z = (1, lambda)``: its step is ``-U z`` and its local multipliers ``-V z``;
    ``S`` and ``s`` are its contributions to the Schur matrix and right-hand side.

    A :class:`StageStack`, condensed by :func:`schur_terms`, maps ``z = (1, dX_0)``
    to the step ``+U z``, ``U = [e, Z]``: ``S`` is the unsymmetrised reduced Hessian,
    whose factor reads the lower triangle, ``S dX_0 = s``, and ``V z`` is the
    stationarity residual ``H dX + g``, whose link multipliers are ``nu = -B^-T V z``
    on the stack's band.
    """

    S: Array
    s: Array
    U: Array
    V: Array


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
    nu: Array | None = None  # a stack's link multipliers, row 0 zeroed


def _require_finite_stack(stack: StageStack) -> None:
    """Raise on non-finite stack data, naming the block of the first bad field's
    first bad row; return on finite data."""
    names = ("H", "g", "D", "d", "anchor")
    bad = [name for name in names if not np.isfinite(getattr(stack, name)).all()]
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


def schur_terms(stack: StageStack) -> SchurTerms:
    """Condense a :class:`StageStack` onto its first state, returned as the affine
    map :class:`SchurTerms`, in ``O((L + N) nx^3)`` with no Hessian factorization.

    With ``B`` the link matrix of :func:`_chain_tables`, every step is
    ``dX = B^-1 (dX_0; -d)``: :func:`_chain_solve` against ``[(0; -d), E_0]``
    gives ``U = [e, Z]``, so that ``dX = U z``. Then ``V = [H e + g, H Z]`` is
    the stationarity map, ``H dX + g = V z``, and ``Z' V`` holds the reduced
    Hessian ``S = Z' H Z`` and, negated, the right-hand side ``s = -Z' (H e + g)``.
    The chain solve's source array also holds ``H``, ``g`` and ``D``, so one
    finiteness pass over it clears finite data; on any other,
    :func:`_require_finite_stack` names the block.
    """
    lay, H, g = stack.layout, stack.H, stack.g
    nx = lay.nx
    source = np.concatenate(
        ((-stack.d).ravel(), stack.anchor, _ZERO_ONE, H.ravel(), g.ravel(), stack.D.ravel())
    )
    if np.count_nonzero(np.isfinite(source)) != source.size:  # faster than logical_and.reduce
        _require_finite_stack(stack)
    U = _chain_solve(lay, source, True, stack.band)
    # the batched product on a C-ordered copy of the LAPACK output takes about
    # two thirds of the time, bit for bit the same
    V = H @ np.ascontiguousarray(U)
    V[..., 0] += g
    U, V = U.reshape(-1, nx + 1), V.reshape(-1, nx + 1)
    reduced = U[:, 1:].T.dot(V)  # ndarray.dot: the BLAS call of @ without its ufunc cost
    return SchurTerms(reduced[:, 1:], -reduced[:, 0], U, V)


def _eliminate(block: QpBlock, index: int) -> SchurTerms:
    """Block ``index`` of the dense path as the affine map :class:`SchurTerms`, its
    step ``-U z``, through its Hessian factorization: one Cholesky solve gives
    ``H^-1 [g, A', C']``; no inverse is ever formed."""
    where, fields = f"block {index}", ("H", "g", "C", "d", "A", "anchor")
    if bad := [name for name in fields if not np.isfinite(getattr(block, name)).all()]:
        raise NonFiniteDataError(
            f"{where}: non-finite entries in {', '.join(bad)}", block_index=index
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


def _check_coupling_rows(blocks: list) -> None:
    if not blocks:
        raise DimensionMismatchError("need at least one block")
    if any(b.r != blocks[0].r for b in blocks):
        raise DimensionMismatchError("all blocks must share the coupling row count")


def solve_coupled_qp(blocks: list[QpBlock] | StageStack) -> QpSolution:
    """Closed-form solution of the coupled QP via block elimination.

    A list of :class:`QpBlock` is eliminated block by block around the dense
    ``r x r`` Schur solve, with contributions summed in index order so results
    are reproducible. A :class:`StageStack`, the chained sub-windows of a
    split horizon, is condensed onto its first state and solved as one chain
    of links: ``dX_0`` from one Cholesky solve of ``S dX_0 = s``, then the
    steps, and the link multipliers ``nu = -B^-T (H dX + g)`` from one
    transposed banded solve. Row block 0 of ``B^-T (H dX + g)`` is the reduced
    gradient ``Z' (H dX + g)``; its infinity norm relative to one plus the
    largest link multiplier is ``diagnostics["reduced_gradient"]``. At or below
    :data:`REFINE_LIMIT`, ``16 eps``, the step is at roundoff and is returned as
    it is; above it, or NaN, one refinement step of ``dX_0`` costs one
    ``dpotrs``, one product and a second transposed solve, as LAPACK's
    ``dporfs`` stops refining at machine precision. The reported figure is that
    of the returned step: about ``1e-16`` on a well-conditioned chain, larger
    where the products of the ``D_j`` grow. The stage path has no pivot ratio.
    """
    if not isinstance(blocks, StageStack):
        return _solve_blocks(blocks)
    terms = schur_terms(blocks)
    lay, band, lapack = blocks.layout, blocks.band, scipy.linalg.lapack
    nx = lay.nx
    # f2py parses positional arguments faster than keywords: lower 1; uplo "L", trans "T", diag "U"
    factor, info = lapack.dpotrf(terms.S, 1)
    if info:
        raise NotPositiveDefiniteError(
            "block 0: reduced Hessian is not positive definite", block_index=0
        )
    z = np.concatenate((_ONE, lapack.dpotrs(factor, terms.s, 1)[0]))
    for refined in (False, True):
        nu = -lapack.dtbtrs(band, terms.V.dot(z), "L", "T", "U")[0]
        # the reduced gradient, row 0 of nu, relative to the multipliers' scale;
        # the comparison keeps a NaN in the rest as np.maximum does
        first, rest = np.maximum.reduceat(np.abs(nu), (0, nx)).tolist()
        gradient = first / (1.0 + (first if first >= rest else rest))
        if refined or gradient <= REFINE_LIMIT:  # a NaN refines
            break
        z[1:] += lapack.dpotrs(factor, nu[:nx], 1)[0]
    nu = nu.reshape(-1, nx)
    nu[0] = 0.0
    # link j is row j + 1 of nu: stage k is link prev[k], and coupling row c is
    # link last[c], whose multiplier is minus the coupling row's
    links = nu.take(_chain_tables(lay, True)[2], 0)
    return QpSolution(
        -links[lay.L:].ravel(), links[:lay.L], terms.U.dot(z).reshape(-1, nx),
        {"reduced_gradient": gradient}, nu,
    )


def _solve_blocks(blocks: list[QpBlock]) -> QpSolution:
    """:func:`solve_coupled_qp` of a list of :class:`QpBlock`."""
    if not all(isinstance(b, QpBlock) for b in blocks):
        raise TypeError("blocks must be a StageStack or a list of QpBlock")
    _check_coupling_rows(blocks)
    terms = [_eliminate(block, i) for i, block in enumerate(blocks)]
    S, p = sum(t.S for t in terms), sum(t.s for t in terms)
    try:  # a Schur matrix that is not numerically positive definite: dependent coupling rows
        lam = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S, lower=True), p)
    except scipy.linalg.LinAlgError as exc:
        raise SingularKktError("coupling Schur matrix is singular") from exc
    z = np.concatenate(([1.0], lam))
    return QpSolution(
        lam=z[1:], mu=[-t.V @ z for t in terms], delta_x=[-t.U @ z for t in terms], diagnostics={}
    )


@lru_cache(maxsize=128)
def _chain_tables(lay: LiftedLayout, linked: bool) -> tuple[Array, Array, Array, Array]:
    """Take index, from ``[-D.ravel(), tail]``, of the transposed LAPACK lower
    band storage ``((L + N) nx, 2 nx)`` of the link matrix ``B``; the tail, stored
    negated, ``-[coupling.ravel(), 0, -1]``, ``coupling = I`` if ``linked`` else zero; the
    rows of the offsets; and the take index of ``[(0; offsets) | E]'`` from ``[offsets, 0, 1]``.

    Block row 0 of ``B`` is ``[I, 0, ...]`` and block row ``j + 1`` is link
    ``j``, ``-D_j`` on state ``j`` and ``I`` on state ``j + 1``; a coupling
    link takes the one ``-coupling`` block. The diagonal takes the ``1`` and
    every other slot but the ``-D_j`` entries the zero."""
    nx, size = lay.nx, lay.nx * lay.nx
    # stage k is link prev[k]; coupling row c is link last[c], and all share one block
    source = np.full(lay.n_states - 1, lay.L * size)
    source[lay.prev] = np.arange(lay.L) * size
    j = np.arange(lay.n_states - 1)[:, None, None]
    a, c = np.arange(nx)[:, None], np.arange(nx)
    index = np.full((lay.n_states * nx, 2 * nx), (lay.L + 1) * size, dtype=np.intp)
    index[:, 0] += 1
    index[j * nx + c, nx + a - c] = source[j] + a * nx + c
    tail = -np.append(lay.eye.reshape(-1) * linked, (0.0, -1.0))
    rows = np.concatenate((lay.next, lay.first[1:])) if linked else lay.next
    m = len(rows) * nx  # the zero's position in the source, the one's is m + 1
    rhs = np.full((nx + 1, lay.n_states, nx), m, dtype=np.intp)
    rhs[0, rows] = np.arange(m).reshape(-1, nx)
    rhs[1:, lay.first[:1] if linked else lay.first] = m + lay.eye[:, None]
    for table in (index, tail, rows, rhs):
        table.flags.writeable = False  # cached and shared by every caller
    return index, tail, rows, rhs.reshape(nx + 1, -1)


def link_band(lay: LiftedLayout, D: Array, linked: bool) -> Array:
    """``B`` of :func:`_chain_tables` at ``D``, of which only ``D`` is negated, in LAPACK lower
    band storage ``(2 nx, (L + N) nx)``, Fortran-ordered; unlinked: zero coupling blocks."""
    index, tail = _chain_tables(lay, linked)[:2]
    return np.concatenate((-D.ravel(), tail)).take(index).T


def link_transpose(band: Array, nu: Array) -> Array:
    """``B' nu``, flat, in one banded product: ``C' mu + A' lam`` for the link multipliers
    of :class:`QpSolution`, ``C' mu`` if unlinked and every first row zero. ``dgbmv``, as
    OpenBLAS threads every ``dtbmv``: 3 to 9 times slower on two threads here."""
    flat = nu.ravel()
    return scipy.linalg.blas.dgbmv(  # positional, as f2py parses keywords slower: trans 1 last
        nu.size, nu.size, len(band) - 1, 0, 1.0, band, flat, 1, 0, 0.0, None, 1, 0, 1)


def _chain_solve(lay: LiftedLayout, source: Array, linked: bool, band: Array) -> Array:
    """``B^-1 [(0; offsets) | E]`` ``(L + N, nx, nx + 1)`` on the link ``band`` of ``B``, the
    flat ``source`` ``[offsets, 0, 1, ...]`` taken into one banded solve (``dtbtrs``); what
    follows its ``1`` is not read. Link ``j`` sits on row ``j + 1``: the ``L`` stage offsets on
    the rows ``next`` and, if ``linked``, the ``N - 1`` coupling offsets on the rows
    ``first[1:]``. ``E`` holds an identity block on the first state, or on every sub-window's
    first state if not."""
    rhs = source.take(_chain_tables(lay, linked)[3]).T
    sol = scipy.linalg.lapack.dtbtrs(band, rhs, "L", "N", "U", 1)[0]  # flags by position, as above
    return sol.reshape(lay.n_states, lay.nx, lay.nx + 1)


def solve_local_kkt(
    layout: LiftedLayout, H: Array, band: Array, rhs_x: Array, rhs_mu: Array, eps0: float,
    active: Array,
) -> tuple[Array, Array]:
    """Solve the local KKT systems ``[[H, C'], [C, 0]] (dx, mu) = (rhs_x, rhs_mu)``
    of the unlinked sub-windows in the mask ``active``, each condensed onto its first state.

    ``H`` holds per-state blocks ``(states, nx, nx)`` of any inertia, row ``k`` of
    ``C`` is ``-D_k`` on state ``prev[k]`` and ``I`` on ``next[k]``, and ``band`` is
    ``link_band(layout, D, False)``. Outside ``active``, ``H = I``, the links of a
    copy of ``band`` are zero and so is the right-hand side: a zero step, never shifted.
    :func:`_chain_solve` gives ``dx = e + Z dx_first`` for every sub-window at once;
    the reduced systems ``Z' H Z dx_first = Z' (rhs_x - H e)`` take one batched LU
    solve, and ``mu`` is the stage rows of one transposed banded solve of
    ``rhs_x - H dx``. A singular reduced system, named by its own zero LU pivot,
    has its sub-window's ``H`` alone shifted by ``eps0 * 10**k``, ``k = 0, 1, 2``,
    before :class:`LocalSolveError` is raised; a retry redoes only the product and
    the reduction, as ``e`` and ``Z`` do not depend on ``H``. Returns ``dx`` and
    ``mu`` ``(L, nx)``.
    """
    lay, nx = layout, layout.nx
    if not active.all():
        s = active[lay.state_block][:, None]
        band = band.copy(order="K")
        band[1:, ~s.repeat(nx)] = 0.0
        H, rhs_x = np.where(s[..., None], H, lay.eye), np.where(s, rhs_x, 0.0)
        rhs_mu = np.where(active[lay.stage_block][:, None], rhs_mu, 0.0)
    U = _chain_solve(lay, np.concatenate((rhs_mu.ravel(), _ZERO_ONE)), False, band)
    rungs, shifted = [0] * len(lay.lengths), H
    while True:
        V = shifted @ np.ascontiguousarray(U)
        V[..., 0] -= rhs_x
        reduced = np.add.reduceat(U[..., 1:].swapaxes(1, 2) @ V, lay.first)
        try:
            step = np.linalg.solve(reduced[..., 1:], reduced[..., :1])  # -dx_first
            break
        except np.linalg.LinAlgError:
            singular = [i for i, P in enumerate(reduced) if scipy.linalg.lapack.dgetrf(P[:, 1:])[2]]
        if not singular:
            raise LocalSolveError("local KKT matrix singular, yet no sub-window has a zero pivot")
        for i in singular:
            if rungs[i] == 3:
                raise LocalSolveError(
                    f"block {i}: local KKT matrix singular after regularization", block_index=i
                )
            eps = eps0 * 10.0 ** rungs[i]
            logger.warning("block %d: local KKT matrix singular; retrying with shift %.3e", i, eps)
            shifted = np.where((lay.state_block == i)[:, None, None], H + eps * np.eye(nx), shifted)
            rungs[i] += 1
    # z = -(1, dx_first), so that U z = -dx and V z = rhs_x - H dx
    z = np.concatenate((np.full((len(step), 1, 1), -1.0), step), axis=1)[lay.state_block]
    Vz = (V @ z).reshape(-1)
    nu = scipy.linalg.lapack.dtbtrs(band, Vz, "L", "T", "U", 1)[0]
    return -(U @ z)[..., 0], nu.reshape(-1, nx)[lay.next]


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
