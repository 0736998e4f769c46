"""Horizon windows, time-split sub-problems, and coupling bookkeeping.

A window of ``L`` dynamics steps is split into ``N`` consecutive sub-windows,
numbered from 0; the first ``N - 1`` have ``t = L // N`` steps and the last
has ``L - (N - 1) t``. Each sub-window owns a duplicated copy of its boundary
states, and consensus between the duplicates is imposed through signed-identity
coupling rows: block row ``c`` of the stacked coupling, also numbered from 0,
reads the last state of sub-window ``c`` minus the first state of sub-window
``c + 1``.

The solvers hold the ``N`` blocks as one lifted stack of ``L + N`` states.
:func:`build_partition` returns the split as one cached :class:`LiftedLayout`,
which also says where every state and stage of a sub-window sits in the
stack. A :class:`SubProblem` is a run of consecutive sub-windows, one or all of
them, and :func:`evaluate_stack` evaluates its stack in two model calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError, NonFiniteDataError, PartitionError, check_count, check_shape,
)
from .model import SystemModel

Array = np.ndarray


def inv_sqrt_spd(M: Array, name: str = "matrix") -> Array:
    """Symmetric inverse square root of an SPD matrix via eigendecomposition,
    taken once per distinct matrix; every call returns a new array."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {M.shape}")
    return _inv_sqrt_spd(M.tobytes(), len(M), name).copy()


@lru_cache(maxsize=64)
def _inv_sqrt_spd(data: bytes, n: int, name: str) -> Array:
    M = np.frombuffer(data).reshape(n, n)
    if np.abs(M - M.T).max() > 1e-10 * (1.0 + np.abs(M).max()):
        raise ValueError(f"{name} must be symmetric")
    w, U = np.linalg.eigh(M)
    if w.min() <= 0:
        raise ValueError(f"{name} must be positive definite (min eigenvalue {w.min():.3e})")
    out = (U * (1.0 / np.sqrt(w))) @ U.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True, eq=False)
class LiftedLayout:
    """How ``L`` steps split into ``N`` chained sub-windows of ``nx`` states,
    and where their ``n_states = L + N`` states and stages sit in the lifted
    stack, with ``r = (N - 1) nx`` coupling rows.

    Sub-window ``i`` has ``lengths[i]`` stages, starting at window step
    ``start[i]``, and owns stacked states ``first[i]`` to ``last[i]``; its last
    state and the first state of sub-window ``i + 1`` are two copies of one
    window state. Stage ``k`` (window step ``k``) belongs to sub-window
    ``stage_block[k]`` and links stacked states ``prev[k]`` and
    ``next[k] = prev[k] + 1``. ``measured`` lists one copy of each of the
    ``L + 1`` window states in time order; the duplicated terminal states of
    interior sub-windows carry no measurement. ``time`` maps every stacked
    state to its window state and ``state_block`` to its sub-window, and
    ``eye`` is the ``nx x nx`` identity. ``shapes`` are ``(L + N, nx, nx)``,
    ``(L + N, nx)``, ``(L, nx, nx)``, ``(L, nx)`` and ``(r,)``: per-state blocks
    and rows, per-stage blocks and rows, coupling rows. Arrays are read-only.
    """

    lengths: tuple[int, ...]
    nx: int
    L: int
    N: int
    r: int
    n_states: int
    shapes: tuple[tuple[int, ...], ...]
    start: Array
    first: Array
    last: Array
    stage_block: Array
    prev: Array
    next: Array
    measured: Array
    time: Array
    state_block: Array
    eye: Array

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple((n + 1) * self.nx for n in self.lengths)

    def split(self, stack: Array) -> list[Array]:
        """Per-block flat views of a ``(L + N, ...)`` state stack."""
        return [stack[f:l + 1].reshape(-1) for f, l in zip(self.first, self.last)]


@lru_cache(maxsize=64)
def lifted_layout(lengths: tuple[int, ...], nx: int) -> LiftedLayout:
    """The lifted layout of consecutive sub-windows with the given stage counts
    and ``nx`` states per step."""
    check_count("number of sub-windows", len(lengths), 1, PartitionError)
    lengths = tuple(
        check_count(f"lengths[{i}]", n, 1, PartitionError) for i, n in enumerate(lengths)
    )
    check_count("nx", nx, 1, PartitionError)
    n = np.array(lengths)
    L, N, blocks = sum(lengths), len(lengths), np.arange(n.size)
    start = np.concatenate([[0], np.cumsum(n)[:-1]])
    stage_block = np.repeat(blocks, n)
    prev = np.arange(L) + stage_block
    maps = dict(
        start=start,
        first=start + blocks,
        last=start + blocks + n,
        stage_block=stage_block,
        prev=prev,
        next=prev + 1,
        measured=np.append(prev, L + N - 1),
        time=np.arange(L + N) - np.repeat(blocks, n + 1),
        state_block=np.repeat(blocks, n + 1),
        eye=np.eye(nx),
    )
    for a in maps.values():
        a.flags.writeable = False  # cached and shared by every caller
    shapes = ((L + N, nx, nx), (L + N, nx), (L, nx, nx), (L, nx), ((N - 1) * nx,))
    return LiftedLayout(lengths, nx, L, N, (N - 1) * nx, L + N, shapes, **maps)


def _as_stack(blocks, partition: LiftedLayout) -> Array:
    """The ``(L + N, nx)`` stack of a list of flat blocks of sizes
    ``partition.block_dims``; a 2-D stack passes through after a shape check."""
    if isinstance(blocks, np.ndarray) and blocks.ndim == 2:
        check_shape("blocks stack", blocks, partition.shapes[1])
        return np.asarray(blocks, dtype=float)
    if len(blocks) != partition.N:
        raise DimensionMismatchError(f"{len(blocks)} blocks for {partition.N} sub-windows")
    for i, (block, n) in enumerate(zip(blocks, partition.block_dims)):
        if (shape := np.shape(block)) != (n,):
            raise DimensionMismatchError(f"blocks[{i}] has shape {shape}, expected ({n},)")
    return np.concatenate(blocks, dtype=float).reshape(-1, partition.nx)


def build_partition(L: int, N: int, nx: int) -> LiftedLayout:
    """Split ``L`` steps into ``N`` sub-windows of length ``floor(L/N)`` plus a remainder tail.

    ``N = 1`` yields the degenerate single-window partition with no coupling
    rows, which is how the centralized baseline is represented.
    """
    check_count("L", L, 1, PartitionError)
    check_count("N", N, 1, PartitionError)
    if N > L:
        raise PartitionError(f"sub-window count must satisfy 1 <= N <= L, got N={N}, L={L}")
    t = L // N
    return lifted_layout((t,) * (N - 1) + (L - (N - 1) * t,), nx)


@dataclass(eq=False)
class MheInstance:
    """One estimation window: data, weights, prior anchor, and initial guess.

    ``measurements`` holds the ``L+1`` outputs of the window, ``controls`` the
    ``L`` known inputs, and ``window_start`` the absolute time index of the
    oldest state. ``P`` (``nx x nx``) weights the prior term and ``V``
    (``ny x ny``) every measurement term; both must be symmetric positive
    definite. Every field is converted to a float array and then checked by
    :func:`~splitmhe.errors.check_shape`, so lists of rows are accepted; a NaN
    or infinite entry raises :class:`~splitmhe.errors.NonFiniteDataError`.
    """

    L: int
    window_start: int
    measurements: Array
    controls: Array
    prior: Array
    P: Array
    V: Array
    initial_guess: Array
    model: SystemModel
    p_inv_sqrt: Array = field(init=False, repr=False)
    v_inv_sqrt: Array = field(init=False, repr=False)

    def __post_init__(self):
        m, L = self.model, check_count("L", self.L, 1, DimensionMismatchError)
        shapes = dict(measurements=(L + 1, m.ny), controls=(L, m.nu), prior=(m.nx,),
                      P=(m.nx, m.nx), V=(m.ny, m.ny), initial_guess=(L + 1, m.nx))
        for name, shape in shapes.items():
            setattr(self, name, value := np.asarray(getattr(self, name), dtype=float))
            check_shape(name, value, shape)
            if not np.isfinite(value).all():
                raise NonFiniteDataError(f"{name} must be finite")
        self.p_inv_sqrt = inv_sqrt_spd(self.P, "P")
        self.v_inv_sqrt = inv_sqrt_spd(self.V, "V")


@dataclass(eq=False)
class SubProblem:
    """Evaluation package for a run of consecutive sub-windows of a split horizon.

    The block variable is the run's lifted stack, flat or ``(states, nx)``:
    per sub-window its duplicated initial boundary state, internal states and
    terminal state. ``measured`` lists the stacked states with measurement
    terms, in time order. The run starts at sub-window ``offset`` of
    ``partition``, the whole window's layout, whose coupling rows it shares.
    """

    partition: LiftedLayout
    offset: int
    layout: LiftedLayout
    model: SystemModel
    measured: Array
    measurements: Array
    controls: Array
    prior: Array | None
    p_inv_sqrt: Array | None
    v_inv_sqrt: Array

    @property
    def length(self) -> int:
        return len(self.layout.prev)

    @cached_property
    def block_dim(self) -> int:
        return self.layout.n_states * self.model.nx

    @property
    def constraint_dim(self) -> int:
        return self.length * self.model.nx

    @cached_property
    def has_prior(self) -> bool:
        return self.prior is not None

    @cached_property
    def prior_curvature(self) -> Array:
        """The prior's Gauss-Newton block ``P^-1/2' P^-1/2``."""
        return self.p_inv_sqrt.T @ self.p_inv_sqrt

    @cached_property
    def residual_rows(self) -> Array:
        """First row of each sub-window's residuals in the stacked residual vector."""
        lay, m = self.layout, self.model
        counts = m.ny * np.bincount(lay.state_block[self.measured], minlength=len(lay.lengths))
        counts[0] += m.nx * self.has_prior
        return np.cumsum(counts) - counts

    @cached_property
    def measured_rows(self) -> Array:
        """Per stacked state, its index in ``measured``, or ``len(measured)`` if unmeasured."""
        rows = np.full(self.layout.n_states, len(self.measured))
        rows[self.measured] = np.arange(len(self.measured))
        return rows

    def states(self, X: Array) -> Array:
        """The ``(states, nx)`` stack of a flat block vector, or the stack itself."""
        X = np.asarray(X, dtype=float)
        if (shape := self.layout.shapes[1]) == X.shape:
            return X
        if X.shape != (self.block_dim,):
            raise DimensionMismatchError(f"expected a block of shape {shape} or "
                                         f"({self.block_dim},), got {X.shape}")
        return X.reshape(shape)

    def coupling_matrix(self) -> Array:
        """Dense materialization of the run's signed-identity coupling rows."""
        return self.apply_coupling_transpose(np.eye(self.partition.r)).T

    @cached_property
    def _signed(self) -> Array:
        """Per stacked state, its row of ``[0; lam; -lam]`` in ``A' lam``."""
        p, first = self.partition, self.partition.first[self.offset]
        signed = np.zeros(p.n_states, dtype=int)
        signed[p.last[:-1]] = np.arange(1, p.N)
        signed[p.first[1:]] = np.arange(p.N, 2 * p.N - 1)
        return signed[first:first + self.layout.n_states]

    def apply_coupling_transpose(self, lam: Array) -> Array:
        """``A' lam`` as a flat block vector; a matrix ``lam`` is mapped column by
        column. Coupling block row ``c`` carries ``+I`` on the last state of
        sub-window ``c`` and ``-I`` on the first state of sub-window ``c + 1``."""
        lam = np.asarray(lam, dtype=float)
        rows = lam.reshape((len(lam) // self.model.nx, self.model.nx) + lam.shape[1:])
        table = np.concatenate((np.zeros((1,) + rows.shape[1:]), rows, -rows))
        return table.take(self._signed, 0).reshape((self.block_dim,) + lam.shape[1:])


def subproblem(instance: MheInstance, partition: LiftedLayout, blocks: range) -> SubProblem:
    """The run of consecutive sub-windows ``blocks``, a non-empty step-1 range
    within ``0..N``, of the split instance."""
    if not (
        isinstance(blocks, range) and blocks.step == 1
        and 0 <= blocks.start < blocks.stop <= partition.N
    ):
        raise PartitionError(
            f"blocks must be a non-empty step-1 range within 0..{partition.N}, got {blocks!r}"
        )
    m = instance.model
    if partition.L != instance.L or partition.nx != m.nx:
        raise DimensionMismatchError(
            f"partition built for (L={partition.L}, nx={partition.nx}) does not match "
            f"instance (L={instance.L}, nx={m.nx})"
        )
    layout = lifted_layout(partition.lengths[blocks.start:blocks.stop], m.nx)
    t0 = partition.start[blocks.start]
    t1 = t0 + len(layout.prev)
    is_last = blocks.stop == partition.N
    # an interior run's terminal state is a duplicated boundary: no measurement
    measured = layout.measured if is_last else layout.measured[:-1]
    return SubProblem(
        partition=partition,
        offset=blocks.start,
        layout=layout,
        model=m,
        measured=measured,
        measurements=instance.measurements[t0:t1 + is_last],
        controls=instance.controls[t0:t1],
        prior=instance.prior.copy() if blocks.start == 0 else None,
        p_inv_sqrt=instance.p_inv_sqrt if blocks.start == 0 else None,
        v_inv_sqrt=instance.v_inv_sqrt,
    )


def split_instance(instance: MheInstance, partition: LiftedLayout) -> list[SubProblem]:
    """Build the N one-sub-window problems whose summed objectives and stacked
    constraints reproduce the centralized window problem."""
    return [subproblem(instance, partition, range(i, i + 1)) for i in range(partition.N)]


def _residuals(sub: SubProblem, X: Array, jac: bool = False) -> tuple[Array, Array | None]:
    """``b`` at a ``(states, nx)`` stack, ``P^-1/2 (x_0 - prior)`` first and then
    ``V^-1/2 (h(x) - y)`` per measured state in time order; and with ``jac``
    ``dh_dx`` at those states, from the same model call, else None."""
    Xm = X.take(sub.measured, 0)
    hx, H = sub.model.h_and_jac(Xm) if jac else (sub.model.h(Xm), None)
    b = (hx - sub.measurements).dot(sub.v_inv_sqrt.T).ravel()  # .dot, as in qp_core: @ at less cost
    if sub.has_prior:
        b = np.concatenate((sub.p_inv_sqrt.dot(X[0] - sub.prior), b))
    return b, H


def _defects(sub: SubProblem, X: Array, jac: bool = False) -> tuple[Array, Array | None]:
    """The ``(stages, nx)`` defects ``x_{k+1} - f(x_k, u_k)`` at a stack; and with
    ``jac`` their ``df_dx``, from the same model call, else None."""
    Xp = X.take(sub.layout.prev, 0)
    fx, D = sub.model.f_and_jac(Xp, sub.controls) if jac else (sub.model.f(Xp, sub.controls), None)
    return X.take(sub.layout.next, 0) - fx, D


def residual_vector(sub: SubProblem, X: Array) -> Array:
    """Stacked weighted residuals (prior term first, then measurement terms)."""
    return _residuals(sub, sub.states(X))[0]


def eval_residual_stack(sub: SubProblem, X: Array) -> tuple[Array, Array]:
    """Stacked weighted residuals and their exact Jacobian.

    The least-squares data of the sub-problem follow directly: the objective is
    ``0.5 * ||b||^2``, its gradient ``J.T @ b`` and its Gauss-Newton Hessian
    ``J.T @ J``.
    """
    b, H = _residuals(sub, sub.states(X), jac=True)
    m, measured = sub.model, sub.measured
    J = np.zeros((b.size, sub.block_dim))
    row = m.nx * sub.has_prior
    if sub.has_prior:
        J[:row, :row] = sub.p_inv_sqrt
    # measurement k's rows touch only state measured[k]
    Jm = J[row:].reshape(len(measured), m.ny, sub.layout.n_states, m.nx)
    Jm[np.arange(len(measured)), :, measured] = sub.v_inv_sqrt @ H
    return b, J


def constraint_vector(sub: SubProblem, X: Array) -> Array:
    """Dynamics defects ``x_{k+1} - f(x_k, u_k)`` over the run's stages."""
    return _defects(sub, sub.states(X))[0].reshape(-1)


# The dense stage Jacobian, like the lifted layout, needs no scipy, which this
# module does not import: with scipy imported from inside it, `import splitmhe`
# in a fresh interpreter took about 10 % longer.


def stage_constraint_matrix(layout: LiftedLayout, D: Array) -> Array:
    """Dense Jacobian of a run's stages: block row ``k`` holds ``-D_k`` on state
    ``prev[k]`` and ``I`` on state ``next[k]``."""
    t, nx, _ = D.shape
    C = np.zeros((t, nx, layout.n_states, nx))
    k = np.arange(t)
    C[k, :, layout.prev, :] = -D
    C[k, :, layout.next, :] = np.eye(nx)
    return C.reshape(t * nx, layout.n_states * nx)


class StageEvaluation(NamedTuple):
    """Residual and dynamics data of consecutive lifted states, per state and stage.

    ``b`` stacks the weighted residuals, prior term first and then the measured
    states in time order, so the objective is ``0.5 * b @ b``. Every residual
    touches one state, so ``g`` ``(states, nx)`` holds the gradient ``J' b`` and
    ``W`` ``(states, nx, nx)`` the Gauss-Newton blocks ``J' J`` state by state,
    each exactly symmetric. ``F`` ``(stages, nx)`` holds the dynamics defects
    and ``D`` ``(stages, nx, nx)`` their Jacobians ``df/dx``.
    """

    b: Array
    g: Array
    W: Array
    F: Array
    D: Array


def evaluate_stack(sub: SubProblem, X: Array) -> StageEvaluation:
    """:class:`StageEvaluation` of a run of sub-windows at its stack ``X`` in two
    model calls, ``h_and_jac`` and ``f_and_jac``, for one sub-window or the whole
    window. On the whole window ``b`` is the centralized residual vector of the
    trajectory that the measured states form, and under a diagonal ``V`` only it
    equals the per-block rows bit for bit (numpy takes a one-row product through
    another BLAS kernel). Measured states' ``[b, J]' J`` fill a buffer with one
    trailing zero row, spread by a ``take`` of ``measured_rows`` per part."""
    X, model = sub.states(X), sub.model
    (b, H), (F, D) = _residuals(sub, X, jac=True), _defects(sub, X, jac=True)
    Jm = sub.v_inv_sqrt @ H
    nx, k, rows = model.nx, model.nx * sub.has_prior, sub.measured_rows
    gW = np.zeros((len(H) + 1, nx + 1, nx))
    # [b, J]' J as one product on a contiguous [b, J]', bit for bit b'J and J'J taken
    # apart; the output by position, as ufuncs parse keywords slower
    bJ = np.concatenate((b[k:].reshape(-1, 1, model.ny), Jm.swapaxes(1, 2)), 1)
    np.matmul(bJ, Jm, gW[:-1])
    g, W = gW[:, 0].take(rows, 0), gW[:, 1:].take(rows, 0)
    if k:
        g[0] += sub.p_inv_sqrt.T.dot(b[:k])
        W[0] += sub.prior_curvature
    return StageEvaluation(b, g, W, F, D)


def eval_constraints(sub: SubProblem, X: Array) -> tuple[Array, Array]:
    """Dynamics defects and their exact Jacobian with respect to the block,
    whose block row ``k`` is ``[-D_k, I]`` with ``D_k = df/dx(x_k, u_k)``."""
    F, D = _defects(sub, sub.states(X), jac=True)
    return F.reshape(-1), stage_constraint_matrix(sub.layout, D)


def sub_objective(sub: SubProblem, X: Array) -> float:
    """Local least-squares objective ``0.5 * ||b||^2``."""
    b = residual_vector(sub, X)
    return float(0.5 * b @ b)


def coupling_residual(partition: LiftedLayout, blocks) -> Array:
    """Stacked boundary mismatches; zero exactly at consensus.

    ``blocks`` is a list of block vectors or the lifted ``(L + N, nx)`` stack.
    """
    stack = _as_stack(blocks, partition)
    return (stack.take(partition.last[:-1], 0) - stack.take(partition.first[1:], 0)).ravel()


def lift_initial_guess(trajectory: Array, partition: LiftedLayout) -> list[Array]:
    """Duplicate boundary states of a window trajectory into consecutive blocks."""
    return partition.split(lift(trajectory, partition))


def lift(trajectory: Array, partition: LiftedLayout) -> Array:
    """The lifted ``(L + N, nx)`` stack of a window trajectory."""
    return _trajectory(trajectory, partition.L, partition.nx).take(partition.time, 0)


def extract_trajectory(blocks, partition: LiftedLayout) -> tuple[Array, float]:
    """Collapse blocks back to a window trajectory, averaging duplicated boundaries.

    ``blocks`` is a list of block vectors or the lifted stack. Returns the
    trajectory and the max boundary mismatch (infinity norm of the coupling
    residual); the two deduplication choices coincide at consensus.
    """
    stack = _as_stack(blocks, partition)
    trajectory = stack.take(partition.measured, 0)
    mismatch = 0.0
    if partition.N > 1:
        ends, starts = stack.take(partition.last[:-1], 0), stack.take(partition.first[1:], 0)
        trajectory[partition.start[1:]] = (ends + starts) / 2.0
        mismatch = float(np.abs(ends - starts).max())
    return trajectory, mismatch


def _trajectory(trajectory: Array, L: int, nx: int) -> Array:
    """``trajectory`` as a float ``(L + 1, nx)`` array; raise if it is not one."""
    x = np.asarray(trajectory, dtype=float)
    check_shape("trajectory", x, (L + 1, nx))
    return x


def centralized_objective(instance: MheInstance, trajectory: Array) -> float:
    """Window objective: prior penalty plus all weighted measurement penalties (one V solve)."""
    x = _trajectory(trajectory, instance.L, instance.model.nx)
    dx = x[0] - instance.prior
    dy = instance.model.h(x) - instance.measurements
    meas = (dy * np.linalg.solve(instance.V, dy.T).T).sum(axis=1)
    return float(0.5 * dx @ np.linalg.solve(instance.P, dx) + 0.5 * meas.sum())


def centralized_kkt_residual(instance: MheInstance, trajectory: Array) -> float:
    """First-order optimality certificate of the centralized window problem.

    Fits least-squares multipliers for the dynamics constraints at the given
    trajectory and returns the max of the stationarity and feasibility
    infinity norms. Independent of any solver state: only the trajectory and
    the window data enter.
    """
    m = instance.model
    x = _trajectory(trajectory, instance.L, instance.model.nx)
    dy = (m.h(x) - instance.measurements)[..., None]
    grad = (np.swapaxes(m.dh_dx(x), 1, 2) @ np.linalg.solve(instance.V, dy))[..., 0]
    grad[0] += np.linalg.solve(instance.P, x[0] - instance.prior)
    grad = grad.reshape(-1)
    F = x[1:] - m.f(x[:-1], instance.controls)
    D = m.df_dx(x[:-1], instance.controls)
    C = stage_constraint_matrix(lifted_layout((instance.L,), m.nx), D)
    nu, *_ = np.linalg.lstsq(C.T, -grad, rcond=None)
    stationarity = grad + C.T @ nu
    return float(max(np.abs(stationarity).max(), np.abs(F).max()))
