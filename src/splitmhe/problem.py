"""Horizon windows, time-split sub-problems, and coupling bookkeeping.

A window of ``L`` dynamics steps is split into ``N`` consecutive sub-windows;
the first ``N-1`` have ``t = L // N`` steps and the last has the remainder.
Each sub-window owns a duplicated copy of its boundary states, and consensus
between the duplicates is imposed through signed-identity coupling rows: block
row ``c`` of the stacked coupling reads ``(terminal state of sub-window c+1)
minus (initial state of sub-window c+2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, PartitionError
from .model import SystemModel

Array = np.ndarray


def inv_sqrt_spd(M: Array, name: str = "matrix") -> Array:
    """Symmetric inverse square root of an SPD matrix via eigendecomposition."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {M.shape}")
    if np.abs(M - M.T).max() > 1e-10 * (1.0 + np.abs(M).max()):
        raise ValueError(f"{name} must be symmetric")
    w, U = np.linalg.eigh(M)
    if w.min() <= 0:
        raise ValueError(f"{name} must be positive definite (min eigenvalue {w.min():.3e})")
    out = (U * (1.0 / np.sqrt(w))) @ U.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class Partition:
    """Index bookkeeping for a horizon split into N consecutive sub-windows."""

    L: int
    N: int
    nx: int
    t: int
    t_last: int
    starts: tuple[int, ...]
    lengths: tuple[int, ...]
    block_dims: tuple[int, ...]
    constraint_dims: tuple[int, ...]

    @property
    def r(self) -> int:
        """Number of coupling rows: one state block per interior boundary."""
        return (self.N - 1) * self.nx


def build_partition(L: int, N: int, nx: int) -> Partition:
    """Split ``L`` steps into ``N`` sub-windows of length ``floor(L/N)`` plus a remainder tail.

    ``N = 1`` yields the degenerate single-window partition with no coupling
    rows, which is how the centralized baseline is represented.
    """
    if N < 1 or N > L:
        raise PartitionError(f"sub-window count must satisfy 1 <= N <= L, got N={N}, L={L}")
    if nx < 1:
        raise PartitionError(f"state dimension must be positive, got nx={nx}")
    t = L // N
    t_last = L - (N - 1) * t
    lengths = (t,) * (N - 1) + (t_last,)
    starts = tuple(i * t for i in range(N))
    return Partition(
        L=L,
        N=N,
        nx=nx,
        t=t,
        t_last=t_last,
        starts=starts,
        lengths=lengths,
        block_dims=tuple((ln + 1) * nx for ln in lengths),
        constraint_dims=tuple(ln * nx for ln in lengths),
    )


@dataclass(eq=False)
class MheInstance:
    """One estimation window: data, weights, prior anchor, and initial guess.

    ``measurements`` holds the ``L+1`` outputs of the window, ``controls`` the
    ``L`` known inputs, and ``window_start`` the absolute time index of the
    oldest state. ``P`` weights the prior term and ``V`` every measurement
    term; both must be symmetric positive definite.
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
        m = self.model
        self.measurements = np.atleast_2d(np.asarray(self.measurements, dtype=float))
        self.controls = np.atleast_2d(np.asarray(self.controls, dtype=float))
        self.prior = np.asarray(self.prior, dtype=float)
        self.initial_guess = np.atleast_2d(np.asarray(self.initial_guess, dtype=float))
        self.P = np.asarray(self.P, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        if self.L < 1:
            raise DimensionMismatchError(f"horizon length must be >= 1, got {self.L}")
        if self.measurements.shape != (self.L + 1, m.ny):
            raise DimensionMismatchError(
                f"measurements must be ({self.L + 1}, {m.ny}), got {self.measurements.shape}"
            )
        if self.controls.shape != (self.L, m.nu):
            raise DimensionMismatchError(
                f"controls must be ({self.L}, {m.nu}), got {self.controls.shape}"
            )
        if self.prior.shape != (m.nx,):
            raise DimensionMismatchError(f"prior must be ({m.nx},), got {self.prior.shape}")
        if self.initial_guess.shape != (self.L + 1, m.nx):
            raise DimensionMismatchError(
                f"initial guess must be ({self.L + 1}, {m.nx}), got {self.initial_guess.shape}"
            )
        self.p_inv_sqrt = inv_sqrt_spd(self.P, "P")
        self.v_inv_sqrt = inv_sqrt_spd(self.V, "V")


@dataclass(eq=False)
class SubProblem:
    """Evaluation package for one sub-window of a split horizon.

    The block variable stacks ``length + 1`` states: the duplicated initial
    boundary state, the internal states, and the terminal state (a duplicated
    boundary for interior sub-windows, the newest window state for the last
    one). ``meas_offsets`` lists which block states carry measurement terms.
    """

    index: int  # 1-based sub-window index
    partition: Partition
    model: SystemModel
    length: int
    measurements: Array
    meas_offsets: tuple[int, ...]
    controls: Array
    has_prior: bool
    has_terminal_measurement: bool
    prior: Array | None
    p_inv_sqrt: Array | None
    v_inv_sqrt: Array
    plus_row: int | None  # coupling block row carrying +I on the terminal state
    minus_row: int | None  # coupling block row carrying -I on the initial state

    @property
    def block_dim(self) -> int:
        return (self.length + 1) * self.model.nx

    @property
    def constraint_dim(self) -> int:
        return self.length * self.model.nx

    @property
    def residual_dim(self) -> int:
        n_meas = len(self.meas_offsets) * self.model.ny
        return n_meas + (self.model.nx if self.has_prior else 0)

    def states(self, X: Array) -> Array:
        return np.asarray(X, dtype=float).reshape(self.length + 1, self.model.nx)

    def coupling_matrix(self) -> Array:
        """Dense materialization of this block's signed-identity coupling rows."""
        nx = self.model.nx
        A = np.zeros((self.partition.r, self.block_dim))
        if self.plus_row is not None:
            A[self.plus_row * nx:(self.plus_row + 1) * nx, self.block_dim - nx:] = np.eye(nx)
        if self.minus_row is not None:
            A[self.minus_row * nx:(self.minus_row + 1) * nx, :nx] = -np.eye(nx)
        return A

    def apply_coupling(self, X: Array) -> Array:
        """Structural product of the coupling rows with a block vector."""
        nx = self.model.nx
        out = np.zeros(self.partition.r)
        if self.plus_row is not None:
            out[self.plus_row * nx:(self.plus_row + 1) * nx] = X[self.block_dim - nx:]
        if self.minus_row is not None:
            out[self.minus_row * nx:(self.minus_row + 1) * nx] = -X[:nx]
        return out

    def apply_coupling_transpose(self, lam: Array) -> Array:
        """``A' lam``; a matrix ``lam`` is mapped column by column."""
        nx = self.model.nx
        out = np.zeros((self.block_dim,) + np.shape(lam)[1:])
        if self.plus_row is not None:
            out[self.block_dim - nx:] = lam[self.plus_row * nx:(self.plus_row + 1) * nx]
        if self.minus_row is not None:
            out[:nx] = -lam[self.minus_row * nx:(self.minus_row + 1) * nx]
        return out


def split_instance(instance: MheInstance, partition: Partition) -> list[SubProblem]:
    """Build the N sub-problems whose summed objectives and stacked constraints
    reproduce the centralized window problem."""
    m = instance.model
    if partition.L != instance.L or partition.nx != m.nx:
        raise DimensionMismatchError(
            f"partition built for (L={partition.L}, nx={partition.nx}) does not match "
            f"instance (L={instance.L}, nx={m.nx})"
        )
    subs = []
    for i in range(1, partition.N + 1):
        start = partition.starts[i - 1]
        length = partition.lengths[i - 1]
        is_last = i == partition.N
        # interior sub-windows measure their first `length` states; the last one
        # additionally measures the terminal (newest) state of the window
        offsets = tuple(range(length + 1)) if is_last else tuple(range(length))
        subs.append(
            SubProblem(
                index=i,
                partition=partition,
                model=m,
                length=length,
                measurements=instance.measurements[[start + off for off in offsets]],
                meas_offsets=offsets,
                controls=instance.controls[start:start + length],
                has_prior=(i == 1),
                has_terminal_measurement=is_last,
                prior=instance.prior.copy() if i == 1 else None,
                p_inv_sqrt=instance.p_inv_sqrt if i == 1 else None,
                v_inv_sqrt=instance.v_inv_sqrt,
                plus_row=(i - 1) if i < partition.N else None,
                minus_row=(i - 2) if i >= 2 else None,
            )
        )
    return subs


def _check_block(sub: SubProblem, X: Array) -> Array:
    X = np.asarray(X, dtype=float)
    if X.shape != (sub.block_dim,):
        raise DimensionMismatchError(
            f"sub-window {sub.index} expects a block of shape ({sub.block_dim},), got {X.shape}"
        )
    return X


def residual_vector(sub: SubProblem, X: Array) -> Array:
    """Stacked weighted residuals (prior term first, then measurement terms)."""
    states = sub.states(_check_block(sub, X))
    dy = sub.model.h(states[list(sub.meas_offsets)]) - sub.measurements
    b = (sub.v_inv_sqrt @ dy[..., None])[..., 0].reshape(-1)
    if sub.has_prior:
        b = np.concatenate([sub.p_inv_sqrt @ (states[0] - sub.prior), b])
    return b


def eval_residual_stack(sub: SubProblem, X: Array) -> tuple[Array, Array]:
    """Stacked weighted residuals and their exact Jacobian.

    The least-squares data of the sub-problem follow directly: the objective is
    ``0.5 * ||b||^2``, its gradient ``J.T @ b`` and its Gauss-Newton Hessian
    ``J.T @ J``.
    """
    b = residual_vector(sub, X)
    states = sub.states(X)
    m = sub.model
    offsets = list(sub.meas_offsets)
    J = np.zeros((sub.residual_dim, sub.block_dim))
    row = 0
    if sub.has_prior:
        J[:m.nx, :m.nx] = sub.p_inv_sqrt
        row = m.nx
    # measurement k's rows touch only state meas_offsets[k]
    Jm = J[row:].reshape(len(offsets), m.ny, sub.length + 1, m.nx)
    Jm[np.arange(len(offsets)), :, offsets] = sub.v_inv_sqrt @ m.dh_dx(states[offsets])
    return b, J


def constraint_vector(sub: SubProblem, X: Array) -> Array:
    """Dynamics defects ``x_{k+1} - f(x_k, u_k)`` over the sub-window."""
    states = sub.states(_check_block(sub, X))
    return (states[1:] - sub.model.f(states[:-1], sub.controls)).reshape(-1)


# Layout of the stage form, shared with qp_core.StageBlock. It lives here, not
# in qp_core, so that importing this module does not import scipy: with scipy
# imported from inside this module, `import splitmhe` in a fresh interpreter
# took about 10 % longer.


def block_diagonal_matrix(blocks: Array) -> Array:
    """Dense matrix with the ``(k, nx, nx)`` stack ``blocks`` on its diagonal."""
    k, nx, _ = blocks.shape
    out = np.zeros((k, nx, k, nx))
    idx = np.arange(k)
    out[idx, :, idx, :] = blocks
    return out.reshape(k * nx, k * nx)


def stage_constraint_matrix(D: Array) -> Array:
    """Dense block-bidiagonal Jacobian whose block row ``k`` is ``[-D_k, I]``."""
    t, nx, _ = D.shape
    C = np.zeros((t, nx, t + 1, nx))
    k = np.arange(t)
    C[k, :, k, :] = -D
    C[k, :, k + 1, :] = np.eye(nx)
    return C.reshape(t * nx, (t + 1) * nx)


def stage_constraint_transpose(D: Array, mu: Array) -> Array:
    """``C' mu`` for the block rows ``[-D_k, I]``, without forming ``C``."""
    t, nx, _ = D.shape
    mu = np.asarray(mu, dtype=float).reshape(t, nx)
    out = np.zeros((t + 1, nx))
    out[:-1] = -(np.swapaxes(D, 1, 2) @ mu[:, :, None])[..., 0]
    out[1:] += mu
    return out.reshape(-1)


def eval_constraint_stages(sub: SubProblem, X: Array) -> tuple[Array, Array]:
    """Dynamics defects and the per-stage Jacobians ``D_k = df/dx(x_k, u_k)``.

    Block row ``k`` of the constraint Jacobian is ``[-D_k, I]`` on states
    ``k`` and ``k + 1``; ``D`` has shape ``(length, nx, nx)``.
    """
    F = constraint_vector(sub, X)
    return F, sub.model.df_dx(sub.states(X)[:-1], sub.controls)


def eval_constraints(sub: SubProblem, X: Array) -> tuple[Array, Array]:
    """Dynamics defects and their exact Jacobian with respect to the block."""
    F, D = eval_constraint_stages(sub, X)
    return F, stage_constraint_matrix(D)


def sub_objective(sub: SubProblem, X: Array) -> float:
    """Local least-squares objective ``0.5 * ||b||^2``."""
    b = residual_vector(sub, X)
    return float(0.5 * b @ b)


def coupling_residual(partition: Partition, blocks: list[Array]) -> Array:
    """Stacked boundary mismatches; zero exactly at consensus."""
    if len(blocks) != partition.N:
        raise DimensionMismatchError(f"expected {partition.N} blocks, got {len(blocks)}")
    nx = partition.nx
    out = np.zeros(partition.r)
    for c in range(partition.N - 1):
        terminal = np.asarray(blocks[c])[-nx:]
        initial = np.asarray(blocks[c + 1])[:nx]
        out[c * nx:(c + 1) * nx] = terminal - initial
    return out


def lift_initial_guess(trajectory: Array, partition: Partition) -> list[Array]:
    """Duplicate boundary states of a window trajectory into consecutive blocks."""
    trajectory = np.atleast_2d(np.asarray(trajectory, dtype=float))
    if trajectory.shape != (partition.L + 1, partition.nx):
        raise DimensionMismatchError(
            f"trajectory must be ({partition.L + 1}, {partition.nx}), got {trajectory.shape}"
        )
    blocks = []
    for start, length in zip(partition.starts, partition.lengths):
        blocks.append(trajectory[start:start + length + 1].reshape(-1).copy())
    return blocks


def extract_trajectory(blocks: list[Array], partition: Partition) -> tuple[Array, float]:
    """Collapse blocks back to a window trajectory, averaging duplicated boundaries.

    Returns the trajectory and the max boundary mismatch (infinity norm of the
    coupling residual); the two deduplication choices coincide at consensus.
    """
    nx = partition.nx
    total = np.zeros((partition.L + 1, nx))
    counts = np.zeros(partition.L + 1)
    for block, start, length in zip(blocks, partition.starts, partition.lengths):
        states = np.asarray(block, dtype=float).reshape(length + 1, nx)
        total[start:start + length + 1] += states
        counts[start:start + length + 1] += 1.0
    mismatch = 0.0
    if partition.N > 1:
        mismatch = float(np.abs(coupling_residual(partition, blocks)).max())
    return total / counts[:, None], mismatch


def _window_states(instance: MheInstance, trajectory: Array) -> Array:
    x = np.atleast_2d(np.asarray(trajectory, dtype=float))
    if x.shape != (instance.L + 1, instance.model.nx):
        raise DimensionMismatchError(
            f"trajectory must be ({instance.L + 1}, {instance.model.nx}), got {x.shape}"
        )
    return x


def centralized_objective(instance: MheInstance, trajectory: Array) -> float:
    """Window objective: prior penalty plus all weighted measurement penalties."""
    x = _window_states(instance, trajectory)
    dx = x[0] - instance.prior
    dy = (instance.model.h(x) - instance.measurements)[..., None]
    meas = np.swapaxes(dy, 1, 2) @ np.linalg.solve(instance.V, dy)
    return float(0.5 * dx @ np.linalg.solve(instance.P, dx) + 0.5 * meas.sum())


def centralized_kkt_residual(instance: MheInstance, trajectory: Array) -> float:
    """First-order optimality certificate of the centralized window problem.

    Fits least-squares multipliers for the dynamics constraints at the given
    trajectory and returns the max of the stationarity and feasibility
    infinity norms. Independent of any solver state: only the trajectory and
    the window data enter.
    """
    m = instance.model
    x = _window_states(instance, trajectory)
    dy = (m.h(x) - instance.measurements)[..., None]
    grad = (np.swapaxes(m.dh_dx(x), 1, 2) @ np.linalg.solve(instance.V, dy))[..., 0]
    grad[0] += np.linalg.solve(instance.P, x[0] - instance.prior)
    grad = grad.reshape(-1)
    F = x[1:] - m.f(x[:-1], instance.controls)
    C = stage_constraint_matrix(m.df_dx(x[:-1], instance.controls))
    nu, *_ = np.linalg.lstsq(C.T, -grad, rcond=None)
    stationarity = grad + C.T @ nu
    return float(max(np.abs(stationarity).max(), np.abs(F).max()))
