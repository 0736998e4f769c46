"""Exception hierarchy for the solver toolkit, with :func:`check_count`, the one
rule for every count the package takes (lengths, budgets, dimensions, seeds),
:func:`check_real`, the one rule for its real-valued inputs, and
:func:`check_shape`, the one rule for its fixed-shape array inputs."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


class SplitMheError(Exception):
    """Base class for all toolkit errors."""


class OriginSingularityError(SplitMheError):
    """Range/bearing observation evaluated too close to the sensor origin;
    `state` indexes the first offending point handed to the model, if known."""

    state: int | None = None


class PartitionError(SplitMheError):
    """Invalid horizon partition (sub-window count out of range)."""


class DimensionMismatchError(SplitMheError):
    """Array dimensions inconsistent with the declared problem sizes."""


class ScenarioError(SplitMheError):
    """Scenario generation or scenario-file parsing failed."""


class FactorizationError(SplitMheError):
    """A required matrix factorization failed; `block_index` names the block
    when the failure is block-local."""

    def __init__(self, message: str, block_index: int | None = None):
        super().__init__(message)
        self.block_index = block_index


class NonFiniteDataError(FactorizationError):
    """QP data handed to a factorization, or the data of an estimation window,
    contains NaN or infinite entries."""


class NotPositiveDefiniteError(FactorizationError):
    """A block Hessian, or a stage stack's reduced Hessian, is not positive
    definite."""


class RankDeficientConstraintsError(FactorizationError):
    """A block constraint Jacobian is not full row rank."""


class SingularKktError(FactorizationError):
    """An assembled KKT matrix, or the coupling Schur matrix, is singular or
    numerically near-singular."""


class LocalSolveError(FactorizationError):
    """A local KKT system of the inner sub-problem solver is singular."""


def check_count(name: str, value, least: int, error: type[Exception] = ValueError) -> int:
    """``value`` as an ``int`` if it is an integer of at least ``least``, and not a
    ``bool``; else raise ``error("<name> must be an integer >= <least>, got <value!r>")``."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def check_real(name: str, value, error: type[Exception] = ValueError, zero: bool = False) -> None:
    """Raise ``error("<name> must be positive and finite, got <value!r>")`` unless
    ``value`` is a real number, not a ``bool``, in ``(0, inf)``; with ``zero``, in ``[0, inf)``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (zero or value != 0) and 0 <= value < math.inf):
        bound = "nonnegative" if zero else "positive"
        raise error(f"{name} must be {bound} and finite, got {value!r}")


def check_shape(name: str, value, shape: tuple, error: type[Exception] = DimensionMismatchError):
    """Raise ``error("<name> must be an array of shape <shape>, got <got>")``
    unless ``value`` is a numpy array of exactly ``shape``; ``got`` is its
    shape, or the type name of anything else. Converts nothing."""
    if not isinstance(value, np.ndarray) or value.shape != shape:
        got = value.shape if isinstance(value, np.ndarray) else type(value).__name__
        raise error(f"{name} must be an array of shape {shape}, got {got}")
