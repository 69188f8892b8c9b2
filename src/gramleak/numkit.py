"""Small dense linear-algebra kernel shared by the simulator, attack, and solver.

Matrices are plain 2-D float64 numpy arrays and vectors are 1-D arrays; numpy
supplies storage and products. Solve and rank share one hand-rolled Gaussian
elimination with partial pivoting, so that rank deficiency, integrality and
non-finite input surface as typed errors carrying the diagnostics the recovery
pipeline needs. Everything here is a pure function over its inputs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PIVOT_TOL = 1e-10
DEFAULT_INTEGRALITY_TOL = 1e-6


class DimensionMismatch(ValueError):
    """Operand shapes do not line up."""


class RankDeficient(ArithmeticError):
    """A linear system had fewer independent equations than unknowns.

    ``rank`` carries the numeric rank of the offending matrix.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class NonFinite(ValueError):
    """An input holds NaN or inf, which no exact recovery can explain."""


class NotIntegral(ArithmeticError):
    """A matrix expected to be integral has an entry too far from any integer."""

    def __init__(self, message: str, worst_value: float, distance: float):
        super().__init__(message)
        self.worst_value = worst_value
        self.distance = distance


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"array of shape {a.shape} holds NaN or inf")
    return a


def as_matrix(values) -> np.ndarray:
    """Coerce to a finite float64 matrix with at least one row and one column."""
    a = np.array(values, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"matrix needs at least one row and column, got {a.shape}")
    return _finite(a)


def as_vector(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    if a.ndim != 1 or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a non-empty 1-D array, got shape {a.shape}")
    return _finite(a)


def _eliminate(work: np.ndarray, cols: int, tol: float) -> int:
    """Row-reduce ``work`` in place, pivoting only on its first ``cols`` columns.

    Returns the rank of those columns; with full rank, column c pivots in row c.
    """
    rows = work.shape[0]
    scale = float(np.max(np.abs(work[:, :cols])))
    if scale == 0.0:
        return 0
    threshold = tol * scale
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = r + int(np.argmax(np.abs(work[r:, c])))
        if abs(work[p, c]) < threshold:
            continue
        if p != r:
            work[[r, p]] = work[[p, r]]
        factors = work[r + 1 :, c] / work[r, c]
        work[r + 1 :, c:] -= np.outer(factors, work[r, c:])
        r += 1
    return r


def solve_linear(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_PIVOT_TOL) -> np.ndarray:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    ``b`` is one right-hand side or a matrix of them, one per column, and ``x``
    has its shape; ``[a | b]`` is eliminated once. ``a`` may have more rows
    than columns. ``x`` satisfies the pivot equations exactly, so callers that
    care about inconsistency inspect the residual ``a @ x - b`` themselves. A
    pivot below ``tol`` times the largest entry of ``a`` raises
    :class:`RankDeficient` carrying the rank of ``a``.
    """
    a = as_matrix(a)
    b = as_vector(b) if np.ndim(b) == 1 else as_matrix(b)
    rows, cols = a.shape
    if rows < cols:
        raise DimensionMismatch(f"underdetermined system: {rows} rows for {cols} unknowns")
    if b.shape[0] != rows:
        raise DimensionMismatch(f"rhs length {b.shape[0]} does not match {rows} rows")
    aug = np.column_stack([a, b])
    r = _eliminate(aug, cols, tol)
    if r < cols:
        raise RankDeficient(f"rank {r} below {cols} unknowns (tol {tol:.1e})", rank=r)
    # One right-hand side at a time, with a single solve's dot product, so each
    # column of the result is bitwise what solving for it alone gives.
    out = np.empty((aug.shape[1] - cols, cols))
    for j, x in enumerate(out):
        for c in range(cols - 1, -1, -1):
            x[c] = (aug[c, cols + j] - aug[c, c + 1 : cols] @ x[c + 1 : cols]) / aug[c, c]
    return out[0] if b.ndim == 1 else out.T


def rank(m: np.ndarray, tol: float = DEFAULT_PIVOT_TOL) -> int:
    """Numeric rank by pivoted elimination with relative tolerance ``tol``."""
    work = as_matrix(m)
    return _eliminate(work, work.shape[1], tol)


def round_integral(m: np.ndarray, tol: float = DEFAULT_INTEGRALITY_TOL) -> np.ndarray:
    """Round every entry to the nearest integer, returning an int64 array.

    Fails with :class:`NotIntegral` if any entry sits further than ``tol``
    from its nearest integer; the error names the worst offender, and NaN or
    inf raises :class:`NonFinite`. Accepts arrays of any shape, so it rounds
    vectors as well as matrices.
    """
    a = _finite(np.asarray(m, dtype=float))
    rounded = np.rint(a)
    dist = np.abs(a - rounded)
    worst = int(np.argmax(dist))
    worst_dist = float(dist.flat[worst])
    if worst_dist > tol:
        value = float(a.flat[worst])
        idx = np.unravel_index(worst, a.shape)
        raise NotIntegral(
            f"entry {value!r} at {tuple(int(i) for i in idx)} is {worst_dist:.3e} "
            f"from an integer (tol {tol:.3e})",
            worst_value=value,
            distance=worst_dist,
        )
    return rounded.astype(np.int64)
