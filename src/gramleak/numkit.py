"""Small dense linear-algebra kernel shared by the simulator, attack, and solver.

Matrices are plain 2-D float64 numpy arrays and vectors are 1-D arrays; numpy
supplies storage and products. Rank and solve share one hand-rolled Gaussian
elimination with partial pivoting, so that rank deficiency, integrality and
non-finite input surface as typed errors carrying the diagnostics the recovery
pipeline needs; its pivots do not depend on the BLAS. Solve then hands the
pivot rows and every right-hand side to one LAPACK call, whose last bits may
move with the BLAS build and thread count. Everything here is a pure function
over its inputs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PIVOT_TOL = 1e-10  # relative pivot bound of every elimination: solve_linear and rank
INT64_BOUND = 2.0**63  # no int64 holds a value of this magnitude or more


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
    """A matrix expected to be integral has an entry too far from any integer.

    An integer too large for an int64 counts as too far as well.
    """

    def __init__(self, message: str, worst_value: float, distance: float):
        super().__init__(message)
        self.worst_value = worst_value
        self.distance = distance


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
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


def as_vector_or_matrix(values) -> np.ndarray:
    """``as_vector`` for a 1-D input, else ``as_matrix``: one vector or a stack of them."""
    return as_vector(values) if np.ndim(values) == 1 else as_matrix(values)


def _eliminate(work: np.ndarray) -> np.ndarray:
    """Row-reduce ``work`` in place by Gaussian elimination with partial pivoting.

    A column whose best pivot is below ``DEFAULT_PIVOT_TOL`` times the largest entry
    is skipped. Returns the pivot rows, as indices into the rows ``work`` had on entry;
    their count is the rank. Entries below a pivot go stale, as no step reads them.
    """
    rows, cols = work.shape
    order = list(range(rows))
    scale = float(np.abs(work).max())
    if scale == 0.0:
        return np.array([], dtype=np.intp)
    threshold = DEFAULT_PIVOT_TOL * scale
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = r + int(np.abs(work[r:, c]).argmax())
        if abs(work[p, c]) < threshold:
            continue
        if p != r:
            pivot_row = work[p].copy()
            work[p] = work[r]
            work[r] = pivot_row
            order[r], order[p] = order[p], order[r]
        block = work[r + 1 :, c + 1 :]
        block -= np.multiply.outer(work[r + 1 :, c] / work[r, c], work[r, c + 1 :])
        r += 1
    return np.array(order[:r], dtype=np.intp)


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` on the rows where Gaussian elimination pivots.

    ``b`` is one right-hand side or a matrix of them, one per column, and ``x``
    has its shape. ``a`` may have more rows than columns. Elimination with
    partial pivoting of ``a`` alone picks one pivot row per column; a pivot
    below ``DEFAULT_PIVOT_TOL`` times the largest entry of ``a`` raises
    :class:`RankDeficient` carrying the rank of ``a``. LAPACK then solves the
    square system of the pivot rows for all of ``b`` at once; the last bits of
    ``x`` may move with the BLAS build and thread count. ``x`` fits only the
    pivot equations, so callers that care about inconsistency inspect the
    residual ``a @ x - b`` themselves. An inf or NaN in ``x`` raises :class:`NonFinite`.
    """
    a = as_matrix(a)
    b = as_vector_or_matrix(b)
    rows, cols = a.shape
    if rows < cols:
        raise DimensionMismatch(f"underdetermined system: {rows} rows for {cols} unknowns")
    if b.shape[0] != rows:
        raise DimensionMismatch(f"rhs length {b.shape[0]} does not match {rows} rows")
    pivots = _eliminate(a.copy())
    if pivots.size < cols:
        raise RankDeficient(
            f"rank {pivots.size} below {cols} unknowns (tol {DEFAULT_PIVOT_TOL:.1e})",
            rank=pivots.size,
        )
    return _finite(np.linalg.solve(a[pivots], b[pivots]))


def rank(m: np.ndarray) -> int:
    """Numeric rank: the pivot count of the elimination that ``solve_linear`` runs."""
    return _eliminate(as_matrix(m)).size


def round_integral(m: np.ndarray, tol: float) -> np.ndarray:
    """Round every entry to the nearest integer, returning an int64 array.

    Fails with :class:`NotIntegral` if any entry sits further than ``tol``
    from its nearest integer, naming the worst offender, or if any entry is
    too large for an int64; NaN or inf raises :class:`NonFinite`. Accepts
    arrays of any shape, so it rounds vectors as well as matrices, and an
    empty array gives an empty one. An integer array that fits int64 is
    converted without passing through float, so no entry above 2**53 moves.
    Every value that gramleak rounds to an integer is rounded here.
    """
    a = np.asarray(m)
    if a.dtype.kind in "biu" and np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64)
    a = _finite(np.asarray(a, dtype=float))
    if a.size == 0:
        return a.astype(np.int64)
    rounded = np.rint(a)
    dist = np.abs(a - rounded)
    worst = int(np.argmax(dist))
    worst_dist = float(dist.flat[worst])
    if worst_dist > tol:
        problem = f"is {worst_dist:.3e} from an integer (tol {tol:.3e})"
    else:
        beyond = np.flatnonzero(np.abs(rounded) >= INT64_BOUND)
        if not beyond.size:
            return rounded.astype(np.int64)
        worst = int(beyond[0])
        problem = "is outside the int64 range"
    value = float(a.flat[worst])
    idx = tuple(int(i) for i in np.unravel_index(worst, a.shape))
    raise NotIntegral(f"entry {value!r} at {idx} {problem}", worst_value=value,
                      distance=float(dist.flat[worst]))
