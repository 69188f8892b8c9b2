"""Exact reconstruction of a binary batch from its leaked Gram system.

The leaked ``alpha = X'X`` pins every column sum (diagonal) and every pairwise
column co-occurrence count (off-diagonal) of the secret m x d binary matrix.
``build_model`` screens alpha against necessary feasibility bounds and wraps
it as the model of one batch size; the Gram matrix is the whole model.
``export_model_text`` lists the standard 0/1 linearization of those quadratic
relations (auxiliary pair variables with if-then inequalities) on demand from
``(alpha, m)``, for cross-checking against external tools, and
``IlpModel.constraint_count`` counts it in closed form. ``solve`` finds the
actual matrices with a specialized depth-first search: columns are placed one
at a time, and because rows of a candidate matrix may be permuted freely,
rows are only distinguished by the pattern of already-placed columns. The
search therefore branches on how many rows of each pattern group receive a 1
in the new column, which enforces every column-sum and co-occurrence count
exactly as it goes and yields each row multiset exactly once (canonical,
permutation-free enumeration).

Labels complete the picture: ``recover_labels`` finds sign vectors y with
``X'y = beta``, via the linear system when rows are independent and by a
pruned sign search otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numkit
from .attack import RecoveredSystem

PSD_TOL = 1e-9

STATUS_UNIQUE = "unique"
STATUS_MULTIPLE = "multiple"
STATUS_INFEASIBLE = "infeasible"
STATUS_LIMIT = "limit_reached"


class InfeasibleScreen(ValueError):
    """The leaked system already violates a necessary feasibility bound."""


class NoConsistentLabels(ArithmeticError):
    """No sign labeling of the candidate batch reproduces the leaked beta."""


class CheckResult(NamedTuple):
    ok: bool
    detail: str | None


@dataclass(frozen=True)
class IlpModel:
    """Screened Gram matrix of a batch of ``m`` rows; its 0/1 system is implicit."""

    m: int
    d: int
    alpha: np.ndarray  # (d, d) int64, read-only

    @property
    def constraint_count(self) -> int:
        """Constraints in the exported listing (one group per unordered pair)."""
        return self.d + (2 * self.m + 1) * self.d * (self.d - 1) // 2

    @property
    def ordered_constraint_count(self) -> int:
        """Ordered-pair accounting, (2m+1)d^2 - 2md, for external comparison."""
        return count_constraints(self.m, self.d)

    @property
    def x_variable_count(self) -> int:
        return self.m * self.d

    @property
    def delta_variable_count(self) -> int:
        return self.m * self.d * (self.d - 1) // 2


@dataclass(frozen=True)
class Solution:
    """Candidate batch in canonical form (rows sorted lexicographically)."""

    x: np.ndarray  # (m, d) int64 binary
    y: np.ndarray | None = None  # (m,) int64 in {-1, +1} when labels were recovered


@dataclass(frozen=True)
class SolverStats:
    nodes_explored: int
    solutions_found: int
    wall_time: float
    status: str
    exhausted: bool


def count_constraints(m: int, d: int) -> int:
    """Constraint count of the linearized system, ordered-pair accounting."""
    if m < 1 or d < 1:
        raise ValueError("batch size and feature count must be at least 1")
    return (2 * m + 1) * d * d - 2 * m * d


def canonical_rows(x: np.ndarray) -> np.ndarray:
    """Rows sorted in non-decreasing lexicographic order, as int64."""
    xi = np.asarray(x)
    rows = sorted(tuple(int(v) for v in row) for row in xi)
    return np.array(rows, dtype=np.int64)


def _screen(alpha: np.ndarray, m: int) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InfeasibleScreen(f"alpha must be square, got shape {a.shape}")
    if m < 1:
        raise InfeasibleScreen(f"batch size must be at least 1, got {m}")
    rounded = np.rint(a)
    off = float(np.max(np.abs(a - rounded)))
    if off > 1e-9:
        raise InfeasibleScreen(f"alpha is not integral (worst deviation {off:.3e})")
    ai = rounded.astype(np.int64)
    if not np.array_equal(ai, ai.T):
        raise InfeasibleScreen("alpha is not symmetric")
    d = ai.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.min(np.linalg.eigvalsh(a))) < -PSD_TOL * scale:
        raise InfeasibleScreen("alpha is not positive semidefinite")
    diag = np.diag(ai)
    bad = np.flatnonzero((diag < 0) | (diag > m))
    if bad.size:
        i = bad[0]
        raise InfeasibleScreen(
            f"diagonal alpha[{i},{i}] = {diag[i]} outside [0, {m}]; wrong batch size?"
        )
    # Columns i and j hold a_ij common ones, so together they cover
    # a_ii + a_jj - a_ij of the m rows.
    cap = np.minimum.outer(diag, diag)
    union = diag[:, None] + diag[None, :] - ai
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    bad = np.argwhere(upper & ((ai < 0) | (ai > cap) | (union > m)))
    if bad.size:
        i, j = bad[0]
        if ai[i, j] < 0:
            raise InfeasibleScreen(f"alpha[{i},{j}] = {ai[i, j]} is negative")
        if ai[i, j] > cap[i, j]:
            raise InfeasibleScreen(
                f"alpha[{i},{j}] = {ai[i, j]} exceeds min of diagonals {cap[i, j]}"
            )
        raise InfeasibleScreen(
            f"columns {i} and {j} cover {union[i, j]} rows, more than {m}; wrong batch size?"
        )
    return ai


def build_model(alpha: np.ndarray, m: int) -> IlpModel:
    """Screen a leaked Gram matrix and wrap it as the model of batch size ``m``."""
    ai = _screen(alpha, m)
    ai.setflags(write=False)
    return IlpModel(m=m, d=ai.shape[0], alpha=ai)


def export_model_text(model: IlpModel) -> str:
    """Plain-text listing of the linearized 0/1 system: variables, then constraints.

    Column sums are pinned by the diagonal; each unordered column pair gets
    one pair-sum equality over auxiliary pair variables plus, per row, the two
    if-then inequalities tying a pair variable to the product of its bits.
    """
    m, d, alpha = model.m, model.d, model.alpha
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    lines = [f"binary x_{k}_{i}" for k in range(m) for i in range(d)]
    lines += [f"binary delta_{i}_{j}_{k}" for i, j in pairs for k in range(m)]
    for i in range(d):
        lines.append(" + ".join(f"x_{k}_{i}" for k in range(m)) + f" = {alpha[i, i]}")
    for i, j in pairs:
        lines.append(" + ".join(f"delta_{i}_{j}_{k}" for k in range(m)) + f" = {alpha[i, j]}")
    for i, j in pairs:
        for k in range(m):
            lines.append(f"x_{k}_{i} + x_{k}_{j} - 2 delta_{i}_{j}_{k} >= 0")
            lines.append(f"x_{k}_{i} + x_{k}_{j} - delta_{i}_{j}_{k} <= 1")
    return "\n".join(lines) + "\n"


class _Search:
    """Column-by-column enumeration of row multisets matching alpha.

    State is a list of (size, pattern) row groups, a group being the rows
    whose already-placed bits agree. Placing column c means picking, per
    group, how many of its rows get a 1; the diagonal fixes the total and
    each earlier column l fixes the count landing in groups with bit l set.
    Group counts are branched depth-first (larger counts first) with
    reach/excess pruning against every open count, so each leaf satisfies
    all placed constraints exactly and distinct leaves are distinct row
    multisets.
    """

    def __init__(self, alpha: np.ndarray, m: int, limit: int | None, deadline: float | None):
        self.alpha = [[int(v) for v in row] for row in alpha]
        self.m = m
        self.d = len(self.alpha)
        self.limit = limit
        self.deadline_at = None if deadline is None else time.perf_counter() + deadline
        self.solutions: list[tuple[tuple[int, ...], ...]] = []
        self.nodes = 0
        self.stopped = False
        self.deadline_hit = False

    def run(self) -> None:
        self._place(0, [(self.m, 0)])

    def _check_deadline(self) -> None:
        if self.deadline_at is not None and time.perf_counter() > self.deadline_at:
            self.stopped = True
            self.deadline_hit = True

    def _record(self, groups: list[tuple[int, int]]) -> None:
        rows = []
        for size, pattern in groups:
            row = tuple((pattern >> j) & 1 for j in range(self.d))
            rows.extend([row] * size)
        self.solutions.append(tuple(sorted(rows)))
        if self.limit is not None and len(self.solutions) >= self.limit:
            self.stopped = True

    def _place(self, col: int, groups: list[tuple[int, int]]) -> None:
        if self.stopped:
            return
        if col == self.d:
            self._record(groups)
            return
        alpha_col = self.alpha[col]
        n_groups = len(groups)
        sizes = [s for s, _ in groups]
        patterns = [p for _, p in groups]
        total_target = alpha_col[col]
        targets = [alpha_col[l] for l in range(col)]
        suffix_total = [0] * (n_groups + 1)
        for g in range(n_groups - 1, -1, -1):
            suffix_total[g] = suffix_total[g + 1] + sizes[g]
        suffixes = []
        for l in range(col):
            bit = 1 << l
            arr = [0] * (n_groups + 1)
            for g in range(n_groups - 1, -1, -1):
                arr[g] = arr[g + 1] + (sizes[g] if patterns[g] & bit else 0)
            suffixes.append(arr)
        partial = [0] * col
        chosen = [0] * n_groups
        new_bit = 1 << col

        def extend(g: int, placed: int) -> None:
            self.nodes += 1
            if self.nodes & 1023 == 0:
                self._check_deadline()
            if self.stopped:
                return
            if g == n_groups:
                new_groups = []
                for h in range(n_groups):
                    t, s = chosen[h], sizes[h]
                    if t > 0:
                        new_groups.append((t, patterns[h] | new_bit))
                    if t < s:
                        new_groups.append((s - t, patterns[h]))
                self._place(col + 1, new_groups)
                return
            pattern = patterns[g]
            lo = total_target - placed - suffix_total[g + 1]
            if lo < 0:
                lo = 0
            hi = total_target - placed
            if sizes[g] < hi:
                hi = sizes[g]
            for l in range(col):
                need = targets[l] - partial[l]
                cap_after = suffixes[l][g + 1]
                if pattern & (1 << l):
                    if need - cap_after > lo:
                        lo = need - cap_after
                    if need < hi:
                        hi = need
                elif need < 0 or need > cap_after:
                    return
            if lo > hi:
                return
            bits = [l for l in range(col) if pattern & (1 << l)]
            for t in range(hi, lo - 1, -1):
                chosen[g] = t
                for l in bits:
                    partial[l] += t
                extend(g + 1, placed + t)
                for l in bits:
                    partial[l] -= t
                if self.stopped:
                    chosen[g] = 0
                    return
            chosen[g] = 0

        # extend reaches itself through its closure cell; deleting the name
        # breaks that cycle, so each call's state is freed by reference
        # counting instead of waiting for the cycle collector.
        try:
            extend(0, 0)
        finally:
            del extend


def solve(
    model: IlpModel,
    limit: int | None = None,
    deadline: float | None = None,
) -> tuple[list[Solution], SolverStats]:
    """Enumerate canonical batches matching the model's Gram matrix.

    Stops after ``limit`` solutions or ``deadline`` seconds when given,
    otherwise exhausts the search. Status reads ``unique``/``multiple`` only
    from what was actually established: ``unique`` requires exhaustion, and
    an interrupted search with fewer than two solutions reports
    ``limit_reached`` (check ``exhausted`` to distinguish).
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1 when given")
    start = time.perf_counter()
    search = _Search(model.alpha, model.m, limit, deadline)
    search.run()
    wall = time.perf_counter() - start
    solutions = [
        Solution(x=np.array(rows, dtype=np.int64)) for rows in search.solutions
    ]
    exhausted = not search.stopped
    found = len(solutions)
    if found >= 2:
        status = STATUS_MULTIPLE
    elif found == 1:
        status = STATUS_UNIQUE if exhausted else STATUS_LIMIT
    else:
        status = STATUS_INFEASIBLE if exhausted else STATUS_LIMIT
    stats = SolverStats(
        nodes_explored=search.nodes,
        solutions_found=found,
        wall_time=wall,
        status=status,
        exhausted=exhausted,
    )
    return solutions, stats


def _as_binary_matrix(x: np.ndarray) -> np.ndarray:
    a = np.asarray(x)
    if a.ndim != 2:
        raise numkit.DimensionMismatch(f"expected a 2-D batch, got shape {a.shape}")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("batch entries must be 0 or 1")
    return a.astype(np.int64)


def _search_labels(
    xi: np.ndarray, beta: np.ndarray, limit: int | None
) -> list[np.ndarray]:
    m, d = xi.shape
    found: list[np.ndarray] = []
    # Suffix column sums bound what unassigned rows can still contribute;
    # the parity of the reachable contribution is fixed as well.
    suffix = np.zeros((m + 1, d), dtype=np.int64)
    for k in range(m - 1, -1, -1):
        suffix[k] = suffix[k + 1] + xi[k]
    signs = np.zeros(m, dtype=np.int64)
    partial = np.zeros(d, dtype=np.int64)

    def assign(k: int) -> bool:
        remainder = beta - partial
        rest = suffix[k]
        if np.any(np.abs(remainder) > rest) or np.any((remainder - rest) & 1):
            return False
        if k == m:
            found.append(signs.copy())
            return limit is not None and len(found) >= limit
        for sign in (1, -1):
            signs[k] = sign
            partial[:] = partial + sign * xi[k]
            done = assign(k + 1)
            partial[:] = partial - sign * xi[k]
            if done:
                return True
        return False

    # As in _Search._place: drop the self-referencing closure when done.
    try:
        assign(0)
    finally:
        del assign
    return found


def recover_labels(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Find one sign labeling y with ``X'y = beta`` exactly.

    Solves the real system and rounds when the rows are linearly independent
    (the labeling is then unique if it exists at all); otherwise falls back to
    a depth-first sign search with reach and parity pruning.
    """
    labelings = enumerate_labels(x, beta, limit=1)
    if not labelings:
        raise NoConsistentLabels(
            "no sign labeling of the candidate batch reproduces the leaked projection"
        )
    return labelings[0]


def enumerate_labels(
    x: np.ndarray, beta: np.ndarray, limit: int | None = None
) -> list[np.ndarray]:
    """All (or the first ``limit``) sign labelings with ``X'y = beta``."""
    xi = _as_binary_matrix(numkit.as_matrix(x))
    beta_i = np.asarray(beta)
    beta_i = numkit.round_integral(beta_i.astype(float), tol=1e-9)
    m, d = xi.shape
    if beta_i.shape != (d,):
        raise numkit.DimensionMismatch(
            f"beta length {beta_i.shape} does not match {d} features"
        )
    if m > d:
        # More rows than features: the rows are dependent, so search.
        return _search_labels(xi, beta_i, limit)
    try:
        y_real = numkit.solve_linear(xi.T.astype(float), beta_i.astype(float))
    except numkit.RankDeficient:
        return _search_labels(xi, beta_i, limit)
    # Independent rows: the real solution is unique, and it either rounds to
    # a valid signing or none exists.
    y = np.rint(y_real).astype(np.int64)
    if np.all(np.abs(y) == 1) and np.array_equal(xi.T @ y, beta_i):
        return [y]
    return []


def verify_solution(
    x: np.ndarray, y: np.ndarray | None, system: RecoveredSystem
) -> CheckResult:
    """Exact integer check of ``X'X == alpha`` and, when labels given, ``X'y == beta``."""
    xi = _as_binary_matrix(x)
    gram = xi.T @ xi
    if gram.shape != system.alpha.shape:
        return CheckResult(False, f"shape {gram.shape} != alpha shape {system.alpha.shape}")
    mismatch = np.argwhere(gram != system.alpha)
    if mismatch.size:
        i, j = (int(v) for v in mismatch[0])
        return CheckResult(
            False,
            f"alpha[{i},{j}]: expected {int(system.alpha[i, j])}, got {int(gram[i, j])}",
        )
    if y is not None:
        yi = np.asarray(y).astype(np.int64)
        if not np.all(np.abs(yi) == 1):
            return CheckResult(False, "labels must be -1 or +1")
        proj = xi.T @ yi
        mismatch = np.argwhere(proj != system.beta)
        if mismatch.size:
            i = int(mismatch[0][0])
            return CheckResult(
                False,
                f"beta[{i}]: expected {int(system.beta[i])}, got {int(proj[i])}",
            )
    return CheckResult(True, None)


def discover_batch_size(
    alpha: np.ndarray,
    cap: int = 64,
    limit: int | None = 2,
    deadline: float | None = None,
) -> tuple[int, list[Solution], SolverStats]:
    """Smallest feasible batch size and its solutions, scanning upward.

    No batch has fewer rows than a column's ones (a diagonal entry) or than
    the rows two columns cover together (``a_ii + a_jj - a_ij``); candidates
    run from the largest of these up to ``cap``. The screen's size bounds
    only loosen as the size grows, so alpha is screened once at ``cap``
    first: what fails there fails at every candidate size.
    """
    ai = _screen(alpha, cap)
    diag = np.diag(ai)
    # The diagonal of this matrix is the diagonal of alpha itself.
    lower = max(1, int(np.max(diag[:, None] + diag[None, :] - ai)))
    for m in range(lower, cap + 1):
        solutions, stats = solve(build_model(ai, m), limit=limit, deadline=deadline)
        if solutions:
            return m, solutions, stats
    raise InfeasibleScreen(f"no feasible batch size in [{lower}, {cap}]")
