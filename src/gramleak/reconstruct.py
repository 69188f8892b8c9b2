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
in the new column, bounded by the ones each count still needs and the rows
left to take them. This enforces every column-sum and co-occurrence count
exactly as it goes and yields each row multiset exactly once (canonical,
permutation-free enumeration). Where the placed columns tell the m rows
apart, one XOR elimination counts the r dependencies mod 2 among the rows of
``[1 | P]`` (the all-ones column and the placed ones). Where 2^r <= m + 1 the
search tries to end in one linear completion, decided in integers: mod 2,
those rows leave each unplaced column 2^r candidates, which are checked
exactly. One fit per column records the one batch below the node, none
prunes it, and two let the walk go on. Before the search, ``_fold`` sets
aside every column that alpha already fixes as a copy or the complement of an
earlier column (an equal Gram row, or a complementary one whose two columns
cover all m rows). On the Gram matrix of any batch the search then walks at
most min(d, 2^(m-1)) class representatives, so its cost follows the column
classes, not d. Columns are placed fail-first: once per solve,
``_column_order`` puts the most constrained representatives first, and the
solutions are expanded to every input column in input order, canonicalized and
sorted, so exhaustive output does not depend on the order of the walk.

Labels complete the picture: with ``z = (y + 1) / 2`` a sign labeling y is
one more 0/1 column of the batch, whose co-occurrence counts with X are
``c = (beta + diag(alpha)) / 2``. ``enumerate_labels`` and ``recover_labels``
place that column with the same search, over the row groups of X.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from . import numkit
from .attack import RecoveredSystem

PSD_TOL = 1e-9
INTEGRALITY_TOL = 1e-9  # how far a leaked Gram or beta entry may sit from its integer

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


@dataclass(frozen=True)
class Solution:
    """Candidate batch in canonical form (rows sorted lexicographically)."""

    x: np.ndarray  # (m, d) int64 binary


@dataclass(frozen=True)
class SolverStats:
    nodes_explored: int
    solutions_found: int
    wall_time: float
    status: str
    exhausted: bool
    column_order: tuple[int, ...]  # input column indices, in the order placed
    nodes_per_column: tuple[int, ...]  # search nodes per placed column, same order
    completions_tried: int  # linear completions attempted, one node each
    completions_taken: int  # of those, the ones that recorded a batch


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


def build_model(alpha: np.ndarray, m: int) -> IlpModel:
    """Screen a leaked Gram matrix and wrap it as the model of batch size ``m``.

    A malformed, non-integral or infeasible alpha raises :class:`InfeasibleScreen`.
    An integer alpha is screened as int64 as it stands; only the eigenvalue
    check sees it in float.
    """
    a = np.asarray(alpha)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InfeasibleScreen(f"alpha must be a non-empty square matrix, got shape {a.shape}")
    if m < 1:
        raise InfeasibleScreen(f"batch size must be at least 1, got {m}")
    try:
        ai = numkit.round_integral(a, INTEGRALITY_TOL)
    except (numkit.NotIntegral, numkit.NonFinite) as exc:
        raise InfeasibleScreen(f"alpha is not integral: {exc}") from exc
    if not np.array_equal(ai, ai.T):
        raise InfeasibleScreen("alpha is not symmetric")
    d = ai.shape[0]
    af = ai.astype(float)
    scale = max(1.0, float(np.max(np.abs(af))))
    if float(np.min(np.linalg.eigvalsh(af))) < -PSD_TOL * scale:
        raise InfeasibleScreen("alpha is not positive semidefinite")
    diag = np.diag(ai)
    bad = np.flatnonzero((diag < 0) | (diag > m))
    if bad.size:
        i = bad[0]
        raise InfeasibleScreen(
            f"diagonal alpha[{i},{i}] = {diag[i]} outside [0, {m}]; wrong batch size?"
        )
    # Columns i and j hold a_ij common ones, so together they cover
    # a_ii + a_jj - a_ij of the m rows. That sum can pass int64, so it is
    # tested as a_ii - a_ij > m - a_jj, with m - a_jj clamped at int64's top,
    # which a_ii - a_ij in [0, a_ii] never passes.
    cap = np.minimum.outer(diag, diag)
    top = np.iinfo(np.int64).max
    room = np.array([min(m - v, top) for v in diag.tolist()], dtype=np.int64)
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    bad = np.argwhere(upper & ((ai < 0) | (ai > cap) | (diag[:, None] - ai > room)))
    if bad.size:
        i, j = bad[0]
        if ai[i, j] < 0:
            raise InfeasibleScreen(f"alpha[{i},{j}] = {ai[i, j]} is negative")
        if ai[i, j] > cap[i, j]:
            raise InfeasibleScreen(
                f"alpha[{i},{j}] = {ai[i, j]} exceeds min of diagonals {cap[i, j]}"
            )
        union = int(diag[i]) + int(diag[j]) - int(ai[i, j])
        raise InfeasibleScreen(
            f"columns {i} and {j} cover {union} rows, more than {m}; wrong batch size?"
        )
    ai.setflags(write=False)
    return IlpModel(m=m, d=d, alpha=ai)


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


def _column_order(alpha: list[list[int]], m: int) -> list[int]:
    """Fail-first placement order of the columns of a screened Gram matrix.

    The first column is the one whose density is most extreme, ``|2 a_ii - m|``
    largest. Each next column is the free column c whose 2x2 tables with the
    placed columns l are the most lopsided; the table of c and l counts the
    rows holding (1,1), (1,0), (0,1) and (0,0): ``a_cl``, ``a_cc - a_cl``,
    ``a_ll - a_cl`` and ``m - a_cc - a_ll + a_cl``. Lopsided tables leave
    few ways to split each row group, so the search fails early (Haralick
    and Elliott, 1980). The smallest running sum of ``log1p`` over the cells
    wins; ties go to the more extreme density, then to the lower index. The
    screen keeps every cell in [0, m]. ``solve`` passes the Gram matrix of
    the k column classes that ``_fold`` keeps, so this is O(k^2), once per
    solve (k = d where no column folds).
    """
    d = len(alpha)
    diag = [alpha[i][i] for i in range(d)]
    # Free columns stay in density-rank order, so the first minimum breaks ties.
    free = sorted(range(d), key=lambda i: (-abs(2 * diag[i] - m), i))
    log1p = [math.log1p(v) for v in range(m + 1)]
    score = [0.0] * d
    order = [free.pop(0)]
    while free:
        last = order[-1]
        row = alpha[last]
        a_ll = diag[last]
        rest = m - a_ll
        best, best_score = 0, math.inf
        for k, c in enumerate(free):
            a = row[c]
            a_cc = diag[c]
            s = score[c] + log1p[a] + log1p[a_cc - a] + log1p[a_ll - a] + log1p[rest - a_cc + a]
            score[c] = s
            if s < best_score:
                best, best_score = k, s
        order.append(free.pop(best))
    return order


class _Search:
    """Column-by-column enumeration of row multisets matching alpha.

    Columns are placed in the order of alpha's rows; ``solve`` hands over the
    Gram matrix of the class representatives, already permuted into
    ``_column_order``. State is a list of
    (size, pattern, bits) row groups, a group being the rows whose
    already-placed bits agree and ``bits`` the placed columns set in its
    pattern; a split hands each group's list to its children unchanged or
    with the new column appended. Placing column c means picking, per group,
    how many of its rows get a 1; the diagonal fixes the total and each
    earlier column l fixes the count landing in groups with bit l set. Group
    counts are branched depth-first (larger counts first), each within what
    its open counts still need and the rows left to take it, so each leaf
    satisfies all placed constraints exactly and distinct leaves are distinct
    row multisets. Columns and groups are walked with explicit stacks, so the
    depth of the search is not bounded by Python's recursion limit.

    At each node of m single rows, with k placed columns, ``_dependencies``
    counts the r dependencies mod 2 among the rows of ``[1 | P]``, and where
    r < ``max_deps`` (2^r <= m + 1) ``_complete`` tries to decide all
    unplaced columns at once: it records the one batch below the node,
    prunes the node, or finds a column with two fits, and then the walk goes
    on below it. ``[1 | P]`` has k + 1 columns, so r >= m - k - 1, and a
    node where that bound reaches ``max_deps`` skips the elimination. A
    completion replaces the walk below its node, so solutions come in the
    same order and only node counts change. ``column_nodes[c]`` counts the
    nodes spent placing column c; a completion is one node of the first
    unplaced column.
    """

    def __init__(
        self, alpha: np.ndarray | list[list[int]], m: int, limit: int | None,
        deadline_at: float | None,
    ):
        self.gram = np.asarray(alpha, dtype=np.int64)
        self.alpha = self.gram.tolist()  # the splits index lists, which is faster
        self.m = m
        self.d = len(self.alpha)
        self.limit = limit
        self.deadline_at = deadline_at  # time.perf_counter() reading, or None
        self.solutions: list[tuple[tuple[int, ...], ...]] = []
        self.nodes = 0
        self.column_nodes = [0] * self.d
        self.stopped = False
        self.completions_tried = 0
        self.completions_taken = 0
        # A completion checks 2^r candidates per column, r the dependencies
        # mod 2 among the rows of [1 | P], so it runs only where 2^r <= m + 1,
        # the fewest nodes the walk spends on one: r < max_deps.
        self.max_deps = (m + 1).bit_length()
        self.parities: list[int] | None = None  # per column, once a completion needs them

    def run(self) -> None:
        # One split generator per placed column; the deepest is resumed, and
        # none is resumed once the search stops, so no node counts after that.
        m, d = self.m, self.d
        walks = [self._splits(0, self.alpha[0], [(m, 0, [])])]
        column_nodes = self.column_nodes
        while walks and not self.stopped:
            col = len(walks) - 1
            before = self.nodes
            groups = next(walks[-1], None)
            column_nodes[col] += self.nodes - before
            if groups is None:
                walks.pop()
                continue
            if col + 1 == d:
                rows = []
                for size, pattern, _ in groups:
                    rows.extend([tuple((pattern >> j) & 1 for j in range(d))] * size)
                self._record(rows)
                continue
            # [1 | P] has col + 2 columns, so r >= m - (col + 2).
            if len(groups) == m and m - (col + 2) < self.max_deps:
                pivots, deps = _dependencies([(pattern << 1) | 1 for _, pattern, _ in groups])
                if len(deps) < self.max_deps and self._complete(col + 1, groups, pivots, deps):
                    continue
            walks.append(self._splits(col + 1, self.alpha[col + 1], groups))

    def _record(self, rows: list[tuple[int, ...]]) -> None:
        self.solutions.append(tuple(sorted(rows)))
        if self.limit is not None and len(self.solutions) >= self.limit:
            self.stopped = True

    def _complete(
        self, k: int, groups: list[tuple[int, int, list[int]]],
        pivots: dict[int, tuple[int, int]], deps: list[int],
    ) -> bool:
        """Decide every unplaced column from the k placed ones; False walks on.

        ``groups`` are the m single rows; row i, with placed bits p_i, is the
        int ``(p_i << 1) | 1`` of ``[1 | P]``, and ``pivots, deps`` are the
        XOR elimination of those rows (``_dependencies``), with r = len(deps)
        below ``max_deps``. An unplaced column c, as an m-bit row mask x,
        must meet ``[1 | P]' x = (a_cc, a_0c, ..., a_(k-1)c)``. Reducing c's
        counts mod 2 against the pivots gives one solution x0 mod 2, or none,
        which prunes the node. Every 0/1 column meeting c's counts lies in
        ``x0 ^ span(deps)``, so those 2^r candidates are checked exactly, by
        ``bit_count``, against the total, the placed columns and the columns
        decided before c. No fit prunes the node. Two fits end the
        completion, and the walk goes on below the node. With one fit per
        column, ``[P | X]' X`` must equal alpha's unplaced columns (where
        r = 0, the one exact check), and the batch, the only one below the
        node, is recorded. Returns True when the node is decided: recorded
        or pruned.
        """
        m, d = self.m, self.d
        self.nodes += 1
        self.column_nodes[k] += 1
        self.completions_tried += 1
        candidates = [0]
        for dep in deps:
            candidates += [s ^ dep for s in candidates]
        if self.parities is None:
            # Bit 0 is the parity of a_cc, bit 1 + l that of a_lc.
            packed = np.packbits(self.gram & 1, axis=1, bitorder="little")
            width = packed.shape[1]
            raw = packed.tobytes()
            self.parities = []
            for c, at in enumerate(range(0, d * width, width)):
                odd = int.from_bytes(raw[at:at + width], "little")
                self.parities.append(odd << 1 | odd >> c & 1)
        cols = [0] * d  # row masks: the placed columns, then the decided ones
        for i, (_, _, own) in enumerate(groups):
            for l in own:
                cols[l] |= 1 << i
        low = (2 << k) - 1  # the parities of the total and the placed counts
        for c in range(k, d):
            b, fit = self.parities[c] & low, 0
            while b:
                pivot = pivots.get(b.bit_length())
                if pivot is None:
                    return True
                b ^= pivot[0]
                fit ^= pivot[1]
            if deps:
                counts = self.alpha[c]
                x0, fit = fit, None
                for s in candidates:
                    x = x0 ^ s
                    if x.bit_count() != counts[c]:
                        continue
                    for l in range(c):
                        if (x & cols[l]).bit_count() != counts[l]:
                            break
                    else:
                        if fit is not None:
                            return False
                        fit = x
                if fit is None:
                    return True
            cols[c] = fit
        # One fit per column; where r = 0 it is checked only here.
        width = (m + 7) // 8
        raw = b"".join(col.to_bytes(width, "little") for col in cols)
        bits = np.unpackbits(
            np.frombuffer(raw, np.uint8).reshape(d, width), axis=1, count=m,
            bitorder="little",
        ).astype(np.int64)
        if (bits @ bits[k:].T == self.gram[:, k:]).all():
            self.completions_taken += 1
            self._record(list(map(tuple, bits.T.tolist())))
        return True

    def _splits(
        self, col: int, row: list[int], groups: list[tuple[int, int, list[int]]]
    ) -> Iterator[list[tuple[int, int, list[int]]]]:
        """Yield the row groups left by each complete split of column ``col``.

        ``row`` is the column's Gram row: count ``l < col`` puts ``row[l]``
        ones in rows with bit l set, and count ``col``, in which every group
        takes part, puts ``row[col]`` in all. ``need[l]`` is the ones still
        to place and ``room[l]`` the rows of undecided groups taking part. A
        node bounds one group's count over its own counts only; ``stack``
        holds [group, count, lowest count] per decided group. The caller
        guarantees ``0 <= row[l] <= room[l]`` at the start (the screen, or
        ``enumerate_labels``' check of c); each decision keeps
        ``0 <= need <= room``, so counts a group takes no part in need no
        check there.
        """
        n_groups = len(groups)
        sizes = [s for s, _, _ in groups]
        patterns = [p for _, p, _ in groups]
        owns = [own for _, _, own in groups]
        new_bit = 1 << col
        bits = [own + [col] for own in owns]
        need = row[:col + 1]
        room = [0] * (col + 1)
        for size, own in zip(sizes, bits):
            for l in own:
                room[l] += size
        stack: list[list[int]] = []
        g = 0
        while True:
            self.nodes += 1
            # The clock is read at the first node, so a zero deadline stops
            # even a small search, and then every 1024 nodes.
            if (self.nodes & 1023 == 1 and self.deadline_at is not None
                    and time.perf_counter() > self.deadline_at):
                self.stopped = True
                return
            if g == n_groups:
                new_groups = []
                for h, t, _ in stack:
                    if t > 0:
                        new_groups.append((t, patterns[h] | new_bit, bits[h]))
                    if t < sizes[h]:
                        new_groups.append((sizes[h] - t, patterns[h], owns[h]))
                yield new_groups
            else:
                size = sizes[g]
                lo, hi = 0, size
                for l in bits[g]:
                    if need[l] - room[l] + size > lo:
                        lo = need[l] - room[l] + size
                    if need[l] < hi:
                        hi = need[l]
                if lo <= hi:
                    stack.append([g, hi, lo])
                    for l in bits[g]:
                        need[l] -= hi
                        room[l] -= size
                    g += 1
                    continue
            # Backtrack: the deepest group with a smaller count left takes it.
            while stack:
                h, t, low = frame = stack[-1]
                if t > low:
                    frame[1] = t - 1
                    for l in bits[h]:
                        need[l] += 1
                    g = h + 1
                    break
                size = sizes[h]
                for l in bits[h]:
                    need[l] += t
                    room[l] += size
                stack.pop()
            else:
                return


def _dependencies(rows: list[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """XOR elimination of ``rows``: its pivots and a basis of the dependencies mod 2.

    The pivots map a leading bit to a reduced row and the mask of the rows
    it sums; the dependencies are row masks whose rows sum to zero.
    """
    pivots: dict[int, tuple[int, int]] = {}
    deps = []
    for i, v in enumerate(rows):
        mask = 1 << i
        while v and v.bit_length() in pivots:
            w, used = pivots[v.bit_length()]
            v, mask = v ^ w, mask ^ used
        if v:
            pivots[v.bit_length()] = v, mask
        else:
            deps.append(mask)
    return pivots, deps


def _search_status(found: int, exhausted: bool) -> str:
    """What a search that found ``found`` solutions has established."""
    if found >= 2:
        return STATUS_MULTIPLE
    if found == 1:
        return STATUS_UNIQUE if exhausted else STATUS_LIMIT
    return STATUS_INFEASIBLE if exhausted else STATUS_LIMIT


def _fold(alpha: np.ndarray, m: int) -> tuple[list[int], list[int], list[int]]:
    """Split the columns of a screened Gram matrix into classes fixed by one column.

    Column j folds onto an earlier representative i when the Gram matrix
    fixes it in every 0/1 solution: an equal row (``a_ii = a_ij = a_jj``, so
    column j equals column i), or a complementary one, ``alpha[j] =
    diag(alpha) - alpha[i]`` with ``a_ii + a_jj = m`` (``a_ij = 0``, so the
    two columns are disjoint and cover every row: column j is
    ``1 - column i``). Either row equality also fixes every other count of
    column j, so the solutions of the representatives' Gram matrix map one to
    one onto the full solutions. Rows are compared as bytes. A column that
    meets a premise with a different row is kept: no batch has such a Gram
    matrix, and the screen (a copy's alpha is then not positive
    semidefinite) or the search refutes it.
    Returns the representatives in input order, and per input column its
    class (an index into them) and whether it is the complement.
    """
    d = alpha.shape[0]
    # The screen keeps every count, and so every complementary count
    # a_ll - a_jl, in [0, m]: the narrowest type that holds m keys them exactly.
    key = np.min_scalar_type(m)
    width = d * key.itemsize
    diag = alpha.diagonal()
    rows = alpha.astype(key).tobytes()
    complements = (diag - alpha).astype(key).tobytes()
    diag = diag.tolist()
    classes: dict[bytes, int] = {}  # Gram row of a representative -> its class
    reps: list[int] = []
    cls: list[int] = []
    flip: list[int] = []
    for j, at in enumerate(range(0, d * width, width)):
        row = rows[at:at + width]
        c = classes.get(row)
        if c is None:
            c = classes.get(complements[at:at + width])
            if c is not None and diag[reps[c]] + diag[j] == m:
                cls.append(c)
                flip.append(1)
                continue
            c = classes[row] = len(reps)
            reps.append(j)
        cls.append(c)
        flip.append(0)
    return reps, cls, flip


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
    ``limit_reached`` (check ``exhausted`` to distinguish). Columns that the
    Gram matrix fixes as copies or complements of an earlier column are
    folded out first (``_fold``): only the k class representatives are
    ordered and searched, and each solution is expanded back to all d
    columns. Solutions are in canonical form and sorted, so an exhaustive
    result does not depend on the column order the search walked; which
    solutions an interrupted search returns does. ``column_order`` lists
    every input column, each folded one right after its representative with
    0 in ``nodes_per_column``.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1 when given")
    if deadline is not None and not deadline >= 0:
        raise ValueError("deadline must be a non-negative number of seconds when given")
    start = time.perf_counter()
    m = model.m
    reps, cls, flip = _fold(model.alpha, m)
    reduced = model.alpha.take(reps, 0).take(reps, 1)
    order = _column_order(reduced.tolist(), m)
    permuted = reduced.take(order, 0).take(order, 1)
    search = _Search(permuted, m, limit, None if deadline is None else start + deadline)
    search.run()
    # Walk column p is class order[p]; input column j reads the walk column
    # of its class, complemented where it folded as one.
    position = [0] * len(order)
    for p, c in enumerate(order):
        position[c] = p
    source = [position[c] for c in cls]
    found = np.array(search.solutions, dtype=np.int64).reshape(-1, m, len(order))
    full = found[:, :, source] ^ np.array(flip, dtype=np.int64)
    batches = sorted(sorted(map(tuple, rows)) for rows in full.tolist())
    wall = time.perf_counter() - start
    solutions = [Solution(x=np.array(rows, dtype=np.int64)) for rows in batches]
    # A representative is the first column of its class, so it leads.
    column_order = sorted(range(model.d), key=lambda j: (source[j], j))
    nodes_per_column = [
        search.column_nodes[source[j]] if reps[cls[j]] == j else 0 for j in column_order
    ]
    stats = SolverStats(
        nodes_explored=search.nodes,
        solutions_found=len(solutions),
        wall_time=wall,
        status=_search_status(len(solutions), not search.stopped),
        exhausted=not search.stopped,
        column_order=tuple(column_order),
        nodes_per_column=tuple(nodes_per_column),
        completions_tried=search.completions_tried,
        completions_taken=search.completions_taken,
    )
    return solutions, stats


def _as_binary_matrix(x: np.ndarray) -> np.ndarray:
    a = np.asarray(x)
    if a.ndim != 2:
        raise numkit.DimensionMismatch(f"expected a 2-D batch, got shape {a.shape}")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("batch entries must be 0 or 1")
    return a.astype(np.int64)


def recover_labels(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Find one sign labeling y with ``X'y = beta`` exactly.

    The first labeling ``enumerate_labels`` finds: on a batch with sorted
    rows, such as ``solve`` returns, it is the lexicographically largest,
    +1 before -1.
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
    """All (or the first ``limit``) sign labelings with ``X'y = beta``.

    The +1 rows ``z = (y + 1) / 2`` are column d of the batch, meeting column
    j in ``c_j = (beta_j + a_jj) / 2`` rows. The search places it over the
    groups of identical rows, in order of first occurrence, and a last slack
    group of m rows that takes the -1 rows, so the column total is m. Each
    split fixes how many rows of each group are +1; every choice of them is
    a labeling, earliest rows first.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1 when given")
    xi = _as_binary_matrix(numkit.as_matrix(x))
    m, d = xi.shape
    beta_i = np.asarray(beta)
    if beta_i.shape != (d,):
        raise numkit.DimensionMismatch(
            f"beta length {beta_i.shape} does not match {d} features"
        )
    beta_i = numkit.round_integral(beta_i, INTEGRALITY_TOL)
    ones = xi.sum(axis=0)
    twice = beta_i + ones
    if np.any(twice & 1) or np.any(twice < 0) or np.any(twice > 2 * ones):
        return []
    members: dict[int, list[int]] = {}  # row indices by row pattern
    for k, row in enumerate(xi.tolist()):
        members.setdefault(sum(bit << j for j, bit in enumerate(row)), []).append(k)
    # Only the splitter is used. The slack's pattern sets a bit past the
    # label column, so no group of X rows shares it.
    groups = [
        (len(rows), p, [j for j in range(d) if p >> j & 1]) for p, rows in members.items()
    ] + [(m, 2 << d, [])]
    splits = _Search([], m, None, None)._splits(d, (twice // 2).tolist() + [m], groups)
    rows = list(members.values())
    found: list[np.ndarray] = []
    for split in splits:
        plus = {p: t for t, p, _ in split if p >> d == 1}  # +1 rows per group pattern
        for y in _sign_vectors(m, rows, [plus.get(p | 1 << d, 0) for p in members]):
            found.append(y)
            if limit is not None and len(found) >= limit:
                return found
    return found


def _sign_vectors(m: int, rows: list[list[int]], counts: list[int]) -> Iterator[np.ndarray]:
    """Each labeling with ``counts[g]`` of ``rows[g]`` at +1; the last group turns fastest."""
    picks = [itertools.combinations(r, t) for r, t in zip(rows, counts)]
    chosen = [next(p) for p in picks]
    g = len(rows)
    while g >= 0:
        if g == len(rows):
            y = np.full(m, -1, dtype=np.int64)
            y[[k for plus in chosen for k in plus]] = 1
            yield y
            g -= 1
        elif (pick := next(picks[g], None)) is None:
            picks[g] = itertools.combinations(rows[g], counts[g])
            chosen[g] = next(picks[g])
            g -= 1
        else:
            chosen[g] = pick
            g = len(rows)


def verify_solution(
    x: np.ndarray, y: np.ndarray | None, system: RecoveredSystem
) -> CheckResult:
    """Exact integer check of ``X'X == alpha`` and, when labels given, ``X'y == beta``.

    Labels must be m values, each exactly -1 or +1; anything else fails the
    check rather than being cast.
    """
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
        ya = np.asarray(y)
        if ya.shape != (xi.shape[0],):
            return CheckResult(False, f"labels shape {ya.shape} != ({xi.shape[0]},)")
        if not np.all((ya == 1) | (ya == -1)):
            return CheckResult(False, "labels must be -1 or +1")
        proj = xi.T @ ya.astype(np.int64)
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
) -> tuple[IlpModel, list[Solution], SolverStats]:
    """Model of the smallest feasible batch size and its solutions, scanning upward.

    No batch has fewer rows than a column's ones (a diagonal entry) or than
    the rows two columns cover together (``a_ii + a_jj - a_ij``); candidates
    run from the largest of these up to ``cap``. Only the screen's size
    bounds depend on the size, and every candidate meets them, so alpha is
    screened once, at ``cap``, and each candidate reuses that model. The scan
    stops at the first size whose search finds a batch or is cut off before
    it decides (no solution, ``exhausted`` false), and returns that size's
    model. A cut-off size comes back with no solutions, since it may still
    be the smallest feasible one.
    """
    model = build_model(alpha, cap)
    diag = np.diag(model.alpha)
    lower = max(1, int(np.max(diag[:, None] + diag[None, :] - model.alpha)))
    for m in range(lower, cap + 1):
        model = replace(model, m=m)
        solutions, stats = solve(model, limit=limit, deadline=deadline)
        if solutions or not stats.exhausted:
            return model, solutions, stats
    raise InfeasibleScreen(f"no feasible batch size in [{lower}, {cap}]")
