import gc
import hashlib
import itertools
import json

import numpy as np
import pytest

from gramleak import fedsim, numkit, reconstruct
from gramleak.attack import RecoveredSystem
from gramleak.reconstruct import (
    InfeasibleScreen,
    NoConsistentLabels,
    build_model,
    canonical_rows,
    count_constraints,
    discover_batch_size,
    enumerate_labels,
    export_model_text,
    recover_labels,
    solve,
    verify_solution,
)


def gram_of(x):
    xi = np.asarray(x, dtype=np.int64)
    return xi.T @ xi


def brute_force_matches(alpha, m, d):
    """Oracle: all canonical binary matrices with the given Gram matrix."""
    out = set()
    for bits in itertools.product((0, 1), repeat=m * d):
        x = np.array(bits, dtype=np.int64).reshape(m, d)
        if np.array_equal(x.T @ x, alpha):
            out.add(tuple(map(tuple, canonical_rows(x))))
    return out


def brute_force_by_columns(alpha, m):
    """Oracle: all canonical binary matrices with the given Gram matrix.

    Column j takes ``alpha[j, j]`` ones in every possible set of rows, and
    is kept when its counts with the earlier columns match. Column 0 takes
    the first rows only, as rows may be permuted freely.
    """
    d = len(alpha)
    out = set()

    def extend(cols):
        j = len(cols)
        if j == d:
            out.add(tuple(map(tuple, canonical_rows(np.array(cols).T))))
            return
        picks = itertools.combinations(range(m), int(alpha[j, j])) if j else [range(alpha[0, 0])]
        for ones in picks:
            col = [int(i in ones) for i in range(m)]
            if all(np.dot(col, cols[l]) == alpha[j, l] for l in range(j)):
                extend(cols + [col])

    extend([])
    return out


class TestCountConstraints:
    def test_reference_value(self):
        assert count_constraints(3, 5) == 145

    def test_smallest_case(self):
        assert count_constraints(1, 1) == 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            count_constraints(0, 5)

    def test_matches_model_under_ordered_pair_accounting(self):
        # The model materializes each pair once; ordered accounting doubles
        # the pair-sum equalities and the per-sample inequality pairs.
        for m in range(1, 12):
            for d in range(1, 21):
                alpha = np.zeros((d, d), dtype=np.int64)
                model = build_model(alpha, m)
                pair_sums = d * (d - 1) // 2
                if_then = 2 * m * pair_sums
                assert model.constraint_count == d + pair_sums + if_then
                ordered = d + 2 * pair_sums + 2 * if_then
                assert ordered == count_constraints(m, d)


class TestBuildModel:
    def test_forced_single_sample(self):
        alpha = np.array([[1, 1], [1, 1]], dtype=np.int64)
        solutions, stats = solve(build_model(alpha, 1))
        assert stats.status == reconstruct.STATUS_UNIQUE
        assert np.array_equal(solutions[0].x, np.array([[1, 1]]))

    def test_offdiagonal_above_diagonal_screened(self):
        # PSD (det = 1) but the co-occurrence count beats a column sum.
        alpha = np.array([[1, 2], [2, 5]], dtype=np.int64)
        with pytest.raises(InfeasibleScreen, match="exceeds"):
            build_model(alpha, 5)

    def test_negative_cooccurrence_screened(self):
        # PSD (eigenvalues 1 and 3), yet no two columns share -1 rows.
        alpha = np.array([[2, -1], [-1, 2]], dtype=np.int64)
        with pytest.raises(InfeasibleScreen, match=r"alpha\[0,1\] = -1 is negative"):
            build_model(alpha, 2)

    @pytest.mark.parametrize("alpha, m, union", [
        ([[3, 0], [0, 3]], 3, 6),
        # Column sums force both rows to be (1,1), but the pair count says 1.
        ([[2, 1], [1, 2]], 2, 3),
        # Pairs (0,1) and (0,2) fit in three rows; the error names pair (1,2).
        ([[1, 1, 0], [1, 2, 0], [0, 0, 2]], 3, 4),
    ])
    def test_pair_union_above_batch_size_screened(self, alpha, m, union):
        alpha = np.array(alpha, dtype=np.int64)
        d = len(alpha)
        with pytest.raises(InfeasibleScreen, match=f"columns {d - 2} and {d - 1} cover {union} rows"):
            build_model(alpha, m)

    def test_pair_union_past_int64_screened(self):
        # The columns cover 2^63 + 10 rows, a count past int64 and 11 more
        # than the batch size: the screen must not wrap, and it raises
        # before any search starts.
        alpha = np.array([[2**62 + 5, 0], [0, 2**62 + 5]])
        with pytest.raises(InfeasibleScreen, match=f"columns 0 and 1 cover {2**63 + 10} rows"):
            build_model(alpha, 2**63 - 1)

    def test_diagonal_above_batch_size_screened(self):
        alpha = np.array([[3, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(InfeasibleScreen, match="wrong batch size"):
            build_model(alpha, 2)

    def test_asymmetry_screened(self):
        alpha = np.array([[1, 1], [0, 1]], dtype=np.int64)
        with pytest.raises(InfeasibleScreen, match="symmetric"):
            build_model(alpha, 2)

    def test_non_integral_screened(self):
        alpha = np.array([[1.5, 0.0], [0.0, 1.0]])
        with pytest.raises(InfeasibleScreen, match="integral"):
            build_model(alpha, 2)

    def test_non_psd_screened(self):
        # Symmetric, integral, bounds fine, but an eigenvalue is negative.
        alpha = np.array([[2, -2], [-2, 1]], dtype=np.int64)
        with pytest.raises(InfeasibleScreen, match="semidefinite"):
            build_model(alpha, 2)

    @pytest.mark.parametrize("alpha", [
        [[np.nan]], [[np.inf]], [[1e30]], [[1.0, np.nan], [np.nan, 1.0]], np.zeros((0, 0)), [1, 2],
    ], ids=["nan", "inf", "beyond_int64", "nan_off_diagonal", "empty", "one_dimensional"])
    def test_malformed_alpha_screened(self, alpha):
        # Each is an InfeasibleScreen, not a numpy error or an INT64_MIN count.
        with pytest.raises(InfeasibleScreen):
            build_model(np.array(alpha), 3)

    def test_integer_alpha_keeps_its_value(self):
        # 2**53 + 1 has no float64; the message names the count itself.
        with pytest.raises(InfeasibleScreen, match="= 9007199254740993 outside"):
            build_model(np.array([[2**53 + 1]]), 3)


class TestExport:
    def test_single_sample_model_listing(self):
        alpha = np.array([[1, 1], [1, 1]], dtype=np.int64)
        text = export_model_text(build_model(alpha, 1))
        lines = text.strip().splitlines()
        assert "binary x_0_0" in lines
        assert "binary delta_0_1_0" in lines
        assert "x_0_0 = 1" in lines
        assert "x_0_1 = 1" in lines
        assert "delta_0_1_0 = 1" in lines
        assert "x_0_0 + x_0_1 - 2 delta_0_1_0 >= 0" in lines
        assert "x_0_0 + x_0_1 - delta_0_1_0 <= 1" in lines

    def test_full_listing_of_two_by_three_model(self):
        x = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.int64)
        expected = (
            "binary x_0_0\nbinary x_0_1\nbinary x_0_2\n"
            "binary x_1_0\nbinary x_1_1\nbinary x_1_2\n"
            "binary delta_0_1_0\nbinary delta_0_1_1\n"
            "binary delta_0_2_0\nbinary delta_0_2_1\n"
            "binary delta_1_2_0\nbinary delta_1_2_1\n"
            "x_0_0 + x_1_0 = 2\n"
            "x_0_1 + x_1_1 = 1\n"
            "x_0_2 + x_1_2 = 1\n"
            "delta_0_1_0 + delta_0_1_1 = 1\n"
            "delta_0_2_0 + delta_0_2_1 = 1\n"
            "delta_1_2_0 + delta_1_2_1 = 0\n"
            "x_0_0 + x_0_1 - 2 delta_0_1_0 >= 0\n"
            "x_0_0 + x_0_1 - delta_0_1_0 <= 1\n"
            "x_1_0 + x_1_1 - 2 delta_0_1_1 >= 0\n"
            "x_1_0 + x_1_1 - delta_0_1_1 <= 1\n"
            "x_0_0 + x_0_2 - 2 delta_0_2_0 >= 0\n"
            "x_0_0 + x_0_2 - delta_0_2_0 <= 1\n"
            "x_1_0 + x_1_2 - 2 delta_0_2_1 >= 0\n"
            "x_1_0 + x_1_2 - delta_0_2_1 <= 1\n"
            "x_0_1 + x_0_2 - 2 delta_1_2_0 >= 0\n"
            "x_0_1 + x_0_2 - delta_1_2_0 <= 1\n"
            "x_1_1 + x_1_2 - 2 delta_1_2_1 >= 0\n"
            "x_1_1 + x_1_2 - delta_1_2_1 <= 1\n"
        )
        assert export_model_text(build_model(gram_of(x), 2)) == expected

    def test_line_count_matches_model(self):
        for m in range(1, 5):
            for d in range(1, 6):
                model = build_model(np.zeros((d, d), dtype=np.int64), m)
                lines = export_model_text(model).strip().splitlines()
                binaries = [line for line in lines if line.startswith("binary ")]
                # m*d bit variables, then m per unordered column pair.
                assert len(binaries) == m * d + m * d * (d - 1) // 2
                assert len(lines) - len(binaries) == model.constraint_count


class TestSolve:
    def test_single_row_read_off_diagonal(self):
        x = np.array([[1, 0, 1, 1]], dtype=np.int64)
        solutions, stats = solve(build_model(gram_of(x), 1))
        assert stats.status == reconstruct.STATUS_UNIQUE
        assert np.array_equal(solutions[0].x, x)

    def test_ground_truth_round_trip(self):
        rng = np.random.default_rng(50)
        batch = fedsim.random_batch(rng, 5, 10)
        xi = batch.x.astype(np.int64)
        solutions, stats = solve(build_model(gram_of(xi), 5))
        assert stats.exhausted
        target = tuple(map(tuple, canonical_rows(xi)))
        assert target in {tuple(map(tuple, s.x)) for s in solutions}

    def test_wide_batches_admit_multiple_solutions(self):
        # Crowded columns (m well above d) make distinct batches share a Gram
        # matrix; at least one seed in ten must exhibit that for m in {9, 11}.
        for m in (9, 11):
            statuses = []
            for trial in range(10):
                rng = np.random.default_rng([51, m, trial])
                batch = fedsim.random_batch(rng, m, 5)
                _, stats = solve(build_model(gram_of(batch.x), m), limit=2)
                statuses.append(stats.status)
            assert reconstruct.STATUS_MULTIPLE in statuses

    def test_exhaustive_matches_brute_force_small(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            x = rng.integers(0, 2, (m, d)).astype(np.int64)
            alpha = x.T @ x
            solutions, stats = solve(build_model(alpha, m))
            assert stats.exhausted
            got = {tuple(map(tuple, s.x)) for s in solutions}
            assert got == brute_force_matches(alpha, m, d)

    def test_canonicalization_is_permutation_invariant(self):
        rng = np.random.default_rng(53)
        batch = fedsim.random_batch(rng, 6, 7)
        xi = batch.x.astype(np.int64)
        base, _ = solve(build_model(gram_of(xi), 6))
        permuted = xi[rng.permutation(6)]
        again, _ = solve(build_model(gram_of(permuted), 6))
        assert len(base) == len(again)
        for a, b in zip(base, again):
            assert np.array_equal(a.x, b.x)

    def test_every_solution_is_sound(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            m = int(rng.integers(1, 8))
            d = int(rng.integers(1, 9))
            x = rng.integers(0, 2, (m, d)).astype(np.int64)
            alpha = x.T @ x
            system = RecoveredSystem(alpha=alpha, beta=x.T @ np.ones(m, dtype=np.int64))
            solutions, _ = solve(build_model(alpha, m), limit=8)
            assert solutions
            for sol in solutions:
                assert verify_solution(sol.x, None, system).ok
                assert np.array_equal(sol.x, canonical_rows(sol.x))

    def test_infeasible_status(self):
        # Every column pair fits in two rows, but three disjoint columns need three.
        alpha = np.eye(3, dtype=np.int64)
        solutions, stats = solve(build_model(alpha, 2))
        assert solutions == []
        assert stats.status == reconstruct.STATUS_INFEASIBLE
        assert stats.exhausted

    def test_limit_one_does_not_claim_uniqueness(self):
        rng = np.random.default_rng(55)
        batch = fedsim.random_batch(rng, 9, 5)
        solutions, stats = solve(build_model(gram_of(batch.x), 9), limit=1)
        assert len(solutions) == 1
        assert stats.status == reconstruct.STATUS_LIMIT
        assert not stats.exhausted

    def test_deadline_interrupts(self):
        rng = np.random.default_rng(56)
        batch = fedsim.random_batch(rng, 11, 20)
        _, stats = solve(build_model(gram_of(batch.x), 11), deadline=0.0)
        assert stats.status == reconstruct.STATUS_LIMIT
        assert not stats.exhausted

    def test_non_binary_columns_can_be_excluded(self):
        # A known non-binary column is dropped; the binary block reconstructs.
        rng = np.random.default_rng(57)
        binary = rng.integers(0, 2, (4, 5)).astype(float)
        extra = rng.uniform(0.2, 0.8, (4, 1))
        full = np.hstack([binary[:, :2], extra, binary[:, 2:]])
        gram = full.T @ full
        binary_cols = [0, 1, 3, 4, 5]
        sub = gram[np.ix_(binary_cols, binary_cols)]
        sub_int = numkit.round_integral(sub, tol=1e-9)
        solutions, stats = solve(build_model(sub_int, 4))
        assert stats.exhausted
        target = tuple(map(tuple, canonical_rows(binary.astype(np.int64))))
        assert target in {tuple(map(tuple, s.x)) for s in solutions}

    @pytest.mark.parametrize("deadline", [float("nan"), -1.0])
    def test_bad_deadline_rejected(self, deadline):
        model = build_model(np.eye(2, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="deadline"):
            solve(model, deadline=deadline)

    def test_zero_limit_rejected(self):
        model = build_model(np.eye(2, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="limit"):
            solve(model, limit=0)

    def test_deep_search_has_no_recursion_ceiling(self):
        # 200 columns: the search is deeper than Python's recursion limit.
        batch = fedsim.random_batch(np.random.default_rng(63), 4, 200)
        xi = batch.x.astype(np.int64)
        solutions, stats = solve(build_model(gram_of(xi), 4), limit=2)
        assert stats.status == reconstruct.STATUS_UNIQUE
        assert np.array_equal(solutions[0].x, canonical_rows(xi))


class WalkOnly(reconstruct._Search):
    """The search with its linear completion switched off: the reference walk.

    Every completion walks on without counting a node, so the walk places
    every column.
    """

    def _complete(self, k, groups, pivots, deps):
        return False


def identity_order_search(alpha, m, limit=None, search=reconstruct._Search):
    """The search with its columns walked in input order: the reference for solve."""
    walk = search(np.asarray(alpha), m, limit, None)
    walk.run()
    return walk


def walk_only_solve(model, limit=None):
    """``solve`` with the reference walk in place of ``_Search``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reconstruct, "_Search", WalkOnly)
        return solve(model, limit=limit)


def walk_digest(batches):
    text = json.dumps([np.asarray(x).tolist() for x in batches])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (seed, rows drawn, batch size solved, d, limit) -> nodes_explored of the
# plain walk (``WalkOnly``; the test id carries it), status, exhausted, a
# digest of the solutions in order, and last the nodes_explored of the search
# with linear completion. Completion replaces the walk below a node with one
# node, so both searches find the same solutions in the same order. Seed 86
# one row short is infeasible. IDENTITY_ORDER_WALKS were recorded with the
# earlier recursive search, whose columns went in input order: the plain walk
# must not change. GOLDEN_SEARCHES walk all d columns in fail-first order, as
# ``solve`` did before it folded copies and complements; seed 87 at 16x30
# took 497 918 nodes in input order. FOLDED_SEARCHES are what ``solve``
# walks: the same solutions, fewer nodes wherever a column folds. Seeds 88 and
# 89 are wide cells: each split there meets the counts of up to 199 placed
# columns.
IDENTITY_ORDER_WALKS = [
    ((70, 3, 3, 5, None), (17, "unique", True, "5a225fc940af52a2", 12)),
    ((71, 5, 5, 10, None), (53, "unique", True, "1e26187773e6b065", 10)),
    ((72, 5, 5, 10, 1), (62, "limit_reached", False, "572457da3a214a64", 20)),
    ((73, 8, 8, 5, None), (62, "multiple", True, "85a40f3748975d6f", 62)),
    ((74, 8, 8, 10, 2), (103, "unique", True, "f39c39879666b97a", 23)),
    ((75, 9, 9, 5, 2), (80, "multiple", False, "e83a40473bdd4ebe", 80)),
    ((76, 9, 9, 15, 2), (164, "unique", True, "a356dec4559ce052", 58)),
    ((77, 11, 11, 5, None), (57, "multiple", True, "19b8c8c7d8285c26", 57)),
    ((78, 11, 11, 10, 1), (210, "limit_reached", False, "07c36e6b7819d3bd", 149)),
    ((79, 11, 11, 20, 2), (8885, "unique", True, "0f5c69fc1427b9b3", 6958)),
    ((80, 11, 11, 15, None), (750, "unique", True, "2b10756ae5c784f7", 222)),
    ((86, 6, 5, 8, None), (27, "infeasible", True, "4f53cda18c2baa0c", 18)),
    ((88, 3, 3, 100, 2), (395, "unique", True, "9ce962a375af7d9d", 12)),
    ((89, 4, 4, 200, 2), (994, "unique", True, "ae0bd281949a39fe", 18)),
]
GOLDEN_SEARCHES = [
    ((70, 3, 3, 5, None), (16, "unique", True, "5a225fc940af52a2", 11)),
    ((71, 5, 5, 10, None), (47, "unique", True, "1e26187773e6b065", 22)),
    ((72, 5, 5, 10, 1), (46, "limit_reached", False, "572457da3a214a64", 40)),
    ((73, 8, 8, 5, None), (47, "multiple", True, "6be5cc16cb9d004a", 47)),
    ((74, 8, 8, 10, 2), (104, "unique", True, "f39c39879666b97a", 56)),
    ((75, 9, 9, 5, 2), (41, "multiple", False, "a808a8048dfc0b65", 41)),
    ((76, 9, 9, 15, 2), (153, "unique", True, "a356dec4559ce052", 88)),
    ((77, 11, 11, 5, None), (34, "multiple", True, "4b2fb2e85049baed", 34)),
    ((78, 11, 11, 10, 1), (153, "limit_reached", False, "07c36e6b7819d3bd", 103)),
    ((79, 11, 11, 20, 2), (477, "unique", True, "0f5c69fc1427b9b3", 79)),
    ((80, 11, 11, 15, None), (323, "unique", True, "2b10756ae5c784f7", 136)),
    ((86, 6, 5, 8, None), (7, "infeasible", True, "4f53cda18c2baa0c", 7)),
    ((87, 16, 16, 30, None), (4599, "unique", True, "bfe52dc7e2c2af03", 2055)),
    ((88, 3, 3, 100, 2), (331, "unique", True, "9ce962a375af7d9d", 132)),
    ((89, 4, 4, 200, 2), (842, "unique", True, "ae0bd281949a39fe", 281)),
]
FOLDED_SEARCHES = [
    ((70, 3, 3, 5, None), (13, "unique", True, "5a225fc940af52a2", 8)),
    ((71, 5, 5, 10, None), (34, "unique", True, "1e26187773e6b065", 15)),
    ((72, 5, 5, 10, 1), (23, "limit_reached", False, "572457da3a214a64", 23)),
    ((73, 8, 8, 5, None), (47, "multiple", True, "6be5cc16cb9d004a", 47)),
    ((74, 8, 8, 10, 2), (104, "unique", True, "f39c39879666b97a", 56)),
    ((75, 9, 9, 5, 2), (41, "multiple", False, "a808a8048dfc0b65", 41)),
    ((76, 9, 9, 15, 2), (144, "unique", True, "a356dec4559ce052", 79)),
    ((77, 11, 11, 5, None), (34, "multiple", True, "4b2fb2e85049baed", 34)),
    ((78, 11, 11, 10, 1), (153, "limit_reached", False, "07c36e6b7819d3bd", 103)),
    ((79, 11, 11, 20, 2), (461, "unique", True, "0f5c69fc1427b9b3", 79)),
    ((80, 11, 11, 15, None), (323, "unique", True, "2b10756ae5c784f7", 136)),
    ((86, 6, 5, 8, None), (7, "infeasible", True, "4f53cda18c2baa0c", 7)),
    ((87, 16, 16, 30, None), (4599, "unique", True, "bfe52dc7e2c2af03", 2055)),
    ((88, 3, 3, 100, 2), (11, "unique", True, "9ce962a375af7d9d", 8)),
    ((89, 4, 4, 200, 2), (35, "unique", True, "ae0bd281949a39fe", 14)),
]


def golden_gram(seed, rows, d):
    xi = fedsim.random_batch(np.random.default_rng(seed), rows, d).x.astype(np.int64)
    return gram_of(xi)


@pytest.mark.parametrize("case, expected", IDENTITY_ORDER_WALKS, ids=lambda v: str(v[0]))
def test_search_walk_matches_recording(case, expected):
    seed, rows, m, d, limit = case
    walk_nodes, *outcome, completed_nodes = expected
    for search, nodes in ((WalkOnly, walk_nodes), (reconstruct._Search, completed_nodes)):
        walk = identity_order_search(golden_gram(seed, rows, d), m, limit, search)
        exhausted = not walk.stopped
        status = reconstruct._search_status(len(walk.solutions), exhausted)
        assert (walk.nodes, status, exhausted, walk_digest(walk.solutions)) == (nodes, *outcome)
        assert sum(walk.column_nodes) == walk.nodes


def fail_first_search(alpha, m, limit=None, search=reconstruct._Search):
    """All d columns walked in ``_column_order``, nothing folded.

    Returns the search and its solutions read back in input column order,
    canonical and sorted as ``solve`` returns them.
    """
    alpha = np.asarray(alpha)
    order = reconstruct._column_order(alpha.tolist(), m)
    walk = search(alpha[np.ix_(order, order)], m, limit, None)
    walk.run()
    found = np.array(walk.solutions, dtype=np.int64).reshape(-1, m, len(order))
    batches = sorted(sorted(map(tuple, rows)) for rows in found[:, :, np.argsort(order)].tolist())
    return walk, batches


@pytest.mark.parametrize("case, expected", GOLDEN_SEARCHES, ids=lambda v: str(v[0]))
def test_solve_walk_matches_recording(case, expected):
    seed, rows, m, d, limit = case
    walk_nodes, *outcome, completed_nodes = expected
    for search, nodes in ((WalkOnly, walk_nodes), (reconstruct._Search, completed_nodes)):
        walk, batches = fail_first_search(golden_gram(seed, rows, d), m, limit, search)
        exhausted = not walk.stopped
        status = reconstruct._search_status(len(batches), exhausted)
        assert (walk.nodes, status, exhausted, walk_digest(batches)) == (nodes, *outcome)
        assert sum(walk.column_nodes) == walk.nodes


@pytest.mark.parametrize("case, expected", FOLDED_SEARCHES, ids=lambda v: str(v[0]))
def test_folded_solve_walk_matches_recording(case, expected):
    seed, rows, m, d, limit = case
    walk_nodes, *outcome, completed_nodes = expected
    model = build_model(golden_gram(seed, rows, d), m)
    for run, nodes in ((walk_only_solve, walk_nodes), (solve, completed_nodes)):
        solutions, stats = run(model, limit=limit)
        digest = walk_digest([s.x for s in solutions])
        assert (stats.nodes_explored, stats.status, stats.exhausted, digest) == (nodes, *outcome)
        assert sorted(stats.column_order) == list(range(d))
        assert len(stats.nodes_per_column) == d
        assert sum(stats.nodes_per_column) == stats.nodes_explored


def test_column_order_is_fail_first():
    # Column sums 2, 4, 1, 3 of m = 4 rows: the full column 1 is the most
    # extreme density. Columns 2 and 3 then tie on their tables with it
    # (cells 1, 0, 3, 0 and 3, 0, 1, 0); both are one away from a full or an
    # empty column, so the lower index, 2, wins. With column 2 placed, column
    # 3's tables are more lopsided than column 0's.
    x = np.array([[1, 1, 1, 1], [1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 0]])
    assert reconstruct._column_order(gram_of(x).tolist(), 4) == [1, 2, 3, 0]
    _, stats = solve(build_model(gram_of(x), 4))
    assert stats.column_order == (1, 2, 3, 0)


def test_column_order_keeps_solution_sets():
    # solve walks the columns fail-first; the input-order walk of the same
    # search is the reference. Exhaustive sets and statuses must agree, also
    # with repeated rows and at an infeasible batch size one row short.
    rng = np.random.default_rng(65)
    compared = infeasible = 0
    for trial in range(320):
        m = int(rng.integers(1, 10))
        d = int(rng.integers(1, 11))
        x = rng.integers(0, 2, (m, d)).astype(np.int64)
        if trial % 4 == 0 and m > 2:
            x[1:3] = x[0]
        alpha = gram_of(x)
        for size in (m, m - 1):
            try:
                model = build_model(alpha, size)
            except InfeasibleScreen:
                continue
            solutions, stats = solve(model)
            reference = identity_order_search(alpha, size)
            assert stats.exhausted and not reference.stopped
            assert stats.status == reconstruct._search_status(len(reference.solutions), True)
            assert [tuple(map(tuple, s.x)) for s in solutions] == sorted(reference.solutions)
            compared += 1
            infeasible += stats.status == reconstruct.STATUS_INFEASIBLE
    assert compared >= 300 and infeasible >= 10


def dependent_rows(rng, m, d):
    """A 0/1 batch whose rows 2 and 3 are ``a | b`` and ``a & b`` of rows 0 and 1.

    ``a + b = (a | b) + (a & b)`` on every column, the all-ones column too,
    so ``[1 | X]`` has rank below m on any set of columns: no completion can
    fix the rest, on the path to this batch or to any batch with such rows.
    """
    x = rng.integers(0, 2, (m, d)).astype(np.int64)
    x[2] = x[0] | x[1]
    x[3] = x[0] & x[1]
    return x


def coded_rows(rng, m, d):
    """m distinct rows whose first m - 1 bits are words of a small code mod 2.

    The code has the fewest dimensions b that hold m words, so a node with
    those m - 1 columns placed has m - b - 1 dependencies among the rows of
    ``[1 | P]`` at least: from m = 8, more than ``2^r <= m + 1`` allows.
    """
    b = (m - 1).bit_length()
    basis = rng.integers(0, 2, (b, m - 1))
    words = np.array([[i >> j & 1 for j in range(b)] for i in range(2 ** b)]) @ basis % 2
    x = rng.integers(0, 2, (m, d))
    x[:, :m - 1] = words[rng.permutation(2 ** b)[:m]]
    return x.astype(np.int64)


class Ungated(reconstruct._Search):
    """The search with no cost gate: a completion checks all 2^r candidates.

    r counts dependencies among m rows, so it stays below m + 1 and every
    completion that is due runs to its end.
    """

    def __init__(self, alpha, m, limit, deadline_at):
        super().__init__(alpha, m, limit, deadline_at)
        self.max_deps = m + 1


class LoggedSearch(reconstruct._Search):
    """The search, logging each node of m single rows and each completion.

    ``single_rows`` holds (placed columns, r) per node, r counted by
    ``_dependencies`` on the rows of ``[1 | P]``; ``completions`` holds (node
    index, placed columns, recorded a batch) per ``_complete`` call.
    """

    def __init__(self, alpha, m, limit, deadline_at):
        super().__init__(alpha, m, limit, deadline_at)
        self.single_rows = []
        self.completions = []

    def _splits(self, col, row, groups):
        for split in super()._splits(col, row, groups):
            if len(split) == self.m and col + 1 < self.d:
                rows = [(p << 1) | 1 for _, p, _ in split]
                self.single_rows.append((col + 1, len(reconstruct._dependencies(rows)[1])))
            yield split

    def _complete(self, k, groups, pivots, deps):
        found = len(self.solutions)
        decided = super()._complete(k, groups, pivots, deps)
        self.completions.append((len(self.single_rows) - 1, k, len(self.solutions) > found))
        return decided


class TestLinearCompletion:
    @pytest.mark.parametrize("search", [reconstruct._Search, Ungated], ids=["gated", "always"])
    def test_sets_match_the_reference_walk(self, monkeypatch, search):
        # With and without the cost gate 2^r <= m + 1, so nodes with more
        # dependencies complete too. Duplicate and dependent rows, and batch
        # sizes one off the truth.
        monkeypatch.setattr(reconstruct, "_Search", search)
        rng = np.random.default_rng(90)
        compared = tried = taken = 0
        for m, d in [(5, 5), (6, 8), (8, 10), (9, 12), (11, 15), (12, 20), (14, 24), (16, 30)]:
            for trial in range(5):
                if trial == 2:
                    x = dependent_rows(rng, m, d)
                else:
                    x = rng.integers(0, 2, (m, d)).astype(np.int64)
                if trial == 1:
                    x[1:3] = x[0]
                for size in (m - 1, m, m + 1):
                    try:
                        model = build_model(gram_of(x), size)
                    except InfeasibleScreen:
                        continue
                    solutions, stats = solve(model)
                    reference, walked = walk_only_solve(model)
                    assert stats.exhausted and walked.exhausted
                    assert stats.status == walked.status
                    assert [s.x.tolist() for s in solutions] == [s.x.tolist() for s in reference]
                    # A completion is one node in place of the walk below it.
                    assert stats.nodes_explored <= walked.nodes_explored + stats.completions_tried
                    assert walked.completions_tried == 0
                    compared += 1
                    tried += stats.completions_tried
                    taken += stats.completions_taken
        assert compared >= 40 and taken >= 20 and tried > taken
        # solve places the coded columns last; in input order they come first.
        rng = np.random.default_rng(93)
        for m, d in [(8, 10), (8, 12), (9, 12)]:
            for _ in range(3):
                alpha = gram_of(coded_rows(rng, m, d))
                walk = identity_order_search(alpha, m, search=search)
                reference = identity_order_search(alpha, m, search=WalkOnly)
                assert walk.solutions == reference.solutions
                assert walk.nodes <= reference.nodes + walk.completions_tried

    def test_gate_changes_only_node_counts(self):
        # Past the gate the walk goes on, where all 2^r candidates may
        # have decided the node: the same batches, more nodes.
        rng = np.random.default_rng(93)
        more = 0
        for _ in range(6):
            alpha = gram_of(coded_rows(rng, 8, 10))
            gated = identity_order_search(alpha, 8)
            ungated = identity_order_search(alpha, 8, search=Ungated)
            assert gated.solutions == ungated.solutions
            more += gated.nodes > ungated.nodes
        assert more >= 3

    def test_completion_is_tried_where_two_to_the_r_fits(self):
        # Every node of m single rows tries a completion exactly where
        # 2^r <= m + 1. With k < m - 1 columns placed, [1 | P] has r >= 1,
        # and such completions still record batches.
        rng = np.random.default_rng(99)
        nodes = early = 0
        for trial in range(60):
            m = int(rng.integers(4, 12))
            d = int(rng.integers(m, 2 * m + 2))
            x = dependent_rows(rng, m, d) if trial % 3 == 0 else rng.integers(0, 2, (m, d))
            for limit in (None, 1):
                walk = identity_order_search(gram_of(x), m, limit, LoggedSearch)
                due = [i for i, (_, r) in enumerate(walk.single_rows) if 2 ** r <= m + 1]
                assert [i for i, _, _ in walk.completions] == due
                assert walk.completions_tried == len(due)
                nodes += len(walk.single_rows)
                early += sum(taken and k < m - 1 for _, k, taken in walk.completions)
        assert nodes > early >= 20

    def test_limited_walks_keep_their_order(self):
        # A completion records its batch where the walk below would have, so
        # a search stopped by its limit returns the same first solutions.
        rng = np.random.default_rng(91)
        for _ in range(60):
            m = int(rng.integers(3, 10))
            d = int(rng.integers(m, 14))
            alpha = gram_of(rng.integers(0, 2, (m, d)))
            for limit in (1, 2, 3):
                completed = identity_order_search(alpha, m, limit)
                walked = identity_order_search(alpha, m, limit, WalkOnly)
                assert completed.solutions == walked.solutions
                assert completed.stopped == walked.stopped

    def test_unique_wide_cell_completes_to_the_truth(self):
        x = fedsim.random_batch(np.random.default_rng(87), 16, 30).x.astype(np.int64)
        solutions, stats = solve(build_model(gram_of(x), 16))
        assert stats.status == reconstruct.STATUS_UNIQUE
        assert (stats.completions_tried, stats.completions_taken) == (1, 1)
        assert np.array_equal(solutions[0].x, canonical_rows(x))

    def test_rank_miss_matches_brute_force(self):
        # Rows a, b, a | b, a & b and two more: [1 | P] misses rank 6 on
        # every set of columns, yet one fit per column decides the node.
        rng = np.random.default_rng(92)
        completed = 0
        for _ in range(40):
            alpha = gram_of(dependent_rows(rng, 6, 8))
            model = build_model(alpha, 6)
            solutions, stats = solve(model)
            if not stats.completions_taken:
                continue  # rows alike on the first columns: no completion applies
            got = {tuple(map(tuple, s.x)) for s in solutions}
            assert got == brute_force_by_columns(alpha, 6)
            reference, walked = walk_only_solve(model)
            assert [s.x.tolist() for s in solutions] == [s.x.tolist() for s in reference]
            assert stats.exhausted and stats.status == walked.status
            completed += 1
            if completed == 5:
                break
        assert completed == 5

    @pytest.mark.parametrize("m, d", [(12, 24), (16, 30)])
    def test_rank_miss_is_not_retried_below(self, m, d):
        # The first completion on the way to a batch with dependent rows
        # decides its node, so no node below it needs a retry.
        rng = np.random.default_rng([93, m])
        for _ in range(3):
            model = build_model(gram_of(dependent_rows(rng, m, d)), m)
            solutions, stats = solve(model, limit=2)
            reference, walked = walk_only_solve(model, limit=2)
            assert [s.x.tolist() for s in solutions] == [s.x.tolist() for s in reference]
            assert stats.status == walked.status == reconstruct.STATUS_UNIQUE
            assert stats.completions_tried == stats.completions_taken == 1
            assert stats.nodes_explored < walked.nodes_explored

    def test_search_calls_no_float_linear_algebra(self, monkeypatch):
        # The completion is decided in integers: every np.linalg function raises.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called")

        x = fedsim.random_batch(np.random.default_rng(87), 16, 30).x.astype(np.int64)
        batches = [x, dependent_rows(np.random.default_rng(94), 12, 24)]
        models = [build_model(gram_of(b), len(b)) for b in batches]
        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        for batch, model in zip(batches, models):
            solutions, stats = solve(model)
            assert stats.status == reconstruct.STATUS_UNIQUE
            assert stats.completions_taken >= 1
            assert np.array_equal(solutions[0].x, canonical_rows(batch))

    def test_complete_matches_brute_force_on_small_nodes(self):
        # Every node of m <= 8 single rows that the walk reaches, with k
        # placed columns: record, prune or walk on as enumerating each 0/1
        # column says, and a recorded batch is the node's only completion.
        # Half the batches have dependent rows; a third get one row more.
        rng = np.random.default_rng(98)
        outcomes = {"record": 0, "prune": 0, "walk": 0}
        deficient = 0  # recorded where [1 | P] misses rank m
        for trial in range(600):
            m = int(rng.integers(3, 8))
            d = int(rng.integers(m - 1, 9))
            x = dependent_rows(rng, m, d) if trial % 2 and m >= 4 else rng.integers(0, 2, (m, d))
            alpha = gram_of(x)
            m += trial % 3 // 2
            search = reconstruct._Search(alpha, m, None, None)
            level = [[(m, 0, [])]]
            for k in range(1, d):
                level = [g for groups in level for g in search._splits(k - 1, search.alpha[k - 1], groups)]
                for groups in level:
                    if len(groups) < m:
                        continue
                    expected, batch = complete_by_enumeration(alpha, m, k, groups)
                    node = reconstruct._Search(alpha, m, None, None)
                    pivots, deps = reconstruct._dependencies([(p << 1) | 1 for _, p, _ in groups])
                    if len(deps) >= node.max_deps or not node._complete(k, groups, pivots, deps):
                        outcome = "walk"
                    else:
                        outcome = "record" if node.solutions else "prune"
                    assert outcome == expected
                    if outcome == "record":
                        assert node.solutions == [batch]
                        rows = [[1] + [p >> j & 1 for j in range(k)] for _, p, _ in groups]
                        deficient += np.linalg.matrix_rank(np.array(rows)) < m
                    outcomes[outcome] += 1
        assert min(outcomes.values()) >= 30 and deficient >= 100

def complete_by_enumeration(alpha, m, k, groups):
    """What ``_complete`` must decide at a node, from every 0/1 column of m rows.

    Columns k, k+1, ... in turn: the fits are the columns meeting the total
    and the counts with the placed columns and with the columns decided
    before. No fit prunes, two walk on, one decides the column; so do more
    than m + 1 candidates mod 2 (2^r zero-sum row sets of ``[1 | P]``).
    Returns the outcome and, for a record, the batch as the search records it.
    """
    d = len(alpha)
    cols = [[p >> j & 1 for _, p, _ in groups] for j in range(k)]
    rank_gap = len(zero_sums([(p << 1) | 1 for _, p, _ in groups]))
    if rank_gap > m + 1:
        return "walk", None
    for c in range(k, d):
        fits = [
            col for col in itertools.product((0, 1), repeat=m)
            if sum(col) == alpha[c, c]
            and all(np.dot(col, cols[l]) == alpha[c, l] for l in range(c))
        ]
        if not fits:
            return "prune", None
        if len(fits) > 1:
            return "walk", None
        cols.append(list(fits[0]))
    return "record", tuple(sorted(zip(*cols)))

def span(masks):
    """Every XOR of a subset of ``masks``."""
    out = {0}
    for n in masks:
        out |= {v ^ n for v in out}
    return out


def xor_of(rows, mask):
    """The XOR of the rows that ``mask`` selects."""
    total = 0
    for i, row in enumerate(rows):
        if mask >> i & 1:
            total ^= row
    return total


def zero_sums(rows):
    """Brute force: the masks of the row subsets whose XOR is zero."""
    return {mask for mask in range(1 << len(rows)) if xor_of(rows, mask) == 0}


class TestDependenciesModTwo:
    def test_basis_spans_the_brute_force_dependencies(self):
        rng = np.random.default_rng(95)
        dependent = 0
        for _ in range(300):
            m = int(rng.integers(1, 11))
            width = int(rng.integers(1, 9))
            rows = [int(v) for v in rng.integers(0, 1 << width, m)]
            pivots, basis = reconstruct._dependencies(rows)
            expected = zero_sums(rows)
            assert 2 ** len(basis) == len(expected)
            # Each pivot is the sum of the rows in its mask, led by its key.
            assert len(pivots) + len(basis) == m
            for lead, (row, used) in pivots.items():
                assert row.bit_length() == lead
                assert row == xor_of(rows, used)
            assert set(basis) <= expected - {0}
            assert span(basis) == expected
            dependent += bool(basis)
        assert 100 <= dependent < 300

    def test_full_rank_mod_two_is_full_rank(self):
        # Rows independent mod 2 are independent over the rationals.
        rng = np.random.default_rng(97)
        full = 0
        for _ in range(200):
            m = int(rng.integers(1, 9))
            a = rng.integers(0, 2, (m, int(rng.integers(m, 12))))
            a[:, 0] = 1
            rows = [sum(int(bit) << j for j, bit in enumerate(row)) for row in a]
            if not reconstruct._dependencies(rows)[1]:
                assert np.linalg.matrix_rank(a) == m
                full += 1
        assert full >= 100


def batch_with_fixed_columns(rng, m, d):
    """A 0/1 batch with copied, complementary and constant columns forced in."""
    x = rng.integers(0, 2, (m, d)).astype(np.int64)
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.integers(0, d, 2)
        kind = int(rng.integers(0, 4))
        if kind == 0:
            x[:, j] = x[:, i]
        elif kind == 1:
            x[:, j] = 1 - x[:, i]
        else:
            x[:, j] = kind - 2  # an empty or a full column
    return x


class TestFold:
    def test_fixed_columns_match_brute_force(self):
        rng = np.random.default_rng(68)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            d = int(rng.integers(2, 5))
            alpha = gram_of(batch_with_fixed_columns(rng, m, d))
            solutions, stats = solve(build_model(alpha, m))
            assert stats.exhausted
            assert {tuple(map(tuple, s.x)) for s in solutions} == brute_force_matches(alpha, m, d)

    def test_fixed_columns_match_identity_order(self):
        # Batch sizes one above and below the truth: a complementary pair then
        # no longer covers every row, so it must not fold.
        rng = np.random.default_rng(69)
        compared = infeasible = folded = 0
        for _ in range(200):
            m = int(rng.integers(1, 9))
            d = int(rng.integers(2, 12))
            alpha = gram_of(batch_with_fixed_columns(rng, m, d))
            for size in (m - 1, m, m + 1):
                try:
                    model = build_model(alpha, size)
                except InfeasibleScreen:
                    continue
                solutions, stats = solve(model)
                reference = identity_order_search(alpha, size)
                assert stats.exhausted and not reference.stopped
                assert stats.status == reconstruct._search_status(len(reference.solutions), True)
                assert [tuple(map(tuple, s.x)) for s in solutions] == sorted(reference.solutions)
                compared += 1
                infeasible += stats.status == reconstruct.STATUS_INFEASIBLE
                folded += 0 in stats.nodes_per_column
        assert compared >= 400 and infeasible >= 5 and folded >= 300

    @staticmethod
    def premise_with_another_row(rng, complement):
        """A Gram matrix whose columns i and j meet a fold premise, rows apart.

        The premise is ``a_ii = a_ij = a_jj``, or ``a_ij = 0`` with
        ``a_ii + a_jj = m``; column j's count with a third column is then
        moved by one, so no batch has this Gram matrix.
        """
        m = int(rng.integers(2, 8))
        d = int(rng.integers(3, 9))
        x = rng.integers(0, 2, (m, d)).astype(np.int64)
        i, j, l = rng.choice(d, 3, replace=False)
        x[:, j] = 1 - x[:, i] if complement else x[:, i]
        alpha = gram_of(x)
        alpha[j, l] += int(rng.choice([-1, 1]))
        alpha[l, j] = alpha[j, l]
        return alpha, m

    def test_copy_premise_with_another_row_is_screened(self):
        # With a_ii = a_ij = a_jj, e_i - e_j has Gram norm 0; a positive
        # semidefinite alpha then has equal rows i and j, so the screen
        # rejects every such matrix before any fold.
        rng = np.random.default_rng(70)
        for _ in range(100):
            alpha, m = self.premise_with_another_row(rng, complement=False)
            with pytest.raises(InfeasibleScreen):
                build_model(alpha, m)

    def test_complement_premise_with_another_row_is_infeasible(self):
        rng = np.random.default_rng(71)
        checked = 0
        for _ in range(300):
            alpha, m = self.premise_with_another_row(rng, complement=True)
            try:
                model = build_model(alpha, m)
            except InfeasibleScreen:
                continue
            solutions, stats = solve(model)
            reference = identity_order_search(alpha, m)
            assert reference.solutions == [] and not reference.stopped
            assert solutions == [] and stats.status == reconstruct.STATUS_INFEASIBLE
            checked += 1
        assert checked >= 20

    def test_disjoint_columns_short_of_the_batch_do_not_fold(self):
        # Column 1's row is diag - column 0's row, but the two cover 2 of 3
        # rows: the third row is empty, not a complement.
        x = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int64)
        solutions, stats = solve(build_model(gram_of(x), 3))
        assert stats.status == reconstruct.STATUS_UNIQUE
        assert np.array_equal(solutions[0].x, canonical_rows(x))
        assert 0 not in stats.nodes_per_column

    def test_folded_columns_follow_their_representative(self):
        # Column 2 copies column 0, column 3 complements it, column 5 (full)
        # complements the empty column 4, column 6 copies column 1. The empty
        # column is the most extreme, then columns 0 and 1 tie: 0 goes first.
        x = np.array([
            [1, 1, 1, 0, 0, 1, 1],
            [1, 0, 1, 0, 0, 1, 0],
            [0, 1, 0, 1, 0, 1, 1],
            [0, 0, 0, 1, 0, 1, 0],
        ], dtype=np.int64)
        solutions, stats = solve(build_model(gram_of(x), 4))
        assert stats.status == reconstruct.STATUS_UNIQUE
        assert np.array_equal(solutions[0].x, canonical_rows(x))
        assert stats.column_order == (4, 5, 0, 2, 3, 1, 6)
        per_column = dict(zip(stats.column_order, stats.nodes_per_column))
        assert all(per_column[j] == 0 for j in (5, 2, 3, 6))
        assert all(per_column[j] > 0 for j in (4, 0, 1))
        assert sum(stats.nodes_per_column) == stats.nodes_explored


class TestRecoverLabels:
    def test_identity_samples(self):
        x = np.eye(2, dtype=np.int64)
        y = recover_labels(x, np.array([1, -1]))
        assert np.array_equal(y, [1, -1])

    def test_duplicate_rows_give_symmetric_labelings(self):
        x = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int64)
        beta = x.T @ np.array([1, -1, 1])
        labelings = enumerate_labels(x, beta)
        assert len(labelings) >= 2
        as_tuples = {tuple(y) for y in labelings}
        assert (1, -1, 1) in as_tuples
        assert (-1, 1, 1) in as_tuples

    def test_random_round_trip(self):
        rng = np.random.default_rng(58)
        for _ in range(30):
            m = int(rng.integers(1, 9))
            d = int(rng.integers(1, 9))
            x = rng.integers(0, 2, (m, d)).astype(np.int64)
            y = 2 * rng.integers(0, 2, m).astype(np.int64) - 1
            beta = x.T @ y
            recovered = recover_labels(x, beta)
            assert np.array_equal(x.T @ recovered, beta)

    def test_no_consistent_labels(self):
        x = np.array([[1, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(NoConsistentLabels):
            recover_labels(x, np.array([2, 0]))

    def test_enumeration_finds_every_labeling(self):
        # Up to d = 8, so many batches have independent rows; repeated rows
        # make some of those rank-deficient.
        rng = np.random.default_rng(59)
        for trial in range(60):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 9))
            x = rng.integers(0, 2, (m, d)).astype(np.int64)
            if trial % 3 == 0 and m > 1:
                x[-1] = x[0]
            y = 2 * rng.integers(0, 2, m).astype(np.int64) - 1
            beta = x.T @ y
            expected = {
                signs
                for signs in itertools.product((1, -1), repeat=m)
                if np.array_equal(x.T @ np.array(signs), beta)
            }
            got = {tuple(v) for v in enumerate_labels(x, beta)}
            assert got == expected
        # Taller batches with zero rows, repeated rows, and betas that a
        # perturbed entry leaves without any labeling.
        rng = np.random.default_rng(66)
        empty = 0
        for trial in range(120):
            m = int(rng.integers(1, 11))
            d = int(rng.integers(1, 7))
            x = rng.integers(0, 2, (m, d)).astype(np.int64)
            if trial % 4 == 1:
                x[rng.integers(0, m, 2)] = 0
            if trial % 4 == 2 and m > 3:
                x[1:4] = x[0]
            y = 2 * rng.integers(0, 2, m).astype(np.int64) - 1
            beta = x.T @ y
            if trial % 4 == 3:
                beta[rng.integers(0, d)] += int(rng.choice([-2, -1, 1, 2]))
            expected = {
                signs
                for signs in itertools.product((1, -1), repeat=m)
                if np.array_equal(x.T @ np.array(signs), beta)
            }
            labelings = enumerate_labels(x, beta)
            got = {tuple(v) for v in labelings}
            assert got == expected and len(labelings) == len(got)
            empty += not got
        assert empty >= 10

    def test_sorted_batch_gets_the_largest_labeling(self):
        # On row-sorted batches, as solve returns them, the labeling chosen
        # is the lexicographically largest one, +1 before -1.
        rng = np.random.default_rng(67)
        for _ in range(60):
            m = int(rng.integers(1, 11))
            d = int(rng.integers(1, 6))
            x = canonical_rows(rng.integers(0, 2, (m, d)))
            beta = x.T @ (2 * rng.integers(0, 2, m) - 1)
            largest = max(
                signs
                for signs in itertools.product((1, -1), repeat=m)
                if np.array_equal(x.T @ np.array(signs), beta)
            )
            assert tuple(recover_labels(x, beta)) == largest

    @pytest.mark.parametrize("limit", [0, -1])
    def test_bad_limit_rejected(self, limit):
        x = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="limit"):
            enumerate_labels(x, x.T @ np.array([1, -1, 1]), limit=limit)

    def test_wrong_beta_length_rejected(self):
        x = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(numkit.DimensionMismatch, match="beta length"):
            enumerate_labels(x, np.array([1, -1, 1]))

    def test_empty_beta_rejected(self):
        x = np.array([[1, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(numkit.DimensionMismatch, match="beta length"):
            enumerate_labels(x, [])

    def test_deep_search_has_no_recursion_ceiling(self):
        # 1500 rows is deeper than Python's recursion limit. With every label
        # +1 the walk reaches the last row without backtracking, so this pins
        # depth, not search cost.
        x = np.random.default_rng(64).integers(0, 2, (1500, 6)).astype(np.int64)
        beta = x.T @ np.ones(1500, dtype=np.int64)
        (y,) = enumerate_labels(x, beta, limit=1)
        assert np.array_equal(x.T @ y, beta)


def test_searches_leave_no_reference_cycles():
    # Every search frees its state by reference counting alone, so memory
    # does not pile up between cycle-collector passes.
    rng = np.random.default_rng(62)
    model = build_model(gram_of(fedsim.random_batch(rng, 5, 10).x), 5)
    dup = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.int64)
    wide = build_model(gram_of(fedsim.random_batch(rng, 4, 200).x), 4)
    tall = rng.integers(0, 2, (1500, 6)).astype(np.int64)
    gc.collect()
    gc.disable()
    try:
        solve(model)
        solve(model, limit=2)
        solve(wide, limit=2)
        enumerate_labels(dup, dup.T @ np.array([1, -1, 1, 1]))
        enumerate_labels(tall, tall.sum(axis=0), limit=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestVerifySolution:
    def test_ground_truth_passes(self):
        rng = np.random.default_rng(60)
        batch = fedsim.random_batch(rng, 4, 6)
        xi = batch.x.astype(np.int64)
        yi = batch.y.astype(np.int64)
        system = RecoveredSystem(alpha=xi.T @ xi, beta=xi.T @ yi)
        assert verify_solution(xi, yi, system).ok

    def test_bit_flip_names_violated_entry(self):
        rng = np.random.default_rng(61)
        batch = fedsim.random_batch(rng, 4, 6)
        xi = batch.x.astype(np.int64)
        system = RecoveredSystem(alpha=xi.T @ xi, beta=xi.T @ np.ones(4, dtype=np.int64))
        flipped = xi.copy()
        flipped[0, 0] ^= 1
        result = verify_solution(flipped, None, system)
        assert not result.ok
        assert "alpha[0," in result.detail

    def test_absent_labels_check_alpha_only(self):
        xi = np.array([[1, 1], [0, 1]], dtype=np.int64)
        system = RecoveredSystem(alpha=xi.T @ xi, beta=np.array([99, 99]))
        assert verify_solution(xi, None, system).ok

    def test_wrong_beta_reported(self):
        xi = np.array([[1, 0], [0, 1]], dtype=np.int64)
        system = RecoveredSystem(alpha=xi.T @ xi, beta=np.array([1, 1]))
        result = verify_solution(xi, np.array([1, -1]), system)
        assert not result.ok
        assert "beta[1]" in result.detail

    def test_fractional_labels_rejected_not_truncated(self):
        # Cast to integers, these labels would read (1, -1, 1) and fit beta.
        xi = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
        system = RecoveredSystem(alpha=xi.T @ xi, beta=xi.T @ np.array([1, -1, 1]))
        result = verify_solution(xi, np.array([1.7, -1.2, 1.9]), system)
        assert not result.ok
        assert "-1 or +1" in result.detail
        assert verify_solution(xi, np.array([1.0, -1.0, 1.0]), system).ok

    @pytest.mark.parametrize("y", [[1, -1], [1, -1, 1, 1], [[1, -1, 1]]])
    def test_wrong_label_shape_reported(self, y):
        xi = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)
        system = RecoveredSystem(alpha=xi.T @ xi, beta=xi.T @ np.array([1, -1, 1]))
        result = verify_solution(xi, np.array(y), system)
        assert not result.ok
        assert "labels shape" in result.detail

    def test_wrong_batch_shape_reported(self):
        system = RecoveredSystem(alpha=np.eye(2, dtype=np.int64), beta=np.array([1, 1]))
        result = verify_solution(np.eye(3, dtype=np.int64), None, system)
        assert not result.ok
        assert "shape (3, 3) != alpha shape (2, 2)" in result.detail

    def test_one_dimensional_batch_rejected(self):
        system = RecoveredSystem(alpha=np.eye(2, dtype=np.int64), beta=np.array([1, 1]))
        with pytest.raises(numkit.DimensionMismatch, match="2-D batch"):
            verify_solution(np.array([1, 0]), None, system)

    def test_fractional_entries_rejected_not_truncated(self):
        xi = np.array([[0.9, 0.0], [0.0, 1.0]])
        system = RecoveredSystem(
            alpha=np.eye(2, dtype=np.int64), beta=np.array([1, 1])
        )
        with pytest.raises(ValueError, match="0 or 1"):
            verify_solution(xi, None, system)


class TestDiscoverBatchSize:
    def test_recovers_true_size_or_smaller(self):
        rng = np.random.default_rng(62)
        batch = fedsim.random_batch(rng, 3, 6)
        xi = batch.x.astype(np.int64)
        alpha = xi.T @ xi
        model, solutions, _ = discover_batch_size(alpha, cap=10)
        assert model.m <= 3
        system = RecoveredSystem(alpha=alpha, beta=xi.T @ np.ones(3, dtype=np.int64))
        assert verify_solution(solutions[0].x, None, system).ok

    def test_pair_union_sets_the_lower_bound(self):
        # Two disjoint columns of three ones need six rows, not three.
        alpha = np.array([[3, 0], [0, 3]], dtype=np.int64)
        model, solutions, stats = discover_batch_size(alpha, cap=10)
        assert model.m == 6
        assert stats.status == reconstruct.STATUS_UNIQUE
        expected = canonical_rows([[0, 1]] * 3 + [[1, 0]] * 3)
        assert np.array_equal(solutions[0].x, expected)

    def test_cap_below_minimum_rejected(self):
        alpha = np.diag([4, 2]).astype(np.int64)
        with pytest.raises(InfeasibleScreen):
            discover_batch_size(alpha, cap=3)

    def test_search_cut_off_stops_the_scan(self):
        # A search stopped by its deadline leaves its size undecided, so a
        # larger size is no answer: the scan returns that size with nothing.
        batch = fedsim.random_batch(np.random.default_rng(3), 5, 10)
        xi = batch.x.astype(np.int64)
        alpha = xi.T @ xi
        diag = np.diag(alpha)
        lower = int(np.max(diag[:, None] + diag[None, :] - alpha))
        model, solutions, stats = discover_batch_size(alpha, cap=40, limit=1, deadline=0)
        assert (model.m, solutions) == (lower, [])
        assert stats.status == reconstruct.STATUS_LIMIT
        assert not stats.exhausted

    def test_no_feasible_size_below_the_cap(self):
        # Every pair fits in two rows, but three disjoint columns need three.
        with pytest.raises(InfeasibleScreen, match=r"no feasible batch size in \[2, 2\]"):
            discover_batch_size(np.eye(3, dtype=np.int64), cap=2)

    def test_screens_once(self, monkeypatch):
        screened, searched = [], []
        build, search = reconstruct.build_model, reconstruct.solve

        def counted_build(alpha, m):
            screened.append(m)
            return build(alpha, m)

        def counted_solve(model, **kwargs):
            searched.append(model.m)
            return search(model, **kwargs)

        monkeypatch.setattr(reconstruct, "build_model", counted_build)
        monkeypatch.setattr(reconstruct, "solve", counted_solve)
        model, solutions, _ = discover_batch_size(np.eye(4, dtype=np.int64), cap=6)
        assert screened == [6]
        assert searched == [2, 3, 4]
        assert model.m == 4 and len(solutions) == 1
