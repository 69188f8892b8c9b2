import gc
import itertools

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
                assert model.ordered_constraint_count == count_constraints(m, d)


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

    def test_variable_counts(self):
        model = build_model(np.zeros((4, 4), dtype=np.int64), 3)
        assert model.x_variable_count == 12
        assert model.delta_variable_count == 18


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
                variables = model.x_variable_count + model.delta_variable_count
                assert len(binaries) == variables
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
        # Up to d = 8, so many batches have m <= d and take the linear-solve
        # path; repeated rows make some of those rank-deficient.
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


def test_searches_leave_no_reference_cycles():
    # Every search frees its state by reference counting alone, so memory
    # does not pile up between cycle-collector passes.
    rng = np.random.default_rng(62)
    model = build_model(gram_of(fedsim.random_batch(rng, 5, 10).x), 5)
    dup = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.int64)
    gc.collect()
    gc.disable()
    try:
        solve(model)
        solve(model, limit=2)
        enumerate_labels(dup, dup.T @ np.array([1, -1, 1, 1]))
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
        m, solutions, _ = discover_batch_size(alpha, cap=10)
        assert m <= 3
        system = RecoveredSystem(alpha=alpha, beta=xi.T @ np.ones(3, dtype=np.int64))
        assert verify_solution(solutions[0].x, None, system).ok

    def test_pair_union_sets_the_lower_bound(self):
        # Two disjoint columns of three ones need six rows, not three.
        alpha = np.array([[3, 0], [0, 3]], dtype=np.int64)
        m, solutions, stats = discover_batch_size(alpha, cap=10)
        assert m == 6
        assert stats.status == reconstruct.STATUS_UNIQUE
        expected = canonical_rows([[0, 1]] * 3 + [[1, 0]] * 3)
        assert np.array_equal(solutions[0].x, expected)

    def test_cap_below_minimum_rejected(self):
        alpha = np.diag([4, 2]).astype(np.int64)
        with pytest.raises(InfeasibleScreen):
            discover_batch_size(alpha, cap=3)
