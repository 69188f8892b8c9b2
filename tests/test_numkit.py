import numpy as np
import pytest

from gramleak import numkit


class TestSolveLinear:
    def test_identity(self):
        x = numkit.solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0])

    def test_overdetermined_consistent(self):
        # Hand elimination: x = 1 from row 1, then y = 2 from row 2; row 3 agrees.
        a = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        b = np.array([1.0, 3.0, 2.0])
        assert np.allclose(numkit.solve_linear(a, b), [1.0, 2.0])

    def test_duplicate_rows_contradictory(self):
        a = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        b = np.array([1.0, 2.0, 0.0])
        with pytest.raises(numkit.RankDeficient) as info:
            numkit.solve_linear(a, b)
        assert info.value.rank == 1

    def test_underdetermined_rejected(self):
        with pytest.raises(numkit.DimensionMismatch):
            numkit.solve_linear(np.ones((2, 3)), np.ones(2))

    def test_rhs_length_checked(self):
        with pytest.raises(numkit.DimensionMismatch):
            numkit.solve_linear(np.eye(3), np.ones(2))

    def test_recovers_solution_of_well_conditioned_systems(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 50:
            rows = int(rng.integers(2, 9))
            cols = int(rng.integers(1, rows + 1))
            a = rng.uniform(-2.0, 2.0, (rows, cols))
            if np.linalg.cond(a) >= 1e6:
                continue
            x = rng.uniform(-5.0, 5.0, cols)
            assert np.allclose(numkit.solve_linear(a, a @ x), x, atol=1e-9)
            checked += 1


class TestRank:
    def test_identity(self):
        assert numkit.rank(np.eye(4)) == 4

    def test_outer_product_is_rank_one(self):
        u = np.array([1.0, -2.0, 3.0, 0.5])
        assert numkit.rank(np.outer(u, u)) == 1

    def test_full_column_rank_construction(self):
        # Three independent columns, stretched to five rows by repetition.
        base = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        stacked = np.vstack([base, base[:2] * 2.0])
        assert numkit.rank(stacked) == 3

    def test_zero_matrix(self):
        assert numkit.rank(np.zeros((3, 4))) == 0

    def test_gram_rank_matches_binary_matrix_rank(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 7))
            a = rng.integers(0, 2, (m, d)).astype(float)
            assert numkit.rank(a.T @ a) == numkit.rank(a)


class TestRoundIntegral:
    def test_within_tolerance(self):
        out = numkit.round_integral(np.array([[2.0000001]]), tol=1e-6)
        assert out.dtype == np.int64
        assert out[0, 0] == 2

    def test_forced_failure(self):
        with pytest.raises(numkit.NotIntegral) as info:
            numkit.round_integral(np.array([[0.4]]), tol=1e-6)
        assert info.value.worst_value == pytest.approx(0.4)
        assert info.value.distance == pytest.approx(0.4)

    def test_vector_input(self):
        assert np.array_equal(
            numkit.round_integral(np.array([1.0, -2.0])), np.array([1, -2])
        )

    def test_float_gram_matches_integer_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = int(rng.integers(1, 9))
            d = int(rng.integers(1, 21))
            x = rng.integers(0, 2, (m, d))
            float_gram = x.astype(float).T @ x.astype(float)
            assert np.array_equal(
                numkit.round_integral(float_gram, tol=1e-6), x.T @ x
            )


def test_as_matrix_rejects_empty_and_ragged():
    with pytest.raises(numkit.DimensionMismatch):
        numkit.as_matrix(np.ones(3))
    with pytest.raises(numkit.DimensionMismatch):
        numkit.as_matrix(np.ones((0, 2)))


def test_as_vector_rejects_matrix():
    with pytest.raises(numkit.DimensionMismatch):
        numkit.as_vector(np.ones((2, 2)))
