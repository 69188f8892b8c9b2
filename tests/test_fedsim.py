import math

import numpy as np
import pytest

from gramleak import fedsim, numkit
from gramleak.fedsim import Batch, Observation, TrainingConfig


def make_batch(x, y):
    return Batch(x=np.array(x, dtype=float), y=np.array(y, dtype=float))


class TestBatch:
    def test_rejects_non_binary_features(self):
        with pytest.raises(ValueError, match="0 or 1"):
            make_batch([[0.5, 1.0]], [1.0])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            make_batch([[0.0, 1.0]], [0.0])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(numkit.DimensionMismatch):
            make_batch([[1.0, 0.0], [0.0, 1.0]], [1.0])

    def test_arrays_frozen(self):
        batch = make_batch([[1.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            batch.x[0, 0] = 0.0

    def test_rejects_empty_batch(self):
        with pytest.raises(numkit.DimensionMismatch):
            Batch(x=np.zeros((0, 3)), y=np.zeros(0))


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": 0.1, "mode": "federated"},
            {"learning_rate": 0.1, "parties": 1},
            {"learning_rate": 0.1, "rounds": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestApproxLoss:
    def test_zero_model(self):
        theta = np.zeros(3)
        x = np.array([1.0, 0.0, 1.0])
        assert fedsim.approx_loss(theta, x, 1.0) == pytest.approx(math.log(2.0))

    def test_direct_substitution(self):
        # theta.x = 2 with a positive label: log2 - 1 + 0.5
        theta = np.array([2.0])
        x = np.array([1.0])
        expected = math.log(2.0) - 1.0 + 0.5
        assert fedsim.approx_loss(theta, x, 1.0) == pytest.approx(expected)

    def test_label_symmetry_cancels_linear_term(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            theta = rng.uniform(-2.0, 2.0, d)
            x = rng.integers(0, 2, d).astype(float)
            z = float(theta @ x)
            total = fedsim.approx_loss(theta, x, 1.0) + fedsim.approx_loss(theta, x, -1.0)
            assert total == pytest.approx(2.0 * math.log(2.0) + 0.25 * z * z)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            fedsim.approx_loss(np.zeros(2), np.zeros(2), 0.5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(numkit.DimensionMismatch):
            fedsim.approx_loss(np.zeros(2), np.zeros(3), 1.0)


def loop_gradient(batch, theta):
    """Per-sample summed gradient of the surrogate loss, the slow oracle."""
    total = np.zeros_like(theta)
    for k in range(batch.size):
        x = batch.x[k]
        z = float(theta @ x)
        total += (-0.5 * batch.y[k] + 0.25 * z) * x
    return total


def finite_difference_gradient(batch, theta, step=1e-5):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        down = theta.copy()
        up[i] += step
        down[i] -= step
        loss_up = sum(fedsim.approx_loss(up, batch.x[k], batch.y[k]) for k in range(batch.size))
        loss_down = sum(fedsim.approx_loss(down, batch.x[k], batch.y[k]) for k in range(batch.size))
        grad[i] = (loss_up - loss_down) / (2.0 * step)
    return grad


class TestBatchGradient:
    def test_zero_model_gives_label_projection(self):
        batch = make_batch([[1.0, 0.0], [1.0, 1.0]], [1.0, -1.0])
        expected = -0.5 * batch.x.T @ batch.y
        assert np.allclose(fedsim.batch_gradient(batch, np.zeros(2)), expected)

    def test_single_unit_sample(self):
        batch = make_batch([[1.0, 0.0, 0.0]], [1.0])
        theta = np.array([1.0, 0.0, 0.0])
        # 1/4 * 1 - 1/2 = -1/4 in the first coordinate
        assert np.allclose(fedsim.batch_gradient(batch, theta), [-0.25, 0.0, 0.0])

    def test_matches_loop_form(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = int(rng.integers(1, 17))
            d = int(rng.integers(1, 21))
            batch = fedsim.random_batch(rng, m, d)
            theta = rng.uniform(-1.0, 1.0, d)
            assert np.allclose(
                fedsim.batch_gradient(batch, theta),
                loop_gradient(batch, theta),
                atol=1e-9,
            )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = int(rng.integers(1, 9))
            d = int(rng.integers(1, 7))
            batch = fedsim.random_batch(rng, m, d)
            theta = rng.uniform(-1.0, 1.0, d)
            assert np.allclose(
                fedsim.batch_gradient(batch, theta),
                finite_difference_gradient(batch, theta),
                atol=1e-6,
            )

    def test_dimension_mismatch(self):
        batch = make_batch([[1.0, 0.0]], [1.0])
        with pytest.raises(numkit.DimensionMismatch):
            fedsim.batch_gradient(batch, np.zeros(3))


class TestSyncRound:
    def test_identical_batches_equal_single_party_step(self):
        rng = np.random.default_rng(8)
        batch = fedsim.random_batch(rng, 4, 5)
        theta = rng.uniform(-1.0, 1.0, 5)
        two_party, _ = fedsim.sync_round([batch, batch], theta, 0.1)
        single, _ = fedsim.sync_round([batch], theta, 0.1)
        assert np.allclose(two_party, single)

    def test_zero_learning_rate_is_fixed_point(self):
        rng = np.random.default_rng(9)
        batch = fedsim.random_batch(rng, 3, 4)
        theta = rng.uniform(-1.0, 1.0, 4)
        new_theta, deltas = fedsim.sync_round([batch], theta, 0.0)
        assert np.array_equal(new_theta, theta)
        assert np.array_equal(deltas[0], np.zeros(4))

    def test_three_party_aggregate_identity(self):
        # -k * mean update equals lr * (sum(gram)/4 @ theta - sum(proj)/2)
        rng = np.random.default_rng(10)
        batches = [fedsim.random_batch(rng, 3, 6) for _ in range(3)]
        theta = rng.uniform(-1.0, 1.0, 6)
        lr = 0.2
        new_theta, _ = fedsim.sync_round(batches, theta, lr)
        k = len(batches)
        alpha_sum = sum(b.x.T @ b.x for b in batches)
        beta_sum = sum(b.x.T @ b.y for b in batches)
        lhs = -k * (theta - new_theta)
        rhs = -(lr * (0.25 * alpha_sum @ theta - 0.5 * beta_sum))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestAsyncLocalPass:
    def test_single_batch_matches_gradient_formula(self):
        rng = np.random.default_rng(11)
        batch = fedsim.random_batch(rng, 4, 5)
        theta = rng.uniform(-1.0, 1.0, 5)
        lr = 0.1
        alpha = batch.x.T @ batch.x
        beta = batch.x.T @ batch.y
        expected = lr * (0.25 * alpha @ theta - 0.5 * beta)
        assert np.allclose(fedsim.async_local_pass([batch], theta, lr), expected)

    def test_zero_learning_rate_vanishes(self):
        rng = np.random.default_rng(12)
        batches = [fedsim.random_batch(rng, 2, 3) for _ in range(3)]
        delta = fedsim.async_local_pass(batches, rng.uniform(-1, 1, 3), 0.0)
        assert np.array_equal(delta, np.zeros(3))

    def test_empty_batch_list_rejected(self):
        with pytest.raises(ValueError):
            fedsim.async_local_pass([], np.zeros(2), 0.1)


class TestRunTraining:
    def test_synchronized_delta_is_victim_gradient(self):
        rng = np.random.default_rng(13)
        victim = fedsim.random_batch(rng, 4, 6)
        attacker = fedsim.random_batch(rng, 4, 6)
        config = TrainingConfig(learning_rate=0.1, rounds=9, seed=21)
        transcript = fedsim.run_training([victim], attacker, config)
        assert len(transcript.observations) == 9
        for obs in transcript.observations:
            expected = 0.1 * fedsim.batch_gradient(victim, obs.theta)
            assert np.allclose(obs.delta, expected, atol=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        victim = fedsim.random_batch(rng, 3, 5)
        attacker = fedsim.random_batch(rng, 3, 5)
        config = TrainingConfig(learning_rate=0.1, rounds=7, seed=3)
        a = fedsim.run_training([victim], attacker, config)
        b = fedsim.run_training([victim], attacker, config)
        for oa, ob in zip(a.observations, b.observations):
            assert np.array_equal(oa.theta, ob.theta)
            assert np.array_equal(oa.delta, ob.delta)

    def test_sync_party_count_must_match_victim_batches(self):
        rng = np.random.default_rng(15)
        victim = fedsim.random_batch(rng, 2, 3)
        attacker = fedsim.random_batch(rng, 2, 3)
        config = TrainingConfig(learning_rate=0.1, parties=3, rounds=2)
        with pytest.raises(ValueError, match="victim batches"):
            fedsim.run_training([victim], attacker, config)

    def test_async_requires_two_parties(self):
        rng = np.random.default_rng(16)
        batches = [fedsim.random_batch(rng, 2, 3) for _ in range(2)]
        attacker = fedsim.random_batch(rng, 2, 3)
        config = TrainingConfig(
            learning_rate=0.1, mode=fedsim.ASYNCHRONIZED, parties=3, rounds=2
        )
        with pytest.raises(ValueError, match="two-party"):
            fedsim.run_training(batches, attacker, config)

    def test_empty_victim_data_rejected(self):
        rng = np.random.default_rng(16)
        attacker = fedsim.random_batch(rng, 2, 3)
        config = TrainingConfig(
            learning_rate=0.1, mode=fedsim.ASYNCHRONIZED, rounds=2
        )
        with pytest.raises(ValueError, match="at least one batch"):
            fedsim.run_training([], attacker, config)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        victim = fedsim.random_batch(rng, 2, 3)
        attacker = fedsim.random_batch(rng, 2, 4)
        config = TrainingConfig(learning_rate=0.1, rounds=1)
        with pytest.raises(numkit.DimensionMismatch):
            fedsim.run_training([victim], attacker, config)


class TestTranscriptJson:
    def test_round_trip(self):
        rng = np.random.default_rng(18)
        victim = fedsim.random_batch(rng, 3, 4)
        attacker = fedsim.random_batch(rng, 3, 4)
        config = TrainingConfig(learning_rate=0.05, rounds=5, seed=11, shuffle=False)
        transcript = fedsim.run_training([victim], attacker, config)
        loaded = fedsim.load_transcript(fedsim.dump_transcript(transcript))
        assert loaded.config == config
        for a, b in zip(loaded.observations, transcript.observations):
            assert np.array_equal(a.theta, b.theta)
            assert np.array_equal(a.delta, b.delta)
        for a, b in zip(loaded.ground_truth, transcript.ground_truth):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_serialization_is_byte_deterministic(self):
        rng = np.random.default_rng(19)
        victim = fedsim.random_batch(rng, 2, 3)
        attacker = fedsim.random_batch(rng, 2, 3)
        config = TrainingConfig(learning_rate=0.1, rounds=3, seed=2)
        first = fedsim.dump_transcript(fedsim.run_training([victim], attacker, config))
        second = fedsim.dump_transcript(fedsim.run_training([victim], attacker, config))
        assert first == second


def test_observation_length_mismatch_rejected():
    with pytest.raises(numkit.DimensionMismatch):
        Observation(theta=np.zeros(3), delta=np.zeros(2))


@pytest.mark.parametrize("field", ["theta", "delta"])
def test_observation_nan_rejected(field):
    values = {"theta": np.zeros(3), "delta": np.zeros(3)}
    values[field][1] = np.nan
    with pytest.raises(numkit.NonFinite):
        Observation(**values)
