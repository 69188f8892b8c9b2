import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramleak import attack, fedsim, numkit
from gramleak.fedsim import Observation, TrainingConfig

from helpers import difference_gamma_jacobian, difference_nullity_check, multiparty_stack_check


def int_gram(batch):
    xi = batch.x.astype(np.int64)
    return xi.T @ xi, xi.T @ batch.y.astype(np.int64)


def synchronized_transcript(rng, m, d, rounds, lr=0.1, seed=0, parties=2):
    victims = [fedsim.random_batch(rng, m, d) for _ in range(parties - 1)]
    attacker = fedsim.random_batch(rng, m, d)
    config = TrainingConfig(learning_rate=lr, parties=parties, rounds=rounds, seed=seed)
    return fedsim.run_training(victims, attacker, config), victims


class TestRecoverAlphaBeta:
    def test_exact_recovery_from_transcript(self):
        rng = np.random.default_rng(20)
        transcript, victims = synchronized_transcript(rng, 5, 8, rounds=11, seed=4)
        observations = list(transcript.observations)
        system = attack.recover_alpha_beta(observations, 0.1)
        alpha, beta = int_gram(victims[0])
        assert np.array_equal(system.alpha, alpha)
        assert np.array_equal(system.beta, beta)
        # The fit residual is that of the rounded system.
        thetas = np.array([o.theta for o in observations])
        deltas = np.array([o.delta for o in observations])
        fit = 0.1 * (0.25 * thetas @ alpha - 0.5 * beta)
        assert system.max_fit_residual == float(np.max(np.abs(fit - deltas)))
        assert system.max_fit_residual < 1e-10
        # The asymmetry is that of the Gram block of the block solve.
        design = np.column_stack([0.25 * 0.1 * thetas, np.full(len(thetas), -0.5 * 0.1)])
        gram = numkit.solve_linear(design, deltas).T[:, :8]
        assert system.max_asymmetry == float(np.max(np.abs(gram - gram.T)))
        assert system.max_asymmetry < 1e-10

    def test_collinear_design_raises(self):
        rng = np.random.default_rng(21)
        batch = fedsim.random_batch(rng, 3, 4)
        theta = rng.uniform(-1.0, 1.0, 4)
        delta = 0.1 * fedsim.batch_gradient(batch, theta)
        observations = [Observation(theta=theta, delta=delta)] * 6
        with pytest.raises(numkit.RankDeficient):
            attack.recover_alpha_beta(observations, 0.1)

    def test_too_few_observations_raises(self):
        rng = np.random.default_rng(22)
        transcript, _ = synchronized_transcript(rng, 3, 6, rounds=4)
        with pytest.raises(numkit.RankDeficient) as info:
            attack.recover_alpha_beta(list(transcript.observations), 0.1)
        assert info.value.rank == 4

    def test_no_observations_raises(self):
        with pytest.raises(ValueError, match="at least one observation"):
            attack.recover_alpha_beta([], 0.1)

    def test_single_unit_sample(self):
        rng = np.random.default_rng(23)
        d = 4
        batch = fedsim.Batch(
            x=np.array([[1.0, 0.0, 0.0, 0.0]]), y=np.array([1.0])
        )
        observations = []
        for _ in range(d + 2):
            theta = rng.uniform(-1.0, 1.0, d)
            observations.append(
                Observation(theta=theta, delta=0.1 * fedsim.batch_gradient(batch, theta))
            )
        system = attack.recover_alpha_beta(observations, 0.1)
        e1 = np.zeros(d, dtype=np.int64)
        e1[0] = 1
        assert np.array_equal(system.alpha, np.outer(e1, e1))
        assert np.array_equal(system.beta, e1)

    def test_non_integral_model_mismatch(self):
        # Victim data not binary: the affine model fits but rounding must refuse.
        rng = np.random.default_rng(24)
        d = 3
        x = rng.uniform(0.0, 1.0, (2, d))
        alpha = x.T @ x
        beta = x.T @ np.array([1.0, -1.0])
        observations = []
        for _ in range(d + 2):
            theta = rng.uniform(-1.0, 1.0, d)
            delta = 0.1 * (0.25 * alpha @ theta - 0.5 * beta)
            observations.append(Observation(theta=theta, delta=delta))
        with pytest.raises(numkit.NotIntegral):
            attack.recover_alpha_beta(observations, 0.1)

    def test_asymmetric_source_detected(self):
        rng = np.random.default_rng(25)
        d = 3
        skew = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        beta = np.array([1.0, 0.0, -1.0])
        observations = []
        for _ in range(d + 3):
            theta = rng.uniform(-1.0, 1.0, d)
            delta = 0.1 * (0.25 * skew @ theta - 0.5 * beta)
            observations.append(Observation(theta=theta, delta=delta))
        with pytest.raises(attack.AsymmetryDetected):
            attack.recover_alpha_beta(observations, 0.1)

    def test_corrupted_push_never_passes(self):
        # One push off by 0.37 in one entry. In a pivot row it skews the solved
        # rows (asymmetry); in the two rows past the d + 1 pivots only the fit
        # of the rounded system can show it.
        rng = np.random.default_rng(37)
        transcript, _ = synchronized_transcript(rng, 5, 10, rounds=13, seed=3)
        raised = []
        for k in range(13):
            observations = list(transcript.observations)
            delta = observations[k].delta.copy()
            delta[0] += 0.37
            observations[k] = Observation(theta=observations[k].theta, delta=delta)
            with pytest.raises((attack.AsymmetryDetected, attack.ResidualTooLarge)) as info:
                attack.recover_alpha_beta(observations, 0.1)
            raised.append(info.type)
        assert raised.count(attack.ResidualTooLarge) == 2

    @pytest.mark.parametrize("m,d,seed", [(3, 100, 60), (8, 120, 61), (6, 140, 62), (4, 200, 63)])
    def test_wide_recovery_is_exact(self, m, d, seed):
        rng = np.random.default_rng(seed)
        transcript, victims = synchronized_transcript(rng, m, d, rounds=d + 3, seed=seed)
        system = attack.recover_alpha_beta(list(transcript.observations), 0.1)
        alpha, beta = int_gram(victims[0])
        assert np.array_equal(system.alpha, alpha)
        assert np.array_equal(system.beta, beta)
        assert system.max_integrality_residual < 1e-9

    def test_recovered_alpha_is_psd_with_bounded_diagonal(self):
        rng = np.random.default_rng(26)
        for trial in range(10):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(2, 9))
            transcript, victims = synchronized_transcript(
                rng, m, d, rounds=d + 3, seed=trial
            )
            system = attack.recover_alpha_beta(list(transcript.observations), 0.1)
            assert np.array_equal(system.alpha, system.alpha.T)
            assert np.min(np.linalg.eigvalsh(system.alpha.astype(float))) >= -1e-9
            diag = np.diag(system.alpha)
            assert np.all(diag >= 0) and np.all(diag <= m)


class TestClosedForm:
    def test_single_batch_reduces_to_gradient_formula(self):
        rng = np.random.default_rng(27)
        batch = fedsim.random_batch(rng, 4, 5)
        theta = rng.uniform(-1.0, 1.0, 5)
        lr = 0.1
        alpha = batch.x.T @ batch.x
        beta = batch.x.T @ batch.y
        delta = attack.closed_form_delta([alpha], [beta], theta, lr)
        assert np.allclose(delta, lr * (0.25 * alpha @ theta - 0.5 * beta))

    def test_zero_learning_rate_vanishes(self):
        rng = np.random.default_rng(28)
        alphas = [np.eye(3), 2.0 * np.eye(3)]
        betas = [rng.uniform(-1, 1, 3) for _ in range(2)]
        delta = attack.closed_form_delta(alphas, betas, rng.uniform(-1, 1, 3), 0.0)
        assert np.array_equal(delta, np.zeros(3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_sequential_simulation(self, n):
        rng = np.random.default_rng(29 + n)
        for _ in range(10):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(2, 9))
            batches = [fedsim.random_batch(rng, m, d) for _ in range(n)]
            theta = rng.uniform(-1.0, 1.0, d)
            simulated = fedsim.async_local_pass(batches, theta, 0.1)
            closed = attack.closed_form_delta(
                [b.x.T @ b.x for b in batches],
                [b.x.T @ b.y for b in batches],
                theta,
                0.1,
            )
            assert np.max(np.abs(simulated - closed)) < 1e-9

    def test_mismatched_lists_rejected(self):
        with pytest.raises(ValueError):
            attack.closed_form_delta([np.eye(2)], [], np.zeros(2), 0.1)


@pytest.mark.parametrize("call", [
    lambda: attack.recover_alpha_beta(
        [Observation(theta=np.zeros(2), delta=np.zeros(2)),
         Observation(theta=np.zeros(3), delta=np.zeros(3))], 0.1),
    lambda: attack.closed_form_params([np.eye(2), np.eye(3)], [np.zeros(2), np.zeros(3)], 0.1),
    lambda: attack.closed_form_delta([np.eye(2)], [np.zeros(2)], np.zeros(3), 0.1),
    lambda: attack.gamma_nullity_check([np.ones((2, 3)), np.ones((2, 3))], 0.1),
], ids=["stack_observations", "closed_form_params", "closed_form_delta", "gamma_nullity"])
def test_shape_mismatch_rejected(call):
    with pytest.raises(numkit.DimensionMismatch):
        call()


@pytest.mark.parametrize("call, reads_betas", [
    (lambda alphas, betas, lr: attack.closed_form_params(alphas, betas, lr).gamma, True),
    (lambda alphas, betas, lr: attack.closed_form_delta(alphas, betas, [1.0, -1.0], lr), True),
    (lambda alphas, betas, lr: np.array(attack.gamma_nullity_check(alphas, lr)), False),
], ids=["closed_form_params", "closed_form_delta", "gamma_nullity"])
def test_closed_form_inputs_checked(call, reads_betas):
    alphas = [[[2.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 3.0]]]
    betas = [[1.0, -1.0], [0.0, 2.0]]
    as_arrays = call([np.array(a) for a in alphas], [np.array(b) for b in betas], 0.1)
    assert np.array_equal(call(alphas, betas, 0.1), as_arrays)
    for bad in (np.nan, np.inf):
        with pytest.raises(numkit.NonFinite, match=r"shape \(2, 2\)"):
            call([alphas[0], [[bad, 0.0], [0.0, 1.0]]], betas, 0.1)
        if reads_betas:
            with pytest.raises(numkit.NonFinite, match=r"shape \(2,\)"):
                call(alphas, [betas[0], [bad, 0.0]], 0.1)
    for rate in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning rate"):
            call(alphas, betas, rate)


@pytest.mark.parametrize("recover", [attack.recover_alpha_beta, attack.recover_gamma_eta],
                         ids=["alpha_beta", "gamma_eta"])
@pytest.mark.parametrize("rate", [-0.1, 0.0, np.nan, np.inf])
def test_recovery_rejects_a_rate_that_training_rejects(recover, rate):
    # A negative rate would return the negated leak, and zero a rank error.
    transcript, _ = synchronized_transcript(np.random.default_rng(25), 3, 4, rounds=6)
    with pytest.raises(ValueError, match=f"learning rate must be positive and finite, got {rate}"):
        recover(list(transcript.observations), rate)
    with pytest.raises(ValueError, match="learning_rate must be positive"):
        TrainingConfig(learning_rate=rate)


class TestRecoverGammaEta:
    def test_two_batch_product_structure(self):
        rng = np.random.default_rng(34)
        batches = [fedsim.random_batch(rng, 3, 5) for _ in range(2)]
        attacker = fedsim.random_batch(rng, 3, 5)
        lr = 0.1
        config = TrainingConfig(
            learning_rate=lr, mode=fedsim.ASYNCHRONIZED, rounds=9, seed=5
        )
        transcript = fedsim.run_training(batches, attacker, config)
        params = attack.recover_gamma_eta(list(transcript.observations), lr)
        factors = [np.eye(5) - 0.25 * lr * (b.x.T @ b.x) for b in batches]
        expected_gamma = np.eye(5) - factors[1] @ factors[0]
        assert np.max(np.abs(params.gamma - expected_gamma)) < 1e-8
        assert 0.0 <= params.max_fit_residual < 1e-10

    def test_wide_two_batch_pass_matches_closed_form(self):
        rng = np.random.default_rng(64)
        batches = [fedsim.random_batch(rng, 4, 100) for _ in range(2)]
        attacker = fedsim.random_batch(rng, 4, 100)
        lr = 0.1
        config = TrainingConfig(
            learning_rate=lr, mode=fedsim.ASYNCHRONIZED, rounds=103, seed=8
        )
        transcript = fedsim.run_training(batches, attacker, config)
        params = attack.recover_gamma_eta(list(transcript.observations), lr)
        expected = attack.closed_form_params(
            [b.x.T @ b.x for b in batches], [b.x.T @ b.y for b in batches], lr
        )
        for got, want in ((params.gamma, expected.gamma), (params.eta, expected.eta)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_single_batch_gives_scaled_gram(self):
        rng = np.random.default_rng(35)
        batch = fedsim.random_batch(rng, 4, 4)
        attacker = fedsim.random_batch(rng, 4, 4)
        lr = 0.2
        config = TrainingConfig(
            learning_rate=lr, mode=fedsim.ASYNCHRONIZED, rounds=8, seed=6
        )
        transcript = fedsim.run_training([batch], attacker, config)
        params = attack.recover_gamma_eta(list(transcript.observations), lr)
        assert np.allclose(params.gamma, 0.25 * lr * (batch.x.T @ batch.x), atol=1e-8)
        assert np.allclose(params.eta, batch.x.T @ batch.y, atol=1e-8)

    def test_shuffle_defense_breaks_the_fit(self):
        rng = np.random.default_rng(36)
        batches = [fedsim.random_batch(rng, 3, 4) for _ in range(3)]
        attacker = fedsim.random_batch(rng, 3, 4)
        config = TrainingConfig(
            learning_rate=0.1, mode=fedsim.ASYNCHRONIZED, rounds=10,
            shuffle=True, seed=7,
        )
        transcript = fedsim.run_training(batches, attacker, config)
        with pytest.raises(attack.ResidualTooLarge):
            attack.recover_gamma_eta(list(transcript.observations), 0.1)

    def test_too_few_observations_raises(self):
        rng = np.random.default_rng(45)
        batch = fedsim.random_batch(rng, 2, 5)
        attacker = fedsim.random_batch(rng, 2, 5)
        config = TrainingConfig(
            learning_rate=0.1, mode=fedsim.ASYNCHRONIZED, rounds=4, seed=1
        )
        transcript = fedsim.run_training([batch], attacker, config)
        with pytest.raises(numkit.RankDeficient):
            attack.recover_gamma_eta(list(transcript.observations), 0.1)

    def test_matches_closed_form_parameters(self):
        rng = np.random.default_rng(37)
        batches = [fedsim.random_batch(rng, 2, 6) for _ in range(4)]
        attacker = fedsim.random_batch(rng, 2, 6)
        config = TrainingConfig(
            learning_rate=0.1, mode=fedsim.ASYNCHRONIZED, rounds=12, seed=8
        )
        transcript = fedsim.run_training(batches, attacker, config)
        recovered = attack.recover_gamma_eta(list(transcript.observations), 0.1)
        truth = attack.closed_form_params(
            [b.x.T @ b.x for b in batches], [b.x.T @ b.y for b in batches], 0.1
        )
        assert np.max(np.abs(recovered.gamma - truth.gamma)) < 1e-8
        assert np.max(np.abs(recovered.eta - truth.eta)) < 1e-8


class TestGammaNullity:
    def test_counting_for_two_by_two(self):
        rng = np.random.default_rng(38)
        alphas = []
        for _ in range(2):
            raw = rng.uniform(0.0, 2.0, (2, 2))
            alphas.append((raw + raw.T) / 2.0)
        check = attack.gamma_nullity_check(alphas, 0.1)
        assert check.variable_count == 6
        assert check.jacobian_rank <= 4
        assert check.nullity >= 2

    def test_counting_for_two_by_three(self):
        rng = np.random.default_rng(39)
        alphas = []
        for _ in range(2):
            raw = rng.uniform(0.0, 2.0, (3, 3))
            alphas.append((raw + raw.T) / 2.0)
        check = attack.gamma_nullity_check(alphas, 0.1)
        assert check.variable_count == 12
        assert check.nullity >= 3

    def test_rank_at_zero_point_is_symmetric_dimension(self):
        # First-order term is lr/4 * (a1 + a2); both blocks collapse onto the
        # same symmetric embedding, so the rank is exactly d(d+1)/2.
        d = 3
        check = attack.gamma_nullity_check(
            [np.zeros((d, d)), np.zeros((d, d))], 0.1
        )
        assert check.jacobian_rank == d * (d + 1) // 2

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_difference_oracle_on_theorems_grid(self, seed):
        # The grid of `gramleak theorems --seed S`; seed 4 is acceptance criterion 4's.
        for n in (2, 3):
            for d in (2, 3, 4):
                for point in range(5):
                    rng = np.random.default_rng([seed, n, d, point])
                    alphas = []
                    for _ in range(n):
                        raw = rng.uniform(0.0, 2.0, (d, d))
                        alphas.append((raw + raw.T) / 2.0)
                    exact = attack._gamma_jacobian(alphas, 0.1)
                    differences = difference_gamma_jacobian(alphas, 0.1)
                    assert np.max(np.abs(exact - differences)) <= 1e-7 * np.max(np.abs(exact))
                    assert attack.gamma_nullity_check(alphas, 0.1) == difference_nullity_check(
                        alphas, 0.1
                    )

    def test_requires_two_batches(self):
        with pytest.raises(ValueError):
            attack.gamma_nullity_check([np.eye(2)], 0.1)

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            attack.gamma_nullity_check(
                [np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)], 0.1
            )


@functools.cache
def corruptible_observations():
    """The run of ``test_corrupted_push_never_passes``: 13 rounds, 11 unknowns per entry."""
    transcript, _ = synchronized_transcript(np.random.default_rng(37), 5, 10, rounds=13, seed=3)
    return transcript.observations


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 12), st.integers(0, 9), st.floats(1e-3, 10.0), st.sampled_from([-1.0, 1.0]))
def test_corrupted_push_always_raises(k, j, size, sign):
    # Any round, any entry, any offset of at least 1e-3: a typed error, never
    # a system.
    observations = list(corruptible_observations())
    delta = observations[k].delta.copy()
    delta[j] += sign * size
    observations[k] = Observation(theta=observations[k].theta, delta=delta)
    with pytest.raises((attack.AsymmetryDetected, attack.ResidualTooLarge)):
        attack.recover_alpha_beta(observations, 0.1)


class TestMultipartyStack:
    def test_two_parties(self):
        rng = np.random.default_rng(40)
        parties = [fedsim.random_batch(rng, 3, 4) for _ in range(2)]
        assert multiparty_stack_check(parties)

    def test_three_random_parties(self):
        rng = np.random.default_rng(41)
        parties = [fedsim.random_batch(rng, int(rng.integers(1, 5)), 5) for _ in range(3)]
        assert multiparty_stack_check(parties)

    def test_width_mismatch(self):
        rng = np.random.default_rng(42)
        with pytest.raises(numkit.DimensionMismatch):
            multiparty_stack_check(
                [fedsim.random_batch(rng, 2, 3), fedsim.random_batch(rng, 2, 4)]
            )

    def test_single_party_rejected(self):
        rng = np.random.default_rng(43)
        with pytest.raises(ValueError):
            multiparty_stack_check([fedsim.random_batch(rng, 2, 3)])


def test_round_trip_recovery_over_random_configs():
    rng = np.random.default_rng(44)
    for trial in range(15):
        m = int(rng.integers(1, 9))
        d = int(rng.integers(2, 11))
        lr = float(rng.choice([0.01, 0.1, 0.5]))
        victim = fedsim.random_batch(rng, m, d)
        attacker = fedsim.random_batch(rng, m, d)
        config = TrainingConfig(learning_rate=lr, rounds=d + 2, seed=trial)
        transcript = fedsim.run_training([victim], attacker, config)
        system = attack.recover_alpha_beta(list(transcript.observations), lr)
        alpha, beta = int_gram(victim)
        assert np.array_equal(system.alpha, alpha)
        assert np.array_equal(system.beta, beta)
