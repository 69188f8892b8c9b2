"""Honest-but-curious recovery of the victim's leaked linear systems.

Synchronized rounds expose the victim push as an affine function of the model
point, ``delta = lr * (alpha @ theta / 4 - beta / 2)`` with ``alpha = X'X``
and ``beta = X'Y``, so stacking enough observations and solving row by row
recovers (alpha, beta) exactly after integer validation. Asynchronized rounds
expose the analogous affine pair (gamma, eta) of the sequential multi-batch
pass, which this module can also evaluate in closed form and probe for its
solution-manifold dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numkit
from .fedsim import Batch, Observation

DEFAULT_RECOVERY_TOL = 1e-8


class AsymmetryDetected(ArithmeticError):
    """Row-wise recovery produced a matrix that should be symmetric but is not."""


class ResidualTooLarge(ArithmeticError):
    """Observations do not fit a single affine model (shuffled or mixed data)."""


@dataclass(frozen=True)
class RecoveredSystem:
    """Leak of a synchronized run: integral Gram matrix and label projection."""

    alpha: np.ndarray  # (d, d) int64, symmetric PSD
    beta: np.ndarray  # (d,) int64
    max_integrality_residual: float = 0.0  # worst distance of a solved entry from its integer


@dataclass(frozen=True)
class ClosedFormParams:
    """Affine description of an asynchronized pass: delta = gamma.theta - lr*eta/2."""

    gamma: np.ndarray  # (d, d)
    eta: np.ndarray  # (d,)
    learning_rate: float


class NullityCheck(NamedTuple):
    jacobian_rank: int
    variable_count: int
    nullity: int


def _stack_observations(observations: list[Observation]) -> tuple[np.ndarray, np.ndarray]:
    if not observations:
        raise ValueError("need at least one observation")
    d = observations[0].theta.shape[0]
    for obs in observations:
        if obs.theta.shape[0] != d:
            raise numkit.DimensionMismatch(
                f"observation width {obs.theta.shape[0]} != {d}"
            )
    thetas = np.array([obs.theta for obs in observations])
    deltas = np.array([obs.delta for obs in observations])
    return thetas, deltas


def recover_alpha_beta(
    observations: list[Observation],
    learning_rate: float,
    tol: float = DEFAULT_RECOVERY_TOL,
) -> RecoveredSystem:
    """Recover (X'X, X'Y) of the victim batch from synchronized observations.

    Each output component obeys one linear equation in d+1 unknowns (a Gram
    row plus one beta entry), so at least d+1 observations with model points
    in general position are required. Symmetry is checked before rounding and
    every recovered entry must round cleanly to an integer; failures mean the
    transcript did not come from a fixed-batch synchronized binary run.
    """
    thetas, deltas = _stack_observations(observations)
    n_obs, d = thetas.shape
    if n_obs < d + 1:
        raise numkit.RankDeficient(
            f"need at least {d + 1} observations to recover a width-{d} system, "
            f"got {n_obs}",
            rank=n_obs,
        )
    design = np.column_stack(
        [0.25 * learning_rate * thetas, np.full(n_obs, -0.5 * learning_rate)]
    )
    solved = numkit.solve_linear(design, deltas).T
    alpha_raw = solved[:, :d]
    beta_raw = solved[:, d]
    asymmetry = float(np.max(np.abs(alpha_raw - alpha_raw.T)))
    scale = max(1.0, float(np.max(np.abs(alpha_raw))))
    if asymmetry > tol * scale:
        raise AsymmetryDetected(
            f"recovered matrix asymmetry {asymmetry:.3e} exceeds {tol * scale:.3e}; "
            "observations are inconsistent with a Gram-matrix model"
        )
    alpha = numkit.round_integral(alpha_raw, tol)
    beta = numkit.round_integral(beta_raw, tol)
    integrality = float(np.max(np.abs(solved - np.rint(solved))))
    return RecoveredSystem(alpha=alpha, beta=beta, max_integrality_residual=integrality)


def recover_gamma_eta(
    observations: list[Observation],
    learning_rate: float,
    tol: float = DEFAULT_RECOVERY_TOL,
) -> ClosedFormParams:
    """Fit the affine model ``delta = gamma.theta - lr*eta/2`` to asynchronized rounds.

    No integrality applies (gamma and eta are real in general); instead the fit
    residual over all observations must stay below ``tol`` relative to the push
    magnitude. A large residual means no single affine map explains the rounds,
    which is exactly what the shuffle defense (or changing victim data) causes.
    """
    thetas, deltas = _stack_observations(observations)
    n_obs, d = thetas.shape
    if n_obs < d + 1:
        raise numkit.RankDeficient(
            f"need at least {d + 1} observations to recover a width-{d} system, "
            f"got {n_obs}",
            rank=n_obs,
        )
    design = np.column_stack([thetas, np.full(n_obs, -0.5 * learning_rate)])
    solved = numkit.solve_linear(design, deltas).T
    residual = float(np.max(np.abs(design @ solved.T - deltas)))
    scale = max(1.0, float(np.max(np.abs(deltas))))
    if residual > tol * scale:
        raise ResidualTooLarge(
            f"affine fit residual {residual:.3e} exceeds {tol * scale:.3e}; "
            "rounds do not share one batch order (shuffle active?) or data changed"
        )
    return ClosedFormParams(
        gamma=solved[:, :d].copy(), eta=solved[:, d].copy(), learning_rate=learning_rate
    )


def closed_form_params(
    alphas: list[np.ndarray], betas: list[np.ndarray], learning_rate: float
) -> ClosedFormParams:
    """Collapse a sequential multi-batch pass into its affine form.

    With factors ``M_i = I - lr*alpha_i/4`` applied in batch order,
    ``gamma = I - M_n ... M_1`` and
    ``eta = sum_i (M_n ... M_{i+1}) beta_i + beta_n``.
    """
    if not alphas or len(alphas) != len(betas):
        raise ValueError("need matching non-empty alpha and beta lists")
    d = alphas[0].shape[0]
    for a, b in zip(alphas, betas):
        if a.shape != (d, d) or b.shape != (d,):
            raise numkit.DimensionMismatch(
                f"inconsistent shapes {a.shape} / {b.shape} for width {d}"
            )
    identity = np.eye(d)
    factors = [identity - 0.25 * learning_rate * np.asarray(a, dtype=float) for a in alphas]
    product = identity
    for factor in factors:
        product = factor @ product
    gamma = identity - product
    eta = np.asarray(betas[-1], dtype=float).copy()
    suffix = identity
    for i in range(len(alphas) - 2, -1, -1):
        suffix = suffix @ factors[i + 1]
        eta += suffix @ np.asarray(betas[i], dtype=float)
    return ClosedFormParams(gamma=gamma, eta=eta, learning_rate=learning_rate)


def closed_form_delta(
    alphas: list[np.ndarray],
    betas: list[np.ndarray],
    theta: np.ndarray,
    learning_rate: float,
) -> np.ndarray:
    """Push of a sequential pass without simulating it: gamma.theta - lr*eta/2."""
    params = closed_form_params(alphas, betas, learning_rate)
    theta = numkit.as_vector(theta)
    if theta.shape[0] != params.gamma.shape[0]:
        raise numkit.DimensionMismatch(
            f"model length {theta.shape[0]} != system width {params.gamma.shape[0]}"
        )
    return params.gamma @ theta - 0.5 * learning_rate * params.eta


def gamma_nullity_check(
    alphas: list[np.ndarray],
    learning_rate: float,
    fd_step: float = 1e-6,
    tol: float = 1e-8,
) -> NullityCheck:
    """Local dimension of the solution manifold of the gamma equation.

    Treats gamma as a map from the symmetric parameters of (alpha_1..alpha_n)
    to d^2 outputs, differentiates it by central differences at the given
    point, and reports (numeric Jacobian rank, parameter count, nullity).
    n*d*(d+1)/2 parameters against d^2 outputs leave a positive-dimensional
    local solution set whenever n >= 2, which the nullity makes measurable.
    """
    n = len(alphas)
    if n < 2:
        raise ValueError("need at least two batches for the nullity check")
    d = alphas[0].shape[0]
    mats = np.array([np.asarray(a, dtype=float) for a in alphas])
    if mats.shape != (n, d, d):
        raise numkit.DimensionMismatch(f"alphas must all be {d}x{d}")
    for a in mats:
        if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
            raise ValueError("every alpha must be symmetric")

    def gamma_flat(stack: np.ndarray) -> np.ndarray:
        product = np.eye(d)
        for idx in range(n):
            product = (np.eye(d) - 0.25 * learning_rate * stack[idx]) @ product
        return (np.eye(d) - product).ravel()

    upper = [(i, j) for i in range(d) for j in range(i, d)]
    variable_count = n * len(upper)
    jacobian = np.empty((d * d, variable_count))
    col = 0
    for t in range(n):
        for i, j in upper:
            plus = mats.copy()
            minus = mats.copy()
            plus[t, i, j] += fd_step
            minus[t, i, j] -= fd_step
            if i != j:
                plus[t, j, i] += fd_step
                minus[t, j, i] -= fd_step
            jacobian[:, col] = (gamma_flat(plus) - gamma_flat(minus)) / (2.0 * fd_step)
            col += 1
    jac_rank = numkit.rank(jacobian, tol)
    return NullityCheck(
        jacobian_rank=jac_rank,
        variable_count=variable_count,
        nullity=variable_count - jac_rank,
    )


def multiparty_stack_check(party_batches: list[Batch]) -> bool:
    """Exact integer check that summed per-party Grams equal the stacked Gram.

    Confirms that k synchronized parties leak the same system as one party
    holding all rows, so the multi-party aggregate reduces to a bigger batch.
    """
    if len(party_batches) < 2:
        raise ValueError("need at least two parties")
    d = party_batches[0].width
    for batch in party_batches:
        if batch.width != d:
            raise numkit.DimensionMismatch(
                f"party batch width {batch.width} != {d}"
            )
    total = np.zeros((d, d), dtype=np.int64)
    for batch in party_batches:
        xi = batch.x.astype(np.int64)
        total += xi.T @ xi
    stacked = np.vstack([batch.x for batch in party_batches]).astype(np.int64)
    return bool(np.array_equal(total, stacked.T @ stacked))
