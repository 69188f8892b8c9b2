"""Honest-but-curious recovery of the victim's leaked linear systems.

Synchronized rounds expose the victim push as an affine function of the model
point, ``delta = lr * (alpha @ theta / 4 - beta / 2)`` with ``alpha = X'X``
and ``beta = X'Y``, so stacking enough observations and solving row by row
recovers (alpha, beta) exactly after integer validation and a check that the
rounded system fits every push. Asynchronized rounds expose the analogous
affine pair (gamma, eta) of the sequential multi-batch pass; this module also
evaluates it in closed form and measures the solution-manifold dimension of
gamma from its exact Jacobian in the batch Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numkit
from .fedsim import Observation

RECOVERY_TOL = 1e-8  # relative bound on asymmetry, rounding and fit residual


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
    max_fit_residual: float = 0.0  # worst gap between an observed push and the rounded fit
    max_asymmetry: float = 0.0  # worst gap between a solved Gram entry and its transpose


@dataclass(frozen=True)
class ClosedFormParams:
    """Affine description of an asynchronized pass: delta = gamma.theta - lr*eta/2."""

    gamma: np.ndarray  # (d, d)
    eta: np.ndarray  # (d,)
    learning_rate: float
    max_fit_residual: float = 0.0  # worst gap between an observed push and the fit


class NullityCheck(NamedTuple):
    jacobian_rank: int
    variable_count: int
    nullity: int


def _stack_observations(
    observations: list[Observation], learning_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Model points and pushes as rows; a width-d system needs d+1 of them.

    A rate that is not positive and finite raises ``ValueError``, and one
    whose quarter is subnormal raises :class:`numkit.NonFinite`.
    """
    if not (0 < learning_rate < np.inf):
        raise ValueError(f"learning rate must be positive and finite, got {learning_rate!r}")
    # The sync design scales by lr/4 and the async one by lr/2; once lr/4 is
    # subnormal, the sync solve overflows and the async one loses rank.
    tiny = np.finfo(float).tiny
    if 0.25 * learning_rate < tiny:
        raise numkit.NonFinite(
            f"learning rate {learning_rate!r} is too small for float64: "
            f"0.25 * rate is below {tiny:.3e}"
        )
    if not observations:
        raise ValueError("need at least one observation")
    d = observations[0].theta.shape[0]
    for obs in observations:
        if obs.theta.shape[0] != d:
            raise numkit.DimensionMismatch(
                f"observation width {obs.theta.shape[0]} != {d}"
            )
    n_obs = len(observations)
    if n_obs < d + 1:
        raise numkit.RankDeficient(
            f"need at least {d + 1} observations to recover a width-{d} system, "
            f"got {n_obs}",
            rank=n_obs,
        )
    thetas = np.array([obs.theta for obs in observations])
    deltas = np.array([obs.delta for obs in observations])
    return thetas, deltas


def recover_alpha_beta(observations: list[Observation], learning_rate: float) -> RecoveredSystem:
    """Recover (X'X, X'Y) of the victim batch from synchronized observations.

    Each output component obeys one linear equation in d+1 unknowns (a Gram
    row plus one beta entry), so at least d+1 observations with model points
    in general position are required. Symmetry is checked before rounding,
    every recovered entry must round cleanly to an integer, and the rounded
    system must reproduce every push within ``RECOVERY_TOL`` relative to the push
    magnitude, as in :func:`recover_gamma_eta`; failures mean the transcript
    did not come from a fixed-batch synchronized binary run.
    """
    thetas, deltas = _stack_observations(observations, learning_rate)
    n_obs, d = thetas.shape
    design = np.column_stack(
        [0.25 * learning_rate * thetas, np.full(n_obs, -0.5 * learning_rate)]
    )
    solved = numkit.solve_linear(design, deltas).T
    alpha_raw = solved[:, :d]
    asymmetry = float(np.max(np.abs(alpha_raw - alpha_raw.T)))
    scale = max(1.0, float(np.max(np.abs(alpha_raw))))
    if asymmetry > RECOVERY_TOL * scale:
        raise AsymmetryDetected(
            f"recovered matrix asymmetry {asymmetry:.3e} exceeds {RECOVERY_TOL * scale:.3e}; "
            "observations are inconsistent with a Gram-matrix model"
        )
    # One rounding of [alpha | beta]; a NotIntegral names beta_i as entry (i, d).
    rounded = numkit.round_integral(solved, RECOVERY_TOL)
    integrality = float(np.max(np.abs(solved - rounded)))
    alpha = rounded[:, :d].copy()
    beta = rounded[:, d].copy()
    fit = learning_rate * (0.25 * thetas @ alpha - 0.5 * beta)
    residual = float(np.max(np.abs(fit - deltas)))
    bound = RECOVERY_TOL * max(1.0, float(np.max(np.abs(deltas))))
    if residual > bound:
        raise ResidualTooLarge(
            f"fit residual {residual:.3e} of the rounded system exceeds {bound:.3e}; "
            "an observation outside the pivot rows disagrees with the others"
        )
    return RecoveredSystem(alpha, beta, integrality, residual, asymmetry)


def recover_gamma_eta(observations: list[Observation], learning_rate: float) -> ClosedFormParams:
    """Fit the affine model ``delta = gamma.theta - lr*eta/2`` to asynchronized rounds.

    No integrality applies (gamma and eta are real in general); instead the fit
    residual over all observations must stay below ``RECOVERY_TOL`` relative to the push
    magnitude. A large residual means no single affine map explains the rounds,
    which is exactly what the shuffle defense (or changing victim data) causes.
    """
    thetas, deltas = _stack_observations(observations, learning_rate)
    n_obs, d = thetas.shape
    design = np.column_stack([thetas, np.full(n_obs, -0.5 * learning_rate)])
    solved = numkit.solve_linear(design, deltas).T
    residual = float(np.max(np.abs(design @ solved.T - deltas)))
    scale = max(1.0, float(np.max(np.abs(deltas))))
    if residual > RECOVERY_TOL * scale:
        raise ResidualTooLarge(
            f"affine fit residual {residual:.3e} exceeds {RECOVERY_TOL * scale:.3e}; "
            "rounds do not share one batch order (shuffle active?) or data changed"
        )
    return ClosedFormParams(solved[:, :d].copy(), solved[:, d].copy(), learning_rate, residual)


def closed_form_params(
    alphas: list[np.ndarray], betas: list[np.ndarray], learning_rate: float
) -> ClosedFormParams:
    """Collapse a sequential multi-batch pass into its affine form.

    With factors ``M_i = I - lr*alpha_i/4`` applied in batch order,
    ``gamma = I - M_n ... M_1`` and
    ``eta = sum_i (M_n ... M_{i+1}) beta_i + beta_n``.
    """
    if not (0 <= learning_rate < np.inf):
        raise ValueError(f"learning rate must be non-negative and finite, got {learning_rate!r}")
    if not alphas or len(alphas) != len(betas):
        raise ValueError("need matching non-empty alpha and beta lists")
    alphas = [numkit.as_matrix(a) for a in alphas]
    betas = [numkit.as_vector(b) for b in betas]
    d = alphas[0].shape[0]
    for a, b in zip(alphas, betas):
        if a.shape != (d, d) or b.shape != (d,):
            raise numkit.DimensionMismatch(
                f"inconsistent shapes {a.shape} / {b.shape} for width {d}"
            )
    identity = np.eye(d)
    factors = [identity - 0.25 * learning_rate * a for a in alphas]
    product = identity
    for factor in factors:
        product = factor @ product
    gamma = identity - product
    eta = betas[-1]
    suffix = identity
    for i in range(len(alphas) - 2, -1, -1):
        suffix = suffix @ factors[i + 1]
        eta += suffix @ betas[i]
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


def _gamma_jacobian(alphas: list[np.ndarray], learning_rate: float) -> np.ndarray:
    """Exact Jacobian of ``gamma.ravel()`` by the upper-triangle entries of each alpha.

    Block t is ``lr/4 * kron(L_t, R_t^T)`` with ``L_t = M_n ... M_(t+1)`` and
    ``R_t = M_(t-1) ... M_1``; an off-diagonal entry adds columns ij and ji.
    """
    d = alphas[0].shape[0]
    factors = [np.eye(d) - 0.25 * learning_rate * a for a in alphas]
    rights = [np.eye(d)]
    for factor in factors[:-1]:
        rights.append(factor @ rights[-1])
    i, j = np.triu_indices(d)
    blocks, left = [], np.eye(d)
    for factor, right in zip(factors[::-1], rights[::-1]):
        block = np.kron(left, right.T)
        blocks.insert(0, block[:, i * d + j] + block[:, j * d + i] * (i != j))
        left = left @ factor
    return 0.25 * learning_rate * np.hstack(blocks)


def gamma_nullity_check(alphas: list[np.ndarray], learning_rate: float) -> NullityCheck:
    """Local dimension of the solution manifold of the gamma equation.

    Treats gamma as a map from the symmetric parameters of (alpha_1..alpha_n)
    to d^2 outputs, takes its exact Jacobian at the given point, and reports
    (Jacobian rank by :func:`numkit.rank`, parameter count, nullity).
    n*d*(d+1)/2 parameters against d^2 outputs leave a positive-dimensional
    local solution set whenever n >= 2, which the nullity makes measurable.
    """
    if not (0 <= learning_rate < np.inf):
        raise ValueError(f"learning rate must be non-negative and finite, got {learning_rate!r}")
    if len(alphas) < 2:
        raise ValueError("need at least two batches for the nullity check")
    alphas = [numkit.as_matrix(a) for a in alphas]
    d = alphas[0].shape[0]
    if any(a.shape != (d, d) for a in alphas):
        raise numkit.DimensionMismatch(f"alphas must all be {d}x{d}")
    for a in alphas:
        if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
            raise ValueError("every alpha must be symmetric")
    jacobian = _gamma_jacobian(alphas, learning_rate)
    jac_rank = numkit.rank(jacobian)
    return NullityCheck(jac_rank, jacobian.shape[1], jacobian.shape[1] - jac_rank)
