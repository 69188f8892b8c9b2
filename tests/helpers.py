"""Reference functions that only the tests use.

``approx_loss`` is the per-sample surrogate loss whose summed gradient
``fedsim.batch_gradient`` computes in closed form; ``multiparty_stack_check``
checks that k synchronized parties leak the Gram matrix of their stacked rows;
``difference_nullity_check`` is ``attack.gamma_nullity_check`` by central
differences, the oracle of its exact Jacobian.
"""

import math

import numpy as np

from gramleak import attack, numkit
from gramleak.fedsim import Batch


def approx_loss(theta: np.ndarray, x: np.ndarray, y: float) -> float:
    """Quadratic surrogate loss of one sample: log2 - z*y/2 + z^2/8, z = theta.x."""
    theta = numkit.as_vector(theta)
    x = numkit.as_vector(x)
    if theta.shape != x.shape:
        raise numkit.DimensionMismatch(
            f"model length {theta.shape[0]} != sample length {x.shape[0]}"
        )
    if y not in (-1.0, 1.0):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    z = float(theta @ x)
    return math.log(2.0) - 0.5 * z * y + 0.125 * z * z


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


def difference_gamma_jacobian(alphas: list[np.ndarray], learning_rate: float) -> np.ndarray:
    """Jacobian of ``gamma.ravel()`` by central differences of step 1e-6.

    Columns follow batch order, then the upper triangle (i, j) row by row; an
    off-diagonal step moves entries (i, j) and (j, i) together.
    """
    step = 1e-6
    mats = np.array(alphas, dtype=float)
    n, d, _ = mats.shape
    zero_betas = [np.zeros(d)] * n

    def gamma_flat(stack: np.ndarray) -> np.ndarray:
        return attack.closed_form_params(list(stack), zero_betas, learning_rate).gamma.ravel()

    upper = [(i, j) for i in range(d) for j in range(i, d)]
    jacobian = np.empty((d * d, n * len(upper)))
    col = 0
    for t in range(n):
        for i, j in upper:
            plus = mats.copy()
            minus = mats.copy()
            plus[t, i, j] += step
            minus[t, i, j] -= step
            if i != j:
                plus[t, j, i] += step
                minus[t, j, i] -= step
            jacobian[:, col] = (gamma_flat(plus) - gamma_flat(minus)) / (2.0 * step)
            col += 1
    return jacobian


def pivot_rank(m: np.ndarray, tol: float) -> int:
    """Rank by elimination with partial pivoting.

    A column whose best pivot is below ``tol`` times the largest entry of ``m``
    is skipped, as in ``numkit._eliminate`` with its bound replaced by ``tol``.
    """
    work = np.array(m, dtype=float)
    threshold = tol * np.max(np.abs(work))
    if threshold == 0.0:
        return 0
    r = 0
    for c in range(work.shape[1]):
        if r == work.shape[0]:
            break
        p = r + int(np.argmax(np.abs(work[r:, c])))
        if abs(work[p, c]) < threshold:
            continue
        work[[r, p]] = work[[p, r]]
        work[r + 1 :, c:] -= np.outer(work[r + 1 :, c] / work[r, c], work[r, c:])
        r += 1
    return r


def difference_nullity_check(alphas: list[np.ndarray], learning_rate: float
                             ) -> attack.NullityCheck:
    """``gamma_nullity_check`` from the difference Jacobian, ranked with pivot bound 1e-8."""
    jacobian = difference_gamma_jacobian(alphas, learning_rate)
    rank = pivot_rank(jacobian, 1e-8)
    return attack.NullityCheck(rank, jacobian.shape[1], jacobian.shape[1] - rank)
