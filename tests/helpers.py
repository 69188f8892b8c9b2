"""Reference functions that only the tests use.

``approx_loss`` is the per-sample surrogate loss whose summed gradient
``fedsim.batch_gradient`` computes in closed form; ``multiparty_stack_check``
checks that k synchronized parties leak the Gram matrix of their stacked rows.
"""

import math

import numpy as np

from gramleak import numkit
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
