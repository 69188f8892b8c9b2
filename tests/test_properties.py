import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gramleak.reconstruct import build_model, canonical_rows, enumerate_labels, solve


@st.composite
def labeled_batches(draw):
    m = draw(st.integers(1, 7))
    d = draw(st.integers(1, 7))
    bits = draw(st.lists(st.integers(0, 1), min_size=m * d, max_size=m * d))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m))
    return np.array(bits, dtype=np.int64).reshape(m, d), np.array(signs, dtype=np.int64)


@settings(derandomize=True, deadline=None)
@given(labeled_batches())
def test_searches_contain_the_ground_truth(batch):
    x, y = batch
    alpha = x.T @ x
    solutions, stats = solve(build_model(alpha, x.shape[0]))
    assert stats.exhausted
    for sol in solutions:
        assert np.array_equal(sol.x.T @ sol.x, alpha)
        assert np.array_equal(sol.x, canonical_rows(sol.x))
    batches = [sol.x.tolist() for sol in solutions]
    assert batches == sorted(batches)
    truth = canonical_rows(x)
    assert any(np.array_equal(sol.x, truth) for sol in solutions)
    labelings = enumerate_labels(x, x.T @ y)
    assert any(np.array_equal(labels, y) for labels in labelings)
