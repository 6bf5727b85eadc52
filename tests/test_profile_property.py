"""Property test: the batched profile sweep against plain products."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lyapspec import matalg, sft  # noqa: E402
from lyapspec.cocycle import OneStepCocycle, product, profile_matrix  # noqa: E402


def _primitive(k: int, bits: list[int]) -> sft.TransitionMatrix | None:
    try:
        return sft.validate(np.array(bits).reshape(k, k))
    except ValueError:
        return None


def _generators(seed: int, k: int, d: int) -> list[np.ndarray]:
    """Orthogonal x diagonal x orthogonal with singular values in
    [1/2, 2], so products of length <= 8 stay well conditioned."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(k):
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        gens.append(U @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ V)
    return gens


@st.composite
def cocycles(draw):
    k = draw(st.integers(1, 3))
    Q = _primitive(k, draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k)))
    hypothesis.assume(Q is not None)
    d = draw(st.integers(1, 3))
    return OneStepCocycle(Q=Q, generators=_generators(draw(st.integers(0, 2**32 - 1)), k, d))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(c=cocycles(), n=st.integers(1, 8))
def test_rows_match_word_products(c, n):
    profs = profile_matrix(c, n)
    words = list(sft.enumerate_words(c.Q, n))
    assert profs.shape == (len(words), c.d)
    for row, w in zip(profs, words):
        expected = matalg.log_singular_values(product(c, w)) / n
        assert np.abs(row - expected).max() <= 1e-10
