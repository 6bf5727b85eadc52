"""Property tests: the batched profile sweep against plain products,
and the invariants of the Gibbs Hessian and the Legendre solver."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lyapspec import matalg, pressure, sft, spectrum  # noqa: E402
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


def _point(draw, d: int) -> np.ndarray:
    return np.array(draw(st.lists(st.floats(-2, 2), min_size=d, max_size=d)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(c=cocycles(), n=st.integers(1, 7), data=st.data())
def test_hessian_is_gradient_derivative(c, n, data):
    """gibbs_hessian is the Jacobian of gibbs_gradient (central
    differences) and is symmetric positive semidefinite."""
    q = _point(data.draw, c.d)
    H = pressure.gibbs_hessian(c, q, n)
    step = 1e-4
    fd = np.column_stack([
        (pressure.gibbs_gradient(c, q + step * e, n)
         - pressure.gibbs_gradient(c, q - step * e, n)) / (2 * step)
        for e in np.eye(c.d)])
    assert np.abs(H - fd).max() <= 1e-5
    assert np.abs(H - H.T).max() <= 1e-14
    assert np.linalg.eigvalsh(H).min() >= -1e-12


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(c=cocycles(), n=st.integers(1, 7), data=st.data(),
                  seed=st.integers(0, 2**32 - 1))
def test_solver_at_a_gradient(c, n, data, seed):
    """At alpha = grad P_n(q0) the minimizer is interior, its gradient
    matches alpha to GRAD_TOL, and h is below the objective at any q.

    The objective is convex, so f(q) >= h + <grad f(q*), q - q*>; the
    infimum check allows that first-order term, because on a nearly
    flat P_n a gradient of size GRAD_TOL can leave h ~1e-7 above the
    infimum (two generators with |det| 1.2050 and 1.2042, d = 1)."""
    q0 = _point(data.draw, c.d)
    alpha = pressure.gibbs_gradient(c, q0, n)
    pt = spectrum.legendre_entropy(c, alpha, n)
    assert pt.status == "interior-converged"
    g = pressure.gibbs_gradient(c, pt.q_star, n) - alpha
    assert np.abs(g).max() <= spectrum.GRAD_TOL
    for q in np.random.default_rng(seed).uniform(-5, 5, size=(20, c.d)):
        f = pressure.log_sn(c, q, n) / n - q @ alpha
        assert pt.h <= f - g @ (q - pt.q_star) + 1e-9
