"""Property tests of the twisting check: it gives the verdict of the
general-position check it replaced, kept here as the reference, and its
margin is scale free."""

from itertools import combinations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lyapspec import matalg, sft, typicality  # noqa: E402
from lyapspec.cocycle import OneStepCocycle  # noqa: E402


def _columns(c, t, a, W):
    """Unit eigenvectors V of A_a^{wedge t}, by decreasing modulus, and
    their unit images WV under the degree-t wedge of the loop matrix W."""
    lam, vecs = np.linalg.eig(c.wedges[t][a - 1])
    V = np.real(vecs[:, np.argsort(-np.abs(lam))])
    V /= np.linalg.norm(V, axis=0)
    WV = matalg.wedge(W, t) @ V
    WV /= np.linalg.norm(WV, axis=0)
    return WV, V


def _indep_margin(WV, V):
    """The general-position reference: min over (I, J) with
    1 <= |I| + |J| <= D of the smallest singular value of the columns
    WV[:, I] followed by V[:, J], one SVD per pair."""
    D = V.shape[1]
    margin = np.inf
    for ni in range(D + 1):
        for I in combinations(range(D), ni):
            for nj in range(D + 1 - ni):
                if ni + nj == 0:
                    continue
                for J in combinations(range(D), nj):
                    cols = np.column_stack([WV[:, i] for i in I] + [V[:, j] for j in J])
                    margin = min(margin, float(np.linalg.svd(cols, compute_uv=False)[-1]))
    return margin


def _cocycle(d, seed):
    """Full shift on two symbols.  A_1 = P diag(+-e^x) P^{-1} has real
    eigenvalues whose log-moduli x are near 2^i / 4, so that every sum
    of t of them is distinct, pinching holds at every degree and
    twisting is reached; P is orthogonal times unit triangular, so A_1
    is well conditioned.  A_2 is Gaussian."""
    rng = np.random.default_rng(seed)
    x = 2.0 ** np.arange(d) / 4 + rng.uniform(-0.05, 0.05, d)
    P = np.linalg.qr(rng.standard_normal((d, d)))[0] @ (
        np.eye(d) + np.triu(rng.standard_normal((d, d)), 1))
    A1 = P @ np.diag(rng.choice([-1.0, 1.0], d) * np.exp(x)) @ np.linalg.inv(P)
    return OneStepCocycle(Q=sft.full_shift(2), generators=[A1, rng.standard_normal((d, d))])


def _far(margin):
    """At least a factor 100 away from the pass threshold."""
    return not typicality.TOL_INDEP / 100 < margin < typicality.TOL_INDEP * 100


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
                  w=st.lists(st.integers(1, 2), min_size=1, max_size=3))
def test_twisting_matches_general_position(d, seed, w):
    """At d <= 3 twisting on R^d is general position at every degree
    (d = 3: Jacobi's complementary minors carry t = 2 to t = 1), so
    the verdicts agree wherever both margins are clear of rounding."""
    c = _cocycle(d, seed)
    report = typicality.check_typical(c, 1, tuple(w))
    hypothesis.assume(min(report.gap_margins) > typicality.TOL_GAP)
    W = typicality.holonomy_loop(c, 1, tuple(w))
    reference = min(_indep_margin(*_columns(c, t, 1, W)) for t in range(1, d))
    hypothesis.assume(_far(reference) and _far(report.twist_margin))
    assert (report.twist_margin > typicality.TOL_INDEP) == (reference > typicality.TOL_INDEP)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(d=st.integers(2, 5), seed=st.integers(0, 2**16),
                  scale=st.floats(1e-3, 1e3), log_cols=st.lists(
                      st.floats(-3, 3), min_size=5, max_size=5))
def test_twist_margin_is_scale_free(d, seed, scale, log_cols):
    """Rescaling W, or any column of V, leaves every span and so the
    margin unchanged."""
    rng = np.random.default_rng(seed)
    W, V = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    hypothesis.assume(np.linalg.cond(W) < 1e6 and np.linalg.cond(V) < 1e6)
    scaled = typicality._twist_margin(scale * W, V * 10.0 ** np.array(log_cols[:d]))
    assert scaled == pytest.approx(typicality._twist_margin(W, V), rel=1e-6, abs=1e-12)


def test_d4_draws_pass():
    """General position on Lambda^2 R^4 can never hold; twisting on
    R^4 passes every draw."""
    for seed in range(30):
        assert typicality.check_typical(_cocycle(4, seed), 1, (2,)).passed
