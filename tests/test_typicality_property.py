"""Property test: condition (ii) of the 1-typicality check, one stacked
SVD over the D-column subsets of [WV | V], against the nested loop
with one SVD per (I, J), 1 <= |I| + |J| <= D, that it replaced, kept
here as the reference."""

from itertools import combinations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lyapspec import matalg, sft, typicality  # noqa: E402
from lyapspec.cocycle import OneStepCocycle  # noqa: E402


def _columns(c, t, loop):
    """Unit eigenvectors V of A_a^{wedge t}, by decreasing modulus, and
    their unit images WV under the degree-t wedge of the loop matrix."""
    _, vecs = typicality._sorted_eigensystem(c.wedges[t][loop.a - 1])
    V = np.real(vecs)
    V /= np.linalg.norm(V, axis=0)
    WV = matalg.wedge(loop.W, t) @ V
    WV /= np.linalg.norm(WV, axis=0)
    return WV, V


def _indep_margin(WV, V):
    """The nested loop: min over (I, J) of the smallest singular value
    of the columns WV[:, I] followed by V[:, J]."""
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
    of t of them is distinct, condition (i) holds at every degree and
    condition (ii) is reached; P is orthogonal times unit triangular,
    so A_1 is well conditioned.  A_2 is Gaussian."""
    rng = np.random.default_rng(seed)
    x = 2.0 ** np.arange(d) / 4 + rng.uniform(-0.05, 0.05, d)
    P = np.linalg.qr(rng.standard_normal((d, d)))[0] @ (
        np.eye(d) + np.triu(rng.standard_normal((d, d)), 1))
    A1 = P @ np.diag(rng.choice([-1.0, 1.0], d) * np.exp(x)) @ np.linalg.inv(P)
    return OneStepCocycle(Q=sft.full_shift(2), generators=[A1, rng.standard_normal((d, d))])


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**16),
                  w=st.lists(st.integers(1, 2), min_size=1, max_size=3))
def test_stacked_margin_matches_nested_loop(d, seed, w):
    """The same margin, bit for bit, at every degree t = 1..d-1."""
    c = _cocycle(d, seed)
    loop = typicality.holonomy_loop(c, 1, tuple(w))
    for t in range(1, d):
        level = typicality.check_1typical(c, t, loop)
        hypothesis.assume(level.eig_ok)
        assert level.indep_margin == _indep_margin(*_columns(c, t, loop))
