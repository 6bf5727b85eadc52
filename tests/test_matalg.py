import sys
from math import comb

import numpy as np
import pytest

from lyapspec import matalg

rng = np.random.default_rng(7)


def random_invertible(d):
    while True:
        M = rng.normal(size=(d, d))
        if matalg.is_invertible(M):
            return M


class TestWedge:
    def test_shape(self):
        M = rng.normal(size=(5, 5))
        for t in range(1, 6):
            D = comb(5, t)
            assert matalg.wedge(M, t).shape == (D, D)

    def test_degree_one_is_identity_map(self):
        M = rng.normal(size=(4, 4))
        assert np.array_equal(matalg.wedge(M, 1), M)

    def test_top_degree_is_determinant(self):
        M = rng.normal(size=(4, 4))
        W = matalg.wedge(M, 4)
        assert W.shape == (1, 1)
        assert W[0, 0] == pytest.approx(np.linalg.det(M), rel=1e-10)

    def test_multiplicative(self):
        """wedge(AB, t) = wedge(A, t) wedge(B, t) (Cauchy-Binet)."""
        A, B = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        for t in range(1, 5):
            lhs = matalg.wedge(A @ B, t)
            rhs = matalg.wedge(A, t) @ matalg.wedge(B, t)
            assert np.allclose(lhs, rhs, atol=1e-10 * np.abs(lhs).max())

    def test_norm_is_singular_value_partial_product(self):
        """log ||wedge(M,t)|| = sum of the t largest log singular values."""
        for d in (3, 4):
            for _ in range(20):
                M = random_invertible(d)
                log_sv = matalg.log_singular_values(M)
                for t in range(1, d + 1):
                    got = matalg.log_spectral_norm(matalg.wedge(M, t))
                    assert got == pytest.approx(log_sv[:t].sum(), abs=1e-8)

    def test_diagonal_oracle(self):
        W = matalg.wedge(np.diag([2.0, 3.0, 5.0]), 2)
        assert np.allclose(W, np.diag([6.0, 10.0, 15.0]))

    def test_stack_matches_each_matrix(self):
        """A (k, d, d) stack gives, bit for bit, the wedge of each of its
        matrices, at every degree, for d = 1..6."""
        for d in range(1, 7):
            stack = rng.normal(size=(3, d, d))
            for t in range(1, d + 1):
                assert np.array_equal(matalg.wedge(stack, t),
                                      np.stack([matalg.wedge(M, t) for M in stack]))


class TestSingularValues:
    def test_sorted_descending(self):
        sv = matalg.log_singular_values(rng.normal(size=(5, 5)))
        assert np.all(np.diff(sv) <= 0)

    def test_eigenvalue_oracle(self):
        """Independent route: singular values from eig(M^T M)."""
        for _ in range(20):
            M = random_invertible(4)
            expected = 0.5 * np.log(np.sort(np.linalg.eigvalsh(M.T @ M))[::-1])
            assert np.allclose(matalg.log_singular_values(M), expected, atol=1e-10)

    def test_determinant_conservation(self):
        M = random_invertible(4)
        assert matalg.log_singular_values(M).sum() == pytest.approx(
            np.log(abs(np.linalg.det(M))), abs=1e-10)


class TestInvertibility:
    def test_accepts_well_conditioned(self):
        assert matalg.is_invertible(np.diag([1.0, 1e-3]))

    def test_rejects_singular(self):
        assert not matalg.is_invertible(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_scale_invariant(self):
        M = random_invertible(3)
        assert matalg.is_invertible(M * 1e150)
        assert matalg.is_invertible(M * 1e-150)

    def test_stacked_margin_matches_each_matrix(self):
        """A stack gets the margin of each of its matrices, bit for bit,
        and a zero matrix gets 0 without a warning."""
        stack = np.stack([random_invertible(3), np.zeros((3, 3)), 1e-200 * random_invertible(3)])
        margins = matalg.det_margin(stack)
        assert margins.shape == (3,) and margins[1] == 0.0
        assert margins.tolist() == [matalg.det_margin(M) for M in stack]

    def test_check_finite(self):
        with pytest.raises(ValueError):
            matalg.check_finite(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestRescalePeriod:
    def test_floor_over_log_condition(self):
        """m = floor(ln(1/ORBIT_FLOOR) / ln kappa): 8 steps of condition
        number 1e12 (1e-96 in all), at least 1 however large kappa is."""
        assert matalg.rescale_period(np.log(1e12)) == 8
        assert matalg.rescale_period(np.log(1e7)) == 14
        assert matalg.rescale_period(np.inf) == 1

    def test_isometries_never_rescale(self):
        assert matalg.rescale_period(0.0) == sys.maxsize
