import numpy as np
import pytest

from lyapspec import matalg, pressure, sft, typicality
from lyapspec.cocycle import OneStepCocycle

rng = np.random.default_rng(11)


def diag_closed_form(q):
    """For generators diag(2, 1/2) and diag(3, 1/3) on the full
    2-shift the word sum factorizes symbol by symbol:
    P(q) = log(2^(q1-q2) + 3^(q1-q2))."""
    t = q[0] - q[1]
    return np.log(2.0**t + 3.0**t)


class TestWeightDifferences:
    def test_values(self):
        assert np.allclose(pressure.weight_differences(np.array([3.0, 1.0, 0.5])),
                           [2.0, 0.5, 0.5])

    def test_all_nonnegative_iff_sorted(self):
        q = np.array([2.0, 1.0, 1.0])
        assert (pressure.weight_differences(q) >= 0).all()
        q = np.array([1.0, 2.0])
        assert not (pressure.weight_differences(q) >= 0).all()


class TestDiagonalOracle:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_exact_at_every_length(self, diag_cocycle, n):
        """The factorized sum makes P_n independent of n and exactly
        the closed form."""
        for q in ([0.0, 0.0], [1.0, 0.0], [2.0, -1.0], [-1.5, 0.5]):
            q = np.array(q)
            est = pressure.pressure_estimate(diag_cocycle, q, n)
            assert est.value == pytest.approx(diag_closed_form(q), abs=1e-10)

    def test_brackets_collapse(self, diag_cocycle):
        """Diagonal generators are exactly multiplicative (C=1, k=0),
        so both brackets pin the value."""
        for q in ([1.0, 0.0], [2.0, 1.0]):
            q = np.array(q)
            est = pressure.pressure_estimate(diag_cocycle, q, 10, qm_C=1.0, qm_k=0)
            assert est.lower == pytest.approx(est.value, abs=1e-10)
            assert est.upper == pytest.approx(est.value, abs=1e-10)

    def test_upper_absent_when_weights_unsorted(self, diag_cocycle):
        est = pressure.pressure_estimate(diag_cocycle, np.array([0.0, 1.0]), 8,
                                         qm_C=1.0, qm_k=0)
        assert est.upper is None
        assert est.lower is not None


class TestEntropyAtZero:
    def test_full_shift(self, pos_cocycle):
        est = pressure.pressure_estimate(pos_cocycle, np.zeros(2), 10)
        assert est.value == pytest.approx(np.log(2), abs=1e-12)

    def test_golden_mean(self, golden_identity):
        """With identity generators the pressure is the shift entropy."""
        phi = (1 + np.sqrt(5)) / 2
        est = pressure.pressure_estimate(golden_identity, np.zeros(2), 12)
        assert est.value == pytest.approx(np.log(phi), abs=0.05)
        # identity profile is exactly zero, so P_n = (1/n) log #L_n > h
        assert est.value > np.log(phi)


class TestBrackets:
    def test_sandwich_and_shrinking(self, pos_cocycle):
        qm = typicality.qm_search(pos_cocycle, 5, 4)
        assert qm.found
        q = np.array([1.0, 0.0])
        widths = []
        for n in (8, 10, 12):
            est = pressure.pressure_estimate(pos_cocycle, q, n,
                                             qm_C=qm.C, qm_k=qm.k)
            assert est.lower <= est.value <= est.upper
            widths.append(est.upper - est.lower)
        assert widths[0] > widths[1] > widths[2]

    def test_constants_for_negative_weight_differences(self):
        """t_i < 0 contributes t_i k max_s log||A_s^{wedge i}||, t_i >= 0
        contributes t_i log C; the norms are taken generator by generator."""
        gens = list(np.random.default_rng(5).standard_normal((3, 3, 3)))
        c = OneStepCocycle(Q=sft.full_shift(3), generators=gens)
        top = [max(matalg.log_spectral_norm(matalg.wedge(A, i)) for A in gens)
               for i in (1, 2)]
        # q = (0, 1, 3): t = (-1, -2, 3)
        want = -1 * 2 * top[0] - 2 * 2 * top[1] + 3 * np.log(0.25)
        got = pressure.bracket_constants(c, np.array([0.0, 1.0, 3.0]), 0.25, 2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_upper_is_monotone_in_n(self, pos_cocycle):
        """Fekete: with sorted weights, P_n decreases along doubling."""
        q = np.array([2.0, 0.5])
        values = [pressure.pressure_estimate(pos_cocycle, q, n).value
                  for n in (3, 6, 12)]
        assert values[0] >= values[1] >= values[2]


class TestGradient:
    def test_matches_finite_differences(self, pos_cocycle):
        n, h = 8, 1e-5
        for _ in range(10):
            q = rng.uniform(-2, 2, size=2)
            grad = pressure.gibbs_gradient(pos_cocycle, q, n)
            fd = np.empty(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd[i] = (pressure.log_sn(pos_cocycle, q + e, n)
                         - pressure.log_sn(pos_cocycle, q - e, n)) / (2 * h * n)
            assert np.allclose(grad, fd, atol=1e-6)

    def test_diagonal_gradient(self, diag_cocycle):
        """d/dt log(2^t + 3^t) with t = q1 - q2, signs opposite."""
        q = np.array([1.0, 0.0])
        t = q[0] - q[1]
        slope = (np.log(2) * 2**t + np.log(3) * 3**t) / (2**t + 3**t)
        grad = pressure.gibbs_gradient(diag_cocycle, q, 10)
        assert np.allclose(grad, [slope, -slope], atol=1e-10)


class TestConvexity:
    def test_midpoint_convexity(self, pos_cocycle):
        for _ in range(50):
            qa = rng.uniform(-3, 3, size=2)
            qb = rng.uniform(-3, 3, size=2)
            assert pressure.convexity_probe(pos_cocycle, qa, qb, 8) <= 1e-9


class TestLogSumExp:
    def test_matches_closed_form_past_overflow(self, diag_cocycle):
        """The max-shifted sum agrees with the closed form where the
        unshifted exponentials overflow (3^(1000 n) > 1e308)."""
        n = 6
        q = np.array([600.0, -400.0])
        expected = n * (1000 * np.log(3.0) + np.log1p((2.0 / 3.0) ** 1000))
        assert pressure.log_sn(diag_cocycle, q, n) == pytest.approx(expected, rel=1e-14)

    def test_deterministic(self, pos_cocycle):
        """Repeated evaluation is bit-identical."""
        q = rng.normal(size=2) * 30
        a = pressure.log_sn(pos_cocycle, q, 10)
        assert a == pressure.log_sn(pos_cocycle, q, 10)
