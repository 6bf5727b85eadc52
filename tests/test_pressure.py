import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapspec import matalg, pressure, sft, typicality
from lyapspec.cocycle import OneStepCocycle, profile_matrix

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


def _log_s(c, q, m):
    """Reference log s_m(q): log-sum-exp over the words, one row at a time."""
    return np.logaddexp.reduce(m * profile_matrix(c, m) @ q)


def _log_c1(c, q, qm_C, qm_k):
    """Reference log C_1, coordinate by coordinate."""
    t = [q[i] - (q[i + 1] if i + 1 < len(q) else 0.0) for i in range(len(q))]
    return sum(ti * np.log(qm_C) if ti >= 0 else
               ti * qm_k * max(matalg.log_spectral_norm(matalg.wedge(A, i + 1))
                               for A in c.generators)
               for i, ti in enumerate(t))


class TestPressureTable:
    """The grid form against an independent per-row reference and the
    one-q form, and its absent brackets."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 3), d=st.integers(1, 3), n=st.integers(1, 6),
           qm_k=st.integers(0, 3), seed=st.integers(0, 2**16),
           qs=st.lists(st.lists(st.floats(-4, 4), min_size=3, max_size=3),
                       min_size=1, max_size=12))
    def test_rows_match_reference(self, k, d, n, qm_k, seed, qs):
        rng = np.random.default_rng(seed)
        gens = [np.linalg.qr(rng.standard_normal((d, d)))[0] @ np.diag(rng.uniform(0.5, 2, d))
                for _ in range(k)]
        c = OneStepCocycle(Q=sft.full_shift(k), generators=gens)
        grid = np.array(qs)[:, :d]
        est = pressure.pressure_table(c, grid, n, qm_C=0.5, qm_k=qm_k)
        for i, q in enumerate(grid):
            value = _log_s(c, q, n) / n
            want = {"value": value,
                    "lower": ((_log_c1(c, q, 0.5, qm_k) + _log_s(c, q, n - qm_k)) / n
                              if n > qm_k else np.nan),
                    # t_d = q_d weighs only |det|, so its sign does not matter
                    "upper": value if min(q[:-1] - q[1:], default=0.0) >= 0 else np.nan,
                    "cauchy": abs(value - _log_s(c, q, n - 2) / (n - 2)) if n > 2 else np.nan}
            for field, ref in want.items():
                np.testing.assert_allclose(getattr(est, field)[i], ref, rtol=1e-13, atol=1e-13,
                                           err_msg=field)

    @pytest.mark.parametrize("block", [1, 64, pressure.GIBBS_BLOCK])
    def test_grid_of_many_blocks_matches_one_row_estimates(self, pos_cocycle, block,
                                                           monkeypatch):
        """1,024 words at n = 10 and 49 rows: several Gibbs blocks at
        every block size; each row matches its one-q estimate up to the
        summation order of a batched product."""
        monkeypatch.setattr(pressure, "GIBBS_BLOCK", block)
        axis = np.linspace(-3, 3, 7)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        est = pressure.pressure_table(pos_cocycle, grid, 10, qm_C=0.3, qm_k=1)
        for i, q in enumerate(grid):
            one = pressure.pressure_estimate(pos_cocycle, q, 10, qm_C=0.3, qm_k=1)
            assert (one.upper is None) == np.isnan(est.upper[i])
            for field in ("value", "lower", "upper", "cauchy"):
                want = getattr(one, field)
                np.testing.assert_allclose(getattr(est, field)[i],
                                           np.nan if want is None else want,
                                           rtol=1e-13, atol=1e-13, err_msg=field)
            assert est.value[i] == pytest.approx(_log_s(pos_cocycle, q, 10) / 10, rel=1e-13)

    @pytest.mark.parametrize("qm_C, qm_k, n", [(None, 1, 6), (1.0, None, 6), (0.0, 1, 6),
                                               (-1.0, 1, 6), (1.0, 6, 6), (1.0, 7, 6)])
    def test_lower_absent_without_usable_constants(self, pos_cocycle, qm_C, qm_k, n):
        grid = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.isnan(pressure.pressure_table(pos_cocycle, grid, n, qm_C, qm_k).lower).all()
        assert pressure.pressure_estimate(pos_cocycle, grid[0], n, qm_C, qm_k).lower is None

    def test_upper_absent_where_a_weight_difference_is_negative(self, pos_cocycle):
        """t = (1, 0), (-1, 1), (1, 1), (-1, 0), (2, -1): every row but
        the second and fourth has t_1 >= 0, whatever the sign of t_2."""
        grid = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [-1.0, 0.0], [1.0, -1.0]])
        est = pressure.pressure_table(pos_cocycle, grid, 5)
        np.testing.assert_array_equal(np.isnan(est.upper), [False, True, False, True, False])
        np.testing.assert_array_equal(est.upper[[0, 2, 4]], est.value[[0, 2, 4]])

    @pytest.mark.parametrize("source", ["pos", "gauss2", "gauss3"])
    def test_upper_holds_when_only_the_last_weight_difference_is_negative(
            self, pos_cocycle, source):
        """With t_1..t_{d-1} >= 0 > t_d, psi^q is still submultiplicative
        (|det| is exactly multiplicative), so the cell is filled and
        s_2n <= s_n^2 gives P_2n <= P_n."""
        if source == "pos":
            c = pos_cocycle
        else:
            d = int(source[-1])
            gen = np.random.default_rng(5 + d)
            c = OneStepCocycle(Q=sft.full_shift(2),
                               generators=list(gen.standard_normal((2, d, d))))
        grid = {2: [[1.0, -1.0], [0.0, -2.0], [-0.5, -1.0], [2.0, -0.5]],
                3: [[1.0, 0.0, -1.0], [0.0, -1.0, -2.0], [2.0, 1.0, -0.5],
                    [-1.0, -1.0, -3.0]]}[c.d]
        grid = np.array(grid)
        t = pressure.weight_differences(grid)
        assert (t[:, :-1] >= 0).all() and (t[:, -1] < 0).all()
        for n in (3, 4):
            short = pressure.pressure_table(c, grid, n)
            long = pressure.pressure_table(c, grid, 2 * n)
            np.testing.assert_array_equal(short.upper, short.value)
            assert (long.value <= short.upper + 1e-12).all()

    def test_upper_is_the_closed_form_on_the_diagonal_anchor(self, diag_cocycle):
        """Filled exactly where t_1 >= 0, including t_2 < 0, and there
        the closed form P(q)."""
        axis = np.arange(-2.0, 2.0 + 1e-9, 0.5)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        est = pressure.pressure_table(diag_cocycle, grid, 6)
        filled = grid[:, 0] >= grid[:, 1]
        np.testing.assert_array_equal(~np.isnan(est.upper), filled)
        assert (grid[filled, 1] < 0).any()
        for q, upper in zip(grid[filled], est.upper[filled]):
            assert upper == pytest.approx(diag_closed_form(q), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cauchy_absent_at_short_lengths(self, pos_cocycle, n):
        grid = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert np.isnan(pressure.pressure_table(pos_cocycle, grid, n).cauchy).all()
        assert pressure.pressure_estimate(pos_cocycle, grid[0], n).cauchy is None
