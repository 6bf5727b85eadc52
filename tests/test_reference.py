"""The exact limit pressure of conjugated upper-triangular cocycles
(:mod:`reference`) against the finite-n pressure P_n."""

import numpy as np
import pytest
from reference import limit_pressure, triangular_cocycle

from lyapspec import pressure, sft, typicality

#: (Q, diagonals of T_1..T_k): the diagonal entries are ordered
#: differently from symbol to symbol, so the permutations matter
CASES = {
    "full3-d2": (sft.full_shift(3), [[2.0, 0.5], [0.6, 1.5], [-1.2, 0.9]]),
    "golden-d2": (sft.validate([[1, 1], [1, 0]]), [[1.8, 0.7], [0.5, -1.6]]),
    "full2-d3": (sft.full_shift(2), [[2.0, 1.0, 0.5], [0.4, 1.3, -2.5]]),
}
FULL = ["full3-d2", "full2-d3"]

#: points of the cone q_1 >= ... >= q_d, by dimension
CONE = {2: [[1.0, 0.0], [2.0, -1.0], [0.5, 0.5], [3.0, 1.0], [1.0, -2.0]],
        3: [[2.0, 1.0, 0.0], [1.0, 1.0, -1.0], [3.0, 0.5, 0.5], [0.5, 0.0, -2.0]]}


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("case", FULL)
def test_exact_on_full_shifts_at_zero_and_ones(case, n):
    """On a full shift P_n is the limit at every n for q = 0 (log k) and
    for q = (1, ..., 1), where psi^q = |det| is multiplicative."""
    Q, diagonals = CASES[case]
    d = len(diagonals[0])
    grid = np.array([np.zeros(d), np.ones(d)])
    got = pressure.pressure_table(triangular_cocycle(Q, diagonals), grid, n).value
    want = [limit_pressure(Q, diagonals, q) for q in grid]
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("case", CASES)
def test_entropy_at_zero(case):
    Q, diagonals = CASES[case]
    assert limit_pressure(Q, diagonals, np.zeros(len(diagonals[0]))) == pytest.approx(
        sft.shift_entropy(Q), abs=1e-12)


@pytest.mark.parametrize("case", CASES)
def test_finite_n_pressure_bounds_the_limit_on_the_cone(case):
    """On the cone psi^q is submultiplicative, so P <= P_n at every n
    (Fekete), and P_n - P falls from n = 4 to n = 12: by at least half
    where it is not 0, as P_n - P ~ const/n."""
    Q, diagonals = CASES[case]
    c = triangular_cocycle(Q, diagonals)
    grid = np.array(CONE[len(diagonals[0])])
    P = np.array([limit_pressure(Q, diagonals, q) for q in grid])
    excess = {n: pressure.pressure_table(c, grid, n).value - P for n in (4, 8, 12)}
    assert all((x >= -1e-12).all() for x in excess.values())
    gap = excess[4] > 1e-12
    assert gap.any() and (excess[12][gap] <= excess[4][gap] / 2).all()
    assert (excess[12][~gap] <= 1e-12).all()


@pytest.mark.parametrize("case", CASES)
def test_not_typical(case):
    """Every generator keeps the line C e_1, so no pair (a, w) twists."""
    Q, diagonals = CASES[case]
    assert typicality.search_typical_pair(triangular_cocycle(Q, diagonals), 2) is None


def test_formula_refuses_q_off_the_cone():
    Q, diagonals = CASES["full3-d2"]
    with pytest.raises(ValueError, match="cone"):
        limit_pressure(Q, diagonals, [0.0, 1.0])
