import numpy as np
import pytest

from lyapspec import pressure, sft, spectrum
from lyapspec.cocycle import OneStepCocycle


def binary_entropy(t):
    if t in (0.0, 1.0):
        return 0.0
    return -t * np.log(t) - (1 - t) * np.log(1 - t)


def diag_alpha(t):
    """Gradient of log(2^u + 3^u) parametrized so that weight t sits
    on generator 2: alpha_1 = (1-t) log 2 + t log 3, alpha_2 = -alpha_1."""
    a = (1 - t) * np.log(2) + t * np.log(3)
    return np.array([a, -a])


class TestInHull:
    def test_inside_outside(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert spectrum.in_hull(pts, np.array([0.2, 0.2]))
        assert not spectrum.in_hull(pts, np.array([0.8, 0.8]))

    def test_degenerate_segment(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert spectrum.in_hull(pts, np.array([0.5, 0.5]))
        assert not spectrum.in_hull(pts, np.array([0.5, 0.4]))


class TestDomainEstimate:
    def test_centroid_in_hull(self, pos_cocycle):
        est = spectrum.domain_estimate(pos_cocycle, 8)
        assert spectrum.in_hull(est.gradient_points, est.centroid)

    def test_interior_grid_inside(self, pos_cocycle):
        est = spectrum.domain_estimate(pos_cocycle, 8)
        for alpha in spectrum.interior_alpha_grid(est, 7):
            assert spectrum.in_hull(est.gradient_points, alpha, tol=1e-6)


class TestLegendreClosedForm:
    def test_interior_matches_binary_entropy(self, diag_cocycle):
        """On the diagonal pair h(alpha(t)) = H(t), the entropy of the
        Bernoulli measure with weight t on the second generator."""
        for t in np.linspace(0.08, 0.92, 11):
            pt = spectrum.legendre_entropy(diag_cocycle, diag_alpha(t), 12)
            assert pt.status == "interior-converged"
            assert pt.h == pytest.approx(binary_entropy(t), abs=1e-3)

    def test_endpoint_boundary_suspect(self, diag_cocycle):
        pt = spectrum.legendre_entropy(
            diag_cocycle, np.array([np.log(2), -np.log(2)]), 12)
        assert pt.status == "boundary-suspect"
        assert pt.h <= 1e-3

    def test_outside_domain_flagged(self, diag_cocycle):
        est = spectrum.domain_estimate(diag_cocycle, 10)
        pt = spectrum.legendre_entropy(
            diag_cocycle, np.array([np.log(5), -np.log(5)]), 10, domain=est)
        assert pt.status == "boundary-suspect"

    def test_midpoint_exact(self, diag_cocycle):
        pt = spectrum.legendre_entropy(diag_cocycle, diag_alpha(0.5), 12)
        assert pt.h == pytest.approx(np.log(2), abs=1e-9)

    def test_negative_clamped(self, diag_cocycle):
        """Just past the boundary the finite-n infimum can dip below
        zero; it must come back clamped and flagged."""
        pt = spectrum.legendre_entropy(diag_cocycle, 1.02 * diag_alpha(0.0), 10)
        assert pt.h >= 0.0
        assert pt.clamped or pt.h > 0.0


class TestNewtonSolver:
    def test_nearly_flat_direction_stays_interior(self):
        """|det| of the two generators agree to 0.3%, so P_2 is nearly
        flat along (1, 1).  A plain Newton step from q = 0 jumps past
        q_max along that direction; the regularized step converges."""
        c = OneStepCocycle(
            Q=sft.validate([[0, 1], [1, 1]]),
            generators=[np.array([[0.63247623, -0.81007471], [0.98682057, -0.13036787]]),
                        np.array([[0.10425712, 0.88724071], [-0.79903758, 0.10040631]])])
        alpha = pressure.gibbs_gradient(c, np.array([0.0, 1.0]), 2)
        pt = spectrum.legendre_entropy(c, alpha, 2)
        assert pt.status == "interior-converged"
        assert pt.grad_residual <= spectrum.GRAD_TOL
        assert np.linalg.norm(pt.q_star) < spectrum.Q_MAX / 2

    def test_overshoot_backtracks(self):
        """Profiles -1 and +1 (n = 1): P(q) = log(2 cosh q).  From a warm
        start at q = 8 the Hessian is ~5e-7, and the first full step
        lands at q = -91.5; the backtrack keeps the iterate inside."""
        c = OneStepCocycle(Q=sft.full_shift(2),
                           generators=[np.array([[np.exp(-1.0)]]), np.array([[np.exp(1.0)]])])
        a = 0.99
        pt = spectrum.legendre_entropy(c, np.array([a]), 1, q0=np.array([8.0]))
        assert pt.status == "interior-converged"
        assert pt.q_star[0] == pytest.approx(np.arctanh(a), abs=1e-5)
        h = np.log(2) - ((1 + a) / 2 * np.log(1 + a) + (1 - a) / 2 * np.log(1 - a))
        assert pt.h == pytest.approx(h, abs=1e-9)

    @pytest.mark.parametrize("name, alpha", [
        ("golden_identity", [0.1, 0.1]),
        ("diag_cocycle", [np.log(2.5), 0.0]),
    ])
    def test_unbounded_infimum_escapes(self, name, alpha, request):
        """alpha off the affine hull of the profiles (identity generators
        have only the profile 0; diagonal ones have alpha_1 = -alpha_2):
        the objective is linear along a null direction of the Hessian,
        and the minimizer escapes past q_max."""
        c = request.getfixturevalue(name)
        pt = spectrum.legendre_entropy(c, np.array(alpha), 10)
        assert pt.status == "boundary-suspect"
        assert np.linalg.norm(pt.q_star) > spectrum.Q_MAX


class TestEntropyAtZeroGradient:
    def test_golden_mean(self, golden_identity):
        """At alpha = 0 (identity generators) h equals the shift
        entropy up to the finite-n defect."""
        phi = (1 + np.sqrt(5)) / 2
        pt = spectrum.legendre_entropy(golden_identity, np.zeros(2), 12)
        assert pt.h == pytest.approx(np.log(phi), abs=0.05)


class TestCurveProperties:
    def test_concavity(self, pos_cocycle):
        est = spectrum.domain_estimate(pos_cocycle, 10)
        grid = spectrum.interior_alpha_grid(est, 9)
        points = spectrum.spectrum_curve(pos_cocycle, grid, 10, domain=est)
        slacks = spectrum.concavity_slacks(points)
        assert (slacks >= -1e-6).all()

    def test_ceiling(self, pos_cocycle):
        est = spectrum.domain_estimate(pos_cocycle, 10)
        grid = spectrum.interior_alpha_grid(est, 5)
        ceiling = spectrum.entropy_ceiling(pos_cocycle)
        for pt in spectrum.spectrum_curve(pos_cocycle, grid, 10, domain=est):
            assert pt.h <= ceiling + 1e-9


class TestOracle:
    def test_exact_count_on_diagonal(self, diag_cocycle):
        """Binomial oracle: profiles depend only on the number of
        occurrences of generator 2, so box counts are binomial sums."""
        n, eps = 10, 0.02
        alpha = diag_alpha(0.5)
        count, h_count = spectrum.oracle_count(diag_cocycle, alpha, eps, n)
        # j occurrences of symbol 2 give alpha_1 = ((n-j) log2 + j log3)/n
        expected = 0
        for j in range(n + 1):
            a1 = ((n - j) * np.log(2) + j * np.log(3)) / n
            if abs(a1 - alpha[0]) <= eps and abs(-a1 - alpha[1]) <= eps:
                from math import comb
                expected += comb(n, j)
        assert count == expected
        if count:
            assert h_count == pytest.approx(np.log(count) / n, abs=1e-12)

    def test_empty_box(self, diag_cocycle):
        count, h_count = spectrum.oracle_count(
            diag_cocycle, np.array([10.0, 10.0]), 0.01, 8)
        assert count == 0 and h_count == -np.inf

    def test_compare_upper_bound(self, pos_cocycle):
        est = spectrum.domain_estimate(pos_cocycle, 10)
        grid = spectrum.interior_alpha_grid(est, 3)
        rows = spectrum.compare(pos_cocycle, grid, [10, 12], [0.08])
        for row in rows:
            assert row.upper_bound_ok
