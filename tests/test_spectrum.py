import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapspec import pressure, sft, spectrum
from lyapspec.cocycle import OneStepCocycle, profile_matrix


def binary_entropy(t):
    if t in (0.0, 1.0):
        return 0.0
    return -t * np.log(t) - (1 - t) * np.log(1 - t)


def diag_alpha(t):
    """Gradient of log(2^u + 3^u) parametrized so that weight t sits
    on generator 2: alpha_1 = (1-t) log 2 + t log 3, alpha_2 = -alpha_1."""
    a = (1 - t) * np.log(2) + t * np.log(3)
    return np.array([a, -a])


def _in_hull(points, x, tol=1e-9) -> bool:
    """Whether x lies within tol, in the max norm, of the convex hull of
    the rows of points: one HiGHS feasibility LP, the reference for the
    solver's boundary status (scipy is a test-only dependency)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    points = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    m = len(points)
    # lambda >= 0, sum(lambda) = 1, |points^T lambda - x| <= tol
    res = linprog(np.zeros(m), A_ub=np.vstack([points.T, -points.T]),
                  b_ub=np.concatenate([x + tol, tol - x]), A_eq=np.ones((1, m)),
                  b_eq=[1.0], bounds=(0, None), method="highs")
    return res.status == 0


class TestInHull:
    def test_inside_outside(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert _in_hull(pts, np.array([0.2, 0.2]))
        assert not _in_hull(pts, np.array([0.8, 0.8]))

    def test_degenerate_segment(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert _in_hull(pts, np.array([0.5, 0.5]))
        assert not _in_hull(pts, np.array([0.5, 0.4]))


class TestDomainEstimate:
    def test_centroid_in_hull(self, pos_cocycle):
        grads = spectrum.domain_estimate(pos_cocycle, 8)
        assert grads.shape == (25, 2)
        assert _in_hull(grads, grads.mean(axis=0))

    def test_interior_grid_inside(self, pos_cocycle):
        grads = spectrum.domain_estimate(pos_cocycle, 8)
        for alpha in spectrum.interior_alpha_grid(grads, 7):
            assert _in_hull(grads, alpha, tol=1e-6)


class TestLegendreClosedForm:
    def test_interior_matches_binary_entropy(self, diag_cocycle):
        """On the diagonal pair h(alpha(t)) = H(t), the entropy of the
        Bernoulli measure with weight t on the second generator."""
        ts = np.linspace(0.08, 0.92, 11)
        points = spectrum.spectrum_curve(diag_cocycle, np.array([diag_alpha(t) for t in ts]), 12)
        for t, pt in zip(ts, points, strict=True):
            assert pt.status == "interior-converged"
            assert pt.h == pytest.approx(binary_entropy(t), abs=1e-3)

    def test_endpoint_boundary_suspect(self, diag_cocycle):
        pt = spectrum.spectrum_curve(
            diag_cocycle, np.array([[np.log(2), -np.log(2)]]), 12)[0]
        assert pt.status == "boundary-suspect"
        assert pt.h <= 1e-3

    def test_outside_domain_flagged(self, diag_cocycle):
        pt = spectrum.spectrum_curve(
            diag_cocycle, np.array([[np.log(5), -np.log(5)]]), 10)[0]
        assert pt.status == "boundary-suspect"

    def test_midpoint_exact(self, diag_cocycle):
        pt = spectrum.spectrum_curve(diag_cocycle, diag_alpha(0.5)[None], 12)[0]
        assert pt.h == pytest.approx(np.log(2), abs=1e-9)

    def test_negative_clamped(self, diag_cocycle):
        """Just past the boundary the finite-n infimum can dip below
        zero; it must come back clamped and flagged."""
        pt = spectrum.spectrum_curve(diag_cocycle, 1.02 * diag_alpha(0.0)[None], 10)[0]
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
        profs = profile_matrix(c, 2)
        alpha = pressure._gibbs(profs, 2 * np.array([[0.0, 1.0]]), profs)[1]
        pt = spectrum.spectrum_curve(c, alpha, 2)[0]
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
        pt = spectrum._newton(profile_matrix(c, 1), 1, np.array([[a]]), np.array([[8.0]]))[0]
        assert pt.status == "interior-converged"
        assert pt.q_star[0] == pytest.approx(np.arctanh(a), abs=1e-5)
        h = np.log(2) - ((1 + a) / 2 * np.log(1 + a) + (1 - a) / 2 * np.log(1 - a))
        assert pt.h == pytest.approx(h, abs=1e-9)

    def test_one_gibbs_pass_per_objective_evaluation(self, monkeypatch):
        """The value, gradient and Hessian of an iterate come from the
        one pass at its trial point.  On the log(2 cosh q) case above the
        objective is evaluated at q0 = 8, at the four rejected trial
        points of the first backtrack (the full step lands at -91.5) and
        at six accepted points: 11 rows through the batched Gibbs pass,
        each at a new q, so no other pass runs."""
        c = OneStepCocycle(Q=sft.full_shift(2),
                           generators=[np.array([[np.exp(-1.0)]]), np.array([[np.exp(1.0)]])])
        rows = []
        gibbs = pressure._gibbs

        def counted(X, W, *fields):
            rows.extend(float(w[0]) for w in W)
            return gibbs(X, W, *fields)

        monkeypatch.setattr(pressure, "_gibbs", counted)
        pt = spectrum._newton(profile_matrix(c, 1), 1, np.array([[0.99]]), np.array([[8.0]]))[0]
        assert pt.status == "interior-converged"
        assert len(rows) == 1 + 4 + 6
        assert len(set(rows)) == len(rows)
        assert rows[0] == 8.0
        assert rows[1] == pytest.approx(-91.554, abs=1e-3)

    def test_rows_from_zero_share_one_start_pass(self, pos_cocycle, monkeypatch):
        """From q = 0 the pass does not depend on alpha: a 41-row grid
        starts with one 1-row pass at q = 0, and no later pass evaluates
        q = 0 again.  A 0-row grid gives no points."""
        passes = []
        gibbs = pressure._gibbs

        def counted(X, W, *fields):
            passes.append(W.copy())
            return gibbs(X, W, *fields)

        grid = spectrum.interior_alpha_grid(spectrum.domain_estimate(pos_cocycle, 6), 41)
        monkeypatch.setattr(pressure, "_gibbs", counted)
        points = spectrum.spectrum_curve(pos_cocycle, grid, 6)
        assert passes[0].shape == (1, 2) and not passes[0].any()
        assert sum(int((~W.any(axis=1)).sum()) for W in passes) == 1
        assert all(pt.status == "interior-converged" for pt in points)
        assert spectrum.spectrum_curve(pos_cocycle, np.empty((0, 2)), 6) == []

    def test_two_profiles_closed_form(self):
        """Profiles -1 and +1 at n = 1, no cocycle: P(q) = log(2 cosh q),
        so h(alpha) = H((1 + alpha)/2) in nats for |alpha| < 1.  alpha = 1
        is the profile +1, whose level set is not empty; 1.5 lies past
        it, and its level set is empty."""
        a = np.array([-0.9, -0.3, 0.0, 0.5, 0.95, 1.0, 1.5])
        pts = spectrum._newton(np.array([[-1.0], [1.0]]), 1, a[:, None], None)
        for x, pt in zip(a[:5], pts):
            assert pt.status == "interior-converged" and not pt.empty
            assert pt.h == pytest.approx(binary_entropy((1 + x) / 2), abs=1e-9)
        assert not pts[5].empty and pts[5].h == pytest.approx(0.0, abs=1e-6)
        assert pts[6].status == "boundary-suspect" and pts[6].empty

    def test_off_the_affine_hull_is_empty(self):
        """Profiles (+-1, 0) at n = 1: alpha_2 = 0.5 is off their affine
        hull, the objective falls linearly in q_2 and the level set is
        empty; alpha_2 = 0 stays on the log(2 cosh q_1) closed form."""
        pts = spectrum._newton(np.array([[-1.0, 0.0], [1.0, 0.0]]), 1,
                               np.array([[0.3, 0.5], [0.3, 0.0]]), None)
        assert pts[0].status == "boundary-suspect" and pts[0].empty
        assert pts[0].q_star[1] > 0
        assert pts[1].status == "interior-converged" and not pts[1].empty
        assert pts[1].h == pytest.approx(binary_entropy(0.65), abs=1e-9)

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
        pt = spectrum.spectrum_curve(c, np.array([alpha]), 10)[0]
        assert pt.status == "boundary-suspect"
        assert np.linalg.norm(pt.q_star) > spectrum.Q_MAX

    @pytest.mark.parametrize("a", [50.0, 1000.0, 1e6, -1e6])
    def test_far_alpha_that_never_escapes_is_empty(self, a, pos_cocycle):
        """alpha = (a, a) far past every profile: the damped steps are at
        most 1/|g| long, so the iterate stays short of Q_MAX and the row
        diverges; its direction still separates alpha from every profile,
        so the level set is empty."""
        pt = spectrum.spectrum_curve(pos_cocycle, np.array([[a, a]]), 3)[0]
        assert pt.status == "diverged" and np.linalg.norm(pt.q_star) < spectrum.Q_MAX
        assert pt.empty
        assert spectrum.oracle_count(pos_cocycle, np.array([[a, a]]), 0.05, 3)[0][0] == 0


@st.composite
def _hull_cases(draw):
    """A full-shift cocycle with d = 1..3, a length n = 3..6, and alpha
    drawn from the profiles' bounding box widened by 30% on each side."""
    d, k, n = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = []
    for _ in range(k):
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        gens.append(U @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ V)
    c = OneStepCocycle(Q=sft.full_shift(k), generators=gens)
    profs = profile_matrix(c, n)
    lo, hi = profs.min(axis=0), profs.max(axis=0)
    x = np.array(draw(st.lists(st.floats(-0.3, 1.3), min_size=d, max_size=d)))
    return c, n, lo + x * (hi - lo)


@settings(max_examples=60, deadline=None)
@given(case=_hull_cases())
def test_boundary_status_agrees_with_profile_hull_lp(case):
    """Against the LP on the profile hull: the solver never converges
    on an alpha more than GRAD_TOL outside it, and every alpha the CLI
    prints with an empty h lies outside it."""
    c, n, alpha = case
    profs = profile_matrix(c, n)
    pt = spectrum.spectrum_curve(c, alpha[None], n)[0]
    if pt.status == "interior-converged":
        assert _in_hull(profs, alpha, tol=spectrum.GRAD_TOL)
    if pt.empty:
        assert not _in_hull(profs, alpha)


@st.composite
def _grid_cases(draw):
    """A :func:`_hull_cases` cocycle and length with a grid of 1..12
    alpha rows from the same widened bounding box."""
    c, n, alpha = draw(_hull_cases())
    profs = profile_matrix(c, n)
    lo, hi = profs.min(axis=0), profs.max(axis=0)
    x = np.array(draw(st.lists(st.lists(st.floats(-0.3, 1.3), min_size=c.d, max_size=c.d),
                               min_size=0, max_size=11)))
    return c, n, np.vstack([alpha, lo + x.reshape(-1, c.d) * (hi - lo)])


@settings(max_examples=40, deadline=None)
@given(case=_grid_cases())
def test_row_result_does_not_depend_on_the_batch(case):
    """Each point of a spectrum_curve grid is the point of its one-row
    grid, and again with Gibbs blocks of one row, up to the rounding of
    the batched pass (BLAS sums in another order).

    q* itself is determined only to the conditioning of the Hessian: at
    an alpha on or near a vertex of the profile hull, which the strategy
    draws, it runs off along a nearly flat direction, and the one-row
    and batched q* were up to 2.1e-5 apart at |q*| = 8.8.  Its image
    grad P_n(q*) is well determined (6.8e-12 apart at worst over 36,000
    points in scratch).  The h of a boundary-suspect point is the
    objective at its last, escaping iterate (5.7e-11 apart at worst);
    interior h agrees to rounding."""
    c, n, grid = case
    profs = profile_matrix(c, n)
    single = [spectrum.spectrum_curve(c, alpha[None], n)[0] for alpha in grid]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pressure, "GIBBS_BLOCK", 1)
        one_row = spectrum.spectrum_curve(c, grid, n)
    for curve in (spectrum.spectrum_curve(c, grid, n), one_row):
        for pt, ref in zip(curve, single, strict=True):
            assert pt.status == ref.status
            h_tol = 1e-12 if ref.status == "interior-converged" else 1e-9
            assert abs(pt.h - ref.h) <= h_tol * max(1.0, abs(ref.h))
            grads = pressure._gibbs(profs, n * np.array([pt.q_star, ref.q_star]), profs)[1]
            assert np.abs(grads[0] - grads[1]).max() <= 1e-9


@pytest.mark.parametrize("name", ["pos_cocycle", "golden_identity", "twisted4_cocycle"])
def test_batched_domain_estimate_matches_gradients(name, request):
    """Each row is the Gibbs mean of its one-row pass, and the central
    difference of log s_n along every axis."""
    c = request.getfixturevalue(name)
    n, h = (4 if c.d == 4 else 8), 1e-5
    grads = spectrum.domain_estimate(c, n)
    axes = [np.linspace(-10.0, 10.0, 5)] * c.d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, c.d)
    profs = profile_matrix(c, n)
    ref = np.vstack([pressure._gibbs(profs, n * q[None], profs)[1] for q in mesh])
    assert grads.shape == (5**c.d, c.d)
    assert np.abs(grads - ref).max() <= 1e-13
    steps = np.vstack([h * np.eye(c.d), -h * np.eye(c.d)])
    logs = pressure.log_sums(c, (mesh[:, None] + steps).reshape(-1, c.d), (n,))[n]
    up, down = logs.reshape(-1, 2, c.d).transpose(1, 0, 2)
    assert np.abs(grads - (up - down) / (2 * h * n)).max() <= 1e-6


class TestEntropyAtZeroGradient:
    def test_golden_mean(self, golden_identity):
        """At alpha = 0 (identity generators) h equals the shift
        entropy up to the finite-n defect."""
        phi = (1 + np.sqrt(5)) / 2
        pt = spectrum.spectrum_curve(golden_identity, np.zeros((1, 2)), 12)[0]
        assert pt.h == pytest.approx(np.log(phi), abs=0.05)


class TestCurveProperties:
    def test_concavity(self, pos_cocycle):
        est = spectrum.domain_estimate(pos_cocycle, 10)
        grid = spectrum.interior_alpha_grid(est, 9)
        points = spectrum.spectrum_curve(pos_cocycle, grid, 10)
        slacks = spectrum.concavity_slacks(points)
        assert (slacks >= -1e-6).all()

    def test_ceiling(self, pos_cocycle):
        est = spectrum.domain_estimate(pos_cocycle, 10)
        grid = spectrum.interior_alpha_grid(est, 5)
        ceiling = sft.shift_entropy(pos_cocycle.Q)
        for pt in spectrum.spectrum_curve(pos_cocycle, grid, 10):
            assert pt.h <= ceiling + 1e-9


class TestOracle:
    def test_exact_count_on_diagonal(self, diag_cocycle):
        """Binomial oracle: profiles depend only on the number of
        occurrences of generator 2, so box counts are binomial sums."""
        n, eps = 10, 0.02
        alpha = diag_alpha(0.5)
        counts, h_counts = spectrum.oracle_count(diag_cocycle, alpha[None], eps, n)
        count, h_count = counts[0], h_counts[0]
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

    @pytest.mark.parametrize("name, n, eps", [
        ("diag_cocycle", 10, 0.02), ("pos_cocycle", 10, 0.05), ("twisted4_cocycle", 5, 0.3),
    ])
    def test_grid_counts_match_per_alpha_counts(self, name, n, eps, request):
        """One grid pass gives, in row blocks of any size, exactly the
        count of the per-alpha box test |profile - alpha| <= eps, as
        does a one-row grid; on the diagonal cocycle the grid hits every
        binomial level (j occurrences of symbol 2, C(n, j) words)."""
        c = request.getfixturevalue(name)
        profs = profile_matrix(c, n)
        grid = np.vstack([profs[::max(1, len(profs) // 40)], [np.full(c.d, 10.0)]])
        if name == "diag_cocycle":
            grid = np.vstack([grid, [diag_alpha(j / n) for j in range(n + 1)]])
        ref = [int((np.abs(profs - alpha) <= eps).all(axis=1).sum()) for alpha in grid]
        assert [spectrum.oracle_count(c, alpha[None], eps, n)[0][0] for alpha in grid] == ref
        for block in (pressure.GIBBS_BLOCK, 1, len(profs) * 3 + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pressure, "GIBBS_BLOCK", block)
                counts, h_counts = spectrum.oracle_count(c, grid, eps, n)
            assert counts.tolist() == ref
            assert h_counts.tolist() == [np.log(k) / n if k else -np.inf for k in ref]
        if name == "diag_cocycle":
            from math import comb
            assert ref[-(n + 1):] == [comb(n, j) for j in range(n + 1)]

    @pytest.mark.parametrize("eps", [0.0, -0.1, np.nan])
    def test_epsilon_must_be_positive(self, diag_cocycle, eps):
        """A NaN epsilon is refused like a nonpositive one, as the CLI
        refuses --eps nan, instead of counting no word."""
        with pytest.raises(ValueError, match="epsilon must be positive"):
            spectrum.oracle_count(diag_cocycle, np.array([[1.0, -1.0]]), eps, 4)

    def test_empty_box(self, diag_cocycle):
        counts, h_counts = spectrum.oracle_count(
            diag_cocycle, np.array([[10.0, 10.0]]), 0.01, 8)
        assert counts[0] == 0 and h_counts[0] == -np.inf


def test_d1_grid_has_one_column():
    """At d = 1 a grid of three alphas is (3, 1): it gives three
    counts and three points, and the 1-D array of the same alphas is
    refused, not read as one point.  Profiles of the generators 2 and
    1/2 at n = 4 lie at multiples of log(2)/2, with binomial counts."""
    c = OneStepCocycle(Q=sft.full_shift(2), generators=[np.array([[2.0]]), np.array([[0.5]])])
    alphas = np.array([-0.69, 0.0, 0.69])
    counts, _ = spectrum.oracle_count(c, alphas[:, None], 0.1, 4)
    assert counts.tolist() == [1, 6, 1]
    points = spectrum.spectrum_curve(c, alphas[:, None], 4)
    assert [pt.alpha.tolist() for pt in points] == [[a] for a in alphas]
    for call in (lambda: spectrum.oracle_count(c, alphas, 0.1, 4),
                 lambda: spectrum.spectrum_curve(c, alphas, 4),
                 lambda: pressure.pressure_table(c, alphas, 4)):
        with pytest.raises(ValueError, match=r"\(G, 1\) array, got shape \(3,\)"):
            call()


@pytest.mark.parametrize("row", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
def test_non_finite_grid_row_refused(pos_cocycle, row):
    """A NaN or infinite coordinate is refused by each grid entry point,
    which names the first such row, before any sweep: a NaN alpha would
    otherwise read as an interior-converged point with h = nan."""
    grid = np.array([[0.5, 0.1], row, row])
    for call in (lambda: spectrum.oracle_count(pos_cocycle, grid, 0.1, 4),
                 lambda: spectrum.spectrum_curve(pos_cocycle, grid, 4),
                 lambda: pressure.pressure_table(pos_cocycle, grid, 4)):
        with pytest.raises(ValueError, match=r"row 1 is not finite"):
            call()

