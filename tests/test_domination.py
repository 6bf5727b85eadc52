import numpy as np
import pytest

from lyapspec import domination, matalg, sft
from lyapspec.cocycle import BudgetError, OneStepCocycle


class TestDominationTest:
    def test_diagonal_passes_with_exact_rate(self, diag_cocycle):
        """Worst ratio per step is sigma_2/sigma_1 = 1/4 for both
        generators, so the fitted slope is -log 4."""
        report = domination.domination_test(diag_cocycle, 1,
                                            n_range=range(2, 11))
        assert report.verdict == "pass"
        assert report.slope == pytest.approx(-np.log(4), abs=1e-6)

    def test_rotations_fail(self, rotation_cocycle):
        report = domination.domination_test(rotation_cocycle, 1,
                                            n_range=range(2, 11))
        assert report.verdict == "fail"

    def test_worked_example_passes(self, pos_cocycle):
        report = domination.domination_report(pos_cocycle,
                                              n_range=range(2, 11))
        assert report.passed

    def test_slow_mixing_inconclusive(self):
        """Nearly-conformal perturbation: ratios drift down too slowly
        for a verdict at desk scale."""
        eps = 1e-4
        c = OneStepCocycle(
            Q=sft.full_shift(2),
            generators=[np.diag([1.0 + eps, 1.0]),
                        np.diag([1.0 + eps, 1.0])])
        report = domination.domination_test(c, 1, n_range=range(2, 9))
        assert report.verdict == "inconclusive"

    def test_single_length_rejected(self, diag_cocycle):
        """One length gives no slope to fit."""
        with pytest.raises(ValueError, match="at least 2 word lengths"):
            domination.domination_test(diag_cocycle, 1, n_range=range(3, 4))


def _wedge_cocycle(c, t):
    """The one-step cocycle of the degree-t wedge reps, as reference."""
    return OneStepCocycle(Q=c.Q, generators=list(c.wedges[t]))


class TestWedgeReduction:
    def test_index_reduction(self):
        """Index-2 domination of a 3x3 tuple is index-1 domination of
        its degree-2 wedge."""
        c = OneStepCocycle(
            Q=sft.full_shift(2),
            generators=[np.diag([4.0, 3.0, 1.0]), np.diag([5.0, 2.0, 1.0])])
        w = _wedge_cocycle(c, 2)
        assert domination.domination_test(c, 2, n_range=range(2, 11)).verdict == \
            domination.domination_test(w, 1, n_range=range(2, 11)).verdict
        assert domination.domination_test(w, 1, n_range=range(2, 9)).passed

    def test_agrees_with_direct_test(self, diag_cocycle):
        direct = domination.domination_test(diag_cocycle, 1, n_range=range(2, 11))
        reduced = domination.domination_test(_wedge_cocycle(diag_cocycle, 1), 1,
                                             n_range=range(2, 11))
        assert (direct.verdict == reduced.verdict) == \
            domination.domination_test(diag_cocycle, 1).passed


def _union_dist(images, centers):
    """The farthest distance of the unit rows of images from their
    nearest center."""
    return np.arccos(np.abs(images @ centers.T).clip(-1.0, 1.0)).min(axis=1).max()


class TestMulticone:
    def test_diagonal_certificate(self, diag_cocycle):
        cert = domination.multicone_search(diag_cocycle.generators, seed=0)
        assert cert is not None
        assert cert.margin > domination.CONE_MARGIN

    @pytest.mark.parametrize("family", ["diag", "positive3", "wedge4"])
    def test_certified_margin_bounds_dense_samples(self, diag_cocycle, family):
        """A certified certificate at D = 2, 3 and 6 (the degree-2
        wedge of 4x4 matrices): every generator maps 4,000 sampled
        directions of each ball within radius - margin of the center
        nearest to the image of the ball's center."""
        rng = np.random.default_rng(5)
        if family == "diag":
            reps = diag_cocycle.generators
        elif family == "positive3":
            reps = list(rng.uniform(0.05, 1.0, size=(3, 3, 3)))
        else:
            reps = [matalg.wedge(np.diag([8.0, 4.0, 2.0, 1.0]) + rng.uniform(0, 0.5, (4, 4)), 2)
                    for _ in range(3)]
        cert = domination.multicone_search(reps, seed=0)
        assert cert is not None and cert.kind == "certified"
        assert cert.samples_per_ball == 0
        for center in cert.centers:
            pts = domination._ball_samples(center, cert.radius, 4000, rng)
            for B in reps:
                chosen = cert.centers[np.abs(cert.centers @ (B @ center)).argmax()]
                images = pts @ B.T
                images /= np.linalg.norm(images, axis=1)[:, None]
                dist = np.arccos(np.abs(images @ chosen).clip(-1.0, 1.0)).max()
                assert dist <= cert.radius - cert.margin + 1e-12
                if len(center) == 2:
                    assert _union_dist(images, cert.centers) <= cert.radius - cert.margin + 1e-12

    def test_union_certificate_bounds_dense_samples(self, certify_jobs):
        """At D = 2 a certificate is certified also when a ball needs
        the union of balls (one does on the certify workload's k3d2
        family): every generator maps 4,000 sampled directions of each
        ball within radius - margin of some center."""
        reps = certify_jobs["dominate:k3d2"].cocycle.generators
        cert = domination.multicone_search(reps, seed=0)
        assert cert is not None and cert.kind == "certified"
        margins, _ = domination._arc_margins(np.array(reps), cert.centers, cert.radius)
        assert (margins <= domination.CONE_MARGIN).any()
        rng = np.random.default_rng(5)
        for center in cert.centers:
            pts = domination._ball_samples(center, cert.radius, 4000, rng)
            for B in reps:
                images = pts @ B.T
                images /= np.linalg.norm(images, axis=1)[:, None]
                assert _union_dist(images, cert.centers) <= cert.radius - cert.margin + 1e-12

    @pytest.mark.parametrize("name", ["diag_cocycle", "pos_cocycle", "rotation_cocycle",
                                      "golden_identity", "k3d2"])
    def test_d2_search_takes_no_s_lemma_and_no_samples(self, name, request, certify_jobs,
                                                        monkeypatch):
        """At D = 2 the search certifies every ball from its exact image
        arcs: neither the S-lemma nor the sampled fallback runs, and a
        certificate is certified, with no samples."""
        def refuse(*args, **kwargs):
            raise AssertionError("called at D = 2")

        for fn in ("_pair_margins", "_sampled_margin", "_ball_samples"):
            monkeypatch.setattr(domination, fn, refuse)
        c = certify_jobs["dominate:k3d2"].cocycle if name == "k3d2" \
            else request.getfixturevalue(name)
        for seed in range(3):
            cert = domination.multicone_search(c.generators, seed=seed)
            assert cert is None or (cert.kind, cert.samples_per_ball) == ("certified", 0)

    def test_rotations_none(self, rotation_cocycle):
        assert domination.multicone_search(rotation_cocycle.generators,
                                           seed=0) is None

    def test_identity_none(self):
        assert domination.multicone_search([np.eye(2), np.eye(2)],
                                           seed=0) is None

    def test_seed_reproducible(self, pos_cocycle):
        a = domination.multicone_search(pos_cocycle.generators, seed=3)
        b = domination.multicone_search(pos_cocycle.generators, seed=3)
        assert a is not None and b is not None
        assert np.array_equal(a.centers, b.centers)
        assert a.margin == b.margin

    @pytest.mark.parametrize("lam", [1.5, 2.0, 4.0])
    def test_verify_diagonal_closed_form(self, lam):
        """diag(lam, 1/lam) maps the boundary angle r of the ball around
        e1 to atan(tan r / lam^2), the farthest image from e1; the
        S-lemma margin is below it by at most the bisection resolution."""
        r = 0.2
        margins, nearest = domination._pair_margins(
            np.array([np.diag([lam, 1 / lam])]), np.array([[1.0, 0.0]]), r,
            domination.CONE_MARGIN)
        exact = r - np.arctan(np.tan(r) / lam**2)
        assert exact - domination.RHO_TOL - 1e-12 <= margins[0, 0] <= exact + 1e-12
        assert nearest[0, 0] == 0

    @pytest.mark.parametrize("a", [1.0, 100.0, 1000.0])
    def test_quarter_turn_fails_the_s_lemma(self, a):
        """[[0, -a], [1, 0]] maps e1 a quarter turn away.  For large a
        some lam < 0 makes B^T M' B - lam M definite, which certifies
        nothing; only lam >= 0 counts."""
        margins, _ = domination._pair_margins(np.array([[[0.0, -a], [1.0, 0.0]]]),
                                              np.array([[1.0, 0.0]]), 0.2,
                                              domination.CONE_MARGIN)
        assert margins[0, 0] == -np.inf

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.2])
    def test_verify_rotation_closed_form(self, theta):
        """A rotation by theta moves the boundary point at angle r to
        r + theta < pi/2 from e1, so the sampled margin is -theta."""
        r = 0.2
        ct, st = np.cos(theta), np.sin(theta)
        margin = domination._sampled_margin(np.array([[[ct, -st], [st, ct]]]),
                                            np.array([[1.0, 0.0]]), r, 64,
                                            np.random.default_rng(0), [0])
        assert margin == pytest.approx(-theta, abs=1e-12)


class TestDominatedSubsystem:
    def test_builds_on_worked_example(self, pos_cocycle):
        sub = domination.build_dominated_subsystem(pos_cocycle, 2, 1, (2,))
        assert sub.report.passed
        assert len(sub.words) == 4
        assert all(len(word) == sub.ell for word in sub.words)
        assert sub.tuple_cocycle.Q.is_full_shift
        assert (sub.kappa > 0).all()

    def test_kappa_certifies_all_pairs(self, pos_cocycle):
        """Replay the almost-additivity bound on every 2-block at
        every wedge degree."""
        sub = domination.build_dominated_subsystem(pos_cocycle, 2, 1, (2,))
        mats = sub.tuple_cocycle.generators
        for t in (1, 2):
            kap = sub.kappa[t - 1]
            for Bi in mats:
                for Bj in mats:
                    lhs = np.exp(matalg.log_spectral_norm(
                        matalg.wedge(Bj @ Bi, t)))
                    rhs = kap * np.exp(
                        matalg.log_spectral_norm(matalg.wedge(Bi, t))
                        + matalg.log_spectral_norm(matalg.wedge(Bj, t)))
                    assert lhs >= rhs - 1e-9 * lhs

    def test_pressure_grid_rows_match_one_q_estimates(self, pos_cocycle):
        sub = domination.build_dominated_subsystem(pos_cocycle, 2, 1, (2,))
        grid = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 2.0]])
        table = domination.subsystem_pressure(sub, grid, 4)
        assert table.shape == (3,)
        for i, q in enumerate(grid):
            one = domination.subsystem_pressure(sub, q[None], 4)
            assert one.shape == (1,)
            np.testing.assert_allclose(table[i], one[0], rtol=1e-13, atol=1e-13)
        # a single weight vector is refused, not read as a grid of one
        with pytest.raises(ValueError, match=r"\(G, 2\) array, got shape \(2,\)"):
            domination.subsystem_pressure(sub, grid[0], 4)

    def test_rotations_exhaust(self, rotation_cocycle):
        with pytest.raises(domination.SubsystemSearchError):
            domination.build_dominated_subsystem(rotation_cocycle, 2, 1, (2,),
                                                 pad_bound=3)

    def test_default_bound_stays_below_the_padding_cap(self):
        """At the default bound 8, |w| = 1 gives the most candidates, 88,
        and even every one of their pairs stays below the cap."""
        assert len(domination._padding_candidates(1, (2,), 8)) == 88
        assert 88**2 < domination.MAX_PADDINGS

    def test_padding_pairs_are_capped(self, rotation_cocycle, monkeypatch):
        """The rotations exhaust their 49 pairs at bound 3; with the cap
        at 20 the search stops at the 21st pair instead."""
        monkeypatch.setattr(domination, "MAX_PADDINGS", 20)
        with pytest.raises(BudgetError, match=r"^no dominated tuple among the first 20 "
                                              r"padding pairs \(bound 3\); reduce the pad bound$"):
            domination.build_dominated_subsystem(rotation_cocycle, 2, 1, (2,), pad_bound=3)

    def test_padding_candidates_are_capped(self, rotation_cocycle, monkeypatch):
        """Bound 8 makes 88 candidates: with the cap at 50 the search
        stops while building them, before any pair is tested."""
        monkeypatch.setattr(domination, "MAX_PADDINGS", 50)
        monkeypatch.setattr(domination, "domination_report", None)
        with pytest.raises(BudgetError, match=r"^more than 50 padding words of length <= 8"):
            domination.build_dominated_subsystem(rotation_cocycle, 2, 1, (2,))
