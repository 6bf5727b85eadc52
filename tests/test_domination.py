import numpy as np
import pytest

from lyapspec import domination, sft
from lyapspec.cocycle import OneStepCocycle


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


class TestWedgeReduction:
    def test_index_reduction(self):
        """Index-2 domination of a 3x3 tuple is index-1 domination of
        its degree-2 wedge."""
        c = OneStepCocycle(
            Q=sft.full_shift(2),
            generators=[np.diag([4.0, 3.0, 1.0]), np.diag([5.0, 2.0, 1.0])])
        assert domination.wedge_reduction_test(c, 2)
        w = domination.wedge_cocycle(c, 2)
        assert domination.domination_test(w, 1, n_range=range(2, 9)).passed

    def test_agrees_with_direct_test(self, diag_cocycle):
        assert domination.wedge_reduction_test(diag_cocycle, 1) == \
            domination.domination_test(diag_cocycle, 1).passed


class TestMulticone:
    def test_diagonal_certificate(self, diag_cocycle):
        cert = domination.multicone_search(diag_cocycle.generators, seed=0)
        assert cert is not None
        assert cert.margin > domination.CONE_MARGIN

    def test_certificate_reverifies(self, diag_cocycle):
        cert = domination.multicone_search(diag_cocycle.generators, seed=0)
        margin = domination.verify_certificate(diag_cocycle.generators, cert,
                                               seed=12345)
        assert margin > 0

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
        e1 to atan(tan r / lam^2), the farthest image from e1."""
        r = 0.2
        margin = domination._verify_cone([np.diag([lam, 1 / lam])], np.array([[1.0, 0.0]]),
                                         r, 64, np.random.default_rng(0))
        assert margin == pytest.approx(r - np.arctan(np.tan(r) / lam**2), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.2])
    def test_verify_rotation_closed_form(self, theta):
        """A rotation by theta moves the boundary point at angle r to
        r + theta < pi/2 from e1, so the margin is -theta."""
        r = 0.2
        ct, st = np.cos(theta), np.sin(theta)
        margin = domination._verify_cone([np.array([[ct, -st], [st, ct]])],
                                         np.array([[1.0, 0.0]]), r, 64,
                                         np.random.default_rng(0))
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
        from lyapspec import matalg
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

    def test_pressure_brackets(self, pos_cocycle):
        sub = domination.build_dominated_subsystem(pos_cocycle, 2, 1, (2,))
        q = np.array([1.0, 0.0])
        est = domination.subsystem_pressure(sub, q, 4)
        assert est.lower <= est.value <= est.upper

    def test_rotations_exhaust(self, rotation_cocycle):
        with pytest.raises(domination.SubsystemSearchError):
            domination.build_dominated_subsystem(rotation_cocycle, 2, 1, (2,),
                                                 pad_bound=3)
