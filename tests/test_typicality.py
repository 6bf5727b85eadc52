from unittest import mock

import numpy as np
import pytest

from lyapspec import cocycle, pressure, sft, typicality
from lyapspec.cocycle import BudgetError, OneStepCocycle, product


class TestHolonomyLoop:
    def test_worked_value(self, pos_cocycle):
        """For a = 1, w = (2): W = A1^{-2} A2 A1, computable by hand."""
        W = typicality.holonomy_loop(pos_cocycle, 1, (2,))
        assert np.allclose(W, [[0.5, 0.25], [2.0, 2.0]], atol=1e-12)

    def test_inverse_normalization(self, pos_cocycle):
        """W = A_a^{-(|w|+1)} A_{a w}: multiplying back recovers the
        raw word product."""
        a, w = 1, (2, 1, 2)
        W = typicality.holonomy_loop(pos_cocycle, a, w)
        Aa = pos_cocycle.generators[a - 1]
        raw = product(pos_cocycle, (a,) + w)
        assert np.allclose(np.linalg.matrix_power(Aa, len(w) + 1) @ W,
                           raw, atol=1e-9)

    def test_rejects_inadmissible(self, golden_identity):
        with pytest.raises(ValueError):
            typicality.holonomy_loop(golden_identity, 1, (2, 2))

    def test_rejects_non_fixed_symbol(self, golden_mean_Q):
        c = OneStepCocycle(Q=golden_mean_Q,
                           generators=[np.diag([2.0, 1.0]),
                                       np.array([[1.0, 1.0], [1.0, 2.0]])])
        with pytest.raises(ValueError):
            typicality.holonomy_loop(c, 2, (1,))


class TestCheckTypical:
    def test_accepts_worked_example(self, pos_cocycle):
        report = typicality.check_typical(pos_cocycle, 1, (2,))
        assert report.passed
        assert report.gap_margins == pytest.approx([np.log(2)], abs=1e-9)
        # least over the four pairs: span(W e_2) against span(e_2)
        assert report.twist_margin == pytest.approx(0.25 / np.hypot(0.25, 2.0), abs=1e-12)

    def test_rejects_rotations_at_eigenvalues(self, rotation_cocycle):
        """Rotations have equal-modulus complex eigenvalues, failing
        pinching."""
        report = typicality.check_typical(rotation_cocycle, 1, (2,))
        assert not report.passed
        assert report.gap_margins[0] <= typicality.TOL_GAP

    def test_rejects_commuting_diagonals_at_independence(self, diag_cocycle):
        """Commuting diagonal generators share eigenvectors, so the
        loop matrix maps each eigenvector onto itself: pinched, not
        twisted."""
        report = typicality.check_typical(diag_cocycle, 1, (2,))
        assert report.gap_margins[0] > typicality.TOL_GAP
        assert report.twist_margin <= typicality.TOL_INDEP
        assert not report.passed

    def test_all_wedge_degrees_checked(self):
        c = OneStepCocycle(
            Q=sft.full_shift(2),
            generators=[np.diag([4.0, 2.0, 1.0]),
                        np.array([[1.0, 1.0, 0.0],
                                  [1.0, 2.0, 1.0],
                                  [0.0, 1.0, 3.0]])])
        report = typicality.check_typical(c, 1, (2,))
        assert report.gap_margins == pytest.approx([np.log(2)] * 2, abs=1e-9)

    def test_accepts_dim_4(self, twisted4_cocycle):
        """Twisting is checked on R^4, so a dim-4 cocycle can pass; its
        words are also quasi-multiplicative, an empirical cross-check."""
        report = typicality.check_typical(twisted4_cocycle, 1, (2,))
        assert report.passed
        assert len(report.gap_margins) == 3
        assert typicality.qm_search(twisted4_cocycle, 3, 3).C > 0


class TestSearch:
    def test_finds_worked_pair(self, pos_cocycle):
        report = typicality.search_typical_pair(pos_cocycle, 2)
        assert report is not None and report.passed

    def test_exhaustion_returns_none(self, rotation_cocycle):
        assert typicality.search_typical_pair(rotation_cocycle, 2) is None

    def test_check_cap(self, pos_cocycle, monkeypatch):
        """The cap counts checks as the search runs: a pair found at
        length 1 within it is returned although longer lengths would
        exceed it, and one check short of the pair raises."""
        monkeypatch.setattr(typicality, "MAX_TYPICAL_CHECKS", 2)
        report = typicality.search_typical_pair(pos_cocycle, 3)
        assert (report.a, report.w) == (1, (2,))
        monkeypatch.setattr(typicality, "MAX_TYPICAL_CHECKS", 1)
        with pytest.raises(BudgetError):
            typicality.search_typical_pair(pos_cocycle, 3)

    def test_symbols_without_pinching_cost_no_checks(self, monkeypatch):
        """Symbols 1-3 are scaled rotations, whose equal-modulus
        eigenvalues fail pinching whatever w is: the search skips them
        without a check, so 200 checks reach the pair (4, (1,)), 253rd
        in the order of a search that checks every word of 1-3."""
        def rot(scale, theta):
            return scale * np.array([[np.cos(theta), -np.sin(theta)],
                                     [np.sin(theta), np.cos(theta)]])

        c = OneStepCocycle(Q=sft.full_shift(4), generators=[
            rot(1.5, 0.7), rot(0.8, 1.9), rot(1.2, 2.3), np.diag([2.0, 0.5])])
        monkeypatch.setattr(typicality, "MAX_TYPICAL_CHECKS", 200)
        checked = []
        check = typicality.check_typical

        def counted(cocycle, a, w):
            checked.append((a, w))
            return check(cocycle, a, w)

        monkeypatch.setattr(typicality, "check_typical", counted)
        report = typicality.search_typical_pair(c, 3)
        assert (report.a, report.w) == (4, (1,))
        assert checked == [(4, (1,))]

    def test_no_fixed_symbol_raises(self):
        # 1 -> 2 -> 3 -> 1 plus chords, primitive, but no self-loop
        Q = sft.validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        c = OneStepCocycle(Q=Q, generators=[np.eye(2)] * 3)
        with pytest.raises(ValueError):
            typicality.search_typical_pair(c, 2)


class TestQmSearch:
    def test_worked_example(self, pos_cocycle):
        qm = typicality.qm_search(pos_cocycle, 5, 4)
        assert qm.found
        assert qm.k == 0
        # frozen regression value; certified independently below
        assert qm.C == pytest.approx(0.526402747581624, abs=1e-9)

    def test_constant_certifies(self, pos_cocycle):
        """Replay the guarantee: every pair admits a connector of the
        reported length with ratio >= C at every wedge degree."""
        qm = typicality.qm_search(pos_cocycle, 3, 2)
        words = [w for n in (1, 2, 3)
                 for w in sft.enumerate_words(pos_cocycle.Q, n)]
        connectors = ([()] if qm.k == 0
                      else list(sft.enumerate_words(pos_cocycle.Q, qm.k)))
        for I in words:
            for J in words:
                best = -np.inf
                for K in connectors:
                    if not sft.is_admissible(pos_cocycle.Q, I + K + J):
                        continue
                    ratio = min(
                        np.linalg.norm(product(pos_cocycle, I + K + J), 2)
                        / (np.linalg.norm(product(pos_cocycle, I), 2)
                           * np.linalg.norm(product(pos_cocycle, J), 2)),
                        abs(np.linalg.det(product(pos_cocycle, I + K + J)))
                        / (abs(np.linalg.det(product(pos_cocycle, I)))
                           * abs(np.linalg.det(product(pos_cocycle, J)))))
                    best = max(best, ratio)
                assert best >= qm.C - 1e-9

    def test_monotone_in_word_length(self, pos_cocycle):
        """The constant can only decrease as longer words join the
        minimum."""
        c2 = typicality.qm_search(pos_cocycle, 2, 2).C
        c4 = typicality.qm_search(pos_cocycle, 4, 2).C
        assert c4 <= c2 + 1e-12

    def test_golden_mean_needs_connector(self, golden_mean_Q):
        """On the golden-mean shift the pair I = J = (2,) is not even
        composable without a connector, so k = 0 cannot work."""
        c = OneStepCocycle(Q=golden_mean_Q,
                           generators=[np.diag([2.0, 1.0]),
                                       np.array([[1.0, 1.0], [1.0, 2.0]])])
        qm = typicality.qm_search(c, 3, 3)
        assert qm.found
        assert qm.k >= 1

    def test_levels_share_finish_calls(self, pos_cocycle):
        """The 9 swept levels (1,022 rows) take at most 2 finish calls."""
        c = OneStepCocycle(Q=sft.full_shift(2), generators=pos_cocycle.generators)
        with mock.patch.object(cocycle, "_finish", wraps=cocycle._finish) as finish:
            qm = typicality.qm_search(c, 3, 3)
        assert finish.call_count <= 2
        assert qm.found

    def test_empty_search_not_found(self, pos_cocycle):
        """With no words there is no pair to bound: not found, and the
        pressure lower bracket stays absent."""
        qm = typicality.qm_search(pos_cocycle, 0, 4)
        assert not qm.found
        assert qm.k is None and qm.C is None
        est = pressure.pressure_table(pos_cocycle, np.array([[1.0, 0.0]]), 6,
                                      qm_C=qm.C, qm_k=qm.k)
        assert np.isnan(est.lower[0])
