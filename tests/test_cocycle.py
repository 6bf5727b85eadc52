import numpy as np
import pytest

from lyapspec import cli, cocycle, domination, matalg, sft, typicality
from lyapspec.cocycle import (
    BudgetError, OneStepCocycle, eigen_exponents, log_wedge_norms,
    product, profile, profile_matrix,
)


class TestConstruction:
    def test_rejects_singular_generator(self):
        with pytest.raises(ValueError):
            OneStepCocycle(Q=sft.full_shift(2),
                           generators=[np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]])])

    def test_rejects_generator_count_mismatch(self):
        with pytest.raises(ValueError):
            OneStepCocycle(Q=sft.full_shift(3), generators=[np.eye(2), np.eye(2)])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            OneStepCocycle(Q=sft.full_shift(1),
                           generators=[np.ones((2, 3))])

    def test_wedge_cache(self, pos_cocycle):
        assert np.array_equal(pos_cocycle.wedges[1][0], pos_cocycle.generators[0])
        # degree 2 of a 2x2 matrix is the 1x1 determinant
        assert pos_cocycle.wedges[2][1][0, 0] == pytest.approx(
            np.linalg.det(pos_cocycle.generators[1]))


class TestProduct:
    def test_last_symbol_acts_last(self, pos_cocycle):
        """The product over a word applies the first symbol first:
        the matrix of the last symbol sits leftmost."""
        A1, A2 = pos_cocycle.generators
        assert np.array_equal(product(pos_cocycle, (1, 2)), A2 @ A1)
        assert np.array_equal(product(pos_cocycle, (2, 1, 1)), A1 @ A1 @ A2)

    def test_single_symbol(self, pos_cocycle):
        assert np.array_equal(product(pos_cocycle, (2,)),
                              pos_cocycle.generators[1])

    def test_rejects_inadmissible(self, golden_identity):
        with pytest.raises(ValueError):
            product(golden_identity, (2, 2))

    def test_rejects_overlong(self, pos_cocycle):
        with pytest.raises(ValueError):
            product(pos_cocycle, (1,) * 31)


class TestProfile:
    def test_matches_direct_svd(self, pos_cocycle):
        for word in sft.enumerate_words(pos_cocycle.Q, 6):
            direct = matalg.log_singular_values(product(pos_cocycle, word)) / 6
            assert np.allclose(profile(pos_cocycle, word), direct, atol=1e-10)

    def test_survives_overflow_scale(self):
        """Renormalized accumulation keeps working where the raw
        product would overflow a float."""
        c = OneStepCocycle(Q=sft.full_shift(1),
                           generators=[np.diag([1e4, 1e-4])])
        p = profile(c, (1,) * 100)
        assert np.allclose(p, [np.log(1e4), np.log(1e-4)], atol=1e-8)

    def test_profile_matrix_rows_in_word_order(self, pos_cocycle):
        n = 5
        profs = profile_matrix(pos_cocycle, n)
        words = list(sft.enumerate_words(pos_cocycle.Q, n))
        assert profs.shape == (len(words), 2)
        for row, word in zip(profs, words):
            assert np.allclose(row, profile(pos_cocycle, word), atol=1e-10)

    def test_profile_matrix_respects_transitions(self, golden_identity):
        assert profile_matrix(golden_identity, 7).shape[0] == \
            sft.count_words(golden_identity.Q, 7)

    def test_budget(self, pos_cocycle):
        with pytest.raises(BudgetError):
            profile_matrix(pos_cocycle, 12, budget=100)

    def test_determinant_row_sum(self, pos_cocycle):
        """Sum of the profile equals (1/n) log|det| along the word."""
        n = 6
        dets = np.log(np.abs([np.linalg.det(A) for A in pos_cocycle.generators]))
        for word, row in zip(sft.enumerate_words(pos_cocycle.Q, n),
                             profile_matrix(pos_cocycle, n)):
            expected = sum(dets[s - 1] for s in word) / n
            assert row.sum() == pytest.approx(expected, abs=1e-10)


class TestSweepEngine:
    def test_blocked_sweep_is_bit_identical(self, monkeypatch):
        """Cutting the frontier into small blocks changes neither the
        values nor the row order, and profile() runs the same kernel."""
        rng = np.random.default_rng(3)
        Q = sft.validate([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        gens = [rng.standard_normal((3, 3)) for _ in range(3)]
        whole = profile_matrix(OneStepCocycle(Q=Q, generators=gens), 7)
        monkeypatch.setattr(cocycle, "BLOCK_ROWS", 5)
        blocked = profile_matrix(OneStepCocycle(Q=Q, generators=gens), 7)
        assert np.array_equal(blocked, whole)
        c = OneStepCocycle(Q=Q, generators=gens)
        singles = np.array([profile(c, w) for w in sft.enumerate_words(Q, 7)])
        assert np.array_equal(singles, whole)

    def test_deep_sweep_on_one_symbol(self):
        """#L_n = 1 at every n on the one-symbol shift, so the sweep
        depth is only bounded by the word budget."""
        c = OneStepCocycle(Q=sft.full_shift(1),
                           generators=[np.array([[2.0, 1.0], [0.0, 0.5]])])
        profs = profile_matrix(c, 5000)
        assert profs.shape == (1, 2)
        assert np.allclose(profs[0], [np.log(2.0), np.log(0.5)], atol=1e-3)

    def test_cache_hit_keeps_budget(self, pos_cocycle):
        """A hit returns the cached array itself, and the budget still
        applies to it."""
        first = profile_matrix(pos_cocycle, 6)
        assert profile_matrix(pos_cocycle, 6) is first
        with pytest.raises(BudgetError):
            profile_matrix(pos_cocycle, 6, budget=63)

    def test_log_wedge_norms_cache(self, pos_cocycle):
        """log_wedge_norms caches its own sweep, with the same hit and
        budget rules, and profile_matrix reads a length it has swept
        with the same bits as a sweep of its own."""
        first = log_wedge_norms(pos_cocycle, 6)
        assert log_wedge_norms(pos_cocycle, 6) is first
        with pytest.raises(BudgetError):
            log_wedge_norms(pos_cocycle, 6, budget=63)
        fresh = OneStepCocycle(Q=pos_cocycle.Q, generators=pos_cocycle.generators)
        assert np.array_equal(profile_matrix(pos_cocycle, 6), profile_matrix(fresh, 6))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sweep_runs_no_svd(self, d, monkeypatch):
        """The finish takes the top degree from log|det| and the others
        from a closed form or the Gram matrix: no LAPACK SVD."""
        rng = np.random.default_rng(d)
        c = OneStepCocycle(Q=sft.full_shift(2),
                           generators=[rng.standard_normal((d, d)) for _ in range(2)])

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called in the sweep")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert profile_matrix(c, 5).shape == (32, d)
        assert log_wedge_norms(c, 4).shape == (16, d)
        assert profile(c, (1, 2, 2)).shape == (d,)

    def test_sweep_certifies_most_rows(self, monkeypatch):
        """The Rayleigh quotient finishes most D >= 3 rows: a sweep at
        n = 10 of a Gaussian k = 2, d = 4 cocycle sends at most half of
        its 3 * 2**10 such rows to eigvalsh.  A count, not a timing."""
        rng = np.random.default_rng(0)
        c = OneStepCocycle(Q=sft.full_shift(2),
                           generators=[rng.standard_normal((4, 4)) for _ in range(2)])
        rows = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: rows.append(len(G)) or eigvalsh(G))
        cocycle._sweep(c, [10])
        assert sum(rows) <= 3 * 2**10 // 2


class TestOneSweepPerRequest:
    """A QM search, a domination test and a pressure grid read every
    length they need from one sweep, after checking every length
    against the budget."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = cocycle._sweep

        def counted(c, lengths):
            calls.append(sorted(lengths))
            return sweep(c, lengths)

        monkeypatch.setattr(cocycle, "_sweep", counted)
        return calls

    @staticmethod
    def _fresh(c):
        """The same cocycle with empty caches."""
        return OneStepCocycle(Q=c.Q, generators=c.generators)

    def test_qm_search_sweeps_once(self, pos_cocycle, sweeps):
        """The search stops at k = 0, so it sweeps 1..6, not 1..9."""
        typicality.qm_search(self._fresh(pos_cocycle), 3, 3)
        assert sweeps == [list(range(1, 7))]

    def test_default_depth_qm_search_sweeps_to_8(self, sweeps):
        """At the default depth (4, 4) the search on a full shift reads
        the lengths of k = 0 alone."""
        gens = list(np.random.default_rng(0).standard_normal((3, 3, 3)))
        qm = typicality.qm_search(OneStepCocycle(Q=sft.full_shift(3), generators=gens), 4, 4)
        assert qm.k == 0 and list(qm.constants_by_k) == [0]
        assert sweeps == [list(range(1, 9))]

    def test_qm_search_starts_at_the_first_connector(self, golden_identity, sweeps):
        """Below the mixing rate some pair has no connector: the search
        records None there and sweeps only for k = 1 on the golden mean
        shift."""
        qm = typicality.qm_search(self._fresh(golden_identity), 2, 3)
        assert qm.constants_by_k == {0: None, 1: 1.0}
        assert sweeps == [list(range(1, 6))]

    def test_failing_connector_length_sweeps_one_more_length(self, sweeps):
        """Opposite hyperbolic generators: the pair I = (1, 1), J = (2, 2)
        gives C(k) about 1e-20, 1e-15 and 1e-10 at k = 0, 1, 2, so the
        search extends its sweep by one length per failing k."""
        c = OneStepCocycle(Q=sft.full_shift(2),
                           generators=[np.diag([1e5, 1e-5]), np.diag([1e-5, 1e5])])
        qm = typicality.qm_search(c, 2, 4)
        assert qm.k == 2 and list(qm.constants_by_k) == [0, 1, 2]
        assert [round(np.log10(C)) for C in qm.constants_by_k.values()] == [-20, -15, -10]
        assert sweeps == [[1, 2, 3, 4], [5], [6]]

    def test_empty_qm_search_sweeps_nothing(self, pos_cocycle, sweeps):
        assert not typicality.qm_search(self._fresh(pos_cocycle), 0, 3).found
        assert sweeps == []

    def test_domination_test_sweeps_once(self, pos_cocycle, sweeps):
        domination.domination_test(self._fresh(pos_cocycle), 1, range(2, 9))
        assert sweeps == [list(range(2, 9))]

    def test_domination_budget_checked_before_the_sweep(self, diag_cocycle, sweeps):
        with pytest.raises(BudgetError, match=r"^#L_10 = 1024 words exceeds the budget of 1000;"):
            domination.domination_test(self._fresh(diag_cocycle), 1, range(2, 12), budget=1000)
        assert sweeps == []

    def test_pressure_sweeps_once_beyond_the_qm_search(self, pos_cocycle, tmp_path, sweeps):
        """pressure reads the QM search's lengths 1..4 (it stops at
        k = 0) and the table's n, n - k and n - 2 from one sweep."""
        path = tmp_path / "pos.cocycle"
        cli.write_cocycle(str(path), pos_cocycle)
        assert cli.main(["pressure", str(path), "--q=-1:1:1", "--n", "10", "--qm-depth", "2",
                         "--qm-connect", "2", "--out", str(tmp_path / "p.csv")]) == 0
        assert sweeps == [[1, 2, 3, 4, 8, 10]]

    def test_pressure_budget_message_names_n(self, diag_cocycle, tmp_path, capsys, sweeps):
        """A budget below #L_{n-2} names #L_n, as a sweep of n alone did."""
        path = tmp_path / "diag.cocycle"
        cli.write_cocycle(str(path), diag_cocycle)
        code = cli.main(["pressure", str(path), "--n", "12", "--qm-depth", "0",
                         "--budget", "1000"])
        assert code == cli.EXIT_BUDGET
        assert capsys.readouterr().err == (
            "budget exceeded: #L_12 = 4096 words exceeds the budget of 1000; reduce n\n")
        assert sweeps == []

    def test_qm_budget_message(self, diag_cocycle, tmp_path, capsys):
        """The QM search names the shortest length over the budget, as
        it did when it swept one length at a time."""
        path = tmp_path / "diag.cocycle"
        cli.write_cocycle(str(path), diag_cocycle)
        code = cli.main(["pressure", str(path), "--n", "3", "--qm-depth", "6",
                         "--qm-connect", "6", "--budget", "1000"])
        assert code == cli.EXIT_BUDGET
        assert capsys.readouterr().err == (
            "budget exceeded: #L_10 = 1024 words exceeds the budget of 1000; reduce n\n")


class TestEigenExponents:
    def test_diagonal(self, diag_cocycle):
        assert np.allclose(eigen_exponents(diag_cocycle, (1,)),
                           [np.log(2), -np.log(2)])

    def test_cyclic_invariance(self, pos_cocycle):
        """Exponents of a periodic word are invariant under rotation."""
        word = (1, 2, 2, 1, 2)
        base = eigen_exponents(pos_cocycle, word)
        for r in range(1, len(word)):
            rotated = word[r:] + word[:r]
            assert np.allclose(eigen_exponents(pos_cocycle, rotated), base,
                               atol=1e-10)

    def test_rejects_non_closing(self, golden_identity):
        # (1,2) closes (2 -> 1 allowed) but (2,...,ending 1) needs Q[1,2]... use a word
        # whose wrap-around transition is forbidden: last=2, first=2
        with pytest.raises(ValueError):
            eigen_exponents(golden_identity, (2, 1, 2))

    def test_dominated_by_profile(self, pos_cocycle):
        """Eigenvalue moduli never exceed the singular values, degree
        by degree (partial sums)."""
        word = (1, 2, 1, 1)
        eig = eigen_exponents(pos_cocycle, word)
        prof = profile(pos_cocycle, word)
        assert np.cumsum(eig)[0] <= np.cumsum(prof)[0] + 1e-10
        # determinant makes the full sums equal
        assert eig.sum() == pytest.approx(prof.sum(), abs=1e-10)
