import tracemalloc

import mpmath
import numpy as np
import pytest

from lyapspec import cli, cocycle, domination, matalg, pressure, sft, typicality
from lyapspec.cocycle import (
    BudgetError, OneStepCocycle, eigen_exponents, log_wedge_norm_matrices,
    product, profile_matrix,
)


@pytest.fixture
def sweeps(monkeypatch):
    """The lengths of every sweep, one sorted list per call."""
    calls = []
    sweep = cocycle._sweep

    def counted(c, lengths):
        calls.append(sorted(lengths))
        return sweep(c, lengths)

    monkeypatch.setattr(cocycle, "_sweep", counted)
    return calls


@pytest.fixture
def advances(monkeypatch):
    """The depth of every sweep step, in call order."""
    depths = []
    advance = cocycle._advance

    def counted(c, front, par, sym, depth):
        depths.append(depth)
        return advance(c, front, par, sym, depth)

    monkeypatch.setattr(cocycle, "_advance", counted)
    return depths


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

    @pytest.mark.parametrize("s", [2, 3, 700])
    def test_bad_generator_is_named(self, s):
        """One stacked check of a 1024-generator tuple names the same
        generator as a check of each in turn: a singular one, one of
        another shape, and of the two the first."""
        gens = list(np.random.default_rng(s).standard_normal((1024, 2, 2)))
        singular, shape3 = np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(3)
        invertible = rf"^generator {s} is not invertible$"
        shape = rf"^generator {s} has shape \(3, 3\), expected \(2, 2\)$"
        for bad, last, message in ((singular, gens[-1], invertible), (shape3, gens[-1], shape),
                                   (singular, shape3, invertible), (shape3, singular, shape),
                                   (np.full((2, 2), np.nan), gens[-1], "^matrix has non-finite")):
            with pytest.raises(ValueError, match=message):
                OneStepCocycle(Q=sft.full_shift(1024),
                               generators=gens[:s - 1] + [bad] + gens[s:-1] + [last])

    def test_unit_wedges_and_log_norm_table(self, twisted4_cocycle):
        """The sweep's cache: each degree t < d divided by its spectral
        norm, whose log is column t of the table; the last column is
        log|det|."""
        c = twisted4_cocycle
        for t in range(1, c.d):
            norms = np.linalg.svd(c.wedges[t], compute_uv=False)[:, 0]
            assert np.allclose(np.linalg.svd(c.unit_wedges[t], compute_uv=False)[:, 0], 1.0,
                               rtol=1e-14)
            assert np.allclose(c.log_norms[:, t - 1], np.log(norms), rtol=0, atol=1e-14)
        assert np.array_equal(c.log_norms[:, -1], np.log(np.abs(np.linalg.det(c.generators))))

    def test_rescale_period_of_the_wedges(self):
        """diag(1e6, 1e-6) has condition number 1e12 at degree 1, so the
        sweep rescales every 8 levels, the multicone orbit's period."""
        c = OneStepCocycle(Q=sft.full_shift(2), generators=[np.diag([1e6, 1e-6]), np.eye(2)])
        assert c.rescale_every == matalg.rescale_period(np.log(1e12)) == 8
        iso = OneStepCocycle(Q=sft.full_shift(1), generators=[np.array([[0.0, -1.0], [1.0, 0.0]])])
        assert iso.rescale_every == matalg.rescale_period(0.0)

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


def _svd_profiles(c, n):
    """The profiles of the length-n words from the SVD of each plain
    product, in lexicographic word order."""
    return np.array([matalg.log_singular_values(product(c, word)) / n
                     for word in sft.enumerate_words(c.Q, n)])


class TestProfile:
    def test_matches_direct_svd(self, pos_cocycle):
        assert np.allclose(profile_matrix(pos_cocycle, 6), _svd_profiles(pos_cocycle, 6),
                           atol=1e-10)

    def test_survives_overflow_scale(self):
        """Renormalized accumulation keeps working where the raw
        product would overflow a float."""
        c = OneStepCocycle(Q=sft.full_shift(1),
                           generators=[np.diag([1e4, 1e-4])])
        assert np.allclose(profile_matrix(c, 100), [[np.log(1e4), np.log(1e-4)]], atol=1e-8)

    def test_survives_unit_norm_products_that_shrink(self):
        """A quarter turn of diag(1e6, 1e-6) squares to -I: its unit-norm
        copy shrinks by 1e-12 every two steps, so 100 steps without a
        rescale underflow to 0.  The sweep rescales every 8 levels."""
        c = OneStepCocycle(Q=sft.full_shift(1),
                           generators=[np.array([[0.0, -1.0], [1.0, 0.0]]) @ np.diag([1e6, 1e-6])])
        assert c.rescale_every == 8
        assert np.allclose(profile_matrix(c, 100), [[0.0, 0.0]], atol=1e-12)
        assert np.allclose(profile_matrix(c, 101), [[np.log(1e6) / 101, np.log(1e-6) / 101]],
                           atol=1e-12)

    def test_profile_matrix_rows_in_word_order(self, pos_cocycle, golden_mean_Q):
        """On the golden mean shift too, row i is the i-th admissible word."""
        c = OneStepCocycle(Q=golden_mean_Q, generators=pos_cocycle.generators)
        profs = profile_matrix(c, 5)
        assert profs.shape == (sft.count_words(c.Q, 5), 2)
        assert np.allclose(profs, _svd_profiles(c, 5), atol=1e-10)

    def test_profile_matrix_respects_transitions(self, golden_identity):
        assert profile_matrix(golden_identity, 7).shape[0] == \
            sft.count_words(golden_identity.Q, 7)

    def test_budget(self, pos_cocycle):
        c = OneStepCocycle(Q=pos_cocycle.Q, generators=pos_cocycle.generators, budget=100)
        with pytest.raises(BudgetError):
            profile_matrix(c, 12)

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
        """Cutting the frontier into small blocks, down to one row per
        block, changes neither the values nor the row order."""
        rng = np.random.default_rng(3)
        Q = sft.validate([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        gens = [rng.standard_normal((3, 3)) for _ in range(3)]
        whole = profile_matrix(OneStepCocycle(Q=Q, generators=gens), 7)
        for rows in (5, 1):
            monkeypatch.setattr(cocycle, "BLOCK_ROWS", rows)
            blocked = profile_matrix(OneStepCocycle(Q=Q, generators=gens), 7)
            assert np.array_equal(blocked, whole)

    def test_deep_sweep_on_one_symbol(self):
        """#L_n = 1 at every n on the one-symbol shift, so the sweep
        depth is only bounded by the word budget."""
        c = OneStepCocycle(Q=sft.full_shift(1),
                           generators=[np.array([[2.0, 1.0], [0.0, 0.5]])])
        profs = profile_matrix(c, 5000)
        assert profs.shape == (1, 2)
        assert np.allclose(profs[0], [np.log(2.0), np.log(0.5)], atol=1e-3)

    def test_cache_hit_keeps_budget(self, pos_cocycle, sweeps):
        """A log-norm hit returns the cached array itself; a repeated
        profile_matrix call sweeps nothing and derives the same bits
        from it; and the budget still applies on a hit."""
        c = OneStepCocycle(Q=pos_cocycle.Q, generators=pos_cocycle.generators)
        logs = log_wedge_norm_matrices(c, (6,))[6]
        assert log_wedge_norm_matrices(c, (6,))[6] is logs
        first = profile_matrix(c, 6)
        again = profile_matrix(c, 6)
        assert sweeps == [[6]]
        assert np.array_equal(again, first)
        assert np.array_equal(again, np.diff(logs, axis=1, prepend=0.0) / 6)
        c.budget = 63
        with pytest.raises(BudgetError):
            profile_matrix(c, 6)
        with pytest.raises(BudgetError):
            log_wedge_norm_matrices(c, (6,))

    def test_log_wedge_norms_cache(self, pos_cocycle):
        """log_wedge_norm_matrices caches its sweep: a hit returns the
        cached array itself and still checks the budget of its cocycle,
        and profile_matrix derives from it the same bits as a fresh
        sweep gives.  The budget is set on a cocycle built here: the
        fixture is shared by the whole session."""
        first = log_wedge_norm_matrices(pos_cocycle, (6,))[6]
        assert log_wedge_norm_matrices(pos_cocycle, (6,))[6] is first
        fresh = OneStepCocycle(Q=pos_cocycle.Q, generators=pos_cocycle.generators)
        assert np.array_equal(profile_matrix(pos_cocycle, 6), profile_matrix(fresh, 6))
        fresh.budget = 63
        with pytest.raises(BudgetError):
            log_wedge_norm_matrices(fresh, (6,))

    def test_pressure_keeps_each_length_once(self):
        """A log-norm sweep of the lengths n - 2 and n of a pressure
        table at n = 14, and then the table, retains each length once:
        less than 1.5 times #L_m d floats over those lengths."""
        rng = np.random.default_rng(5)
        c = OneStepCocycle(Q=sft.full_shift(2), generators=list(rng.standard_normal((2, 3, 3))))
        lengths = (12, 14)
        cached = sum(sft.count_words(c.Q, m) for m in lengths) * c.d * 8
        grid = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, -1.0]])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cocycle.log_wedge_norm_matrices(c, lengths)
            pressure.pressure_table(c, grid, 14)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cached <= retained < 1.5 * cached

    def test_pressure_table_peak_stays_below_its_cache(self):
        """Once its lengths are swept, the table weighs the cached
        log-norms in place: its tracemalloc peak stays below half of
        their bytes, with no full-size temporary per length."""
        rng = np.random.default_rng(5)
        c = OneStepCocycle(Q=sft.full_shift(2), generators=list(rng.standard_normal((2, 3, 3))))
        lengths = (12, 14)
        cached = sum(sft.count_words(c.Q, m) for m in lengths) * c.d * 8
        grid = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, -1.0]])
        cocycle.log_wedge_norm_matrices(c, lengths)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pressure.pressure_table(c, grid, 14)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * cached

    @pytest.mark.parametrize("every", range(10, 15))
    def test_resumed_sweep_crosses_a_rescale(self, golden_mean_Q, every, advances):
        """A sweep resumed at length 4 and run on to 14, past a rescale
        at ``every``, advances only the levels 5..14 and gives the bits
        of a sweep from the empty word."""
        gens = list(np.random.default_rng(every).standard_normal((2, 3, 3)))
        cs = [OneStepCocycle(Q=golden_mean_Q, generators=gens) for _ in range(2)]
        for c in cs:
            c.rescale_every = every
        whole = cocycle._sweep(cs[0], [14])[14]
        cocycle._sweep(cs[1], [4])
        advances.clear()
        assert np.array_equal(cocycle._sweep(cs[1], [14])[14], whole)
        assert advances == list(range(5, 15))

    def test_request_at_or_below_the_kept_level_sweeps_from_the_empty_word(self, pos_cocycle,
                                                                          advances):
        """A kept level at 6 serves no request with a length up to 6:
        (3, 8) and then 8 itself, at the level 8 then kept, sweep from
        the empty word, with the bits of a fresh cocycle."""
        c = OneStepCocycle(Q=pos_cocycle.Q, generators=pos_cocycle.generators)
        cocycle._sweep(c, [6])
        for lengths in ([3, 8], [8]):
            advances.clear()
            got = cocycle._sweep(c, lengths)
            assert advances == list(range(1, 9))
            fresh = OneStepCocycle(Q=pos_cocycle.Q, generators=pos_cocycle.generators)
            assert all(np.array_equal(got[n], cocycle._sweep(fresh, [n])[n]) for n in lengths)

    def test_level_past_one_block_keeps_nothing(self, pos_cocycle, monkeypatch, advances):
        """With blocks of 8 rows the level 3 (8 words) is kept and the
        level 4 (16 words, two blocks) is not, so a sweep to 4 resumes
        at 3 and the next one starts from the empty word."""
        monkeypatch.setattr(cocycle, "BLOCK_ROWS", 8)
        c = OneStepCocycle(Q=pos_cocycle.Q, generators=pos_cocycle.generators)
        cocycle._sweep(c, [3])
        assert c._frontier[0] == 3
        advances.clear()
        cocycle._sweep(c, [4])
        assert (advances, c._frontier) == ([4, 4], None)
        advances.clear()
        cocycle._sweep(c, [5])
        assert advances[:3] == [1, 2, 3]

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
        assert log_wedge_norm_matrices(c, (4,))[4].shape == (16, d)

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

    def test_3x3_rows_rarely_need_lapack(self, monkeypatch):
        """The trigonometric start certifies nearly every 3 x 3 row: a
        sweep at n = 10 of a Gaussian k = 2, d = 3 cocycle sends under 1%
        of its 2 * 2**10 such rows to eigvalsh."""
        rng = np.random.default_rng(0)
        c = OneStepCocycle(Q=sft.full_shift(2),
                           generators=[rng.standard_normal((3, 3)) for _ in range(2)])
        rows = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: rows.append(len(G)) or eigvalsh(G))
        cocycle._sweep(c, [10])
        assert sum(rows) < 0.01 * 2 * 2**10


class TestOneSweepPerRequest:
    """A QM search, a domination test and a pressure grid read every
    length they need from one sweep, after checking the longest length
    against the budget."""

    @staticmethod
    def _fresh(c, **kw):
        """The same cocycle with empty caches."""
        return OneStepCocycle(Q=c.Q, generators=c.generators, **kw)

    def test_qm_search_sweeps_once(self, pos_cocycle, sweeps):
        """The search stops at k = 0, so it sweeps 1..6, not 1..9."""
        typicality.qm_search(self._fresh(pos_cocycle), 3, 3)
        assert sweeps == [list(range(1, 7))]

    def test_default_depth_qm_search_sweeps_to_8(self, sweeps):
        """At the default depth (4, 4) the search on a full shift reads
        the lengths of k = 0 alone."""
        gens = list(np.random.default_rng(0).standard_normal((3, 3, 3)))
        qm = typicality.qm_search(OneStepCocycle(Q=sft.full_shift(3), generators=gens), 4, 4)
        assert qm.k == 0 and qm.C > 1e-12
        assert sweeps == [list(range(1, 9))]

    def test_qm_search_starts_at_the_first_connector(self, golden_identity, sweeps):
        """Below the mixing rate some pair has no connector: the search
        skips k = 0 and sweeps only for k = 1 on the golden mean shift,
        where identity generators give C = 1 exactly."""
        qm = typicality.qm_search(self._fresh(golden_identity), 2, 3)
        assert (qm.k, qm.C) == (1, 1.0)
        assert sweeps == [list(range(1, 6))]

    def test_failing_connector_length_sweeps_one_more_length(self, sweeps, advances):
        """Opposite hyperbolic generators: the pair I = (1, 1), J = (2, 2)
        gives C(k) about 1e-20, 1e-15 and 1e-10 at k = 0, 1, 2, so the
        search extends its sweep by one length per failing k, each
        resumed from the last: 6 levels in all, not 4 + 5 + 6."""
        c = OneStepCocycle(Q=sft.full_shift(2),
                           generators=[np.diag([1e5, 1e-5]), np.diag([1e-5, 1e5])])
        qm = typicality.qm_search(c, 2, 4)
        assert qm.k == 2 and round(np.log10(qm.C)) == -10
        assert sweeps == [[1, 2, 3, 4], [5], [6]]
        assert advances == [1, 2, 3, 4, 5, 6]

    def test_empty_qm_search_sweeps_nothing(self, pos_cocycle, sweeps):
        assert not typicality.qm_search(self._fresh(pos_cocycle), 0, 3).found
        assert sweeps == []

    def test_domination_test_sweeps_once(self, pos_cocycle, sweeps):
        domination.domination_test(self._fresh(pos_cocycle), 1, range(2, 9))
        assert sweeps == [list(range(2, 9))]

    def test_subsystem_sweeps_the_tuple_once(self, pos_cocycle, sweeps):
        """The domination test of the tuple cocycle sweeps the lengths
        1..6, and the kappa line reads its lengths 1 and 2 from that
        sweep."""
        sub = domination.build_dominated_subsystem(self._fresh(pos_cocycle), 2, 1, (2,))
        assert sweeps == [[1, 2, 3, 4, 5, 6]]
        # kappa = exp(log_kappa) = [0.56733265, 1.0], the bits of a sweep of 1 and 2 alone
        assert sub.log_kappa.tolist() == [-0.5668094569859317, -2.220446049250313e-16]

    def test_domination_budget_checked_before_the_sweep(self, diag_cocycle, sweeps):
        """The longest length is checked, so the error names it."""
        with pytest.raises(BudgetError, match=r"^#L_11 = 2048 words exceeds the budget of 1000$"):
            domination.domination_test(self._fresh(diag_cocycle, budget=1000), 1, range(2, 12))
        assert sweeps == []

    def test_empty_length_set_counts_no_words(self, diag_cocycle, monkeypatch, sweeps):
        monkeypatch.setattr(sft, "count_words", None)
        assert log_wedge_norm_matrices(self._fresh(diag_cocycle), ()) == {}
        assert sweeps == []

    def test_pressure_sweeps_once_beyond_the_qm_search(self, pos_cocycle, tmp_path, sweeps,
                                                       advances):
        """pressure reads the QM search's lengths 1..4 (it stops at
        k = 0), then the table's n - 2 and n from a sweep that resumes
        at length 4: each level 1..10 is advanced once."""
        path = tmp_path / "pos.cocycle"
        cli.write_cocycle(str(path), pos_cocycle)
        assert cli.main(["pressure", str(path), "--q=-1:1:1", "--n", "10", "--qm-depth", "2",
                         "--qm-connect", "2", "--out", str(tmp_path / "p.csv")]) == 0
        assert sweeps == [[1, 2, 3, 4], [8, 10]]
        assert sorted(advances) == list(range(1, 11))

    def test_pressure_budget_message_names_n(self, diag_cocycle, tmp_path, capsys, sweeps):
        """A budget below #L_{n-2} names #L_n, as a sweep of n alone did."""
        path = tmp_path / "diag.cocycle"
        cli.write_cocycle(str(path), diag_cocycle)
        code = cli.main(["pressure", str(path), "--n", "12", "--qm-depth", "0",
                         "--budget", "1000"])
        assert code == cli.EXIT_BUDGET
        assert capsys.readouterr().err == (
            "budget exceeded: #L_12 = 4096 words exceeds the budget of 1000\n")
        assert sweeps == []

    def test_qm_budget_message(self, diag_cocycle, tmp_path, capsys):
        """The QM search at k = 0 reads the lengths 1..12, so its sweep,
        the first of the run, names the longest of them."""
        path = tmp_path / "diag.cocycle"
        cli.write_cocycle(str(path), diag_cocycle)
        code = cli.main(["pressure", str(path), "--n", "3", "--qm-depth", "6",
                         "--qm-connect", "6", "--budget", "1000"])
        assert code == cli.EXIT_BUDGET
        assert capsys.readouterr().err == (
            "budget exceeded: #L_12 = 4096 words exceeds the budget of 1000\n")


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

    def test_rejects_long_and_non_admissible_words(self, pos_cocycle, golden_identity):
        with pytest.raises(ValueError, match="limited to length 30"):
            eigen_exponents(pos_cocycle, (1,) * 31)
        with pytest.raises(ValueError, match="not admissible"):
            eigen_exponents(golden_identity, (1, 2, 2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_mpmath_on_long_words(self, pos_cocycle, d):
        """Against the eigenvalues of the word product in 60-digit
        mpmath, on 5 random words of each length 8, 16 and 30, of
        ``pos_cocycle`` at d = 2 and a Gaussian pair at d = 3: within
        1e-13, where log|eigvals| of the float product was off by 1e-2
        (d = 2) and 0.9 (d = 3) at length 30."""
        c = pos_cocycle if d == 2 else OneStepCocycle(
            Q=sft.full_shift(2), generators=list(np.random.default_rng(3).standard_normal((2, 3, 3))))
        rng = np.random.default_rng(0)
        for n in (8, 16, 30):
            for word in map(tuple, rng.integers(1, 3, size=(5, n)).tolist()):
                with mpmath.workdps(60):
                    M = mpmath.eye(d)
                    for s in word:
                        M = mpmath.matrix(c.generators[s - 1].tolist()) * M
                    ref = sorted((float(mpmath.log(abs(e)))
                                  for e in mpmath.eig(M, left=False, right=False)), reverse=True)
                assert np.abs(eigen_exponents(c, word) - np.array(ref) / n).max() <= 1e-13

    def test_dominated_by_profile(self, pos_cocycle):
        """Eigenvalue moduli never exceed the singular values, degree
        by degree (partial sums)."""
        word = (1, 2, 1, 1)
        eig = eigen_exponents(pos_cocycle, word)
        prof = matalg.log_singular_values(product(pos_cocycle, word)) / len(word)
        assert np.cumsum(eig)[0] <= np.cumsum(prof)[0] + 1e-10
        # determinant makes the full sums equal
        assert eig.sum() == pytest.approx(prof.sum(), abs=1e-10)
