import numpy as np
import pytest

from lyapspec import sft


def fib(n):
    a, b = 1, 2
    for _ in range(n):
        a, b = b, a + b
    return a


class TestValidate:
    def test_full_shift(self):
        Q = sft.full_shift(3)
        assert Q.k == 3
        assert Q.is_full_shift
        assert Q.mixing_rate == 1

    def test_golden_mean(self, golden_mean_Q):
        assert golden_mean_Q.mixing_rate == 2
        assert golden_mean_Q.allows(1, 2)
        assert not golden_mean_Q.allows(2, 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sft.validate([[1, 1, 0], [1, 0, 1]])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            sft.validate([[1, 2], [1, 1]])

    def test_rejects_reducible(self):
        # two disconnected components: never primitive
        with pytest.raises(sft.NotPrimitiveError):
            sft.validate([[1, 0], [0, 1]])

    def test_rejects_periodic(self):
        # period-2 cycle: irreducible but not primitive
        with pytest.raises(sft.NotPrimitiveError):
            sft.validate([[0, 1], [1, 0]])

    def test_error_names_offending_entry(self):
        with pytest.raises(sft.NotPrimitiveError, match=r"\("):
            sft.validate([[0, 1], [1, 0]])

    def test_wielandt_boundary_case(self):
        # the k=3 Wielandt matrix becomes positive exactly at (k-1)^2+1 = 5
        Q = sft.validate([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        assert Q.mixing_rate == 5


class TestWords:
    def test_count_full_shift(self):
        Q = sft.full_shift(2)
        for n in range(1, 10):
            assert sft.count_words(Q, n) == 2**n

    def test_count_golden_mean_fibonacci(self, golden_mean_Q):
        for n in range(1, 12):
            assert sft.count_words(golden_mean_Q, n) == fib(n)

    def test_count_matches_enumeration(self, golden_mean_Q):
        for n in range(1, 8):
            words = list(sft.enumerate_words(golden_mean_Q, n))
            assert len(words) == sft.count_words(golden_mean_Q, n)
            assert all(sft.is_admissible(golden_mean_Q, w) for w in words)

    def test_count_no_overflow(self, golden_mean_Q):
        # exact integer arithmetic at lengths far beyond float precision
        count = sft.count_words(golden_mean_Q, 128)
        assert count == fib(128)
        assert count > 2**63

    def test_count_exact_at_length_60(self):
        assert sft.count_words(sft.full_shift(3), 60) == 3**60

    def test_counts_not_shared(self):
        """Counts are kept per matrix, also for equal entries."""
        full, golden = sft.full_shift(2), sft.validate([[1, 1], [1, 0]])
        again = sft.full_shift(2)
        assert sft.count_words(full, 10) == 2**10
        assert sft.count_words(golden, 10) == fib(10)
        assert sft.count_words(again, 5) == 2**5
        assert sft.count_words(full, 12) == 2**12
        assert full._counts is not again._counts

    def test_enumeration_lex_order(self, golden_mean_Q):
        words = list(sft.enumerate_words(golden_mean_Q, 3))
        assert words == sorted(words)
        assert words[0] == (1, 1, 1)

    def test_spec_example_n2(self, golden_mean_Q):
        assert list(sft.enumerate_words(golden_mean_Q, 2)) == [
            (1, 1), (1, 2), (2, 1)]

    def test_admissibility(self, golden_mean_Q):
        assert sft.is_admissible(golden_mean_Q, (1, 2, 1, 1, 2))
        assert not sft.is_admissible(golden_mean_Q, (1, 2, 2))
        with pytest.raises(ValueError):
            sft.is_admissible(golden_mean_Q, (0, 1))


class TestShiftEntropy:
    def test_full_shift(self):
        for k in (2, 3, 5):
            assert sft.shift_entropy(sft.full_shift(k)) == pytest.approx(
                np.log(k), abs=1e-12)

    def test_golden_mean(self, golden_mean_Q):
        phi = (1 + np.sqrt(5)) / 2
        assert sft.shift_entropy(golden_mean_Q) == pytest.approx(
            np.log(phi), abs=1e-12)

    def test_matches_word_growth(self, golden_mean_Q):
        # (1/n) log #L_n converges to the entropy from above
        h = sft.shift_entropy(golden_mean_Q)
        rate = np.log(sft.count_words(golden_mean_Q, 64)) / 64
        assert abs(rate - h) < 0.02
        assert rate > h
