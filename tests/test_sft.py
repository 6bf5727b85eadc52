import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 5), data=st.data())
def test_word_counts_never_decrease(k, data):
    """Every symbol of a validated Q has a successor, so each word
    extends: #L_{n+1} >= #L_n, and one budget check at the longest
    length of a sweep bounds every level of it."""
    bits = data.draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k))
    try:
        Q = sft.validate(np.array(bits).reshape(k, k))
    except ValueError:
        assume(False)
    counts = [sft.count_words(Q, n) for n in range(1, 41)]
    assert counts == sorted(counts)


class TestLengthPast:
    def test_counts_no_length_past_the_first_over_the_limit(self):
        """#L_10 = 1,024 is the first count past 1,000 on the full
        2-shift, and it proves #L_n > 1000 at any n >= 10."""
        Q = sft.full_shift(2)
        assert sft.length_past(Q, 10**6, 1000) == 10
        assert len(Q._counts) == 10

    def test_names_n_when_its_count_prints(self):
        """#L_n <= 2^n: n = 300 (a bound of 91 digits) is named itself,
        and n = 400 (121 digits) by the first length past the limit."""
        Q = sft.full_shift(2)
        assert sft.length_past(Q, 300, 1000) == 300
        assert sft.length_past(Q, 400, 1000) == 10
        assert sft.length_past(Q, 9, 1000) is None


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

    @pytest.mark.parametrize("k", range(3, 9))
    def test_slowly_mixing_wielandt_matrix(self, k):
        """The cycle 1 -> ... -> k -> 1 plus k -> 2 mixes at the rate
        (k - 1)^2 + 1, the slowest for its size, and |lambda_2/lambda_1|
        reaches 0.988 at k = 8; by n = 4000 the exact count growth
        log(#L_{n+1}/#L_n) has settled on log rho to rounding."""
        entries = np.zeros((k, k), dtype=int)
        entries[np.arange(k), (np.arange(k) + 1) % k] = 1
        entries[k - 1, 1] = 1
        Q = sft.validate(entries)
        assert Q.mixing_rate == (k - 1) ** 2 + 1
        growth = math.log(sft.count_words(Q, 4001)) - math.log(sft.count_words(Q, 4000))
        assert abs(sft.shift_entropy(Q) - growth) <= 1e-12
