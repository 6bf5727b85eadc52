"""Property test: the QM search, the subsystem kappa and the word
enumerator read from the profile sweep, and the subsystem builder on
word arrays, against the triple loop, the 2-block loop, the recursive
enumerator and the per-word padding loop they replaced, kept here as
the references."""

import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lyapspec import domination, matalg, sft, typicality  # noqa: E402
from lyapspec.cocycle import OneStepCocycle, product  # noqa: E402

TOL = 1e-12


def _enumerate_words(Q, n):
    """The recursive enumerator: depth first, symbols in increasing order."""
    word = []

    def extend():
        if len(word) == n:
            yield tuple(word)
            return
        allowed = np.flatnonzero(Q.entries[word[-1] - 1]) + 1 if word else range(1, Q.k + 1)
        for s in allowed:
            word.append(int(s))
            yield from extend()
            word.pop()

    yield from extend()


def _wedge_product(c, word, i):
    M = np.eye(c.wedges[i][0].shape[0])
    for s in word:
        M = c.wedges[i][s - 1] @ M
    return M


def _pair_best(c, I, J, connectors):
    """max over K with IKJ admissible of min over i of the log ratio;
    -inf when no K fits (d = 1: no degree to check, the ratio is 0)."""
    best = -np.inf
    for K in connectors:
        if not sft.is_admissible(c.Q, I + K + J):
            continue
        ratio = 0.0 if c.d == 1 else np.inf
        for i in range(1, c.d):
            num = matalg.log_spectral_norm(_wedge_product(c, I + K + J, i))
            ratio = min(ratio, num - matalg.log_spectral_norm(_wedge_product(c, I, i))
                        - matalg.log_spectral_norm(_wedge_product(c, J, i)))
        best = max(best, ratio)
    return best


def _qm_search(c, n_max, k_max, tol=1e-12):
    """The triple loop: (k, C, constants_by_k, worst_pair, log C(k) by k)."""
    words = [w for n in range(1, n_max + 1) for w in _enumerate_words(c.Q, n)]
    wedge_prods = {(I, i): _wedge_product(c, I, i) for I in words for i in range(1, c.d)}
    norms = {key: matalg.log_spectral_norm(M) for key, M in wedge_prods.items()}
    constants, logs, chosen_k, chosen_C, worst_pair = {}, {}, None, None, None
    for k in range(k_max + 1):
        connectors = [()] if k == 0 else list(_enumerate_words(c.Q, k))
        conn_prods = {(K, i): _wedge_product(c, K, i) for K in connectors for i in range(1, c.d)}
        log_c, k_worst, feasible = np.inf, None, bool(words)
        for I in words:
            for J in words:
                best = -np.inf
                for K in connectors:
                    if not sft.is_admissible(c.Q, I + K + J):
                        continue
                    ratio = 0.0 if c.d == 1 else np.inf
                    for i in range(1, c.d):
                        M = wedge_prods[(J, i)] @ conn_prods[(K, i)] @ wedge_prods[(I, i)]
                        num = matalg.log_spectral_norm(M)
                        ratio = min(ratio, num - norms[(I, i)] - norms[(J, i)])
                    best = max(best, ratio)
                if best == -np.inf:
                    feasible, k_worst = False, (I, J)
                    break
                if best < log_c:
                    log_c, k_worst = best, (I, J)
            if not feasible:
                break
        if not feasible:
            constants[k], worst_pair = None, k_worst
            continue
        constants[k], logs[k] = float(np.exp(log_c)), log_c
        if chosen_k is None and constants[k] > tol:
            chosen_k, chosen_C, worst_pair = k, constants[k], k_worst
    return chosen_k, chosen_C, constants, worst_pair, logs


def _tuple_kappa(c_ext):
    """The 2-block loop over generator pairs, per degree t = 1..d."""
    logs = np.full(c_ext.d, np.inf)
    for t in range(1, c_ext.d + 1):
        for sa in range(c_ext.k):
            for sb in range(c_ext.k):
                M = c_ext.wedges[t][sb] @ c_ext.wedges[t][sa]
                val = (matalg.log_spectral_norm(M)
                       - matalg.log_spectral_norm(c_ext.wedges[t][sa])
                       - matalg.log_spectral_norm(c_ext.wedges[t][sb]))
                logs[t - 1] = min(logs[t - 1], val)
    return logs


@st.composite
def primitive_Q(draw, max_k=3):
    k = draw(st.integers(1, max_k))
    entries = np.array(draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k)))
    try:
        return sft.validate(entries.reshape(k, k))
    except ValueError:
        hypothesis.assume(False)


def _gaussian(Q, d, seed):
    rng = np.random.default_rng(seed)
    return OneStepCocycle(Q=Q, generators=list(rng.standard_normal((Q.k, d, d))))


@st.composite
def cocycles(draw):
    Q = draw(primitive_Q())
    return _gaussian(Q, draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 2**16)))


# the drawn examples are mostly small: a few large ones, d = 1, and the
# diagonal cocycle, where every pair ties up to rounding at degree 1
@hypothesis.settings(max_examples=40, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
@hypothesis.given(c=cocycles(), n_max=st.integers(0, 3), k_max=st.integers(0, 3))
@hypothesis.example(c=_gaussian(sft.validate([[0, 1, 1], [1, 0, 1], [1, 1, 1]]), 2, 1),
                    n_max=3, k_max=3)
@hypothesis.example(c=_gaussian(sft.full_shift(2), 3, 2), n_max=3, k_max=3)
@hypothesis.example(c=_gaussian(sft.validate([[1, 1], [1, 0]]), 1, 3), n_max=3, k_max=2)
# no k found: the worst pair is the first pair, I before J, with no connector
@hypothesis.example(c=_gaussian(sft.validate([[1, 0, 1], [0, 1, 1], [1, 1, 1]]), 2, 4),
                    n_max=2, k_max=0)
@hypothesis.example(c=OneStepCocycle(Q=sft.full_shift(2), generators=[
    np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])]), n_max=3, k_max=1)
# C(0) and C(1) are positive but below 1e-12: the search goes on to k = 2
@hypothesis.example(c=OneStepCocycle(Q=sft.full_shift(2), generators=[
    np.diag([1e5, 1e-5]), np.diag([1e-5, 1e5])]), n_max=2, k_max=3)
def test_qm_search_matches_triple_loop(c, n_max, k_max):
    """Same k, and the reference's None pattern up to that k, where the
    search stops; constants within 1e-12 in log; the worst pair is the
    reference's or ties its minimum within 1e-12."""
    ref_k, ref_C, ref_constants, ref_worst, ref_logs = _qm_search(c, n_max, k_max)
    qm = typicality.qm_search(c, n_max, k_max)
    assert qm.k == ref_k
    ref_constants = {k: C for k, C in ref_constants.items() if ref_k is None or k <= ref_k}
    assert [C is None for C in qm.constants_by_k.values()] == \
        [C is None for C in ref_constants.values()]
    assert list(qm.constants_by_k) == list(ref_constants)
    for k, C in qm.constants_by_k.items():
        if C is not None:
            assert abs(np.log(C) - ref_logs[k]) <= TOL
    if ref_C is not None:
        assert abs(np.log(qm.C) - np.log(ref_C)) <= TOL
    if qm.worst_pair != ref_worst:
        # only a near tie at the chosen k may pick another minimizer
        assert qm.k is not None and qm.worst_pair is not None
        connectors = [()] if qm.k == 0 else list(_enumerate_words(c.Q, qm.k))
        assert _pair_best(c, *qm.worst_pair, connectors) <= ref_logs[qm.k] + TOL


@hypothesis.settings(max_examples=60, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
@hypothesis.given(Q=primitive_Q(max_k=4), n=st.integers(1, 6))
def test_enumeration_matches_recursive_reference(Q, n):
    """Same words in the same order, as tuples of Python ints."""
    words = list(sft.enumerate_words(Q, n))
    assert words == list(_enumerate_words(Q, n))
    assert all(type(s) is int for w in words for s in w)
    assert np.array_equal(sft.word_array(Q, n), np.array(words))


@hypothesis.settings(max_examples=60, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
@hypothesis.given(Q=primitive_Q(max_k=4), order=st.permutations(range(1, 13)))
def test_count_words_matches_matrix_power(Q, order):
    """The counts kept on Q, extended in any order of lengths, equal
    the entry sum of Q^(n-1)."""
    for n in order:
        assert sft.count_words(Q, n) == int(np.linalg.matrix_power(Q.entries, n - 1).sum())


@hypothesis.settings(max_examples=40, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
@hypothesis.given(Q=primitive_Q(max_k=4), n=st.integers(0, 7))
def test_word_arrays_match_word_array(Q, n):
    """One pass gives every length's word array."""
    arrays = sft.word_arrays(Q, n)
    assert len(arrays) == n
    for m, words in enumerate(arrays, start=1):
        assert np.array_equal(words, sft.word_array(Q, m))


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(k=st.integers(1, 3), d=st.sampled_from([2, 3]),
                  seed=st.integers(0, 2**16))
def test_subsystem_kappa_matches_two_block_loop(k, d, seed):
    """kappa of a dominated subsystem of a positive family, against
    the 2-block loop on its tuple cocycle."""
    gens = list(np.random.default_rng(seed).uniform(0.05, 1.0, size=(k, d, d)))
    c = OneStepCocycle(Q=sft.full_shift(k), generators=gens)
    try:
        sub = domination.build_dominated_subsystem(c, 1, 1, (1,), pad_bound=0)
    except domination.SubsystemSearchError:
        hypothesis.assume(False)
    assert np.abs(sub.log_kappa - _tuple_kappa(sub.tuple_cocycle)).max() <= TOL


def _reference_pads(c, n, a, w, pad_bound):
    """The per-word padding loop the array builder replaced: the first
    (J1, J2) whose extended words are admissible, close up and give a
    dominated tuple, built with one ``product`` per word; None with the
    worst word of the last tuple tested on exhaustion."""
    base_words = list(sft.enumerate_words(c.Q, n))
    candidates = domination._padding_candidates(a, tuple(w), pad_bound)
    depths = domination._block_depths(len(base_words))
    worst = None
    for pad_left in candidates:
        for pad_right in candidates:
            ext_words = [pad_left + I + pad_right for I in base_words]
            if not all(sft.is_admissible(c.Q, e) and c.Q.allows(e[-1], e[0])
                       for e in ext_words):
                continue
            c_ext = OneStepCocycle(Q=sft.full_shift(len(ext_words)),
                                   generators=[product(c, e) for e in ext_words])
            report = domination.domination_report(c_ext, n_range=depths,
                                                  monotone_from=depths[0],
                                                  budget=domination.BLOCK_BUDGET)
            if report.passed:
                return (pad_left, pad_right), None
            worst = ext_words[domination._worst_word_index(c_ext)]
    return None, worst


@hypothesis.settings(max_examples=60, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
@hypothesis.given(Q=primitive_Q(), d=st.sampled_from([2, 3]), positive=st.booleans(),
                  seed=st.integers(0, 2**16), n=st.integers(1, 2), data=st.data())
@hypothesis.example(Q=sft.validate([[1, 1], [1, 0]]), d=2, positive=True, seed=0, n=1,
                    data=None)
def test_subsystem_builder_matches_per_word_loop(Q, d, positive, seed, n, data):
    """On primitive Q that are not full shifts, where some paddings are
    rejected, the array builder picks the pads of the per-word loop (or
    exhausts with the same worst word); every row of ``words`` is
    admissible and closes up, and the tuple is ``product`` of each row
    bit for bit."""
    hypothesis.assume(not Q.is_full_shift)
    if data is None:  # the golden-mean example: (2,) cannot close up, so () | () is rejected
        a, w, pad_bound = 1, (2,), 2
    else:
        fixed = [s for s in range(1, Q.k + 1) if Q.allows(s, s)]
        a = data.draw(st.sampled_from(fixed)) if fixed else data.draw(st.integers(1, Q.k))
        w = tuple(data.draw(st.lists(st.integers(1, Q.k), min_size=1, max_size=2)))
        pad_bound = data.draw(st.integers(0, 2))
    rng = np.random.default_rng(seed)
    gens = (rng.uniform(0.05, 1.0, size=(Q.k, d, d)) if positive
            else rng.standard_normal((Q.k, d, d)))
    c = OneStepCocycle(Q=Q, generators=list(gens))
    try:
        pads, worst = _reference_pads(c, n, a, w, pad_bound)
    except ValueError as exc:  # a product that is not invertible
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            domination.build_dominated_subsystem(c, n, a, w, pad_bound=pad_bound)
        return
    if pads is None:
        with pytest.raises(domination.SubsystemSearchError,
                           match=f"worst extended word: {re.escape(str(worst))}$"):
            domination.build_dominated_subsystem(c, n, a, w, pad_bound=pad_bound)
        return
    sub = domination.build_dominated_subsystem(c, n, a, w, pad_bound=pad_bound)
    assert (sub.pad_left, sub.pad_right) == pads
    rows = [tuple(row) for row in sub.words.tolist()]
    assert all(sft.is_admissible(Q, e) and Q.allows(e[-1], e[0]) for e in rows)
    assert np.array_equal(sub.tuple_cocycle.generators, [product(c, e) for e in rows])
