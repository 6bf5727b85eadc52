"""Typicality checking via explicit holonomy loops, and an exhaustive
search for simultaneous quasi-multiplicativity constants.

For one-step cocycles the local holonomies are the identity, so the
holonomy loop around a homoclinic orbit of a fixed symbol reduces to a
finite matrix product computed here directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import sft
from .cocycle import (DEFAULT_WORD_BUDGET, BudgetError, OneStepCocycle,
                      log_wedge_norm_matrices, product)
from .sft import Word

TOL_GAP = 1e-6
TOL_INDEP = 1e-8

#: most (a, w) pairs one search_typical_pair call checks: a check_typical
#: call takes 160-400 us at d <= 6, so the search stops after 3-8 s
MAX_TYPICAL_CHECKS = 20_000

#: twisting compares C(2d, d) - 2 pairs of index sets (922 at d = 6);
#: refuse larger dimensions
MAX_DIM = 6


@dataclass
class HolonomyLoop:
    """Return matrix of the homoclinic loop through the fixed symbol a.

    W = A_a^{-(|w|+1)} A_{a w}, the one-step reduction of the
    stable/unstable holonomy composition around the orbit of a·w·a.
    """

    a: int
    w: Word
    W: np.ndarray = field(repr=False)


@dataclass
class TypicalityReport:
    """Pinching margins ``gap_margins[t - 1]``, t = 1..d-1, and the
    twisting margin at one pair (a, w); see :func:`check_typical`."""

    a: int
    w: Word
    gap_margins: list[float]
    twist_margin: float

    @property
    def passed(self) -> bool:
        return min(self.gap_margins, default=np.inf) > TOL_GAP and self.twist_margin > TOL_INDEP


@dataclass
class QMReport:
    """Empirical simultaneous quasi-multiplicativity constants.

    ``C`` and ``k`` are the first connecting length with a constant
    above 1e-12 over all tested word pairs; ``worst_pair`` is the
    minimizing (I, J) at that k, or, when no k passes, the first pair
    with no connector at the last k without one.  ``constants_by_k``
    records the search up to where it stopped: None below k = mixing
    rate - 1 and wherever some pair has no connector.
    """

    n_max: int
    k_max: int
    k: int | None
    C: float | None
    constants_by_k: dict[int, float | None]
    worst_pair: tuple[Word, Word] | None

    @property
    def found(self) -> bool:
        return self.k is not None


def holonomy_loop(c: OneStepCocycle, a: int, w: Word) -> HolonomyLoop:
    """Compute the holonomy loop matrix for fixed symbol a and core word w."""
    w = tuple(w)
    if not w:
        raise ValueError("core word w must be nonempty")
    if not 1 <= a <= c.k:
        raise ValueError(f"symbol {a} outside alphabet 1..{c.k}")
    if not c.Q.allows(a, a):
        raise ValueError(f"symbol {a} is not a fixed point (Q[{a},{a}] = 0)")
    loop_word = (a,) + w + (a,)
    if not sft.is_admissible(c.Q, loop_word):
        raise ValueError(f"loop word {loop_word} is not admissible")
    Aa = c.generators[a - 1]
    M = product(c, (a,) + w)
    W = np.linalg.matrix_power(np.linalg.inv(Aa), len(w) + 1) @ M
    return HolonomyLoop(a=a, w=w, W=W)


def _sorted_eigensystem(M: np.ndarray):
    lam, vec = np.linalg.eig(M)
    order = np.argsort(-np.abs(lam))
    return lam[order], vec[:, order]


def _orth(M: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal bases of the spans of every m columns of M, stacked
    in lexicographic order of the column subsets."""
    subsets = np.array(list(combinations(range(M.shape[1]), m)))
    return np.linalg.qr(M[:, subsets].swapaxes(0, 1))[0]


def _twist_margin(W: np.ndarray, V: np.ndarray) -> float:
    """Least |det[orth(W V_I) | orth(V_J)]| over the column index sets
    I, J of V with |I| + |J| = d, both nonempty: the product of the
    sines of the principal angles between span(W V_I) and span(V_J).
    It is 0 exactly when the two spaces meet, and does not change when
    W or a column of V is rescaled."""
    d, WV = len(V), W @ V
    margin = np.inf
    for m in range(1, d):
        # one stacked QR per side, one stacked det over the pairs
        image, eigen = _orth(WV, m), _orth(V, d - m)
        pairs = np.concatenate([np.repeat(image, len(eigen), axis=0),
                                np.tile(eigen, (len(image), 1, 1))], axis=2)
        margin = min(margin, float(np.abs(np.linalg.det(pairs)).min()))
    return margin


def check_typical(c: OneStepCocycle, a: int, w: Word) -> TypicalityReport:
    """Pinching and twisting (Bonatti-Viana 2004) at the pair (a, w).

    Pinching: at every degree t = 1..d-1 the eigenvalues of
    A_a^{wedge t} have pairwise distinct moduli; its margin is the least
    log-modulus gap.  Twisting: for the loop matrix W and the
    eigenvectors v_1..v_d of A_a, span(W v_I) meets span(v_J) only in 0
    whenever |I| + |J| = d; its margin is :func:`_twist_margin`, set to
    0 when pinching fails.
    """
    if c.d > MAX_DIM:
        raise ValueError(f"dim {c.d} > {MAX_DIM}: twisting check refused")
    loop = holonomy_loop(c, a, w)
    gaps = []
    for t in range(1, c.d):
        lam, _ = _sorted_eigensystem(c.wedges[t][a - 1])
        gaps.append(float(np.diff(np.log(np.abs(lam))[::-1]).min()))
    twist = 0.0
    if min(gaps, default=np.inf) > TOL_GAP:
        # a spectrum with distinct moduli is real: drop rounding imaginaries
        twist = _twist_margin(loop.W, np.real(np.linalg.eig(c.generators[a - 1])[1]))
    return TypicalityReport(a=a, w=loop.w, gap_margins=gaps, twist_margin=twist)


def search_typical_pair(c: OneStepCocycle, depth: int) -> TypicalityReport | None:
    """Try every fixed symbol a and core word w up to the given length;
    return the first passing report, or None on exhaustion.

    Raises ValueError when no symbol has a self-transition, and
    BudgetError when a pass would need more than MAX_TYPICAL_CHECKS
    checks.
    """
    fixed = [a for a in range(1, c.k + 1) if c.Q.allows(a, a)]
    if not fixed:
        raise ValueError("no symbol a with Q[a,a] = 1: no fixed point available")
    checks = 0
    for a in fixed:
        for n in range(1, depth + 1):
            for w in sft.enumerate_words(c.Q, n):
                if not (c.Q.allows(a, w[0]) and c.Q.allows(w[-1], a)):
                    continue
                if checks == MAX_TYPICAL_CHECKS:
                    raise BudgetError(
                        f"no typical pair among the first {checks} checked, at a = {a} "
                        f"and length {n}; reduce the search depth")
                checks += 1
                report = check_typical(c, a, w)
                if report.passed:
                    return report
    return None


def _ranks(tables: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each row among the admissible words of its
    length: a walk through :func:`sft.child_tables`, one lookup per symbol."""
    ranks = rows[:, 0] - 1
    for m in range(1, rows.shape[1]):
        ranks = tables[m - 1][ranks, rows[:, m] - 1]
    return ranks


def _first_connector(Q: sft.TransitionMatrix) -> int:
    """The least connector length k at which every symbol pair (i, j)
    has a connector, Q^(k+1) > 0: the mixing rate minus one.  The QM
    search starts there, since every shorter k leaves some pair with
    no connector."""
    return max(Q.mixing_rate - 1, 0)


def _reads(n_max: int, k: int) -> range:
    """The word lengths a connector length k reads: |I| + k + |J| up to
    2 n_max + k, and the lengths of I and J below them."""
    return range(1, 2 * n_max + k + 1)


def qm_lengths(Q: sft.TransitionMatrix, n_max: int, k_max: int) -> tuple[int | None, range]:
    """The first connector length that :func:`qm_search` evaluates and
    the word lengths it reads when it stops there; (None, an empty
    range) when it evaluates none."""
    k = _first_connector(Q)
    return (k, _reads(n_max, k)) if n_max and k <= k_max else (None, range(0))


def _no_connector(Q: sft.TransitionMatrix, k: int) -> tuple[Word, Word]:
    """The first pair (I, J), in the order of the search, with no
    connector of length k < :func:`_first_connector`: the one-symbol
    words at the first zero of Q^(k+1), row by row."""
    P = Q.entries > 0
    for _ in range(k):
        P = (P.astype(np.int64) @ Q.entries) > 0
    i, j = np.argwhere(~P)[0].tolist()
    return (i + 1,), (j + 1,)


def qm_search(
    c: OneStepCocycle,
    n_max: int,
    k_max: int,
    budget: int = DEFAULT_WORD_BUDGET,
) -> QMReport:
    """Exhaustive search for simultaneous quasi-multiplicativity constants.

    For each connecting length k, computes
    C(k) = min over pairs I, J of words of length <= n_max of
           max over connecting K of length k with IKJ admissible of
           min over i of ||A_IKJ^{wedge i}|| / (||A_I^{wedge i}|| ||A_J^{wedge i}||).
    Returns the smallest k with C(k) > 1e-12; failure, including an empty
    search, is a report state.

    Every k below :func:`_first_connector` (the mixing rate - 1)
    leaves a pair with no connector, so C(k) is None there without a
    sweep.  From it, the connector lengths are evaluated one at a time,
    and the search stops at the first that passes.  Length k reads the
    norms of the lengths 1..2 n_max + k (:func:`log_wedge_norm_matrices`,
    so each failing k sweeps one more length) and the words of one
    level-synchronous pass (:func:`sft.word_arrays`).  The rows at
    length L = |I| + k + |J| are exactly the admissible words IKJ, and
    each maps to its (I, J) by the ranks of its prefix (one walk per L)
    and suffix; k then takes one scatter-max over all its splits.  Only
    the lengths a k reads count against ``budget``: one of more than
    ``budget`` words raises BudgetError before its sweep.
    """
    if not n_max:
        # no words, no pairs: an empty search bounds nothing
        return QMReport(n_max=n_max, k_max=k_max, k=None, C=None,
                        constants_by_k=dict.fromkeys(range(k_max + 1)), worst_pair=None)
    k_first = _first_connector(c.Q)
    constants: dict[int, float | None] = dict.fromkeys(range(min(k_first, k_max + 1)))
    chosen_k = chosen_C = worst_pair = None
    for k in range(k_first, k_max + 1):
        lengths = _reads(n_max, k)
        norms = {n: logs[:, :-1]
                 for n, logs in log_wedge_norm_matrices(c, lengths, budget).items()}
        arrays = sft.word_arrays(c.Q, lengths[-1])
        # built after the budget check; offset[a - 1]: row of the first
        # length-a word in the pair table
        offset = np.cumsum([0] + [len(arrays[a]) for a in range(n_max)])
        size = int(offset[-1])
        tables = sft.child_tables(c.Q, n_max)

        # the flat (I, J) pair indices and the ratios of every split
        index, ratio = [], []
        for L in range(k + 2, lengths[-1] + 1):
            W = arrays[L - 1]
            # the lengths a of I whose J has length b = L - k - a in 1..n_max
            splits = range(max(1, L - k - n_max), min(n_max, L - k - 1) + 1)
            # the prefix ranks of every length, from one :func:`_ranks` walk
            prefix = [W[:, 0] - 1]
            for m in range(1, splits[-1]):
                prefix.append(tables[m - 1][prefix[-1], W[:, m] - 1])
            for a in splits:
                b, I = L - k - a, prefix[a - 1]
                J = _ranks(tables, W[:, -b:])
                index.append((offset[a - 1] + I) * size + offset[b - 1] + J)
                # d = 1: no exterior degrees to check, norms multiply exactly
                ratio.append((norms[L] - norms[a][I] - norms[b][J]).min(
                    axis=1, initial=np.inf if c.d > 1 else 0.0))

        # best[I, J] = max over K of the ratio; -inf: no K makes IKJ admissible
        best = np.full(size * size, -np.inf)
        np.maximum.at(best, np.concatenate(index), np.concatenate(ratio))
        # the first minimal pair in (I, J) order
        ij = int(np.argmin(best))
        rows = divmod(ij, size)
        lens = np.searchsorted(offset, rows, side="right")
        pair = tuple(tuple(arrays[a - 1][r - offset[a - 1]].tolist())
                     for a, r in zip(lens, rows))
        log_c = best[ij]
        if log_c == -np.inf:
            constants[k], worst_pair = None, pair
            continue
        # a ratio past the float range keeps C = inf
        with np.errstate(over="ignore"):
            constants[k] = float(np.exp(log_c))
        if constants[k] > 1e-12:
            chosen_k, chosen_C, worst_pair = k, constants[k], pair
            break
    last_skipped = min(k_first, k_max + 1) - 1
    if worst_pair is None and chosen_k is None and last_skipped >= 0:
        worst_pair = _no_connector(c.Q, last_skipped)
    return QMReport(
        n_max=n_max, k_max=k_max, k=chosen_k, C=chosen_C,
        constants_by_k=constants, worst_pair=worst_pair,
    )
