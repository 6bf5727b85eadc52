"""Typicality checking via explicit holonomy loops, and an exhaustive
search for simultaneous quasi-multiplicativity constants.

For one-step cocycles the local holonomies are the identity, so the
holonomy loop around a homoclinic orbit of a fixed symbol reduces to a
finite matrix product computed here directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import sft
from .cocycle import BudgetError, OneStepCocycle, log_wedge_norm_matrices, product
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
    """Empirical simultaneous quasi-multiplicativity constants: ``C``
    and ``k`` are the first connecting length with a constant above
    1e-12 over all tested word pairs, both None when no length passes."""

    k: int | None
    C: float | None

    @property
    def found(self) -> bool:
        return self.k is not None


def holonomy_loop(c: OneStepCocycle, a: int, w: Word) -> np.ndarray:
    """Return matrix W = A_a^{-(|w|+1)} A_{a w} of the homoclinic loop
    through the fixed symbol a with core word w: the one-step reduction
    of the stable/unstable holonomy composition around the orbit of a·w·a."""
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
    return np.linalg.matrix_power(np.linalg.inv(Aa), len(w) + 1) @ M


def _gap_margins(c: OneStepCocycle, a: int) -> list[float]:
    """Pinching margins of the symbol a: the least gap of the sorted
    eigenvalue log-moduli of A_a^{wedge t}, t = 1..d-1; refuses dim > MAX_DIM."""
    if c.d > MAX_DIM:
        raise ValueError(f"dim {c.d} > {MAX_DIM}: twisting check refused")
    return [float(np.diff(np.sort(np.log(np.abs(np.linalg.eigvals(c.wedges[t][a - 1]))))).min())
            for t in range(1, c.d)]


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
    w = tuple(w)
    W = holonomy_loop(c, a, w)
    gaps = _gap_margins(c, a)
    twist = 0.0
    if min(gaps, default=np.inf) > TOL_GAP:
        # a spectrum with distinct moduli is real: drop rounding imaginaries
        twist = _twist_margin(W, np.real(np.linalg.eig(c.generators[a - 1])[1]))
    return TypicalityReport(a=a, w=w, gap_margins=gaps, twist_margin=twist)


def search_typical_pair(c: OneStepCocycle, depth: int) -> TypicalityReport | None:
    """Try every fixed symbol a and core word w up to the given length;
    return the first passing report, or None on exhaustion.  A symbol
    whose pinching fails is skipped without a check: no w passes there.

    Raises ValueError when no symbol has a self-transition, and
    BudgetError when a pass would need more than MAX_TYPICAL_CHECKS checks.
    """
    fixed = [a for a in range(1, c.k + 1) if c.Q.allows(a, a)]
    if not fixed:
        raise ValueError("no symbol a with Q[a,a] = 1: no fixed point available")
    checks = 0
    for a in fixed:
        if not min(_gap_margins(c, a), default=np.inf) > TOL_GAP:
            continue
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


def qm_search(c: OneStepCocycle, n_max: int, k_max: int) -> QMReport:
    """Exhaustive search for simultaneous quasi-multiplicativity constants.

    For each connecting length k, computes
    C(k) = min over pairs I, J of words of length <= n_max of
           max over connecting K of length k with IKJ admissible of
           min over i of ||A_IKJ^{wedge i}|| / (||A_I^{wedge i}|| ||A_J^{wedge i}||).
    Returns the smallest k with C(k) > 1e-12; failure, including an empty
    search, is a report state.

    k runs up from the mixing rate - 1: below it Q^(k+1) has a zero, so
    some symbol pair has no connector.  Each k reads the norms of the
    lengths 1..2 n_max + k (:func:`log_wedge_norm_matrices`, so a failing
    k sweeps one more length; one of more than ``c.budget`` words raises
    BudgetError before its sweep) and their words (:func:`sft.word_arrays`).
    The split (a, b) = (|I|, |J|) reads only the length a + k + b, whose
    rows are exactly its words IKJ: the :func:`_ranks` of their prefixes
    and suffixes give their pairs, one scatter-max per split the best K
    of each pair, and C(k) is the exponential of the least of these over
    all splits.
    """
    k = max(c.Q.mixing_rate - 1, 0)
    while n_max and k <= k_max:
        lengths = range(1, 2 * n_max + k + 1)
        norms = {n: x[:, :-1] for n, x in log_wedge_norm_matrices(c, lengths).items()}
        # built after the budget check
        arrays = sft.word_arrays(c.Q, lengths[-1])
        tables = sft.child_tables(c.Q, n_max)
        worst = np.inf
        for a in range(1, n_max + 1):
            for b in range(1, n_max + 1):
                W, cols = arrays[a + k + b - 1], len(arrays[b - 1])
                I, J = _ranks(tables, W[:, :a]), _ranks(tables, W[:, -b:])
                # d = 1: no exterior degrees to check, norms multiply exactly
                ratio = (norms[a + k + b] - norms[a][I] - norms[b][J]).min(
                    axis=1, initial=np.inf if c.d > 1 else 0.0)
                # best[I * cols + J] = max over K of the ratio; -inf is
                # only the identity of the max, since every pair has a K
                best = np.full(len(arrays[a - 1]) * cols, -np.inf)
                np.maximum.at(best, I * cols + J, ratio)
                worst = min(worst, best.min())
        # a ratio past the float range keeps C = inf
        with np.errstate(over="ignore"):
            C = float(np.exp(worst))
        if C > 1e-12:
            return QMReport(k=k, C=C)
        k += 1
    return QMReport(k=None, C=None)
