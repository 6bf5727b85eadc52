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

    ``C`` and ``k`` are the first connecting length with a positive
    constant over all tested word pairs; ``constants_by_k`` records the
    search, and ``worst_pair`` the minimizing (I, J) at the chosen k.
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

    Every norm is read from one profile sweep
    (:func:`log_wedge_norm_matrices`) of the lengths 1..2 n_max + k_max,
    and every word from one :func:`sft.word_arrays` pass: the rows at
    length L = |I| + k + |J| are exactly the admissible words IKJ, and
    each maps to its (I, J) by the ranks of its prefix (one walk per L)
    and suffix.  Each k takes one scatter-max over all its splits.  A
    length of more than ``budget`` words raises BudgetError before the
    sweep.
    """
    top = 2 * n_max + k_max if n_max and k_max >= 0 else n_max
    norms = {n: logs[:, :-1]
             for n, logs in log_wedge_norm_matrices(c, range(1, top + 1), budget).items()}
    arrays = sft.word_arrays(c.Q, top)
    # offset[a - 1]: row of the first length-a word in the pair table
    offset = np.cumsum([0] + [len(arrays[a]) for a in range(n_max)])
    size = int(offset[-1])
    tables = sft.child_tables(c.Q, n_max)

    # per k, the flat (I, J) pair indices and the ratios of every split
    scatter = {k: ([], []) for k in range(k_max + 1)}
    for L in range(2, top + 1):
        W = arrays[L - 1]
        # the lengths a of I (and b of J) that some k = L - a - b admits
        splits = range(max(1, L - k_max - n_max), min(n_max, L - 1) + 1)
        # the prefix ranks of every length, from one :func:`_ranks` walk
        prefix = [W[:, 0] - 1]
        for m in range(1, max(splits, default=1)):
            prefix.append(tables[m - 1][prefix[-1], W[:, m] - 1])
        for b in splits:
            J = _ranks(tables, W[:, -b:])
            for a in splits:
                k, I = L - a - b, prefix[a - 1]
                if 0 <= k <= k_max:
                    scatter[k][0].append((offset[a - 1] + I) * size + offset[b - 1] + J)
                    # d = 1: no exterior degrees to check, norms multiply exactly
                    scatter[k][1].append((norms[L] - norms[a][I] - norms[b][J]).min(
                        axis=1, initial=np.inf if c.d > 1 else 0.0))

    def pair(ij: int) -> tuple[Word, Word]:
        rows = divmod(ij, size)
        lens = np.searchsorted(offset, rows, side="right")
        return tuple(tuple(arrays[a - 1][r - offset[a - 1]].tolist()) for a, r in zip(lens, rows))

    constants: dict[int, float | None] = {}
    chosen_k = chosen_C = worst_pair = None
    for k in range(0, k_max + 1):
        if not size:
            # no words, no pairs: an empty search bounds nothing
            constants[k] = None
            continue
        # best[I, J] = max over K of the ratio; -inf: no K makes IKJ admissible
        best = np.full(size * size, -np.inf)
        np.maximum.at(best, *map(np.concatenate, scatter[k]))
        # the first minimal pair in (I, J) order
        ij = int(np.argmin(best))
        log_c = best[ij]
        if log_c == -np.inf:
            constants[k] = None
            worst_pair = pair(ij)
            continue
        # a ratio past the float range keeps C = inf
        with np.errstate(over="ignore"):
            C_k = float(np.exp(log_c))
        constants[k] = C_k
        if chosen_k is None and C_k > 1e-12:
            chosen_k, chosen_C, worst_pair = k, C_k, pair(ij)
    return QMReport(
        n_max=n_max, k_max=k_max, k=chosen_k, C=chosen_C,
        constants_by_k=constants, worst_pair=worst_pair,
    )
