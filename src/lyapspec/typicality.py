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

from . import matalg, sft
from .cocycle import OneStepCocycle, product
from .sft import Word

TOL_GAP = 1e-6
TOL_INDEP = 1e-8

#: condition (ii) enumerates subsets of {1..D}; refuse larger wedge spaces
MAX_WEDGE_DIM = 6


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
class LevelReport:
    """Outcome of the 1-typicality check at one exterior degree."""

    t: int
    gap_margin: float
    indep_margin: float
    eig_ok: bool
    indep_ok: bool

    @property
    def passed(self) -> bool:
        return self.eig_ok and self.indep_ok


@dataclass
class TypicalityReport:
    a: int
    w: Word
    levels: list[LevelReport]

    @property
    def passed(self) -> bool:
        return all(level.passed for level in self.levels)


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


def check_1typical(
    c: OneStepCocycle,
    t: int,
    loop: HolonomyLoop,
    tol_gap: float = TOL_GAP,
    tol_indep: float = TOL_INDEP,
) -> LevelReport:
    """1-typicality of the degree-t wedge cocycle at the given loop.

    Condition (i): the eigenvalues of A_a^{wedge t} are simple with
    pairwise distinct moduli (margin = min log-modulus gap).
    Condition (ii): for all index sets I, J of {1..D} with
    |I| + |J| <= D, the columns {W^{wedge t} v_i : i in I} union
    {v_j : j in J} stay uniformly independent (margin = min smallest
    singular value after column normalization).
    """
    if not 1 <= t <= c.d - 1:
        raise ValueError(f"wedge degree {t} outside 1..{c.d - 1}")
    Aat = matalg.wedge(c.generators[loop.a - 1], t)
    D = Aat.shape[0]
    if D > MAX_WEDGE_DIM:
        raise ValueError(
            f"wedge space dimension {D} > {MAX_WEDGE_DIM}: subset enumeration refused"
        )
    lam, vecs = _sorted_eigensystem(Aat)
    gaps = np.diff(np.log(np.abs(lam))[::-1])
    gap_margin = float(gaps.min()) if gaps.size else np.inf
    eig_ok = gap_margin > tol_gap
    if not eig_ok:
        return LevelReport(t=t, gap_margin=gap_margin, indep_margin=0.0,
                           eig_ok=False, indep_ok=False)

    # simple spectrum with distinct moduli is real; drop rounding imaginaries
    V = np.real(vecs)
    V /= np.linalg.norm(V, axis=0)
    Wt = matalg.wedge(loop.W, t)
    WV = Wt @ V
    WV /= np.linalg.norm(WV, axis=0)

    indep_margin = np.inf
    idx = range(D)
    for ni in range(0, D + 1):
        for I in combinations(idx, ni):
            for nj in range(0, D + 1 - ni):
                if ni + nj == 0:
                    continue
                for J in combinations(idx, nj):
                    cols = np.column_stack(
                        [WV[:, i] for i in I] + [V[:, j] for j in J]
                    )
                    smin = np.linalg.svd(cols, compute_uv=False)[-1]
                    indep_margin = min(indep_margin, float(smin))
    indep_ok = indep_margin > tol_indep
    return LevelReport(t=t, gap_margin=gap_margin, indep_margin=indep_margin,
                       eig_ok=eig_ok, indep_ok=indep_ok)


def check_typical(
    c: OneStepCocycle,
    a: int,
    w: Word,
    tol_gap: float = TOL_GAP,
    tol_indep: float = TOL_INDEP,
) -> TypicalityReport:
    """Aggregate the 1-typicality checks over t = 1..d-1 for one pair (a, w)."""
    loop = holonomy_loop(c, a, w)
    levels = [
        check_1typical(c, t, loop, tol_gap=tol_gap, tol_indep=tol_indep)
        for t in range(1, c.d)
    ]
    return TypicalityReport(a=a, w=tuple(w), levels=levels)


def search_typical_pair(
    c: OneStepCocycle, depth: int, tol_gap: float = TOL_GAP, tol_indep: float = TOL_INDEP
) -> TypicalityReport | None:
    """Try every fixed symbol a and core word w up to the given length;
    return the first passing report, or None on exhaustion.

    Raises ValueError when no symbol has a self-transition.
    """
    fixed = [a for a in range(1, c.k + 1) if c.Q.allows(a, a)]
    if not fixed:
        raise ValueError("no symbol a with Q[a,a] = 1: no fixed point available")
    for a in fixed:
        for n in range(1, depth + 1):
            for w in sft.enumerate_words(c.Q, n):
                if not (c.Q.allows(a, w[0]) and c.Q.allows(w[-1], a)):
                    continue
                report = check_typical(c, a, w, tol_gap=tol_gap, tol_indep=tol_indep)
                if report.passed:
                    return report
    return None


def _wedge_product(c: OneStepCocycle, word: Word, i: int) -> np.ndarray:
    M = np.eye(c.wedges[i][0].shape[0])
    for s in word:
        M = c.wedges[i][s - 1] @ M
    return M


def qm_search(
    c: OneStepCocycle,
    n_max: int,
    k_max: int,
    tol: float = 1e-12,
) -> QMReport:
    """Exhaustive search for simultaneous quasi-multiplicativity constants.

    For each connecting length k, computes
    C(k) = min over pairs I, J of words of length <= n_max of
           max over connecting K of length k with IKJ admissible of
           min over i of ||A_IKJ^{wedge i}|| / (||A_I^{wedge i}|| ||A_J^{wedge i}||).
    Returns the smallest k with C(k) > tol; failure, including an empty
    search, is a report state.
    """
    words: list[Word] = []
    for n in range(1, n_max + 1):
        words.extend(sft.enumerate_words(c.Q, n))
    wedge_prods = {
        (I, i): _wedge_product(c, I, i) for I in words for i in range(1, c.d)
    }
    norms = {key: matalg.log_spectral_norm(M) for key, M in wedge_prods.items()}

    constants: dict[int, float | None] = {}
    chosen_k = None
    chosen_C = None
    worst_pair = None
    for k in range(0, k_max + 1):
        connectors: list[Word] = [()] if k == 0 else list(sft.enumerate_words(c.Q, k))
        conn_prods = {
            (K, i): _wedge_product(c, K, i) for K in connectors for i in range(1, c.d)
        }
        log_c = np.inf
        k_worst = None
        # no words, no pairs: an empty search bounds nothing
        feasible = bool(words)
        for I in words:
            for J in words:
                best = -np.inf
                for K in connectors:
                    full = I + K + J
                    if not sft.is_admissible(c.Q, full):
                        continue
                    # d = 1: no exterior degrees to check, norms multiply exactly
                    ratio = 0.0 if c.d == 1 else np.inf
                    for i in range(1, c.d):
                        M = wedge_prods[(J, i)] @ conn_prods[(K, i)] @ wedge_prods[(I, i)]
                        num = matalg.log_spectral_norm(M)
                        ratio = min(ratio, num - norms[(I, i)] - norms[(J, i)])
                    best = max(best, ratio)
                if best == -np.inf:
                    feasible = False
                    k_worst = (I, J)
                    break
                if best < log_c:
                    log_c = best
                    k_worst = (I, J)
            if not feasible:
                break
        if not feasible:
            constants[k] = None
            worst_pair = k_worst
            continue
        C_k = float(np.exp(log_c))
        constants[k] = C_k
        if chosen_k is None and C_k > tol:
            chosen_k, chosen_C, worst_pair = k, C_k, k_worst
    return QMReport(
        n_max=n_max, k_max=k_max, k=chosen_k, C=chosen_C,
        constants_by_k=constants, worst_pair=worst_pair,
    )
