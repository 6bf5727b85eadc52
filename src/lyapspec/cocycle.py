"""One-step matrix cocycles: validated generator tuples, ordered word
products, stable per-word singular profiles, and periodic-orbit
exponents.

The product over a word I = (i_0, ..., i_{n-1}) is A_{i_{n-1}} ... A_{i_0}:
the matrix of the last symbol sits leftmost.  Every module relies on
this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matalg, sft
from .sft import TransitionMatrix, Word

#: refuse plain products beyond this length; use profiles instead
MAX_PRODUCT_LENGTH = 30

#: default enumeration budget (number of words per sweep)
DEFAULT_WORD_BUDGET = 20_000_000

#: frontier rows per step of a profile sweep, and per finish batch;
#: bounds its working set (a row holds sum_t C(d,t)^2 floats)
BLOCK_ROWS = 1 << 10

#: power steps before the Rayleigh quotient of a D >= 3 spectral norm
POWER_STEPS = 4

#: largest Kato-Temple bound on lam_1 - rho, relative to rho, at which a
#: D >= 3 spectral norm keeps its Rayleigh quotient rho (the root then
#: has half this relative error); other rows go to LAPACK
RAYLEIGH_RTOL = 1e-14


class BudgetError(ValueError):
    """An enumeration would exceed the word budget."""


@dataclass
class OneStepCocycle:
    """Invertible generator tuple A_1..A_k over a validated mixing SFT.

    Wedge representatives of every generator are cached for t = 1..d
    at construction (``wedges[t][s - 1]``, stacked per t), and so is
    ``log_det[s - 1]`` = log|det A_s|, the log-norm of the top degree; a
    generator with a non-finite wedge or log|det| is refused.  Per-length
    sweeps (log wedge norms, profiles) are cached on demand.
    """

    Q: TransitionMatrix
    generators: list[np.ndarray]
    wedges: dict[int, np.ndarray] = field(init=False, repr=False)
    log_det: np.ndarray = field(init=False, repr=False)
    _profile_cache: dict[int, np.ndarray] = field(init=False, repr=False, default_factory=dict)
    _norm_cache: dict[int, np.ndarray] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.generators = [matalg.check_finite(A) for A in self.generators]
        if len(self.generators) != self.Q.k:
            raise ValueError(
                f"{len(self.generators)} generators for alphabet of size {self.Q.k}"
            )
        d = self.generators[0].shape[0]
        for s, A in enumerate(self.generators, start=1):
            if A.shape != (d, d):
                raise ValueError(f"generator {s} has shape {A.shape}, expected {(d, d)}")
            if not matalg.is_invertible(A):
                raise ValueError(f"generator {s} is not invertible")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.wedges = {t: np.stack([matalg.wedge(A, t) for A in self.generators])
                           for t in range(1, d + 1)}
            self.log_det = np.log(np.abs(self.wedges[d][:, 0, 0]))
        entries = np.hstack([W.reshape(len(W), -1) for W in self.wedges.values()])
        bad = np.flatnonzero(~np.isfinite(np.column_stack([entries, self.log_det])).all(axis=1))
        if bad.size:
            raise ValueError(f"generator {bad[0] + 1} has an exterior power beyond the float range")

    @property
    def k(self) -> int:
        return self.Q.k

    @property
    def d(self) -> int:
        return self.generators[0].shape[0]


def product(c: OneStepCocycle, word: Word) -> np.ndarray:
    """The word product A_{i_{n-1}} ... A_{i_0}; identity for the empty word."""
    if word and not sft.is_admissible(c.Q, word):
        raise ValueError(f"word {word} is not admissible")
    return word_products(c, np.array(word, dtype=np.intp).reshape(1, -1))[0]


def word_products(c: OneStepCocycle, words: np.ndarray) -> np.ndarray:
    """:func:`product` of every row of an (N, n) word array, unchecked for
    admissibility, as an (N, d, d) stack of one stacked matmul per column.
    Words past MAX_PRODUCT_LENGTH, or an entry past 1e300 or NaN, raise ValueError."""
    if words.shape[1] > MAX_PRODUCT_LENGTH:
        raise ValueError(f"plain products are limited to length {MAX_PRODUCT_LENGTH}; use profiles")
    mats = np.repeat(np.eye(c.d)[None], len(words), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for col in words.T:
            mats = c.wedges[1][col - 1] @ mats
        if not np.abs(mats).max(initial=0.0) <= 1e300:
            raise ValueError("word product entries exceed 1e300")
    return mats


def _advance(c: OneStepCocycle, front, par: np.ndarray, sym: np.ndarray):
    """Extend frontier row par[j] by symbol sym[j].  A frontier holds one
    stack of wedge products per degree t < d and log accumulators of
    shape (rows, d); products are rescaled to max-entry 1, scale
    accumulated.  Degree d is 1x1 and multiplicative: its accumulator
    adds log|det A_s| and it keeps no stack."""
    mats, laccs = front
    new_mats, new_laccs = [], np.empty((len(par), c.d))
    for ti, V in enumerate(mats):
        W = c.wedges[ti + 1][sym - 1] @ V[par]
        nrm = np.abs(W).max(axis=(1, 2))
        W /= nrm[:, None, None]
        new_laccs[:, ti] = laccs[par, ti] + np.log(nrm)
        new_mats.append(W)
    new_laccs[:, -1] = laccs[par, -1] + c.log_det[sym - 1]
    return new_mats, new_laccs


def _root(c: OneStepCocycle):
    """The frontier of the empty word."""
    return [np.eye(c.wedges[t].shape[1])[None] for t in range(1, c.d)], np.zeros((1, c.d))


def _spectral_norm(V: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (N, D, D) stack.
    For D = 2 the closed form (|(p+s, q-r)| + |(p-s, q+r)|)/2, a sum of
    nonnegative terms; otherwise the root of the top eigenvalue lam_1 of
    the Gram matrix G = V^T V (rows of max-entry 1 keep it from
    overflowing).

    For D >= 3, POWER_STEPS power steps from the row of G with the
    largest diagonal entry give a unit x, its Rayleigh quotient
    rho = x^T G x and residual r = Gx - rho x.  G is positive
    semidefinite, so lam_2 <= tr G - rho, and the Kato-Temple bound
    gives 0 <= lam_1 - rho <= |r|^2 / (2 rho - tr G) when 2 rho > tr G.
    A row keeps rho when that bound, with |r| raised by D eps tr G for
    the rounding of r, is below RAYLEIGH_RTOL rho; the other rows, among
    them every row with lam_1 = lam_2, take LAPACK's ``eigvalsh``.
    """
    D = V.shape[-1]
    if D == 2:
        p, q, r, s = V[:, 0, 0], V[:, 0, 1], V[:, 1, 0], V[:, 1, 1]
        return (np.hypot(p + s, q - r) + np.hypot(p - s, q + r)) / 2
    G = np.ascontiguousarray(np.swapaxes(V, 1, 2)) @ V
    diag = np.einsum("nii->ni", G)
    x = G[np.arange(len(G)), np.argmax(diag, axis=1)]
    for _ in range(POWER_STEPS):
        x = np.einsum("nij,nj->ni", G, x)
    x /= np.sqrt(np.einsum("ni,ni->n", x, x))[:, None]
    Gx = np.einsum("nij,nj->ni", G, x)
    rho = np.einsum("ni,ni->n", x, Gx)
    r = Gx - rho[:, None] * x
    trace = diag.sum(axis=1)
    r_norm = np.sqrt(np.einsum("ni,ni->n", r, r)) + D * np.finfo(float).eps * trace
    lapack = ~(r_norm**2 < RAYLEIGH_RTOL * rho * (2 * rho - trace))
    if lapack.any():
        rho[lapack] = np.linalg.eigvalsh(G[lapack])[:, -1]
    return np.sqrt(rho)


def _finish(front) -> np.ndarray:
    """log ||A_I^{wedge t}||, t = 1..d, of the frontier rows: accumulator
    plus log spectral norm (degree d has no stack, so its column is the
    accumulator itself)."""
    mats, laccs = front
    logs = laccs.copy()
    for ti, V in enumerate(mats):
        logs[:, ti] += np.log(_spectral_norm(V))
    return logs


def _profiles(logs: np.ndarray, n: int) -> np.ndarray:
    """Profiles from log wedge norms: their differences over t are
    n log sigma_t."""
    return np.diff(logs, axis=1, prepend=0.0) / n


def profile(c: OneStepCocycle, word: Word) -> np.ndarray:
    """The singular profile (1/n)(log sigma_1, ..., log sigma_d) of A_I:
    the sweep kernel of :func:`profile_matrix` on a one-row frontier."""
    n = len(word)
    if n < 1:
        raise ValueError("profile needs a nonempty word")
    if not sft.is_admissible(c.Q, word):
        raise ValueError(f"word {word} is not admissible")
    front = _root(c)
    for s in word:
        front = _advance(c, front, np.zeros(1, dtype=np.intp), np.array([s]))
    return _profiles(_finish(front), n)[0]


def _sweep(c: OneStepCocycle, lengths) -> dict[int, np.ndarray]:
    """log ||A_I^{wedge t}|| of all admissible words of each length n in
    ``lengths``, in lexicographic word order, as {n: (#L_n, d) array}.

    One level-synchronous sweep to the longest length: each step extends
    up to BLOCK_ROWS consecutive frontier rows by one symbol, in
    lexicographic (parent, symbol) order; a longer frontier runs block
    by block, first to last, so the blocks of one level pop in word
    order.  Popped blocks of requested levels share :func:`_finish` calls
    of at most BLOCK_ROWS rows; the finish works row by row, so each
    level gets the values of a finish per block, in word order.
    """
    out = {n: np.empty((sft.count_words(c.Q, n), c.d)) for n in lengths}
    row = dict.fromkeys(out, 0)
    top = max(out)
    batch = []  # popped (depth, frontier) blocks of requested levels, to finish

    def finish_batch():
        fronts = [front for _, front in batch]
        logs = _finish(fronts[0] if len(fronts) == 1 else (
            [np.concatenate(stack) for stack in zip(*(mats for mats, _ in fronts))],
            np.concatenate([laccs for _, laccs in fronts])))
        for depth, (_, laccs) in batch:
            out[depth][row[depth]:row[depth] + len(laccs)], logs = np.split(logs, [len(laccs)])
            row[depth] += len(laccs)
        batch.clear()

    # LIFO work list of (depth, parent frontier, parent rows, symbols)
    todo = [(0, _root(c), np.zeros(c.k, dtype=np.intp), np.arange(1, c.k + 1))]
    while todo:
        depth, parent, par, sym = todo.pop()
        front = _advance(c, parent, par, sym)
        depth += 1
        if depth in out:
            if batch and sum(len(laccs) for _, (_, laccs) in batch) + len(sym) > BLOCK_ROWS:
                finish_batch()
            batch.append((depth, front))
        if depth == top:
            continue
        par, col = np.nonzero(c.Q.entries[sym - 1])
        for start in reversed(range(0, len(par), BLOCK_ROWS)):
            block = slice(start, start + BLOCK_ROWS)
            todo.append((depth, front, par[block], col[block] + 1))
    finish_batch()
    return out


def _check_budget(c: OneStepCocycle, n: int, cached: np.ndarray | None, budget: int):
    total = sft.count_words(c.Q, n) if cached is None else len(cached)
    if total > budget:
        raise BudgetError(
            f"#L_{n} = {total} words exceeds the budget of {budget}; reduce n"
        )


def _missing(c: OneStepCocycle, cache: dict, lengths, budget: int) -> list[int]:
    """The lengths, given in increasing order, that ``cache`` lacks.
    Every length is checked against the budget first, in that order, so
    a BudgetError names the shortest length over it."""
    for n in lengths:
        _check_budget(c, n, cache.get(n), budget)
    return [n for n in lengths if n not in cache]


def profile_matrices(c: OneStepCocycle, lengths,
                     budget: int = DEFAULT_WORD_BUDGET) -> dict[int, np.ndarray]:
    """:func:`profile_matrix` at every length in ``lengths``, as
    {n: array}.  The missing lengths come from one sweep, except those
    that :func:`log_wedge_norms` has swept, which are not swept again.
    """
    lengths = sorted(set(lengths))
    missing = _missing(c, c._profile_cache, lengths, budget)
    unswept = [n for n in missing if n not in c._norm_cache]
    swept = _sweep(c, unswept) if unswept else {}
    for n in missing:
        logs = swept[n] if n in swept else c._norm_cache[n]
        c._profile_cache[n] = _profiles(logs, n)
    return {n: c._profile_cache[n] for n in lengths}


def profile_matrix(c: OneStepCocycle, n: int, budget: int = DEFAULT_WORD_BUDGET) -> np.ndarray:
    """Profiles of all admissible words of length n, in lexicographic
    word order, as a (#L_n, d) array.  Cached per length; a hit returns
    the cached array itself, and the budget still applies to it.
    """
    out = c._profile_cache.get(n)
    if out is None:
        return profile_matrices(c, (n,), budget)[n]
    _check_budget(c, n, out, budget)
    return out


def log_wedge_norm_matrices(c: OneStepCocycle, lengths,
                            budget: int = DEFAULT_WORD_BUDGET) -> dict[int, np.ndarray]:
    """:func:`log_wedge_norms` at every length in ``lengths``, as
    {n: array}; the missing lengths come from one sweep."""
    lengths = sorted(set(lengths))
    missing = _missing(c, c._norm_cache, lengths, budget)
    if missing:
        c._norm_cache.update(_sweep(c, missing))
    return {n: c._norm_cache[n] for n in lengths}


def log_wedge_norms(c: OneStepCocycle, n: int, budget: int = DEFAULT_WORD_BUDGET) -> np.ndarray:
    """log ||A_I^{wedge t}||, t = 1..d, of all admissible words of length
    n in sweep order, as a (#L_n, d) array; column d is the word-ordered
    sum of log|det A_s|.  Cached per length; a hit returns the cached
    array itself."""
    return log_wedge_norm_matrices(c, (n,), budget)[n]


def eigen_exponents(c: OneStepCocycle, word: Word) -> np.ndarray:
    """Per-symbol log-moduli of the eigenvalues of A_I for a periodic
    word (Lyapunov exponents of the orbit with itinerary I^infinity),
    sorted non-increasing.
    """
    if not word:
        raise ValueError("need a nonempty word")
    if not sft.is_admissible(c.Q, word):
        raise ValueError(f"word {word} is not admissible")
    if not c.Q.allows(word[-1], word[0]):
        raise ValueError(f"word {word} does not close up periodically")
    M = product(c, word)
    lam = np.linalg.eigvals(M)
    return np.sort(np.log(np.abs(lam)))[::-1] / len(word)
