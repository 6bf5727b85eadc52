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

#: refuse plain products beyond this length
MAX_PRODUCT_LENGTH = 30

#: default word budget: most words at the longest length of a sweep
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
    at construction (``wedges[t][s - 1]``, stacked per t); a generator
    with a non-finite wedge or log|det| is refused.  The sweep steps
    with ``unit_wedges[t]``, t < d, the wedges divided by their spectral
    norms, and adds ``log_norms[s - 1, t - 1]`` = log||A_s^{wedge t}||
    (last column log|det A_s|, the log-norm of the top degree); it
    rescales its products every ``rescale_every`` levels
    (:func:`matalg.rescale_period` of the largest condition number of
    those wedges).  One cache holds the log wedge norms of every swept
    length; pressure, domination and the QM search read them as they
    are, and the profiles that the Legendre solver and the oracle need
    are their differences, derived on each call; a sweep that adds to it
    resumes from the deepest level of the last one (:func:`_sweep`).
    ``budget`` bounds that cache: the most words at the longest length
    of one sweep (:func:`log_wedge_norm_matrices`).
    """

    Q: TransitionMatrix
    generators: list[np.ndarray]
    budget: int = DEFAULT_WORD_BUDGET
    wedges: dict[int, np.ndarray] = field(init=False, repr=False)
    unit_wedges: dict[int, np.ndarray] = field(init=False, repr=False)
    log_norms: np.ndarray = field(init=False, repr=False)
    rescale_every: int = field(init=False, repr=False)
    _norm_cache: dict[int, np.ndarray] = field(init=False, repr=False, default_factory=dict)
    _frontier: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        gens = self.generators = [np.asarray(A, dtype=float) for A in self.generators]
        if not np.isfinite(np.concatenate([A.ravel() for A in gens] or [np.empty(0)])).all():
            raise ValueError("matrix has non-finite entries")
        if len(gens) != self.Q.k:
            raise ValueError(f"{len(gens)} generators for alphabet of size {self.Q.k}")
        d = gens[0].shape[0]
        # the generators before the first of another shape, in one stacked determinant
        shaped = next((s for s, A in enumerate(gens) if A.shape != (d, d)), len(gens))
        stack = np.stack(gens[:shaped]) if shaped else np.empty((0, d, d))
        singular = np.flatnonzero(matalg.det_margin(stack) <= matalg.DET_RTOL)
        if singular.size:
            raise ValueError(f"generator {singular[0] + 1} is not invertible")
        if shaped < len(gens):
            raise ValueError(
                f"generator {shaped + 1} has shape {gens[shaped].shape}, expected {(d, d)}")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.wedges = {t: matalg.wedge(stack, t) for t in range(1, d + 1)}
            log_det = np.log(np.abs(self.wedges[d][:, 0, 0]))
        entries = np.hstack([W.reshape(len(W), -1) for W in self.wedges.values()])
        bad = np.flatnonzero(~np.isfinite(np.column_stack([entries, log_det])).all(axis=1))
        if bad.size:
            raise ValueError(f"generator {bad[0] + 1} has an exterior power beyond the float range")
        sv = {t: np.linalg.svd(self.wedges[t], compute_uv=False) for t in range(1, d)}
        self.unit_wedges = {t: self.wedges[t] / s[:, :1, None] for t, s in sv.items()}
        self.log_norms = np.column_stack([*(np.log(s[:, 0]) for s in sv.values()), log_det])
        with np.errstate(divide="ignore"):  # an underflowed sigma_min rescales every level
            self.rescale_every = matalg.rescale_period(
                max((float(np.log(s[:, 0] / s[:, -1]).max()) for s in sv.values()), default=0.0))

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
        raise ValueError(f"a word product of length {words.shape[1]} is past the limit of "
                         f"{MAX_PRODUCT_LENGTH} on plain products")
    mats = np.repeat(np.eye(c.d)[None], len(words), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for col in words.T:
            mats = c.wedges[1][col - 1] @ mats
        if not np.abs(mats).max(initial=0.0) <= 1e300:
            raise ValueError("word product entries exceed 1e300")
    return mats


def _advance(c: OneStepCocycle, front, par: np.ndarray, sym: np.ndarray, depth: int):
    """Extend frontier row par[j] by symbol sym[j], to length ``depth``.
    A frontier holds one stack of products of unit-norm wedges per
    degree t < d and log accumulators of shape (rows, d); each step is
    one stacked matmul per degree and adds log||A_s^{wedge t}|| to every
    accumulator (degree d, 1x1 and multiplicative, keeps no stack: its
    column adds log|det A_s|).  At a multiple of ``c.rescale_every`` the
    products are divided by their largest |entry|, that scale accumulated,
    so a frontier between rescales has entries within [ORBIT_FLOOR / D, D]."""
    mats, laccs = front
    new_laccs = laccs[par] + c.log_norms[sym - 1]
    new_mats = [c.unit_wedges[t][sym - 1] @ V[par] for t, V in enumerate(mats, start=1)]
    if depth % c.rescale_every == 0:
        for ti, W in enumerate(new_mats):
            nrm = np.abs(W).max(axis=(1, 2))
            W /= nrm[:, None, None]
            new_laccs[:, ti] += np.log(nrm)
    return new_mats, new_laccs


def _root(c: OneStepCocycle):
    """The empty word as a kept level: depth 0, its frontier, any next symbol."""
    eyes = [np.eye(c.wedges[t].shape[1])[None] for t in range(1, c.d)]
    return 0, (eyes, np.zeros((1, c.d))), np.ones((1, c.k), dtype=bool)


def _spectral_norm(V: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (N, D, D) stack, at
    any scale.  For D = 2 the closed form (|(p+s, q-r)| + |(p-s, q+r)|)/2,
    a sum of nonnegative terms; otherwise the root of the top eigenvalue
    lam_1 of the Gram matrix G = V^T V, found on S = G / tr G, whose
    eigenvalues lie in [0, 1] however small the rows are.

    A unit x (:func:`_rayleigh3` for D = 3, :func:`_rayleigh` above)
    gives the Rayleigh quotient rho = x^T S x and residual r = Sx - rho x.
    S is positive semidefinite, so lam_2 <= tr S - rho, and the
    Kato-Temple bound gives 0 <= lam_1 - rho <= |r|^2 / (2 rho - tr S)
    when 2 rho > tr S.  A row keeps rho tr G when that bound, with |r|
    raised by D eps tr S for the rounding of r, is below RAYLEIGH_RTOL
    rho; the other rows, among them every row with lam_1 = lam_2, take
    LAPACK's ``eigvalsh`` of their unscaled G.
    """
    D = V.shape[-1]
    if D == 2:
        p, q, r, s = V[:, 0, 0], V[:, 0, 1], V[:, 1, 0], V[:, 1, 1]
        return (np.hypot(p + s, q - r) + np.hypot(p - s, q + r)) / 2
    G = None if D == 3 else _gram(V)
    rho, r_sq, tr_s, trace = _rayleigh3(V) if G is None else _rayleigh(G)
    r_norm = np.sqrt(r_sq) + D * np.finfo(float).eps * tr_s
    lapack = ~(r_norm**2 < RAYLEIGH_RTOL * rho * (2 * rho - tr_s))
    lam = rho * trace
    if lapack.any():
        lam[lapack] = np.linalg.eigvalsh(_gram(V[lapack]) if G is None else G[lapack])[:, -1]
    return np.sqrt(lam)


def _gram(V: np.ndarray) -> np.ndarray:
    """The Gram matrices V^T V of a stack, the same bits for any subset of it."""
    return np.ascontiguousarray(np.swapaxes(V, 1, 2)) @ V


def _rayleigh(G: np.ndarray):
    """rho, |r|^2 and tr S of :func:`_spectral_norm` for D >= 4, and tr G,
    from the Gram matrices G: x is POWER_STEPS power steps from the row
    of S with the largest diagonal entry, normalised.  S is not formed:
    each product with G is divided by tr G."""
    trace = np.einsum("nii->n", G)
    inv = (1 / trace)[:, None]
    x = G[np.arange(len(G)), np.argmax(np.einsum("nii->ni", G), axis=1)] * inv
    for _ in range(POWER_STEPS):
        x = np.einsum("nij,nj->ni", G, x)
        x *= inv
    x /= np.sqrt(np.einsum("ni,ni->n", x, x))[:, None]
    Sx = np.einsum("nij,nj->ni", G, x)
    Sx *= inv
    rho = np.einsum("ni,ni->n", x, Sx)
    r = Sx - rho[:, None] * x
    return rho, np.einsum("ni,ni->n", r, r), 1.0, trace


def _rayleigh3(V: np.ndarray):
    """rho, |r|^2 and tr S of :func:`_spectral_norm` for D = 3, and tr G,
    in elementwise operations on the six entries of S, held in one
    (6, N) array, with x from :func:`_top_eigvec3`."""
    v = V.reshape(-1, 9).T  # v[3k + i] = V[:, k, i]
    S = np.empty((6, len(V)))
    for g, (i, j) in zip(S, ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))):
        np.multiply(v[i], v[j], out=g)
        g += v[3 + i] * v[3 + j]
        g += v[6 + i] * v[6 + j]
    trace = S[0] + S[3] + S[5]
    for g in S:  # row by row: a broadcast division would copy S
        g /= trace
    a, b, c, d, e, f = S
    x0, x1, x2 = _top_eigvec3(S)
    s0, s1, s2 = a * x0 + b * x1 + c * x2, b * x0 + d * x1 + e * x2, c * x0 + e * x1 + f * x2
    rho = x0 * s0 + x1 * s1 + x2 * s2
    r0, r1, r2 = s0 - rho * x0, s1 - rho * x1, s2 - rho * x2
    return rho, r0 * r0 + r1 * r1 + r2 * r2, a + d + f, trace


def _top_eigvec3(S: np.ndarray):
    """Unit top eigenvectors of the symmetric 3 x 3 matrices with entries
    (a, b, c, d, e, f) = S (rows (a, b, c), (b, d, e), (c, e, f)), as
    three arrays: the largest cross product of two rows of S - lam_1 I,
    with lam_1 from Smith's trigonometric formula (Comm. ACM 4, 1961).
    Where every cross product vanishes, as where lam_1 = lam_2, they
    are NaN."""
    a, b, c, d, e, f = S
    q = (a + d + f) / 3
    a0, d0, f0 = a - q, d - q, f - q
    p = np.sqrt((a0 * a0 + d0 * d0 + f0 * f0 + 2 * (b * b + c * c + e * e)) / 6)
    det = a0 * (d0 * f0 - e * e) - b * (b * f0 - e * c) + c * (b * e - d0 * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = q + 2 * p * np.cos(np.arccos(np.clip(det / (2 * p**3), -1.0, 1.0)) / 3)
    del q, a0, d0, f0, p, det  # freed before the cross products, which set the peak memory
    M = ((a - lam, b, c), (b, d - lam, e), (c, e, f - lam))

    def cross(u, w):
        y = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        return y, y[0] * y[0] + y[1] * y[1] + y[2] * y[2]

    x, sq = cross(M[0], M[1])
    for u, w in ((0, 2), (1, 2)):
        y, y_sq = cross(M[u], M[w])
        pick = y_sq > sq
        for xi, yi in zip(x, y):
            np.copyto(xi, yi, where=pick)
        np.maximum(sq, y_sq, out=sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.sqrt(sq)
        for xi in x:
            xi /= norm
    return x


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


def _sweep(c: OneStepCocycle, lengths) -> dict[int, np.ndarray]:
    """log ||A_I^{wedge t}|| of all admissible words of each length n in
    ``lengths``, in lexicographic word order, as {n: (#L_n, d) array}.

    One level-synchronous sweep to the longest length: each step extends
    up to BLOCK_ROWS consecutive frontier rows by one symbol, in
    lexicographic (parent, symbol) order, and rescales them at the
    depths that are multiples of ``c.rescale_every``; a longer frontier
    runs block by block, first to last, so the blocks of one level pop
    in word order.  Popped blocks of requested levels share
    :func:`_finish` calls of at most BLOCK_ROWS rows; the steps and the
    finish work row by row, so each level gets the values of one word
    at a time, whatever the other lengths and the blocks.

    It starts from ``c._frontier``, the last sweep's deepest level, when
    every length lies past it, else from the empty word, and keeps its
    own deepest level there (with the next symbols its rows allow) when
    that level is one block, else nothing.  A step reads only its rows
    and depth, so resuming gives the bits of a sweep from the empty word.
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

    todo = []  # LIFO work list of (depth, parent frontier, parent rows, symbols)

    def push(depth, front, successors):
        # the children of the frontier rows, whose allowed next symbols
        # are the rows of ``successors``, in blocks, the first on top
        par, col = np.nonzero(successors)
        for start in reversed(range(0, len(par), BLOCK_ROWS)):
            block = slice(start, start + BLOCK_ROWS)
            todo.append((depth, front, par[block], col[block] + 1))

    kept, c._frontier = c._frontier, None
    push(*(kept if kept is not None and kept[0] < min(out) else _root(c)))
    while todo:
        depth, parent, par, sym = todo.pop()
        depth += 1
        front = _advance(c, parent, par, sym, depth)
        if depth in out:
            if batch and sum(len(laccs) for _, (_, laccs) in batch) + len(sym) > BLOCK_ROWS:
                finish_batch()
            batch.append((depth, front))
        if depth < top:
            push(depth, front, c.Q.entries[sym - 1])
        elif len(sym) == len(out[top]):
            c._frontier = depth, front, c.Q.entries[sym - 1]
    finish_batch()
    return out


def _check_grid(grid, d: int, name: str) -> np.ndarray:
    """``grid`` as a float array of G finite rows of d coordinates; any
    other shape raises ValueError, so a d = 1 grid is never read as one
    point, and so does the first row with a NaN or infinite coordinate."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != d:
        raise ValueError(f"{name} must be a (G, {d}) array, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        bad = int(np.argmin(np.isfinite(grid).all(axis=1)))
        raise ValueError(f"{name} row {bad} is not finite: {grid[bad].tolist()}")
    return grid


def check_budget(Q: TransitionMatrix, n: int, budget: int) -> None:
    """Refuse more than ``budget`` words at length n, naming #L_n where
    :func:`sft.length_past` counts it, else the first length past it."""
    if m := sft.length_past(Q, n, budget):
        count = f" = {sft.count_words(Q, n)}" if m == n else ""
        raise BudgetError(f"#L_{n}{count} words exceeds the budget of {budget}"
                          + ("" if m == n else f": #L_{m} already does"))


def log_wedge_norm_matrices(c: OneStepCocycle, lengths) -> dict[int, np.ndarray]:
    """log ||A_I^{wedge t}||, t = 1..d, of all admissible words of each
    length n in ``lengths``, in sweep order, as {n: (#L_n, d) array};
    column d is the word-ordered sum of log|det A_s|.  After the one word
    budget check of a sweep, :func:`check_budget` at the longest length,
    one :func:`_sweep` adds the lengths the cache lacks; a hit returns
    the cached array itself."""
    lengths = sorted(set(lengths))
    if lengths:
        check_budget(c.Q, lengths[-1], c.budget)
    missing = [n for n in lengths if n not in c._norm_cache]
    if missing:
        c._norm_cache.update(_sweep(c, missing))
    return {n: c._norm_cache[n] for n in lengths}


def profile_matrix(c: OneStepCocycle, n: int) -> np.ndarray:
    """Profiles of all admissible words of length n, in lexicographic
    word order, as a (#L_n, d) array: the differences of the cached
    :func:`log_wedge_norm_matrices`, derived afresh on each call."""
    return _profiles(log_wedge_norm_matrices(c, (n,))[n], n)


def eigen_exponents(c: OneStepCocycle, words) -> np.ndarray:
    """Per-symbol log-moduli of the eigenvalues of A_w, non-increasing up
    to rounding, for each closed word w of an (N, m) word array, as
    (N, d) rows; one word gives one (d,) row.  Their top-t sums, log
    rho(A_w^{wedge t}), are the accumulators of :func:`_advance` steps
    from :func:`_root` plus, for t < d, log rho of the unit-wedge
    products, so no length loses the small eigenvalues' digits.  A
    symbol outside 1..k, an empty or a non-closed word raise ValueError."""
    W = np.atleast_2d(words)
    if not W.shape[1]:
        raise ValueError("need a nonempty word")
    sft.check_symbols(c.Q, W)
    if not (shut := sft.closed(c.Q, W)).all():
        raise ValueError(f"word {tuple(W[np.argmin(shut)].tolist())} is not admissible as closed")
    front, par = _root(c)[1], np.zeros(len(W), dtype=np.intp)
    for depth, sym in enumerate(W.T, start=1):
        front, par = _advance(c, front, par, sym, depth), np.arange(len(W))
    mats, logs = front
    for ti, V in enumerate(mats):
        logs[:, ti] += np.log(np.abs(np.linalg.eigvals(V)).max(axis=1))
    logs = np.diff(logs, axis=1, prepend=0.0) / W.shape[1]
    return logs if np.ndim(words) == 2 else logs[0]
