"""Word-sum pressure of the generalized singular value potential over a
grid of weights: values, empirical-constant brackets from
quasi-multiplicativity, and the batched Gibbs pass whose moments give
the exact pressure gradient and Hessian.

psi^q(A) = prod_i ||A^{wedge i}||^{t_i} with t = :func:`weight_differences` (q),
so word sums weigh the cached log wedge norms by t directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import OneStepCocycle, _check_grid, log_wedge_norm_matrices


def weight_differences(q: np.ndarray) -> np.ndarray:
    """t_i = q_i - q_{i+1} with q_{d+1} = 0, along the last axis."""
    return -np.diff(np.asarray(q, dtype=float), axis=-1, append=0.0)


@dataclass
class PressureEstimate:
    """Finite-n pressure value with brackets.

    ``lower`` comes from the supermultiplicativity constant supplied by
    a quasi-multiplicativity report (empirical-constant bracket);
    ``upper`` is the Fekete bound, present only when t_1..t_{d-1} >= 0
    (t_d may have either sign).
    ``cauchy`` is |P_n - P_{n-2}| when n > 2: a difference of two
    finite-n values, not a bound on the error of P_n.  Over a (G, d)
    grid of q every field is a (G,) array, with NaN for an absent
    bracket.
    """

    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    cauchy: np.ndarray


#: float64 elements in one block of a batched Gibbs pass (rows of q
#: times words, 128 KB); a block holds at least one row.  2^14 is the
#: largest power of two whose V block (2 rows of 16,384 words) keeps a
#: pressure table at n = 14 on a 2-shift below half of its cached
#: log-norms.
GIBBS_BLOCK = 2**14


def _products(profs: np.ndarray) -> np.ndarray:
    """The (N, d*d) products profile_i * profile_j of every word, whose
    Gibbs average is the second moment of the profiles."""
    N, d = profs.shape
    return (profs[:, :, None] * profs[:, None, :]).reshape(N, d * d)


def _gibbs(X: np.ndarray, W: np.ndarray, *fields: np.ndarray) -> list[np.ndarray]:
    """One Gibbs pass for every row y of the (G, d) array ``W`` over the
    (N, d) per-word rows ``X``: the log-sum-exp of X y, then the Gibbs
    average E_w[F] of each (N, m) per-word array F of ``fields`` as a
    (G, m) array.  Over the log wedge norms of length n with y = t the
    first is log s_n(q); over the length-n profiles with y = n q it is
    too, and the profiles as a field give the mean, the gradient of P_n
    (:func:`_products` the second moment).

    V = W X^T is formed row-major, in blocks of rows of at most
    GIBBS_BLOCK elements; each row is shifted by its max, exponentiated
    in place and summed, and E_w[F] is V F over the row sums.  A pass
    holds one V block at a time, so beyond its (G, m) results its
    memory does not grow with G.
    """
    rows = max(1, GIBBS_BLOCK // len(X))
    if len(W) > rows:
        blocks = [_gibbs(X, W[lo:lo + rows], *fields) for lo in range(0, len(W), rows)]
        return [np.concatenate(parts) for parts in zip(*blocks)]
    V = W @ X.T
    m = V.max(axis=1)
    V -= m[:, None]
    np.exp(V, out=V)
    s = V.sum(axis=1)
    return [m + np.log(s), *(V @ F / s[:, None] for F in fields)]


def _hessians(mean: np.ndarray, second: np.ndarray, n: int) -> np.ndarray:
    """Hessians of P_n from the moments of :func:`_gibbs`: n Cov_w, as
    a (G, d, d) stack."""
    d = mean.shape[1]
    return n * (second.reshape(-1, d, d) - mean[:, :, None] * mean[:, None, :])


def log_sums(c: OneStepCocycle, Q: np.ndarray, lengths) -> dict[int, np.ndarray]:
    """log s_m(q) for every row q of the (G, d) array ``Q`` at every
    length m in ``lengths``, as {m: (G,) array}: the log wedge norms of
    every length come from one :func:`log_wedge_norm_matrices` call,
    which sweeps only the lengths it has not cached, and each length
    takes one Gibbs pass that weighs them by the rows t of
    :func:`weight_differences` (Q).

    A row whose weights or products pass the float range leaves NaN
    (inf - inf) in its pass, and :func:`_far_log_sum` takes it again.
    """
    norms = log_wedge_norm_matrices(c, lengths)
    with np.errstate(over="ignore", invalid="ignore"):
        W = weight_differences(Q)
        sums = {m: _gibbs(L, W)[0] for m, L in norms.items()}
    for m, L in norms.items():
        for i in np.flatnonzero(np.isnan(sums[m])):
            sums[m][i] = _far_log_sum(L, Q[i])
    return sums


def _far_log_sum(X: np.ndarray, q: np.ndarray) -> float:
    """The log-sum-exp of X t, t the weights of q, past the float range:
    taken at q / 2^e, e the exponent of max|q|, t and X t stay finite and
    scale back exactly, or to ±inf, which is the value at an infinite max."""
    e = np.frexp(np.abs(q).max())[1]
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.ldexp(X @ weight_differences(np.ldexp(q, -e)), e)
        m = v.max()
        return m if np.isinf(m) else m + np.log(np.exp(v - m).sum())


def bracket_constants(c: OneStepCocycle, q, qm_C: float, qm_k: int):
    """log C_1 for the supermultiplicative bracket, at one q or at every
    row of a (G, d) grid.

    Coordinates with t_i >= 0 contribute C^{t_i} through the
    quasi-multiplicativity constant; coordinates with t_i < 0
    contribute C_0^{t_i} with C_0 the submultiplicativity constant
    (max over generators of ||A^{wedge i}||, to the power k).
    """
    t = weight_differences(q)
    log_c0 = qm_k * log_wedge_norm_matrices(c, (1,))[1].max(axis=0)
    terms = np.where(t >= 0, t * np.log(qm_C), t * log_c0)
    # summed over i in order, as a scalar loop would
    return sum(terms[..., i] for i in range(c.d))


def pressure_table(
    c: OneStepCocycle,
    grid: np.ndarray,
    n: int,
    qm_C: float | None = None,
    qm_k: int | None = None,
) -> PressureEstimate:
    """P_n(q) = (1/n) log s_n(q) with brackets for the limit pressure,
    at every row q of the (G, d) ``grid``, as arrays with NaN for an
    absent bracket.  Its lengths n, n - k and n - 2 come from one sweep
    (:func:`log_sums`).

    Lower bracket (needs quasi-multiplicativity constants): the
    sequence s_{n-k}(q)/C_1 is supermultiplicative, so
    (log C_1 + log s_{n-k}(q))/n <= P; a constant C past the float
    range gives no bracket.  Upper bracket (t_1..t_{d-1} >= 0): psi^q
    is then submultiplicative, since t_d only weighs |det|, which is
    exactly multiplicative, and Fekete gives P <= P_n.  A bracket or a
    difference past the float range is absent too.
    """
    grid = _check_grid(grid, c.d, "grid")
    bracket = qm_C is not None and qm_k is not None and 0 < qm_C < np.inf and n > qm_k
    logs = log_sums(c, grid, {n, *([n - qm_k] if bracket else []), *([n - 2] if n > 2 else [])})
    value = logs[n] / n
    with np.errstate(over="ignore", invalid="ignore"):
        lower = ((bracket_constants(c, grid, qm_C, qm_k) + logs[n - qm_k]) / n if bracket
                 else np.full_like(value, np.nan))
        upper = np.where((weight_differences(grid)[:, :-1] >= 0).all(axis=1), value, np.nan)
        cauchy = np.abs(value - logs[n - 2] / (n - 2)) if n > 2 else np.full_like(value, np.nan)
    lower, upper, cauchy = (np.where(np.isfinite(x), x, np.nan) for x in (lower, upper, cauchy))
    return PressureEstimate(value=value, lower=lower, upper=upper, cauchy=cauchy)


def convexity_probe(c: OneStepCocycle, q_a, q_b, n: int) -> float:
    """Midpoint convexity slack of P_n; <= 0 up to rounding because P_n
    is a log-sum-exp of linear forms in q.
    """
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    log_a, log_b, log_mid = log_sums(c, np.array([q_a, q_b, (q_a + q_b) / 2]), (n,))[n]
    return float(log_mid / n - (log_a + log_b) / (2 * n))
