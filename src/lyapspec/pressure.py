"""Word-sum pressure of the generalized singular value potential:
point estimates, empirical-constant brackets from quasi-multiplicativity,
Gibbs weights, and the exact pressure gradient and Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import (DEFAULT_WORD_BUDGET, OneStepCocycle, _check_budget, log_wedge_norms,
                      profile_matrices, profile_matrix)


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
    finite-n values, not a bound on the error of P_n.  At one q the
    fields are floats and an absent bracket is None; over a (G, d) grid
    of q (:func:`pressure_table`) they are (G,) arrays with NaN in its
    place.
    """

    q: np.ndarray
    n: int
    value: float | np.ndarray
    lower: float | np.ndarray | None
    upper: float | np.ndarray | None
    cauchy: float | np.ndarray | None


#: float64 elements in one block of a batched Gibbs pass (rows of q
#: times words, 64 KB); a block holds at least one row
GIBBS_BLOCK = 2**13


def _products(profs: np.ndarray) -> np.ndarray:
    """The (N, d*d) products profile_i * profile_j of every word, whose
    Gibbs average is the second moment of the profiles."""
    N, d = profs.shape
    return (profs[:, :, None] * profs[:, None, :]).reshape(N, d * d)


def _gibbs(profs: np.ndarray, Q: np.ndarray, n: int, *fields: np.ndarray) -> list[np.ndarray]:
    """One Gibbs pass for every row q of the (G, d) array ``Q`` over the
    length-n profiles ``profs``: log s_n(q), then the Gibbs average
    E_w[F] of each (N, m) per-word array F of ``fields`` as a (G, m)
    array (``profs`` gives the mean, the gradient of P_n;
    :func:`_products` the second moment).

    V = (n Q) profs^T is formed row-major, in blocks of rows of at most
    GIBBS_BLOCK elements; each row is shifted by its max, exponentiated
    in place and summed, and E_w[F] is V F over the row sums.
    """
    rows = max(1, GIBBS_BLOCK // len(profs))
    if len(Q) > rows:
        blocks = [_gibbs(profs, Q[lo:lo + rows], n, *fields) for lo in range(0, len(Q), rows)]
        return [np.concatenate(parts) for parts in zip(*blocks)]
    V = (n * Q) @ profs.T
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


def log_sums(c: OneStepCocycle, Q: np.ndarray, lengths,
             budget: int = DEFAULT_WORD_BUDGET) -> dict[int, np.ndarray]:
    """log s_m(q) for every row q of the (G, d) array ``Q`` at every
    length m in ``lengths``, as {m: (G,) array}: the profiles of every
    length come from one :func:`profile_matrices` call, and each length
    takes one Gibbs pass over the whole of ``Q``.

    The longest length is checked against the budget first: #L_m grows
    with m, so a BudgetError names it, as a sweep of it alone would.
    """
    top = max(lengths)
    _check_budget(c, top, c._profile_cache.get(top), budget)
    profs = profile_matrices(c, lengths, budget)
    return {m: _gibbs(P, Q, m)[0] for m, P in profs.items()}


def log_sn(c: OneStepCocycle, q, n: int, budget: int = DEFAULT_WORD_BUDGET) -> float:
    """log s_n(q) = log sum over words I of length n of psi^q(A_I)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(log_sums(c, np.asarray(q, dtype=float)[None], (n,), budget)[n][0])


def bracket_constants(c: OneStepCocycle, q, qm_C: float, qm_k: int):
    """log C_1 for the supermultiplicative bracket, at one q or at every
    row of a (G, d) grid.

    Coordinates with t_i >= 0 contribute C^{t_i} through the
    quasi-multiplicativity constant; coordinates with t_i < 0
    contribute C_0^{t_i} with C_0 the submultiplicativity constant
    (max over generators of ||A^{wedge i}||, to the power k).
    """
    t = weight_differences(q)
    log_c0 = qm_k * log_wedge_norms(c, 1).max(axis=0)
    terms = np.where(t >= 0, t * np.log(qm_C), t * log_c0)
    # summed over i in order, as a scalar loop would
    return sum(terms[..., i] for i in range(c.d))


def table_lengths(n: int, qm_k: int | None = None) -> set[int]:
    """The lengths :func:`pressure_table` reads at n: n, n - 2 when
    n > 2, and n - qm_k for a lower bracket at connector length
    qm_k < n."""
    return {n, *([n - qm_k] if qm_k is not None and n > qm_k else []),
            *([n - 2] if n > 2 else [])}


def pressure_table(
    c: OneStepCocycle,
    grid: np.ndarray,
    n: int,
    qm_C: float | None = None,
    qm_k: int | None = None,
    budget: int = DEFAULT_WORD_BUDGET,
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
    exactly multiplicative, and Fekete gives P <= P_n.
    """
    grid = np.asarray(grid, dtype=float)
    bracket = qm_C is not None and qm_k is not None and 0 < qm_C < np.inf and n > qm_k
    logs = log_sums(c, grid, table_lengths(n, qm_k if bracket else None), budget)
    value = logs[n] / n
    lower = ((bracket_constants(c, grid, qm_C, qm_k) + logs[n - qm_k]) / n if bracket
             else np.full_like(value, np.nan))
    upper = np.where((weight_differences(grid)[:, :-1] >= 0).all(axis=1), value, np.nan)
    cauchy = np.abs(value - logs[n - 2] / (n - 2)) if n > 2 else np.full_like(value, np.nan)
    return PressureEstimate(q=grid, n=n, value=value, lower=lower, upper=upper, cauchy=cauchy)


def pressure_estimate(
    c: OneStepCocycle,
    q,
    n: int,
    qm_C: float | None = None,
    qm_k: int | None = None,
    budget: int = DEFAULT_WORD_BUDGET,
) -> PressureEstimate:
    """:func:`pressure_table` at the one weight vector q."""
    q = np.asarray(q, dtype=float)
    est = pressure_table(c, q[None], n, qm_C, qm_k, budget)
    lower, upper, cauchy = (None if np.isnan(a[0]) else float(a[0])
                            for a in (est.lower, est.upper, est.cauchy))
    return PressureEstimate(q=q, n=n, value=float(est.value[0]), lower=lower, upper=upper,
                            cauchy=cauchy)


def gibbs_gradient(c: OneStepCocycle, q, n: int, budget: int = DEFAULT_WORD_BUDGET) -> np.ndarray:
    """Gradient of P_n at q: the Gibbs-weighted mean singular profile.

    Weights are w_I proportional to exp(n <q, profile(I)>); the result
    equals the exact derivative of (1/n) log s_n.
    """
    profs = profile_matrix(c, n, budget=budget)
    return _gibbs(profs, np.asarray(q, dtype=float)[None], n, profs)[1][0]


def gibbs_hessian(c: OneStepCocycle, q, n: int, budget: int = DEFAULT_WORD_BUDGET) -> np.ndarray:
    """Hessian of P_n at q: n times the Gibbs covariance of the profiles."""
    profs = profile_matrix(c, n, budget=budget)
    _, mean, second = _gibbs(profs, np.asarray(q, dtype=float)[None], n, profs, _products(profs))
    return _hessians(mean, second, n)[0]


def convexity_probe(c: OneStepCocycle, q_a, q_b, n: int) -> float:
    """Midpoint convexity slack of P_n; <= 0 up to rounding because P_n
    is a log-sum-exp of linear forms in q.
    """
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    mid = log_sn(c, (q_a + q_b) / 2, n) / n
    return mid - (log_sn(c, q_a, n) + log_sn(c, q_b, n)) / (2 * n)
