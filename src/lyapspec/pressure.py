"""Word-sum pressure of the generalized singular value potential:
point estimates, empirical-constant brackets from quasi-multiplicativity,
Gibbs weights, and the exact pressure gradient and Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import DEFAULT_WORD_BUDGET, OneStepCocycle, log_wedge_norms, profile_matrix


def weight_differences(q: np.ndarray) -> np.ndarray:
    """t_i = q_i - q_{i+1} with q_{d+1} = 0."""
    q = np.asarray(q, dtype=float)
    return q - np.append(q[1:], 0.0)


@dataclass
class PressureEstimate:
    """Finite-n pressure value with brackets.

    ``lower`` comes from the supermultiplicativity constant supplied by
    a quasi-multiplicativity report (empirical-constant bracket);
    ``upper`` is the Fekete bound, present only when all t_i >= 0.
    ``cauchy`` is |P_n - P_{n-2}| when n > 2.
    """

    q: np.ndarray
    n: int
    value: float
    lower: float | None
    upper: float | None
    cauchy: float | None


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


def log_sn(c: OneStepCocycle, q, n: int, budget: int = DEFAULT_WORD_BUDGET) -> float:
    """log s_n(q) = log sum over words I of length n of psi^q(A_I)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    profs = profile_matrix(c, n, budget=budget)
    return float(_gibbs(profs, np.asarray(q, dtype=float)[None], n)[0][0])


def bracket_constants(c: OneStepCocycle, q, qm_C: float, qm_k: int) -> float:
    """log C_1 for the supermultiplicative bracket.

    Coordinates with t_i >= 0 contribute C^{t_i} through the
    quasi-multiplicativity constant; coordinates with t_i < 0
    contribute C_0^{t_i} with C_0 the submultiplicativity constant
    (max over generators of ||A^{wedge i}||, to the power k).
    """
    q = np.asarray(q, dtype=float)
    t = weight_differences(q)
    log_c1 = 0.0
    for i, ti in enumerate(t, start=1):
        if ti >= 0:
            log_c1 += ti * np.log(qm_C)
        else:
            log_c0 = qm_k * log_wedge_norms(c, 1)[:, i - 1].max()
            log_c1 += ti * log_c0
    return log_c1


def pressure_estimate(
    c: OneStepCocycle,
    q,
    n: int,
    qm_C: float | None = None,
    qm_k: int | None = None,
    budget: int = DEFAULT_WORD_BUDGET,
) -> PressureEstimate:
    """P_n(q) = (1/n) log s_n(q) with brackets for the limit pressure.

    Lower bracket (needs quasi-multiplicativity constants): the
    sequence s_{n-k}(q)/C_1 is supermultiplicative, so
    (log C_1 + log s_{n-k}(q))/n <= P.  Upper bracket (all t_i >= 0):
    psi^q is then submultiplicative and Fekete gives P <= P_n.
    """
    q = np.asarray(q, dtype=float)
    value = log_sn(c, q, n, budget=budget) / n

    lower = None
    if qm_C is not None and qm_k is not None and qm_C > 0 and n > qm_k:
        log_c1 = bracket_constants(c, q, qm_C, qm_k)
        lower = (log_c1 + log_sn(c, q, n - qm_k, budget=budget)) / n

    t = weight_differences(q)
    upper = value if bool((t >= 0).all()) else None

    cauchy = None
    if n > 2:
        cauchy = abs(value - log_sn(c, q, n - 2, budget=budget) / (n - 2))

    return PressureEstimate(q=q, n=n, value=value, lower=lower, upper=upper,
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
