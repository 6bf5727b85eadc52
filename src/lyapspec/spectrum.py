"""Entropy spectrum of Lyapunov exponents: achievable-domain estimation,
the Legendre-transform entropy h(alpha) = inf_q {P(q) - <q, alpha>},
and the brute-force level-set cylinder-counting oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pressure
from .cocycle import DEFAULT_WORD_BUDGET, OneStepCocycle, profile_matrix

Q_MAX = 40.0
GRAD_TOL = 1e-6


@dataclass
class SpectrumPoint:
    alpha: np.ndarray
    h: float
    q_star: np.ndarray
    status: str  # interior-converged | boundary-suspect | diverged
    clamped: bool = False
    grad_residual: float = np.nan


def domain_estimate(c: OneStepCocycle, n: int, budget: int = DEFAULT_WORD_BUDGET) -> np.ndarray:
    """Achievable exponent vectors at length n: the (5^d, d) pressure
    gradients over the q-grid {-10, -5, 0, 5, 10}^d.  Their hull sits
    inside the hull of the singular profiles of the length-n words.
    """
    axes = [np.linspace(-10.0, 10.0, 5)] * c.d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, c.d)
    return np.array([pressure.gibbs_gradient(c, q, n, budget=budget) for q in mesh])


def interior_alpha_grid(grads: np.ndarray, m: int) -> np.ndarray:
    """m evenly spaced exponent vectors inside the hull of the
    gradients from :func:`domain_estimate`.

    The grid runs along the segment between the extreme gradients in
    the top exponent, shrunk by 0.9 toward the gradient centroid; even
    spacing on a segment keeps midpoint concavity checks meaningful.
    """
    lo = grads[np.argmin(grads[:, 0])]
    hi = grads[np.argmax(grads[:, 0])]
    centroid = grads.mean(axis=0)
    lo = centroid + 0.9 * (lo - centroid)
    hi = centroid + 0.9 * (hi - centroid)
    return lo + np.linspace(0.0, 1.0, m)[:, None] * (hi - lo)


def legendre_entropy(c: OneStepCocycle, alpha, n: int, q0=None,
                     budget: int = DEFAULT_WORD_BUDGET) -> SpectrumPoint:
    """h(alpha) = inf_q {P_n(q) - <q, alpha>} by damped Newton on the
    convex finite-n objective.

    One Gibbs pass per trial point gives the value, and, once the point
    is accepted, the gradient g = E_w[profile] - alpha and the Hessian
    H = n Cov_w(profiles) from the same weights.  The step solves
    (H + |g|^2 I) p = -g: Newton near the minimizer, at most 1/|g| along
    flat or null directions of H, where a plain Newton step can jump
    far out.  An Armijo backtrack keeps descent, with -g as fallback.

    grad P_n maps R^d onto the relative interior of the hull of the
    length-n profiles, so the solver alone decides the boundary: status
    is boundary-suspect when the minimizer escapes past Q_MAX (or past
    Q_MAX/2 at convergence), and h is then the objective at the last
    iterate.  Negative finite-n values are clamped to zero with a flag.
    """
    alpha = np.asarray(alpha, dtype=float)
    q = np.zeros(c.d) if q0 is None else np.asarray(q0, dtype=float).copy()

    def objective(qv):
        """P_n(qv) - <qv, alpha> and the Gibbs pass it came from."""
        profs, m, u = pressure._exp_potential(c, qv, n, budget)
        return (m + float(np.log(u.sum()))) / n - float(qv @ alpha), (profs, u)

    f, gibbs = objective(q)
    status = "diverged"
    grad_res = np.inf
    for _ in range(2000):
        w, mean = pressure._gibbs_mean(*gibbs)
        g = mean - alpha
        grad_res = float(np.abs(g).max())
        if grad_res <= GRAD_TOL:
            status = "interior-converged"
            break
        if np.linalg.norm(q) > Q_MAX:
            status = "boundary-suspect"
            break
        H = pressure._gibbs_cov(gibbs[0], w, mean, n)
        p = np.linalg.solve(H + float(g @ g) * np.eye(c.d), -g)
        slope = float(g @ p)
        if not slope < 0:
            p, slope = -g, -float(g @ g)
        step = 1.0
        while step > 1e-14:
            q_new = q + step * p
            f_new, gibbs_new = objective(q_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            # no productive step left: flat to machine precision
            status = "interior-converged"
            break
        q, f, gibbs = q_new, f_new, gibbs_new

    # a minimizer escaping far out signals the spectrum boundary even
    # when the finite-n gradient still closes
    if status == "interior-converged" and np.linalg.norm(q) > Q_MAX / 2:
        status = "boundary-suspect"
    h = f
    clamped = False
    if h < 0:
        h, clamped = 0.0, True
    return SpectrumPoint(alpha=alpha, h=h, q_star=q, status=status,
                         clamped=clamped, grad_residual=grad_res)


def spectrum_curve(c: OneStepCocycle, alpha_grid: np.ndarray, n: int,
                   budget: int = DEFAULT_WORD_BUDGET) -> list[SpectrumPoint]:
    """Legendre entropy along a grid, warm-starting q from the previous
    grid point."""
    points = []
    q0 = None
    for alpha in np.atleast_2d(alpha_grid):
        pt = legendre_entropy(c, alpha, n, q0=q0, budget=budget)
        points.append(pt)
        q0 = pt.q_star if pt.status == "interior-converged" else None
    return points


def concavity_slacks(points: list[SpectrumPoint]) -> np.ndarray:
    """h(mid) - (h(left) + h(right))/2 for consecutive grid triples;
    nonnegative (up to tolerance) for a concave spectrum."""
    h = np.array([p.h for p in points])
    if h.size < 3:
        return np.empty(0)
    return h[1:-1] - (h[:-2] + h[2:]) / 2


def oracle_count(
    c: OneStepCocycle,
    alpha,
    epsilon: float,
    n: int,
    budget: int = DEFAULT_WORD_BUDGET,
) -> tuple[int, float]:
    """Count length-n cylinders whose singular profile lies in the
    epsilon max-norm box around alpha; h_count = (1/n) log count
    (-inf when the count is zero)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha = np.asarray(alpha, dtype=float)
    profs = profile_matrix(c, n, budget=budget)
    hits = int((np.abs(profs - alpha) <= epsilon).all(axis=1).sum())
    h_count = np.log(hits) / n if hits else -np.inf
    return hits, h_count
