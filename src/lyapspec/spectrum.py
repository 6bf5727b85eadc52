"""Entropy spectrum of Lyapunov exponents: achievable-domain estimation,
the Legendre-transform entropy h(alpha) = inf_q {P(q) - <q, alpha>},
and the brute-force level-set cylinder-counting oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .cocycle import DEFAULT_WORD_BUDGET, OneStepCocycle, profile_matrix
from .pressure import gibbs_gradient, gibbs_hessian, log_sn
from .sft import shift_entropy

Q_MAX = 40.0
GRAD_TOL = 1e-6


@dataclass
class DomainEstimate:
    """Achievable exponent vectors at length n.

    ``profile_points`` are the singular profiles of all length-n words;
    ``gradient_points`` are pressure gradients over a q-grid of the
    given radius.  The gradient hull sits inside the profile hull.
    """

    n: int
    q_radius: float
    profile_points: np.ndarray
    gradient_points: np.ndarray

    @property
    def centroid(self) -> np.ndarray:
        return self.gradient_points.mean(axis=0)


@dataclass
class SpectrumPoint:
    alpha: np.ndarray
    h: float
    q_star: np.ndarray
    status: str  # interior-converged | boundary-suspect | diverged
    clamped: bool = False
    grad_residual: float = np.nan


def in_hull(points: np.ndarray, x: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether x is a convex combination of the rows of points.

    Linear-programming membership test; robust for degenerate hulls
    (segments, single points).
    """
    points = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    m = points.shape[0]
    A_eq = np.vstack([points.T, np.ones(m)])
    b_eq = np.append(x, 1.0)
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        return False
    return float(np.abs(points.T @ res.x - x).max()) <= max(tol, 1e-7)


def domain_estimate(
    c: OneStepCocycle,
    n: int,
    q_radius: float = 10.0,
    grid_per_axis: int = 5,
    budget: int = DEFAULT_WORD_BUDGET,
) -> DomainEstimate:
    """Estimate the Lyapunov-spectrum domain at length n.

    Profile hull from all length-n words; gradient hull from pressure
    gradients over a symmetric q-grid of the given radius.
    """
    profs = profile_matrix(c, n, budget=budget)
    axes = [np.linspace(-q_radius, q_radius, grid_per_axis)] * c.d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, c.d)
    grads = np.array([gibbs_gradient(c, q, n, budget=budget) for q in mesh])
    return DomainEstimate(n=n, q_radius=q_radius, profile_points=profs,
                          gradient_points=grads)


def interior_alpha_grid(est: DomainEstimate, m: int, shrink: float = 0.9) -> np.ndarray:
    """m evenly spaced exponent vectors inside the gradient hull.

    The grid runs along the segment between the extreme gradients in
    the top exponent, shrunk toward the hull centroid; even spacing on
    a segment keeps midpoint concavity checks meaningful.
    """
    pts = est.gradient_points
    lo = pts[np.argmin(pts[:, 0])]
    hi = pts[np.argmax(pts[:, 0])]
    centroid = est.centroid
    lo = centroid + shrink * (lo - centroid)
    hi = centroid + shrink * (hi - centroid)
    return lo + np.linspace(0.0, 1.0, m)[:, None] * (hi - lo)


def legendre_entropy(
    c: OneStepCocycle,
    alpha,
    n: int,
    q0=None,
    q_max: float = Q_MAX,
    grad_tol: float = GRAD_TOL,
    max_iter: int = 2000,
    budget: int = DEFAULT_WORD_BUDGET,
    domain: DomainEstimate | None = None,
) -> SpectrumPoint:
    """h(alpha) = inf_q {P_n(q) - <q, alpha>} by damped Newton on the
    convex finite-n objective.

    Gradient g = E_w[profile] - alpha and Hessian H = n Cov_w(profiles)
    come from the Gibbs weights at q.  The step solves (H + |g|^2 I)
    p = -g: Newton near the minimizer, at most 1/|g| along flat or null
    directions of H, where a plain Newton step can jump far out.  An
    Armijo backtrack keeps descent, with -g as fallback.

    Status is boundary-suspect when the minimizer escapes past q_max
    (or past q_max/2 at convergence), or when ``domain`` is given and
    alpha sits outside its gradient hull (one LP per point; grids from
    ``interior_alpha_grid`` lie inside by construction and need no
    test).  Negative finite-n values are clamped to zero with a flag.
    """
    alpha = np.asarray(alpha, dtype=float)
    q = np.zeros(c.d) if q0 is None else np.asarray(q0, dtype=float).copy()

    outside = domain is not None and not in_hull(domain.gradient_points, alpha, tol=1e-6)

    def objective(qv):
        return log_sn(c, qv, n, budget=budget) / n - float(qv @ alpha)

    f = objective(q)
    status = "diverged"
    grad_res = np.inf
    for _ in range(max_iter):
        g = gibbs_gradient(c, q, n, budget=budget) - alpha
        grad_res = float(np.abs(g).max())
        if grad_res <= grad_tol:
            status = "interior-converged"
            break
        if np.linalg.norm(q) > q_max:
            status = "boundary-suspect"
            break
        H = gibbs_hessian(c, q, n, budget=budget)
        p = np.linalg.solve(H + float(g @ g) * np.eye(c.d), -g)
        slope = float(g @ p)
        if not slope < 0:
            p, slope = -g, -float(g @ g)
        step = 1.0
        while step > 1e-14:
            q_new = q + step * p
            f_new = objective(q_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            # no productive step left: flat to machine precision
            status = "interior-converged"
            break
        q, f = q_new, f_new

    # a minimizer escaping far out signals the spectrum boundary even
    # when the finite-n gradient still closes
    if status == "interior-converged" and np.linalg.norm(q) > q_max / 2:
        status = "boundary-suspect"
    if outside and status != "boundary-suspect":
        status = "boundary-suspect"
    h = f
    clamped = False
    if h < 0:
        h, clamped = 0.0, True
    return SpectrumPoint(alpha=alpha, h=h, q_star=q, status=status,
                         clamped=clamped, grad_residual=grad_res)


def spectrum_curve(
    c: OneStepCocycle,
    alpha_grid: np.ndarray,
    n: int,
    budget: int = DEFAULT_WORD_BUDGET,
    domain: DomainEstimate | None = None,
) -> list[SpectrumPoint]:
    """Legendre entropy along a grid, warm-starting q from the previous
    grid point."""
    points = []
    q0 = None
    for alpha in np.atleast_2d(alpha_grid):
        pt = legendre_entropy(c, alpha, n, q0=q0, budget=budget, domain=domain)
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


@dataclass
class CompareRow:
    alpha: np.ndarray
    n: int
    epsilon: float
    count: int
    h_count: float
    h_legendre: float
    gap: float
    slack: float
    upper_bound_ok: bool


def compare(
    c: OneStepCocycle,
    alpha_grid: np.ndarray,
    n_list: list[int],
    epsilon_list: list[float],
    budget: int = DEFAULT_WORD_BUDGET,
) -> list[CompareRow]:
    """Cylinder-count entropy vs Legendre entropy over a grid.

    slack(n, eps) bounds the finite-size mismatch: the potential varies
    by at most ||q*||_1 * eps over the epsilon box, plus 1/n for the
    counting normalization.
    """
    rows = []
    for alpha in np.atleast_2d(alpha_grid):
        for n in n_list:
            pt = legendre_entropy(c, alpha, n, budget=budget)
            for eps in epsilon_list:
                count, h_count = oracle_count(c, alpha, eps, n, budget=budget)
                slack = float(np.abs(pt.q_star).sum()) * eps + 1.0 / n
                gap = abs(h_count - pt.h) if count else np.inf
                ok = h_count <= pt.h + slack
                rows.append(CompareRow(
                    alpha=np.asarray(alpha, dtype=float), n=n, epsilon=eps,
                    count=count, h_count=h_count, h_legendre=pt.h,
                    gap=gap, slack=slack, upper_bound_ok=ok,
                ))
    return rows


def entropy_ceiling(c: OneStepCocycle) -> float:
    """The shift entropy: a bound on the limit spectrum only.  At finite
    n the ceiling is P_n(0) = (1/n) log #L_n, larger on non-full shifts."""
    return shift_entropy(c.Q)
