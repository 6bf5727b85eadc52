"""Entropy spectrum of Lyapunov exponents: achievable-domain estimation,
the Legendre-transform entropy h(alpha) = inf_q {P(q) - <q, alpha>},
and the brute-force level-set cylinder-counting oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pressure
from .cocycle import OneStepCocycle, _check_grid, profile_matrix

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
    #: alpha is off the length-n profile hull: empty at n, not always in the
    #: limit (the exponent of (1112)^inf on pos.cocycle is, at n = 8)
    empty: bool = False


def domain_estimate(c: OneStepCocycle, n: int) -> np.ndarray:
    """Achievable exponent vectors at length n: the (5^d, d) pressure
    gradients over the q-grid {-10, -5, 0, 5, 10}^d.  Their hull sits
    inside the hull of the singular profiles of the length-n words.
    """
    axes = [np.linspace(-10.0, 10.0, 5)] * c.d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, c.d)
    profs = profile_matrix(c, n)
    return pressure._gibbs(profs, n * mesh, profs)[1]


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


def _newton(profs: np.ndarray, n: int, alphas: np.ndarray,
            q0: np.ndarray | None) -> list[SpectrumPoint]:
    """h(alpha) = inf_q {P_n(q) - <q, alpha>} over the (N, d) length-n
    profiles ``profs`` for every row of the (G, d) array ``alphas``, by
    damped Newton, all rows in lockstep from the rows of ``q0``, or
    from 0, where one row's Gibbs pass serves every row, since the pass
    at q = 0 does not depend on alpha.

    One Gibbs pass per trial point gives the value, and, once the point
    is accepted, the gradient g = E_w[profile] - alpha and the Hessian
    H = n Cov_w(profiles) from the same weights.  The step solves
    (H + |g|^2 I) p = -g: Newton near the minimizer, at most 1/|g| along
    flat or null directions of H, where a plain Newton step can jump
    far out.  Both sides are divided by c^2, c = 2^e a power of two
    at or above max|g|, which changes no bit of p and keeps |g|^2
    finite for any finite alpha.  An Armijo backtrack keeps descent, with
    -g/|g|^2, the step without H, as fallback.
    A row leaves the batch when it stops, and each backtrack step
    evaluates only the rows still searching, so a row's iterates do not
    depend on the other rows (up to the rounding of the batched pass).

    grad P_n maps R^d onto the relative interior of the hull of the
    length-n profiles, so the solver alone decides the boundary: status
    is boundary-suspect when the minimizer escapes past Q_MAX (or past
    Q_MAX/2 at convergence), h is then the objective at the last iterate.
    Any row that has not converged, with q* != 0, is ``empty`` (alpha is
    off the profile hull) when alpha lies GRAD_TOL past every profile
    along u = q*/|q*|: a separating direction certifies that whatever
    u is, so it also catches a far alpha whose damped steps, at most
    1/|g| long, never reach Q_MAX.  Negative finite-n values are clamped
    to zero with a flag.
    """
    P2 = pressure._products(profs)
    G, d = alphas.shape
    q = np.zeros((G, d)) if q0 is None else np.array(q0, dtype=float)

    def objective(rows, qv):
        """P_n(qv) - <qv, alpha> at the rows ``rows``, and the moments of
        the Gibbs pass it came from."""
        log_s, mean, second = pressure._gibbs(profs, n * qv, profs, P2)
        return log_s / n - np.einsum("ij,ij->i", qv, alphas[rows]), mean, second

    if q0 is None:
        # at q = 0 neither the objective nor the moments depend on alpha
        log_s, mean, second = pressure._gibbs(profs, np.zeros((1, d)), profs, P2)
        f, mean, second = (np.repeat(x, G, axis=0) for x in (log_s / n, mean, second))
    else:
        f, mean, second = objective(slice(None), q)
    status = np.full(G, "diverged", dtype=object)
    grad_res = np.full(G, np.inf)
    live = np.arange(G)
    for _ in range(2000):
        g = mean[live] - alphas[live]
        grad_res[live] = np.abs(g).max(axis=1)
        done = grad_res[live] <= GRAD_TOL
        out = ~done & (np.linalg.norm(q[live], axis=1) > Q_MAX)
        status[live[done]] = "interior-converged"
        status[live[out]] = "boundary-suspect"
        keep = ~(done | out)
        live, g = live[keep], g[keep]
        if not live.size:
            break
        e = np.frexp(grad_res[live])[1][:, None]
        gc = np.ldexp(g, -e)
        ggc = np.einsum("ij,ij->i", gc, gc)
        H = np.ldexp(pressure._hessians(mean[live], second[live], n), -2 * e[:, :, None])
        p = np.linalg.solve(H + ggc[:, None, None] * np.eye(d),
                            np.ldexp(-g, -2 * e)[:, :, None])[:, :, 0]
        slope = np.einsum("ij,ij->i", g, p)
        uphill = ~(slope < 0)
        p[uphill], slope[uphill] = np.ldexp(-gc[uphill], -e[uphill]) / ggc[uphill, None], -1.0
        step = 1.0
        searching = np.arange(live.size)
        while searching.size and step > 1e-14:
            rows = live[searching]
            q_new = q[rows] + step * p[searching]
            f_new, mean_new, second_new = objective(rows, q_new)
            ok = f_new <= f[rows] + 1e-4 * step * slope[searching]
            acc = rows[ok]
            q[acc], f[acc] = q_new[ok], f_new[ok]
            mean[acc], second[acc] = mean_new[ok], second_new[ok]
            searching = searching[~ok]
            step /= 2
        # no productive step left: flat to machine precision
        status[live[searching]] = "interior-converged"
        live = np.delete(live, searching)

    # a minimizer escaping far out signals the spectrum boundary even
    # when the finite-n gradient still closes
    far = np.linalg.norm(q, axis=1) > Q_MAX / 2
    status[far & (status == "interior-converged")] = "boundary-suspect"
    empty = np.zeros(G, dtype=bool)
    for i in np.flatnonzero((status != "interior-converged") & q.any(axis=1)):
        # scaled by a power of two first, so |q*| cannot underflow
        u = np.ldexp(q[i], -np.frexp(np.abs(q[i]).max())[1])
        u /= np.linalg.norm(u)
        # both sides halved d.bit_length() times, exactly, so that <u, alpha>
        # <= sqrt(d) max|alpha| stays in the float range
        s = -d.bit_length()
        empty[i] = u @ np.ldexp(alphas[i], s) > np.ldexp((profs @ u).max() + GRAD_TOL, s)
    clamped = f < 0
    h = np.where(clamped, 0.0, f)
    return [SpectrumPoint(alpha=alphas[i], h=float(h[i]), q_star=q[i], status=status[i],
                          clamped=bool(clamped[i]), grad_residual=float(grad_res[i]),
                          empty=bool(empty[i]))
            for i in range(G)]


def spectrum_curve(c: OneStepCocycle, alpha_grid: np.ndarray, n: int) -> list[SpectrumPoint]:
    """Legendre entropy at every row of the (G, d) ``alpha_grid``, every
    point solved together from q = 0 by :func:`_newton`."""
    alpha_grid = _check_grid(alpha_grid, c.d, "alpha_grid")
    return _newton(profile_matrix(c, n), n, alpha_grid, None)


def concavity_slacks(points: list[SpectrumPoint]) -> np.ndarray:
    """h(mid) - (h(left) + h(right))/2 for consecutive grid triples;
    nonnegative (up to tolerance) for a concave spectrum."""
    h = np.array([p.h for p in points])
    if h.size < 3:
        return np.empty(0)
    return h[1:-1] - (h[:-2] + h[2:]) / 2


def oracle_count(c: OneStepCocycle, alpha_grid: np.ndarray, epsilon: float,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Count, for every row alpha of the (G, d) ``alpha_grid``, the
    length-n cylinders whose singular profile lies in the epsilon
    max-norm box around alpha; h_count = (1/n) log count (-inf when the
    count is zero).  Both come as (G,) arrays.  The grid is tested one
    axis at a time on row blocks of at most pressure.GIBBS_BLOCK
    (alpha, word) pairs.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    grid = _check_grid(alpha_grid, c.d, "alpha_grid")
    profs = profile_matrix(c, n)
    hits = np.empty(len(grid), dtype=int)
    rows = max(1, pressure.GIBBS_BLOCK // len(profs))
    for lo in range(0, len(grid), rows):
        blk = grid[lo:lo + rows]
        inside = np.abs(profs[:, 0] - blk[:, :1]) <= epsilon
        for j in range(1, c.d):
            inside &= np.abs(profs[:, j] - blk[:, j:j + 1]) <= epsilon
        hits[lo:lo + rows] = inside.sum(axis=1)
    with np.errstate(divide="ignore"):
        h_count = np.log(hits) / n
    return hits, h_count
