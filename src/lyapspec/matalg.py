"""Dense linear-algebra kernels: invertibility, singular values and
exterior powers.

All magnitudes travel as natural logarithms; linear-scale matrices only
exist at the d x d (or D x D wedge) kernel level.
"""

from __future__ import annotations

import sys
from itertools import combinations

import numpy as np

#: invertibility threshold: |det M| must exceed this times (max |entry|)^d
DET_RTOL = 1e-12

#: products of unit-norm maps are rescaled before their scale can fall below this
ORBIT_FLOOR = 1e-100


def check_finite(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


def det_margin(M: np.ndarray):
    """Scale-free invertibility margin |det(M / max |entry|)| of M, or of
    each matrix of a (..., d, d) stack in one stacked determinant; 0 for
    a zero matrix."""
    M = check_finite(M)
    scale = np.abs(M).max(axis=(-2, -1), keepdims=True)
    return np.abs(np.linalg.det(M / np.where(scale == 0.0, 1.0, scale)))


def is_invertible(M: np.ndarray) -> bool:
    return det_margin(M) > DET_RTOL


def rescale_period(log_cond: float) -> int:
    """How many steps a product of maps of spectral norm 1 and condition
    number at most e^log_cond may take between rescales to max-entry 1:
    it never grows, and each step shrinks it by at most the condition
    number, so after m = floor(ln(1/ORBIT_FLOOR) / log_cond) steps its
    norm is still above ORBIT_FLOOR (sys.maxsize, never, for isometries)."""
    room = -np.log(ORBIT_FLOOR)
    return max(1, int(room // log_cond)) if log_cond * sys.maxsize > room else sys.maxsize


def log_singular_values(M: np.ndarray) -> np.ndarray:
    """Logs of the singular values of M, sorted non-increasing."""
    M = check_finite(M)
    s = np.linalg.svd(M, compute_uv=False)
    with np.errstate(divide="ignore"):
        return np.log(s)


def log_spectral_norm(M: np.ndarray) -> float:
    """log of the operator (spectral) norm."""
    return float(log_singular_values(M)[0])


def wedge(M: np.ndarray, t: int) -> np.ndarray:
    """Degree-t exterior power of M: the C(d,t) x C(d,t) matrix of t x t
    minors, rows and columns indexed by lexicographically ordered
    t-subsets of {1,...,d}.  A (..., d, d) stack gives the (..., C(d,t),
    C(d,t)) stack of the powers of its matrices.
    """
    M = check_finite(M)
    d = M.shape[-1]
    if not 1 <= t <= d:
        raise ValueError(f"wedge degree {t} outside 1..{d}")
    if t == 1:
        return M.copy()
    S = np.array(list(combinations(range(d), t)))
    # minors[..., a, b] = det M[..., S[a], :][..., S[b]]: every minor in one stacked det
    return np.linalg.det(M[..., S[:, None, :, None], S[None, :, None, :]])
