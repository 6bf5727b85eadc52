"""Dense linear-algebra kernels: invertibility, singular values and
exterior powers.

All magnitudes travel as natural logarithms; linear-scale matrices only
exist at the d x d (or D x D wedge) kernel level.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

#: invertibility threshold: |det M| must exceed this times (max |entry|)^d
DET_RTOL = 1e-12


def check_finite(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


def det_margin(M: np.ndarray) -> float:
    """Scale-free invertibility margin |det(M / max |entry|)|; 0 for M = 0."""
    M = check_finite(M)
    scale = float(np.abs(M).max())
    return 0.0 if scale == 0.0 else abs(float(np.linalg.det(M / scale)))


def is_invertible(M: np.ndarray) -> bool:
    return det_margin(M) > DET_RTOL


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
