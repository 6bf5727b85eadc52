"""Exact limit pressure of conjugated upper-triangular cocycles: a
reference for P(q) off the even lattice.

Every generator is A_j = C T_j C^-1 with T_j upper triangular.  On the
cone q_1 >= ... >= q_d the limit pressure of psi^q is

    P(q) = max over permutations pi of
           log rho(Q diag_j prod_i |T_j[pi(i), pi(i)]|^{q_i}),

the largest pressure of a one-step potential on the diagonal entries
(Falconer and Miao, "Dimensions of self-affine fractals and
multifractals generated by upper-triangular matrices", Fractals 15,
2007).  All generators keep the line C e_1, so these cocycles are not
typical.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from lyapspec import sft
from lyapspec.cocycle import OneStepCocycle


def triangular_cocycle(Q: sft.TransitionMatrix, diagonals, seed: int = 0) -> OneStepCocycle:
    """The cocycle A_j = C T_j C^-1 over Q: T_j is upper triangular with
    diagonal ``diagonals[j - 1]`` and standard normal entries above it,
    and C = I + N/4 for a standard normal N, both drawn from ``seed``."""
    diagonals = np.asarray(diagonals, dtype=float)
    d = diagonals.shape[1]
    rng = np.random.default_rng(seed)
    C = np.eye(d) + rng.standard_normal((d, d)) / 4
    gens = [C @ (np.diag(D) + np.triu(rng.standard_normal((d, d)), 1)) @ np.linalg.inv(C)
            for D in diagonals]
    return OneStepCocycle(Q=Q, generators=gens)


def limit_pressure(Q: sft.TransitionMatrix, diagonals, q) -> float:
    """P(q) by the formula of the module docstring, for q_1 >= ... >= q_d."""
    q = np.asarray(q, dtype=float)
    if (np.diff(q) > 0).any():
        raise ValueError(f"q = {q} is not in the cone q_1 >= ... >= q_d")
    logs = np.log(np.abs(np.asarray(diagonals, dtype=float)))
    return max(float(np.log(np.abs(np.linalg.eigvals(Q.entries * np.exp(logs[:, pi] @ q))).max()))
               for pi in map(list, permutations(range(len(q)))))
