import importlib.util
import os
import sys

import numpy as np
import pytest

from lyapspec import sft
from lyapspec.cocycle import OneStepCocycle


@pytest.fixture(scope="session")
def diag_cocycle():
    """Full shift on two symbols with commuting diagonal generators;
    every thermodynamic quantity has a closed form."""
    return OneStepCocycle(
        Q=sft.full_shift(2),
        generators=[np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])],
    )


@pytest.fixture(scope="session")
def pos_cocycle():
    """Full shift on two symbols, one diagonal and one positive
    generator; irreducible, typical, quasi-multiplicative."""
    return OneStepCocycle(
        Q=sft.full_shift(2),
        generators=[np.diag([2.0, 1.0]), np.array([[1.0, 1.0], [1.0, 2.0]])],
    )


@pytest.fixture(scope="session")
def twisted4_cocycle():
    """Full shift on two symbols in dim 4: A_1 = diag(5, 3, 2, 1) has
    distinct products of eigenvalues at every degree, and A_2, the
    Pascal matrix, is totally positive, so every minor of the loop
    matrix at a = 1, w = (2,) is nonzero and the pair is twisted."""
    pascal = np.array([[1.0, 1, 1, 1], [1, 2, 3, 4], [1, 3, 6, 10], [1, 4, 10, 20]])
    return OneStepCocycle(
        Q=sft.full_shift(2), generators=[np.diag([5.0, 3.0, 2.0, 1.0]), pascal],
    )


@pytest.fixture(scope="session")
def golden_mean_Q():
    return sft.validate([[1, 1], [1, 0]])


@pytest.fixture(scope="session")
def golden_identity(golden_mean_Q):
    """Identity generators over the golden-mean shift: pressure at any
    q equals the shift entropy log((1+sqrt 5)/2)."""
    return OneStepCocycle(
        Q=golden_mean_Q, generators=[np.eye(2), np.eye(2)],
    )


@pytest.fixture(scope="session")
def rotation_cocycle():
    """Two rotations: isometries, no domination, complex eigenvalues."""
    def rot(theta):
        ct, st = np.cos(theta), np.sin(theta)
        return np.array([[ct, -st], [st, ct]])

    return OneStepCocycle(
        Q=sft.full_shift(2), generators=[rot(0.7), rot(1.9)],
    )


@pytest.fixture(scope="session")
def certify_jobs(tmp_path_factory):
    """The jobs of the benchmark's certify workload at seed 1, by label,
    with their cocycle files written: ``dominate:k3d2`` is a d = 2
    family whose multicone has a ball that needs the union of balls."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("certify_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    jobs = workloads.materialize("certify", 1, str(tmp_path_factory.mktemp("certify")))
    return {job.label: job for job in jobs}
