"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  Reference
configuration: single thread, fixed seeds, desk-scale word lengths.
"""

import numpy as np
import pytest

from lyapspec import (
    domination, matalg, pressure, sft, spectrum, typicality,
)
from lyapspec.cocycle import OneStepCocycle, profile_matrix

rng = np.random.default_rng(2024)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def random_invertible(d):
    while True:
        M = rng.normal(size=(d, d))
        if matalg.is_invertible(M):
            return M


def diag_closed_form(q):
    t = q[0] - q[1]
    return np.log(2.0**t + 3.0**t)


def binary_entropy(t):
    return -t * np.log(t) - (1 - t) * np.log(1 - t)


def test_01_wedge_identity():
    """log of the wedge norm equals the partial sum of log singular
    values, for 100 random 3x3 and 4x4 invertible matrices."""
    worst = 0.0
    for d in (3, 4):
        for _ in range(50):
            M = random_invertible(d)
            log_sv = matalg.log_singular_values(M)
            for t in range(1, d + 1):
                got = matalg.log_spectral_norm(matalg.wedge(M, t))
                worst = max(worst, abs(got - log_sv[:t].sum()))
    report(f"criterion 1: wedge norm identity (worst error {worst:.2e})",
           worst <= 1e-8)


def test_02_closed_form_pressure(diag_cocycle):
    """Diagonal oracle: P_n(q) = log(2^(q1-q2) + 3^(q1-q2)) exactly,
    with all three bracket columns coinciding."""
    axis = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    worst_val = worst_bracket = 0.0
    for n in (4, 8, 12):
        est = pressure.pressure_table(diag_cocycle, grid, n, qm_C=1.0, qm_k=0)
        worst_val = max(worst_val, np.abs(est.value - diag_closed_form(grid.T)).max())
        worst_bracket = max(worst_bracket, np.abs(est.lower - est.value).max(),
                            np.nanmax(np.abs(est.upper - est.value)))
    ok = worst_val <= 1e-10 and worst_bracket <= 1e-10
    report(f"criterion 2: closed-form pressure (value err {worst_val:.2e}, "
           f"bracket err {worst_bracket:.2e})", ok)


def test_03_closed_form_spectrum(diag_cocycle):
    """Legendre h matches the binary-entropy curve on an interior grid;
    the endpoint comes back near zero with boundary-suspect status."""
    ts = np.linspace(0.08, 0.92, 11)
    a = (1 - ts) * np.log(2) + ts * np.log(3)
    points = spectrum.spectrum_curve(diag_cocycle, np.column_stack([a, -a]), 12)
    worst = max(abs(pt.h - binary_entropy(t)) for t, pt in zip(ts, points))
    end = spectrum.spectrum_curve(
        diag_cocycle, np.array([[np.log(2), -np.log(2)]]), 12)[0]
    ok = (worst <= 1e-3 and end.h <= 1e-3
          and end.status == "boundary-suspect")
    report(f"criterion 3: closed-form spectrum (worst h err {worst:.2e}, "
           f"endpoint h {end.h:.2e}, status {end.status})", ok)


def test_04_shift_entropy(golden_identity):
    """Identity generators over the golden-mean shift: pressure at 0
    and spectrum at alpha = 0 both recover log((1+sqrt 5)/2)."""
    h_ref = np.log((1 + np.sqrt(5)) / 2)
    p = pressure.pressure_table(golden_identity, np.zeros((1, 2)), 12).value[0]
    h = spectrum.spectrum_curve(golden_identity, np.zeros((1, 2)), 12)[0].h
    ok = abs(p - h_ref) <= 0.05 and abs(h - h_ref) <= 0.05
    report(f"criterion 4: shift entropy (pressure err {abs(p - h_ref):.3f}, "
           f"spectrum err {abs(h - h_ref):.3f})", ok)


def test_05_typicality_checker(pos_cocycle, rotation_cocycle, diag_cocycle):
    """Accepts the positive pair with positive margins; rejects the
    rotations at pinching and the commuting diagonal tuple at
    twisting."""
    good = typicality.check_typical(pos_cocycle, 1, (2,))
    rot = typicality.check_typical(rotation_cocycle, 1, (2,))
    com = typicality.check_typical(diag_cocycle, 1, (2,))
    ok = (good.passed and good.gap_margins[0] > 0 and good.twist_margin > 0
          and not rot.gap_margins[0] > typicality.TOL_GAP
          and com.gap_margins[0] > typicality.TOL_GAP
          and not com.twist_margin > typicality.TOL_INDEP)
    report("criterion 5: typicality accepts/rejects as expected "
           f"(margins {good.gap_margins[0]:.3f}/{good.twist_margin:.3f})", ok)


def test_06_quasi_multiplicativity(pos_cocycle):
    """qm_search finds constants; the resulting pressure brackets
    sandwich P_n with strictly shrinking widths."""
    qm = typicality.qm_search(pos_cocycle, 5, 4)
    q = np.array([[1.0, 0.0]])
    widths, sandwiched = [], True
    for n in (8, 10, 12):
        est = pressure.pressure_table(pos_cocycle, q, n, qm_C=qm.C, qm_k=qm.k)
        sandwiched &= est.lower[0] <= est.value[0] <= est.upper[0]
        widths.append(est.upper[0] - est.lower[0])
    ok = (qm.found and qm.C > 0 and sandwiched
          and widths[0] > widths[1] > widths[2])
    report(f"criterion 6: quasi-multiplicativity (k={qm.k}, C={qm.C:.4f}, "
           f"widths {widths[0]:.4f} > {widths[1]:.4f} > {widths[2]:.4f})", ok)


def test_07_gradient_exactness(pos_cocycle):
    """Gibbs-weighted mean profile equals the finite-difference
    gradient of P_n at 20 random weights."""
    n, h = 10, 1e-5
    grid = rng.uniform(-2, 2, size=(20, 2))
    profs = profile_matrix(pos_cocycle, n)
    grads = pressure._gibbs(profs, n * grid, profs)[1]
    steps = np.vstack([h * np.eye(2), -h * np.eye(2)])
    logs = pressure.log_sums(pos_cocycle, (grid[:, None] + steps).reshape(-1, 2), (n,))[n]
    up, down = logs.reshape(-1, 2, 2).transpose(1, 0, 2)
    worst = float(np.abs(grads - (up - down) / (2 * h * n)).max())
    report(f"criterion 7: gradient exactness (worst error {worst:.2e})",
           worst <= 1e-6)


def test_08_convexity_concavity(diag_cocycle, pos_cocycle):
    """P_n is midpoint-convex; the spectrum grid is midpoint-concave."""
    worst_convex = -np.inf
    for c in (diag_cocycle, pos_cocycle):
        for _ in range(50):
            qa = rng.uniform(-3, 3, size=2)
            qb = rng.uniform(-3, 3, size=2)
            worst_convex = max(worst_convex,
                               pressure.convexity_probe(c, qa, qb, 8))
    worst_concave = np.inf
    for c in (diag_cocycle, pos_cocycle):
        est = spectrum.domain_estimate(c, 10)
        grid = spectrum.interior_alpha_grid(est, 9)
        points = spectrum.spectrum_curve(c, grid, 10)
        slacks = spectrum.concavity_slacks(points)
        if slacks.size:
            worst_concave = min(worst_concave, float(slacks.min()))
    ok = worst_convex <= 1e-9 and worst_concave >= -1e-6
    report(f"criterion 8: convexity/concavity (convexity slack "
           f"{worst_convex:.2e}, concavity slack {worst_concave:.2e})", ok)


def test_09_oracle_vs_legendre(pos_cocycle):
    """Cylinder-count entropy vs Legendre entropy: upper bound with
    slack, small gaps, and gaps non-increasing in n."""
    est = spectrum.domain_estimate(pos_cocycle, 10)
    grid = spectrum.interior_alpha_grid(est, 5)
    ok = True
    worst_gap = 0.0
    curves = {n: spectrum.spectrum_curve(pos_cocycle, grid, n) for n in (10, 13, 16)}
    oracles = {n: spectrum.oracle_count(pos_cocycle, grid, 0.08, n) for n in (10, 13, 16)}
    for i in range(len(grid)):
        gaps = []
        for n in (10, 13, 16):
            pt = curves[n][i]
            count, h_count = oracles[n][0][i], oracles[n][1][i]
            slack = float(np.abs(pt.q_star).sum()) * 0.08 + 1.0 / n
            ok &= count > 0 and h_count <= pt.h + slack
            gaps.append(abs(h_count - pt.h))
        ok &= gaps[-1] <= 0.12
        ok &= gaps[1] <= gaps[0] + 0.02 and gaps[2] <= gaps[1] + 0.02
        worst_gap = max(worst_gap, gaps[-1])
    report(f"criterion 9: oracle vs Legendre (worst final gap "
           f"{worst_gap:.3f})", ok)


def test_10_domination_and_subsystems(diag_cocycle, rotation_cocycle,
                                      pos_cocycle):
    """Domination verdicts on the reference tuples, and dominated
    subsystems whose per-symbol block pressure approaches the base
    pressure as the word length grows."""
    diag = domination.domination_test(diag_cocycle, 1, n_range=range(2, 11))
    rot = domination.domination_test(rotation_cocycle, 1, n_range=range(2, 11))
    ok = (diag.verdict == "pass"
          and abs(diag.slope + np.log(4)) <= 0.1
          and rot.verdict == "fail")

    q_list = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    base = pressure.pressure_table(pos_cocycle, q_list, 12).value
    gaps = []
    kappa_ok = True
    for base_n in (2, 4):
        sub = domination.build_dominated_subsystem(pos_cocycle, base_n, 1, (2,))
        ok &= sub.report.passed

        mats = sub.tuple_cocycle.generators
        for t in (1, 2):
            kap = sub.kappa[t - 1]
            for Bi in mats:
                for Bj in mats:
                    lhs = matalg.log_spectral_norm(matalg.wedge(Bj @ Bi, t))
                    rhs = (np.log(kap)
                           + matalg.log_spectral_norm(matalg.wedge(Bi, t))
                           + matalg.log_spectral_norm(matalg.wedge(Bj, t)))
                    kappa_ok &= lhs >= rhs - 1e-9

        depth = 5 if base_n == 2 else 3
        values = domination.subsystem_pressure(sub, q_list, depth)
        gaps.append(np.abs(values / sub.ell - base))
    shrinking = (gaps[1] < gaps[0]).all()
    ok &= kappa_ok and shrinking
    gap_text = ", ".join(f"{tuple(q)}: {g0:.4f}->{g1:.4f}"
                         for q, g0, g1 in zip(q_list.tolist(), *gaps))
    report(f"criterion 10: domination + subsystems (gaps {gap_text})", ok)
