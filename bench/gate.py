"""Correctness gate: facts about a job's output that hold exactly, so a
faster program can be checked without trusting its own numerics.

* P_n(0) = (1/n) log #L_n.
* P_n(1, ..., 1) = (1/n) log of the transfer-matrix sum of
  prod |det A_s|, because log|det| is additive along a word.
* P_n(e_1) = (1/n) log sum_I ||A_I||, from direct word products.
* The diagonal anchor has P_n(q) = log(2**(q1-q2) + 3**(q1-q2)).
* P_n is midpoint convex along every grid line.
* Every spectrum value h lies in [0, P_n(0)] = [0, (1/n) log #L_n]:
  h(alpha) is an infimum over q that includes q = 0.  On the full
  shift the ceiling is the shift entropy; on other shifts the finite-n
  value can exceed the shift entropy (k = 3 with two ones per row,
  n = 10: (1/10) log(3 * 2**9) = 0.734 > log 2), so the shift entropy
  is not a ceiling at finite n.
* Every oracle count is at most #L_n.
* Every exit code is a documented verdict.

The empirical QM and kappa brackets are not rigorous, so they are not
checked.
"""

from __future__ import annotations

import math

import numpy as np

from lyapspec import sft
from lyapspec.cocycle import OneStepCocycle, product

#: exit codes that are verdicts; 2/3/4 on generated valid input are failures
VERDICT_EXITS = {0, 1, 5, 6, 7}

TOL = 1e-9


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a lyapspec CSV, manifest lines skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        raise ValueError("empty CSV")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def strip_wall_time(text: str) -> str:
    """The CSV without its ``# wall_time_s`` manifest line, the only
    line that differs between two runs of the same job."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# wall_time_s"))


def log_det_sum(c: OneStepCocycle, n: int) -> float:
    """log of sum over admissible words of prod |det A_s|, by the
    transfer matrix (Q with columns scaled by |det A_j|), in log space."""
    logdet = np.array([np.linalg.slogdet(A)[1] for A in c.generators])
    v = logdet.copy()
    for _ in range(n - 1):
        # v_j <- log|det A_j| + logsumexp_i (v_i over i -> j)
        m = v.max()
        v = logdet + m + np.log(np.exp(v - m) @ c.Q.entries)
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def log_norm_sum(c: OneStepCocycle, n: int) -> float:
    """log of sum over admissible words of ||A_I||_2, product by product."""
    logs = np.array([math.log(np.linalg.norm(product(c, w), 2))
                     for w in sft.enumerate_words(c.Q, n)])
    m = logs.max()
    return float(m + np.log(np.exp(logs - m).sum()))


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_pressure_table(c: OneStepCocycle, n: int, header, rows,
                         diagonal: bool) -> list[str]:
    """Checks on the q columns and the P_n column of a ``pressure`` or
    ``subsystem`` table."""
    d = c.d
    qs = np.array([[float(x) for x in row[:d]] for row in rows])
    P = np.array([float(row[header.index("P_n")]) for row in rows])
    errors = []
    facts = {
        "P_n(0)": (np.zeros(d), lambda: math.log(sft.count_words(c.Q, n)) / n),
        "P_n(1..1)": (np.ones(d), lambda: log_det_sum(c, n) / n),
        "P_n(e1)": (np.eye(d)[0], lambda: log_norm_sum(c, n) / n),
    }
    for name, (q, exact) in facts.items():
        hit = np.flatnonzero((np.abs(qs - q) < 1e-12).all(axis=1))
        if hit.size:
            got, want = float(P[hit[0]]), exact()
            if not _close(got, want):
                errors.append(f"{name} = {got!r}, exact {want!r}")
    if diagonal:
        t = qs[:, 0] - qs[:, 1]
        want = np.log(2.0**t + 3.0**t)
        bad = np.flatnonzero(np.abs(P - want) > TOL * np.maximum(1.0, np.abs(want)))
        if bad.size:
            i = bad[0]
            errors.append(f"diagonal closed form at q={qs[i].tolist()}: "
                          f"{float(P[i])!r} vs {float(want[i])!r}")
    errors += _convexity(qs, P)
    return errors


def _convexity(qs: np.ndarray, P: np.ndarray) -> list[str]:
    """Midpoint convexity on consecutive triples along each grid axis."""
    index = {tuple(np.round(q, 9)): i for i, q in enumerate(qs)}
    for axis in range(qs.shape[1]):
        values = np.unique(qs[:, axis])
        if values.size < 3:
            continue
        step = float(np.min(np.diff(values)))
        for i, q in enumerate(qs):
            lo, hi = q.copy(), q.copy()
            lo[axis] -= step
            hi[axis] += step
            a, b = index.get(tuple(np.round(lo, 9))), index.get(tuple(np.round(hi, 9)))
            if a is not None and b is not None:
                if P[i] > (P[a] + P[b]) / 2 + TOL * max(1.0, abs(P[i])):
                    return [f"P_n not midpoint convex at q={q.tolist()} along axis {axis + 1}"]
    return []


def check_spectrum_table(c: OneStepCocycle, n: int, header, rows) -> list[str]:
    words = sft.count_words(c.Q, n)
    ceiling = math.log(words) / n
    errors = []
    for row in rows:
        cell = dict(zip(header, row))
        if cell["h"] != "":
            h = float(cell["h"])
            if not -TOL <= h <= ceiling + TOL:
                errors.append(f"h = {h!r} outside [0, {ceiling!r}]")
        if "count" in cell and not 0 <= int(cell["count"]) <= words:
            errors.append(f"oracle count {cell['count']} outside [0, #L_n = {words}]")
    return errors


def check_job(job, code, csv_text: str | None) -> list[str]:
    """Errors for one job run: its exit code and, on exit 0, its CSV."""
    if code not in VERDICT_EXITS:
        return [f"exit code {code} is not a verdict"]
    if code != 0 or job.command not in ("pressure", "spectrum", "subsystem"):
        return []
    if csv_text is None:
        return ["no CSV written"]
    try:
        header, rows = parse_csv(csv_text)
        if job.command == "spectrum":
            return check_spectrum_table(job.cocycle, job.n, header, rows)
        return check_pressure_table(job.cocycle, job.n, header, rows,
                                    diagonal=job.slot == "diag")
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable CSV: {exc!r}"]
