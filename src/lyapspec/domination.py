"""Domination testing via singular-value-gap decay and invariant
projective multicone certificates, plus construction of equal-length
dominated subsystems and their block pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matalg, sft
from .cocycle import OneStepCocycle, product, profile_matrix
from .pressure import PressureEstimate, log_sn, weight_differences
from .sft import Word, full_shift

SLOPE_TOL = 1e-3
CONE_MARGIN = 1e-3

#: cap on #blocks enumerated when testing an extended tuple
BLOCK_BUDGET = 300_000


@dataclass
class IndexReport:
    """Singular-gap decay at one index: log r(n) = max over length-n
    words of log(sigma_{i+1}/sigma_i), its fitted slope, and a verdict
    in {pass, fail, inconclusive}."""

    index: int
    lengths: list[int]
    log_ratios: np.ndarray
    slope: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass
class DominationReport:
    entries: list[IndexReport]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def verdict(self) -> str:
        verdicts = {e.verdict for e in self.entries}
        if verdicts == {"pass"}:
            return "pass"
        if "fail" in verdicts:
            return "fail"
        return "inconclusive"


def domination_test(
    c: OneStepCocycle,
    i: int,
    n_range=range(2, 15),
    monotone_from: int = 4,
    budget: int = BLOCK_BUDGET * 100,
) -> IndexReport:
    """Exact max singular-value ratio per word length, by enumeration.

    Pass: fitted slope < -1e-3 and ratios strictly decreasing from
    ``monotone_from`` on.  Fail: no decay over the tested range.
    Anything else is inconclusive (a plateau near ratio 1 proves
    nothing either way).
    """
    if not 1 <= i <= c.d - 1:
        raise ValueError(f"index {i} outside 1..{c.d - 1}")
    lengths = sorted(n_range)
    if len(lengths) < 2:
        raise ValueError(f"need at least 2 word lengths, got {len(lengths)}")
    log_ratios = np.empty(len(lengths))
    for j, n in enumerate(lengths):
        profs = profile_matrix(c, n, budget=budget)
        log_ratios[j] = n * float((profs[:, i] - profs[:, i - 1]).max())
    slope = float(np.polyfit(lengths, log_ratios, 1)[0])

    tail = [r for n, r in zip(lengths, log_ratios) if n >= monotone_from]
    strictly_decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    total_decay = float(log_ratios[0] - log_ratios[-1])

    if slope < -SLOPE_TOL and strictly_decreasing:
        verdict = "pass"
    elif total_decay <= 1e-9:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return IndexReport(index=i, lengths=lengths, log_ratios=log_ratios,
                       slope=slope, verdict=verdict)


def domination_report(c: OneStepCocycle, n_range=range(2, 15), **kw) -> DominationReport:
    """Domination test at every index i = 1..d-1."""
    return DominationReport(
        entries=[domination_test(c, i, n_range=n_range, **kw) for i in range(1, c.d)]
    )


def wedge_cocycle(c: OneStepCocycle, t: int) -> OneStepCocycle:
    """The one-step cocycle generated by the degree-t wedge reps."""
    return OneStepCocycle(Q=c.Q, generators=[matalg.wedge(A, t) for A in c.generators])


def wedge_reduction_test(c: OneStepCocycle, i: int, n_range=range(2, 11)) -> bool:
    """Consistency: domination at index i agrees with domination at
    index 1 of the degree-i wedge cocycle."""
    direct = domination_test(c, i, n_range=n_range)
    reduced = domination_test(wedge_cocycle(c, i), 1, n_range=n_range)
    return direct.verdict == reduced.verdict


# ---------------------------------------------------------------------------
# projective multicone certificates

@dataclass
class MulticoneCertificate:
    """Finite family of projective balls strictly invariant under every
    generator's projective action, with the verification margin (rad)."""

    t: int
    centers: np.ndarray = field(repr=False)
    radius: float
    margin: float
    seed: int
    samples_per_ball: int


def _canon(v: np.ndarray) -> np.ndarray:
    """Unit representative of a projective point (sign-normalized)."""
    v = v / np.linalg.norm(v)
    j = int(np.argmax(np.abs(v)))
    return v if v[j] > 0 else -v


def _proj_dist(u: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Angular distance of the projective point u to each row of V."""
    d = np.abs(V @ u).clip(-1.0, 1.0)
    return np.arccos(d)


def _ball_samples(center: np.ndarray, radius: float, count: int, rng) -> np.ndarray:
    """Sample directions in the closed projective ball around center,
    weighted toward the boundary where invariance is tightest."""
    D = center.shape[0]
    pts = [center]
    for j in range(count):
        u = rng.standard_normal(D)
        u -= (u @ center) * center
        nrm = np.linalg.norm(u)
        if nrm < 1e-12:
            continue
        u /= nrm
        # two thirds of samples on the boundary sphere, rest inside
        theta = radius if j % 3 else radius * rng.uniform(0.3, 1.0)
        pts.append(np.cos(theta) * center + np.sin(theta) * u)
    return np.array([_canon(p) for p in pts])


def _verify_cone(
    reps: list[np.ndarray],
    centers: np.ndarray,
    radius: float,
    samples_per_ball: int,
    rng,
) -> float:
    """Worst-case invariance margin: min over balls, generators and
    sampled directions of radius - dist(image, nearest center)."""
    margin = np.inf
    for center in centers:
        pts = _ball_samples(center, radius, samples_per_ball, rng)
        for B in reps:
            images = pts @ B.T
            for img in images:
                dist = _proj_dist(_canon(img), centers).min()
                margin = min(margin, radius - float(dist))
    return margin


def multicone_search(
    reps: list[np.ndarray],
    t: int = 1,
    seed: int = 0,
    radius: float = 0.2,
    margin_tol: float = CONE_MARGIN,
    n_starts: int = 24,
    burn_in: int = 60,
    collect: int = 40,
) -> MulticoneCertificate | None:
    """Heuristic search for a strictly invariant projective multicone.

    Random orbits of the projective action locate the attractor; the
    visited directions are covered greedily with balls of the given
    angular radius, and strict invariance is verified by sampling with
    a margin.  Returns None when no verifiable certificate is found
    (inconclusive, not a disproof).
    """
    reps = [np.asarray(B, dtype=float) for B in reps]
    D = reps[0].shape[0]
    rng = np.random.default_rng(seed)

    visited = []
    for _ in range(n_starts):
        v = _canon(rng.standard_normal(D))
        for step in range(burn_in + collect):
            B = reps[rng.integers(len(reps))]
            v = _canon(B @ v)
            if step >= burn_in:
                visited.append(v)
    # close the sample under one application of every generator
    visited.extend(_canon(B @ v) for v in list(visited) for B in reps)
    visited = np.array(visited)

    # greedy cover of the attractor sample with balls of the target radius
    centers = []
    uncovered = visited
    while uncovered.size:
        center = uncovered[0]
        centers.append(center)
        keep = _proj_dist_matrix(uncovered, center) > radius / 2
        uncovered = uncovered[keep]
        if len(centers) > 4 * len(reps) * D + 16:
            return None  # attractor spreads over projective space
    centers = np.array(centers)

    # the multicone must be a proper subset of projective space
    probes = np.array([_canon(rng.standard_normal(D)) for _ in range(512)])
    outside = np.array([
        _proj_dist(p, centers).min() > radius + margin_tol for p in probes
    ])
    if not outside.any():
        return None

    # sampling density from the projective Lipschitz constant
    lip = max(
        float(np.exp(matalg.log_singular_values(B)[0] - matalg.log_singular_values(B)[-1]))
        for B in reps
    )
    samples = max(32, int(np.ceil(8 * radius * lip / margin_tol)))
    samples = min(samples, 4096)

    margin = _verify_cone(reps, centers, radius, samples, rng)
    if margin <= margin_tol:
        return None
    return MulticoneCertificate(t=t, centers=centers, radius=radius, margin=margin,
                                seed=seed, samples_per_ball=samples)


def _proj_dist_matrix(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.arccos(np.abs(V @ u).clip(-1.0, 1.0))


def verify_certificate(
    reps: list[np.ndarray], cert: MulticoneCertificate, density_factor: int = 2,
    seed: int | None = None,
) -> float:
    """Re-verify a certificate with independent, denser sampling;
    returns the new margin."""
    rng = np.random.default_rng(cert.seed + 1 if seed is None else seed)
    return _verify_cone(
        [np.asarray(B, dtype=float) for B in reps],
        cert.centers, cert.radius,
        cert.samples_per_ball * density_factor, rng,
    )


# ---------------------------------------------------------------------------
# dominated subsystems

@dataclass
class DominatedSubsystem:
    """Equal-length extended word family J1·I·J2 over the base words of
    length n, whose induced one-step tuple is dominated at all indices.
    """

    base_n: int
    pad_left: Word
    pad_right: Word
    ell: int
    words: list[Word]
    tuple_cocycle: OneStepCocycle
    report: DominationReport
    log_kappa: np.ndarray  # per wedge degree t = 1..d

    @property
    def kappa(self) -> np.ndarray:
        return np.exp(self.log_kappa)


class SubsystemSearchError(RuntimeError):
    """The padding search was exhausted without a dominated tuple."""


def _padding_candidates(a: int, w: Word, bound: int) -> list[Word]:
    """Words over the witness tokens {a, a·w} of length <= bound."""
    tokens = [(a,), (a,) + tuple(w)]
    out = {(): None}
    frontier = [()]
    while frontier:
        nxt = []
        for word in frontier:
            for tok in tokens:
                cand = word + tok
                if len(cand) <= bound and cand not in out:
                    out[cand] = None
                    nxt.append(cand)
        frontier = nxt
    return sorted(out, key=lambda word: (len(word), word))


def _block_depths(n_symbols: int, max_depth: int = 6, budget: int = BLOCK_BUDGET) -> list[int]:
    depths = [m for m in range(1, max_depth + 1) if n_symbols**m <= budget]
    return depths if len(depths) >= 3 else list(range(1, 4))


def _tuple_kappa(c_ext: OneStepCocycle) -> np.ndarray:
    """Observed 2-block almost-additivity constants: per degree t,
    min over pairs of log||B_IJ^t|| - log||B_I^t|| - log||B_J^t||."""
    d = c_ext.d
    logs = np.full(d, np.inf)
    norms = {
        (s, t): matalg.log_spectral_norm(c_ext.wedges[t][s])
        for s in range(c_ext.k) for t in range(1, d + 1)
    }
    for t in range(1, d + 1):
        for sa in range(c_ext.k):
            for sb in range(c_ext.k):
                M = c_ext.wedges[t][sb] @ c_ext.wedges[t][sa]
                val = matalg.log_spectral_norm(M) - norms[(sa, t)] - norms[(sb, t)]
                logs[t - 1] = min(logs[t - 1], val)
    return logs


def build_dominated_subsystem(
    c: OneStepCocycle,
    n: int,
    a: int,
    w: Word,
    pad_bound: int = 8,
    max_block_depth: int = 6,
    block_budget: int = BLOCK_BUDGET,
) -> DominatedSubsystem:
    """Search paddings built from the typicality witness (a, w) so that
    the extended tuple {A_{J1 I J2} : I of length n} is dominated.

    Candidates are tried in increasing padding length, the empty pair
    first, so an already-dominated tuple gets empty paddings.  Every
    accepted family has one common (J1, J2), hence automatically a
    uniform total length.
    """
    base_words = list(sft.enumerate_words(c.Q, n))
    candidates = _padding_candidates(a, tuple(w), pad_bound)
    depths = _block_depths(len(base_words), max_block_depth, block_budget)

    worst: Word | None = None
    for pad_left in candidates:
        for pad_right in candidates:
            ok = True
            for I in base_words:
                ext = pad_left + I + pad_right
                if not sft.is_admissible(c.Q, ext):
                    ok = False
                    break
                # blocks must concatenate admissibly in the base shift
                if not c.Q.allows(ext[-1], ext[0]):
                    ok = False
                    break
            if not ok:
                continue
            ext_words = [pad_left + I + pad_right for I in base_words]
            mats = [product(c, word) for word in ext_words]
            c_ext = OneStepCocycle(Q=full_shift(len(mats)), generators=mats)
            report = domination_report(
                c_ext, n_range=depths, monotone_from=depths[0],
                budget=block_budget,
            )
            worst_idx = _worst_word_index(c_ext)
            worst = ext_words[worst_idx]
            if report.passed:
                return DominatedSubsystem(
                    base_n=n, pad_left=pad_left, pad_right=pad_right,
                    ell=len(ext_words[0]), words=ext_words,
                    tuple_cocycle=c_ext, report=report,
                    log_kappa=_tuple_kappa(c_ext),
                )
    raise SubsystemSearchError(
        f"padding search exhausted (bound {pad_bound}); worst extended word: {worst}"
    )


def _worst_word_index(c_ext: OneStepCocycle) -> int:
    profs = profile_matrix(c_ext, 1)
    gaps = profs[:, 1:] - profs[:, :-1] if c_ext.d > 1 else -profs
    return int(gaps.max(axis=1).argmax())


def subsystem_pressure(
    sub: DominatedSubsystem, q, block_depth: int, budget: int = BLOCK_BUDGET * 30,
) -> PressureEstimate:
    """Block pressure of the dominated subsystem at weight q:
    (1/m) log sum over m-blocks of exp<q, Psi(B-block)>.

    Lower bracket from the observed 2-block almost-additivity constants
    (supermultiplicativity with kappa), upper bracket by Fekete when
    all t_i >= 0.  Divide the value by the subsystem word length to
    compare with the base pressure.
    """
    if block_depth < 1:
        raise ValueError("block_depth must be >= 1")
    n_blocks = sub.tuple_cocycle.k ** block_depth
    if n_blocks > budget:
        raise ValueError(
            f"{n_blocks} blocks exceed the budget of {budget}; lower block_depth"
        )
    q = np.asarray(q, dtype=float)
    c_ext = sub.tuple_cocycle
    value = log_sn(c_ext, q, block_depth, budget=budget) / block_depth

    t = weight_differences(q)
    # deg-d wedge norms are multiplicative exactly; kappa there is 1
    log_c1 = float(sum(ti * lk for ti, lk in zip(t, sub.log_kappa) if ti >= 0))
    lower = value + log_c1 / block_depth
    upper = value if bool((t >= 0).all()) else None
    cauchy = None
    if block_depth > 1:
        prev = log_sn(c_ext, q, block_depth - 1, budget=budget) / (block_depth - 1)
        cauchy = abs(value - prev)
    return PressureEstimate(q=q, n=block_depth, value=value, lower=lower,
                            upper=upper, cauchy=cauchy)
