"""Domination testing via singular-value-gap decay and invariant
projective multicone certificates, plus construction of equal-length
dominated subsystems and their block pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matalg, sft
from .cocycle import (
    BudgetError, OneStepCocycle, log_wedge_norm_matrices, product, profile_matrices, profile_matrix,
)
from .pressure import PressureEstimate, log_sums, weight_differences
from .sft import Word, full_shift

SLOPE_TOL = 1e-3
CONE_MARGIN = 1e-3

#: cap on #base words, and on #blocks enumerated when testing an
#: extended tuple
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
    nothing either way).  Every length comes from one profile sweep;
    a length of more than ``budget`` words raises BudgetError before it.
    """
    if not 1 <= i <= c.d - 1:
        raise ValueError(f"index {i} outside 1..{c.d - 1}")
    lengths = sorted(n_range)
    if len(lengths) < 2:
        raise ValueError(f"need at least 2 word lengths, got {len(lengths)}")
    profs = profile_matrices(c, lengths, budget=budget)
    log_ratios = np.array([n * float((profs[n][:, i] - profs[n][:, i - 1]).max())
                           for n in lengths])
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
    return OneStepCocycle(Q=c.Q, generators=list(c.wedges[t]))


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
    """Projective balls of one radius whose union every generator maps
    into its interior.

    ``kind`` is *certified* when every (ball, generator) pair passed the
    S-lemma test of :func:`_pair_margins`: the image of each ball then
    lies in the ball nearest to the image of its center, at least
    ``margin`` (rad) inside its rim, up to rounding.  It is *empirical*
    when some ball needed the union of balls: each such ball was checked
    at ``samples_per_ball`` seeded directions (0 when no ball was), and
    its margin is an estimate, not a proof.  ``margin`` is the least
    over the certified pairs and the sampled balls."""

    t: int
    centers: np.ndarray = field(repr=False)
    radius: float
    margin: float
    kind: str
    samples_per_ball: int


#: bisection resolution (rad) of a certified pair's image radius
RHO_TOL = 1e-7

#: an S-lemma matrix counts as positive definite when its least
#: eigenvalue exceeds this fraction of the scale of its terms
DEFINITE_TOL = 1e-12


def _canon_rows(V: np.ndarray) -> np.ndarray:
    """Unit representatives of the projective points in the rows of V,
    each signed so that its largest-|entry| is positive.  The stacked
    row products are one BLAS dot each, bit-identical to ``v @ v``."""
    V = V / np.sqrt(V[..., None, :] @ V[..., :, None])[..., 0]
    big = np.take_along_axis(V, np.abs(V).argmax(axis=-1)[..., None], -1)
    return np.where(big > 0, V, -V)


def _proj_dist(V: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Angular distance from each row of V to its nearest center: the
    arccos of the largest |cosine|, since arccos is decreasing."""
    cos = np.abs(centers @ V[:, :, None])[..., 0].max(axis=1)
    return np.arccos(cos.clip(-1.0, 1.0))


def _ball_frames(centers: np.ndarray, radius: float) -> np.ndarray:
    """Per unit center c, a T with T^T (c c^T - cos^2 r I) T = J =
    diag(1, -1, ..., -1): the Householder reflection whose first column
    is +-c, its columns scaled by 1/sin r along c and 1/cos r across."""
    D = centers.shape[1]
    u = centers.copy()
    u[:, 0] += np.where(centers[:, 0] >= 0, 1.0, -1.0)
    H = np.eye(D) - 2 * u[:, :, None] * u[:, None, :] / (u * u).sum(axis=1)[:, None, None]
    scale = np.full(D, 1 / np.cos(radius))
    scale[0] = 1 / np.sin(radius)
    return H * scale


def _pair_margins(
    reps: np.ndarray, centers: np.ndarray, radius: float, floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """S-lemma margins of every (ball j, generator B) pair, batched.

    The ball K(c, r) is {v : v^T M v >= 0} with M = c c^T - cos^2 r I.
    With c' the center nearest to B c, B K(c, r) lies in int K(c', rho)
    iff some lam >= 0 makes B^T M'(rho) B - lam M positive definite
    (the S-lemma: Yakubovich 1971; Polik and Terlaky 2007).  In the
    frame of :func:`_ball_frames` M becomes J, and the lam that make
    A - lam J definite form the open interval between the top two real
    eigenvalues of the pencil (A, J); it holds a lam >= 0 iff the top
    one is positive.  One stacked ``eigvals`` proposes the midpoint and
    one stacked ``eigvalsh`` decides.  A bisection on rho, which keeps the
    end that passed, finds the least passing rho* to RHO_TOL.

    Returns the margins r - rho*, shape (balls, generators), -inf where
    rho = r - floor fails, and the index of each pair's c'."""
    nb, D = centers.shape
    BT = reps[None] @ _ball_frames(centers, radius)[:, None]
    images = (reps[None] @ centers[:, None, :, None])[..., 0]
    nearest = np.abs(images @ centers.T).argmax(axis=-1)
    g = (centers[nearest][..., None, :] @ BT).reshape(-1, D)
    gg = g[:, :, None] * g[:, None, :]
    G = (BT.swapaxes(-1, -2) @ BT).reshape(-1, D, D)
    # the size of the terms of A - lam J, against which definiteness is judged
    g2, trG = (g * g).sum(axis=1), np.trace(G, axis1=1, axis2=2)
    J = np.diag(np.r_[1.0, -np.ones(D - 1)])

    def passes(idx, rho):
        """S-lemma test of B K(c, r) in int K(c', rho) for the pairs idx."""
        s = np.cos(rho) ** 2
        A = gg[idx] - s[:, None, None] * G[idx]
        mu = np.sort(np.linalg.eigvals(J @ A).real, axis=-1)
        lam = (mu[:, -2] + mu[:, -1]) / 2
        least = np.linalg.eigvalsh(A - lam[:, None, None] * J)[:, 0]
        scale = g2[idx] + s * trG[idx] + np.abs(lam)
        return (mu[:, -1] > 0) & (least > DEFINITE_TOL * scale)

    top = radius - floor
    ok = np.flatnonzero(passes(np.arange(len(g)), np.full(len(g), top)))
    lo, hi = np.zeros(len(ok)), np.full(len(ok), top)
    for _ in range(int(np.ceil(np.log2(max(top, RHO_TOL) / RHO_TOL)))):
        mid = (lo + hi) / 2
        p = passes(ok, mid)
        lo, hi = np.where(p, lo, mid), np.where(p, mid, hi)
    margins = np.full(len(g), -np.inf)
    margins[ok] = radius - hi
    return margins.reshape(nb, -1), nearest


def _ball_samples(center: np.ndarray, radius: float, count: int, rng) -> np.ndarray:
    """The center and ``count`` directions in the closed projective ball
    around it, weighted toward the boundary where invariance is
    tightest: every third direction (j % 3 == 0) lies at an inner
    angle.  One normal draw and one uniform draw; a direction parallel
    to the center (in 1-D, every one) is dropped."""
    U = rng.standard_normal((count, center.shape[0]))
    theta = np.full(count, radius)
    theta[::3] *= rng.uniform(0.3, 1.0, size=len(theta[::3]))
    U -= (U @ center)[:, None] * center
    nrm = np.sqrt((U * U).sum(axis=1))
    keep = nrm >= 1e-12
    U, theta = U[keep] / nrm[keep, None], theta[keep, None]
    return _canon_rows(np.vstack([center, np.cos(theta) * center + np.sin(theta) * U]))


def _sampled_margin(
    reps: np.ndarray, centers: np.ndarray, radius: float, count: int, rng, balls,
) -> float:
    """Sampled invariance margin of the given balls against the union
    of all balls: min over those balls, generators and sampled
    directions of radius - dist(image, nearest center)."""
    margin = np.inf
    for j in balls:
        pts = _ball_samples(centers[j], radius, count, rng)
        for B in reps:
            dist = _proj_dist(_canon_rows(pts @ B.T), centers).max()
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
    """Search for a projective multicone that every generator maps into
    its interior.

    Seeded random orbits of the projective action locate the attractor;
    the visited directions are covered greedily with balls of the given
    angular radius.  Each (ball, generator) pair is then certified by
    the S-lemma against the ball nearest to the image of its center
    (:func:`_pair_margins`); a pair counts when its margin exceeds
    ``margin_tol``.  A ball with a pair that does not count needs the
    union of balls, and is checked at up to 4096 seeded directions
    instead, which makes the certificate *empirical*.  Returns None
    when no certificate passes (inconclusive, not a disproof).
    """
    reps = np.array(reps, dtype=float)
    D = reps.shape[1]
    rng = np.random.default_rng(seed)

    # the orbits step together; stacked products match B @ v bit for bit
    draws = [(rng.standard_normal(D), rng.integers(len(reps), size=burn_in + collect))
             for _ in range(n_starts)]
    v, orbit = _canon_rows(np.array([u for u, _ in draws])), []
    for step in np.array([s for _, s in draws]).T:
        v = _canon_rows((reps[step] @ v[:, :, None])[..., 0])
        orbit.append(v)
    visited = np.stack(orbit[burn_in:], axis=1).reshape(-1, D)
    # close the sample under one application of every generator
    visited = np.vstack([visited, _canon_rows((reps @ visited[:, None, :, None]).reshape(-1, D))])

    # greedy cover of the attractor sample with balls of the target radius
    centers = []
    uncovered = visited
    while uncovered.size:
        center = uncovered[0]
        centers.append(center)
        uncovered = uncovered[_proj_dist(uncovered, center[None]) > radius / 2]
        if len(centers) > 4 * len(reps) * D + 16:
            return None  # attractor spreads over projective space
    centers = np.array(centers)

    # the multicone must be a proper subset of projective space
    probes = _canon_rows(rng.standard_normal((512, D)))
    if not (_proj_dist(probes, centers) > radius + margin_tol).any():
        return None

    margins, _ = _pair_margins(reps, centers, radius, margin_tol)
    certified = margins > margin_tol
    margin = float(margins[certified].min(initial=np.inf))
    sampled = np.flatnonzero(~certified.all(axis=1))
    samples = 0
    if sampled.size:
        # sampling density from the projective Lipschitz constant
        lip = max(float(np.exp(ls[0] - ls[-1])) for ls in map(matalg.log_singular_values, reps))
        samples = min(max(32, int(np.ceil(8 * radius * lip / margin_tol))), 4096)
        margin = min(margin, _sampled_margin(reps, centers, radius, samples, rng, sampled))
    if margin <= margin_tol:
        return None
    return MulticoneCertificate(t=t, centers=centers, radius=radius, margin=margin,
                                kind="empirical" if sampled.size else "certified",
                                samples_per_ball=samples)


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


def _block_depths(n_symbols: int) -> list[int]:
    depths = [m for m in range(1, 7) if n_symbols**m <= BLOCK_BUDGET]
    return depths if len(depths) >= 3 else list(range(1, 4))


def build_dominated_subsystem(
    c: OneStepCocycle,
    n: int,
    a: int,
    w: Word,
    pad_bound: int = 8,
) -> DominatedSubsystem:
    """Search paddings built from the typicality witness (a, w) so that
    the extended tuple {A_{J1 I J2} : I of length n} is dominated.

    Candidates are tried in increasing padding length, the empty pair
    first, so an already-dominated tuple gets empty paddings.  Every
    accepted family has one common (J1, J2), hence automatically a
    uniform total length.  More than BLOCK_BUDGET base words raise
    BudgetError before any is enumerated.
    """
    n_words = sft.count_words(c.Q, n)
    if n_words > BLOCK_BUDGET:
        raise BudgetError(
            f"{n_words} base words of length {n} exceed the budget of {BLOCK_BUDGET}"
        )
    base_words = list(sft.enumerate_words(c.Q, n))
    candidates = _padding_candidates(a, tuple(w), pad_bound)
    depths = _block_depths(len(base_words))

    c_ext = None
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
                c_ext, n_range=depths, monotone_from=depths[0], budget=BLOCK_BUDGET,
            )
            if report.passed:
                # observed 2-block almost-additivity constants: per degree t,
                # min over pairs of log||B_IJ^t|| - log||B_I^t|| - log||B_J^t||
                norms = log_wedge_norm_matrices(c_ext, (1, 2))
                one, two = norms[1], norms[2].reshape(c_ext.k, c_ext.k, c_ext.d)
                return DominatedSubsystem(
                    base_n=n, pad_left=pad_left, pad_right=pad_right,
                    ell=len(ext_words[0]), words=ext_words,
                    tuple_cocycle=c_ext, report=report,
                    log_kappa=(two - one[:, None] - one[None]).min(axis=(0, 1)),
                )
    # the worst word of the last tuple tested, none if no candidate was admissible
    worst = None if c_ext is None else ext_words[_worst_word_index(c_ext)]
    raise SubsystemSearchError(
        f"padding search exhausted (bound {pad_bound}); worst extended word: {worst}"
    )


def _worst_word_index(c_ext: OneStepCocycle) -> int:
    profs = profile_matrix(c_ext, 1)
    gaps = profs[:, 1:] - profs[:, :-1] if c_ext.d > 1 else -profs
    return int(gaps.max(axis=1).argmax())


def subsystem_pressure(sub: DominatedSubsystem, q, block_depth: int) -> PressureEstimate:
    """Block pressure of the dominated subsystem at weight q, or at every
    row of a (G, d) grid: (1/m) log sum over m-blocks of
    exp<q, Psi(B-block)>, with one sweep of the block lengths m and
    m - 1 and one Gibbs pass per length.

    Lower bracket from the observed 2-block almost-additivity constants
    (supermultiplicativity with kappa), upper bracket by Fekete when
    all t_i >= 0, and ``cauchy`` the change from m - 1 blocks.  Fields
    are arrays of shape q.shape[:-1], NaN for an absent bracket.
    Divide the value by the subsystem word length to compare with the
    base pressure.  More than 30 * BLOCK_BUDGET blocks raise
    BudgetError.
    """
    if block_depth < 1:
        raise ValueError("block_depth must be >= 1")
    budget = BLOCK_BUDGET * 30
    n_blocks = sub.tuple_cocycle.k ** block_depth
    if n_blocks > budget:
        raise BudgetError(
            f"{n_blocks} blocks exceed the budget of {budget}; lower block_depth"
        )
    q = np.asarray(q, dtype=float)
    m, shape = block_depth, q.shape[:-1]
    logs = log_sums(sub.tuple_cocycle, q.reshape(-1, q.shape[-1]), {m, m - 1} - {0}, budget)
    value = (logs[m] / m).reshape(shape)

    t = weight_differences(q)
    # deg-d wedge norms are multiplicative exactly; kappa there is 1
    log_c1 = sum(np.where(t[..., i] >= 0, t[..., i] * lk, 0.0)
                 for i, lk in enumerate(sub.log_kappa))
    lower = value + log_c1 / m
    upper = np.where((t >= 0).all(axis=-1), value, np.nan)
    cauchy = (np.abs(value - (logs[m - 1] / (m - 1)).reshape(shape)) if m > 1
              else np.full(shape, np.nan))
    return PressureEstimate(q=q, n=m, value=value, lower=lower, upper=upper, cauchy=cauchy)
