"""Domination testing via singular-value-gap decay and invariant
projective multicone certificates, plus construction of equal-length
dominated subsystems and their block pressure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import matalg, sft
from .cocycle import (BudgetError, OneStepCocycle, _check_grid, log_wedge_norm_matrices,
                      word_products)
from .pressure import log_sums
from .sft import Word, full_shift

SLOPE_TOL = 1e-3
CONE_MARGIN = 1e-3
CONE_RADIUS = 0.2  # rad, of the balls of a multicone

#: seeded orbits of a multicone search, and the steps each takes before
#: and while its directions are collected
ORBIT_STARTS, ORBIT_BURN_IN, ORBIT_COLLECT = 24, 60, 40

#: most blocks of one depth of an extended tuple's domination test,
#: which needs the depths 1..3, so at most MAX_BASE_WORDS base words
BLOCK_BUDGET = 300_000
MAX_BASE_WORDS = 66  # 66**3 <= BLOCK_BUDGET < 67**3

#: most candidate paddings, and most (J1, J2) pairs, of one padding
#: search: the default bound 8 makes at most 88 candidates (|w| = 1),
#: so at most 7,744 pairs; a tested pair took 2.5-2.7 ms at n = 2,
#: d = 2 on 2 cores, so a search stops after about 30 s there
MAX_PADDINGS = 10_000


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
) -> IndexReport:
    """Exact max singular-value ratio per word length, by enumeration.

    Pass: fitted slope < -1e-3 and ratios strictly decreasing from
    ``monotone_from`` on.  Fail: no decay over the tested range.
    Anything else is inconclusive (a plateau near ratio 1 proves
    nothing either way).  Every length comes from one log-norm sweep;
    log(sigma_{i+1}/sigma_i) is the second difference at i of the log
    wedge norms (log ||A^{wedge 0}|| = 0).  A longest length of more
    than ``c.budget`` words raises BudgetError before the sweep.
    """
    if not 1 <= i <= c.d - 1:
        raise ValueError(f"index {i} outside 1..{c.d - 1}")
    lengths = sorted(n_range)
    if len(lengths) < 2:
        raise ValueError(f"need at least 2 word lengths, got {len(lengths)}")
    logs = log_wedge_norm_matrices(c, lengths)
    log_ratios = np.array([float(np.diff(logs[n], n=2, axis=1, prepend=0.0)[:, i - 1].max())
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


# ---------------------------------------------------------------------------
# projective multicone certificates

@dataclass
class MulticoneCertificate:
    """Projective balls of one radius whose union every generator maps
    into its interior.

    At D = 2 ``kind`` is always *certified*, with ``samples_per_ball``
    0: every image arc lies at least ``margin`` (rad) inside the ball
    nearest to the image of its center, or inside the union of balls
    for a ball that needs the union, up to rounding
    (:func:`_arc_margins`).  At D >= 3 it is *certified* when every
    (ball, generator) pair passed the S-lemma test of
    :func:`_pair_margins`: the image of each ball then lies in the ball
    nearest to the image of its center, at least ``margin`` inside its
    rim, up to rounding.  It is *empirical* when some ball needed the
    union of balls: each such ball was checked at ``samples_per_ball``
    seeded directions (0 when no ball was), and its margin is an
    estimate, not a proof.  ``margin`` is the least over the certified
    pairs and the balls checked against the union."""

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


def _unit_rows(V: np.ndarray) -> np.ndarray:
    """The rows of V over their norms.  The stacked row products are one
    BLAS dot each, bit-identical to ``v @ v``."""
    return V / np.sqrt(V[..., None, :] @ V[..., :, None])[..., 0]


def _canon_rows(V: np.ndarray) -> np.ndarray:
    """Unit representatives of the projective points in the rows of V,
    each signed so that its largest-|entry| is positive."""
    V = _unit_rows(V)
    big = np.take_along_axis(V, np.abs(V).argmax(axis=-1)[..., None], -1)
    return np.where(big > 0, V, -V)


def _proj_dist(V: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Angular distance from each row of V to its nearest center: the
    arccos of the largest |cosine|, since arccos is decreasing.  One
    gemv per center and a running maximum; with two or more rows and
    centers its dots are bit-identical to the stacked
    ``centers @ V[:, :, None]``."""
    cos = np.abs(V @ centers[0])
    for c in centers[1:]:
        np.maximum(cos, np.abs(V @ c), out=cos)
    return np.arccos(np.minimum(cos, 1.0, out=cos))


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


def _boundary_radius(g: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Per pair, the farthest distance from c' of the images of the
    ball's 2(D - 1) axis points y = e_0 +- e_i of the frame of
    :func:`_ball_frames`: the arccos of the least cos^2 =
    (g_0 +- g_i)^2 / (G_00 + G_ii +- 2 G_0i), with g = c'^T B T and
    G = (B T)^T B T.  Those points lie on the ball's boundary, so no
    rho at or below this radius can pass."""
    g0, gi = g[:, :1], g[:, 1:]
    G00, Gii, G0i = G[:, :1, 0], np.diagonal(G, axis1=1, axis2=2)[:, 1:], G[:, 0, 1:]
    cos2 = np.minimum((g0 + gi) ** 2 / (G00 + Gii + 2 * G0i),
                      (g0 - gi) ** 2 / (G00 + Gii - 2 * G0i)).min(axis=1)
    return np.arccos(np.sqrt(np.minimum(cos2, 1.0)))


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
    one stacked ``eigvalsh`` decides.

    A pair passes at rho = r - floor or gets no margin.  The images of
    the ball's axis points bound its least passing rho* from below
    (:func:`_boundary_radius`, rho_est), so a bisection on rho over
    [rho_est - 1e-12, r - floor], which keeps the end that passed,
    finds rho* to RHO_TOL; each pair leaves it once its own bracket is
    that narrow, so later stacked tests take fewer rows.  A pair's rho
    is only ever one that passed, whatever rho_est says.  The search
    calls this at D >= 3 only; D = 2 has the closed form
    :func:`_arc_margins`.

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
    margins = np.full(len(g), -np.inf)
    ok = np.flatnonzero(passes(np.arange(len(g)), np.full(len(g), top)))
    est = _boundary_radius(g[ok], G[ok])
    lo, hi = np.clip(est - 1e-12, 0.0, top), np.full(len(ok), top)
    while True:
        done = ~(hi - lo > RHO_TOL)  # a NaN bracket, which never narrows, leaves too
        margins[ok[done]] = radius - hi[done]
        ok, lo, hi = ok[~done], lo[~done], hi[~done]
        if not ok.size:
            break
        mid = (lo + hi) / 2
        p = passes(ok, mid)
        lo, hi = np.where(p, lo, mid), np.where(p, mid, hi)
    return margins.reshape(nb, -1), nearest


def _arc_margins(
    reps: np.ndarray, centers: np.ndarray, radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact margins of every (ball j, generator B) pair at D = 2.

    The ball around c is the arc of RP^1 between its ends e+- = cos r c
    +- sin r c_perp, and B maps it onto the arc from B e- through B c to
    B e+, which is shorter than pi.  Angles are lifted along that arc
    from phi0 = angle(B c): cross(B c, B e+-) = +-det B sin r, so the
    turn to B e+- is atan2(|cross|, dot) signed by +-sign(det B), exact
    even near pi.  The pair margin is r minus the farthest distance of
    the arc from c', the center nearest to B c (its angle lifted next
    to phi0): that of the farther end, or pi/2 once the arc holds the
    normal of c'.  The union margin is r minus the farthest distance of
    the arc from its nearest center; that piecewise-linear distance
    peaks only at the arc's ends and at the midpoints between
    angularly adjacent centers (the last and the first one pi on).

    Returns the pair margins and the union margins, each of shape
    (balls, generators)."""
    images = (reps[None] @ centers[:, None, :, None])[..., 0]
    nearest = np.abs(images @ centers.T).argmax(axis=-1)
    side = np.array([1.0, -1.0])
    perp = centers[:, ::-1] * [-1.0, 1.0]
    ends = np.cos(radius) * centers[:, None] + np.sin(radius) * side[:, None] * perp[:, None]
    end_images = (reps[None, :, None] @ ends[:, None, :, :, None])[..., 0]
    u, w = images[:, :, None, 0], images[:, :, None, 1]
    cross = u * end_images[..., 1] - w * end_images[..., 0]
    dot = u * end_images[..., 0] + w * end_images[..., 1]
    phi0 = np.arctan2(w, u)
    turn = np.sign(np.linalg.det(reps))[:, None] * side
    phi = phi0 + turn * np.arctan2(np.abs(cross), dot)  # (balls, generators, ends)

    theta = np.arctan2(centers[:, 1], centers[:, 0])
    lag = phi0[..., 0] - theta[nearest]
    psi = phi0 - (lag - np.pi * np.round(lag / np.pi))[..., None]
    pair = radius - np.minimum(np.abs(phi - psi).max(axis=-1), np.pi / 2)

    off = phi[..., None] - theta
    end_dist = np.abs(off - np.pi * np.round(off / np.pi)).min(axis=-1).max(axis=-1)
    th = np.sort(theta % np.pi)
    gap = np.diff(th, append=th[0] + np.pi)
    lo, hi = phi.min(axis=-1)[..., None], phi.max(axis=-1)[..., None]
    inside = lo + (th + gap / 2 - lo) % np.pi < hi
    peak = np.where(inside, gap / 2, 0.0).max(axis=-1)
    return pair, radius - np.maximum(end_dist, peak)


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
            dist = _proj_dist(_unit_rows(pts @ B.T), centers).max()
            margin = min(margin, radius - float(dist))
    return margin


def multicone_search(reps: np.ndarray, seed: int = 0) -> MulticoneCertificate | None:
    """Search for a projective multicone that every generator maps into
    its interior.

    Seeded random orbits of the projective action locate the attractor:
    one draw gives every start and one every step, the orbits step with
    the generators scaled to spectral norm 1, and they are divided by
    their largest |entry| only every m steps, m the most that the
    largest condition number allows (:func:`matalg.rescale_period`).
    The visited directions are covered greedily with balls of angular
    radius CONE_RADIUS.  Each (ball, generator) pair is then certified
    against the ball nearest to the image of its center; a pair counts
    when its margin exceeds CONE_MARGIN, and a ball with a pair that
    does not count needs the union of balls.  At D = 2 both margins are
    exact (:func:`_arc_margins`), so a certificate is *certified*: every
    image arc lies at least ``margin`` inside its nearest ball, or
    inside the union of balls for a ball that needs the union.  At
    D >= 3 a pair is certified by the S-lemma (:func:`_pair_margins`),
    and a ball that needs the union is checked at up to 4096 seeded
    directions instead, which makes the certificate *empirical*.
    Returns None when no certificate passes (inconclusive, not a
    disproof).
    """
    reps = np.array(reps, dtype=float)
    D = reps.shape[1]
    rng = np.random.default_rng(seed)
    log_sv = matalg.log_singular_values(reps)
    log_cond = float((log_sv[:, 0] - log_sv[:, -1]).max())

    # copies of spectral norm 1 act on directions as the generators do;
    # rescaling every m steps keeps each vector in range
    unit = reps / np.exp(log_sv[:, :1, None])
    n_steps = ORBIT_BURN_IN + ORBIT_COLLECT
    m = min(n_steps, matalg.rescale_period(log_cond))
    # the orbits step together; stacked products match B @ v bit for bit
    v = rng.standard_normal((ORBIT_STARTS, D, 1))
    orbit = []
    for i, steps in enumerate(unit[rng.integers(len(reps), size=(n_steps, ORBIT_STARTS))], start=1):
        v = steps @ v
        if i % m == 0:
            v /= np.abs(v).max(axis=1, keepdims=True)
        orbit.append(v)
    visited = _canon_rows(np.stack(orbit[ORBIT_BURN_IN:], axis=1).reshape(-1, D))
    # close the sample under one application of every generator
    visited = np.vstack([visited, _canon_rows((reps @ visited[:, None, :, None]).reshape(-1, D))])

    # greedy cover of the attractor sample with balls of radius CONE_RADIUS
    centers = []
    uncovered = visited
    while uncovered.size:
        center = uncovered[0]
        centers.append(center)
        uncovered = uncovered[_proj_dist(uncovered, center[None]) > CONE_RADIUS / 2]
        if len(centers) > 4 * len(reps) * D + 16:
            return None  # attractor spreads over projective space
    centers = np.array(centers)

    # the multicone must be a proper subset of projective space
    probes = _unit_rows(rng.standard_normal((512, D)))
    if not (_proj_dist(probes, centers) > CONE_RADIUS + CONE_MARGIN).any():
        return None

    if D == 2:
        margins, union = _arc_margins(reps, centers, CONE_RADIUS)
    else:
        margins, _ = _pair_margins(reps, centers, CONE_RADIUS, CONE_MARGIN)
    certified = margins > CONE_MARGIN
    margin = float(margins[certified].min(initial=np.inf))
    needs_union = np.flatnonzero(~certified.all(axis=1))
    samples = 0
    if D == 2:
        margin = min(margin, float(union[needs_union].min(initial=np.inf)))
    elif needs_union.size:
        # sampling density from the projective Lipschitz constant
        lip = float(np.exp(log_cond))
        samples = min(max(32, int(np.ceil(8 * CONE_RADIUS * lip / CONE_MARGIN))), 4096)
        margin = min(margin, _sampled_margin(reps, centers, CONE_RADIUS, samples, rng,
                                             needs_union))
    if margin <= CONE_MARGIN:
        return None
    return MulticoneCertificate(centers=centers, radius=CONE_RADIUS, margin=margin,
                                kind="empirical" if samples else "certified",
                                samples_per_ball=samples)


# ---------------------------------------------------------------------------
# dominated subsystems

@dataclass
class DominatedSubsystem:
    """Equal-length extended words J1·I·J2, one row of ``words`` per base
    word I of length n, whose induced one-step tuple is dominated at all
    indices."""

    base_n: int
    pad_left: Word
    pad_right: Word
    ell: int
    words: np.ndarray
    tuple_cocycle: OneStepCocycle
    report: DominationReport
    log_kappa: np.ndarray  # per wedge degree t = 1..d

    @property
    def kappa(self) -> np.ndarray:
        return np.exp(self.log_kappa)


class SubsystemSearchError(RuntimeError):
    """The padding search was exhausted without a dominated tuple."""


def _padding_candidates(a: int, w: Word, bound: int) -> list[Word]:
    """Words over the witness tokens {a, a·w} of length <= bound; more
    than MAX_PADDINGS raise BudgetError.  Their number grows by a factor
    of at most about 1.6 (at |w| = 1) per unit of bound."""
    tokens = [(a,), (a,) + tuple(w)]
    out = {(): None}
    frontier = [()]
    while frontier:
        nxt = []
        for word in frontier:
            for tok in tokens:
                cand = word + tok
                if len(cand) <= bound and cand not in out:
                    if len(out) >= MAX_PADDINGS:
                        raise BudgetError(f"more than {MAX_PADDINGS} padding words of "
                                          f"length <= {bound}; reduce the pad bound")
                    out[cand] = None
                    nxt.append(cand)
        frontier = nxt
    return sorted(out, key=lambda word: (len(word), word))


def _block_depths(n_symbols: int) -> list[int]:
    return [m for m in range(1, 7) if n_symbols**m <= BLOCK_BUDGET]


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
    uniform total length.  A symbol of (a, w) outside the alphabet
    raises ValueError, and so do products that overflow; base words
    whose blocks of depth 3 outnumber BLOCK_BUDGET raise BudgetError
    before any is enumerated, and so does a search that would try more
    than MAX_PADDINGS candidates or pairs.  The tuple cocycle's budget
    is 30 * BLOCK_BUDGET words.
    """
    sft.check_symbols(c.Q, (a, *w))
    if m := sft.length_past(c.Q, n, MAX_BASE_WORDS):
        n_words, least = sft.count_words(c.Q, m), "" if m == n else "at least "
        raise BudgetError(f"{least}{n_words} base words of length {n}: their {least}"
                          f"{n_words**3} blocks of depth 3 exceed the budget of {BLOCK_BUDGET}")
    base = sft.word_array(c.Q, n)
    candidates = _padding_candidates(a, tuple(w), pad_bound)
    depths = _block_depths(len(base))

    words = None
    for tried, (pad_left, pad_right) in enumerate(itertools.product(candidates, repeat=2)):
        if tried == MAX_PADDINGS:
            raise BudgetError(f"no dominated tuple among the first {tried} padding pairs "
                              f"(bound {pad_bound}); reduce the pad bound")
        ext = np.tile(pad_left + (0,) * n + pad_right, (len(base), 1))
        ext[:, len(pad_left):len(pad_left) + n] = base
        # every step, and the wrap that lets blocks concatenate, is allowed
        if not c.Q.entries[ext - 1, np.roll(ext, -1, axis=1) - 1].all():
            continue
        words = ext
        c_ext = OneStepCocycle(Q=full_shift(len(base)), generators=list(word_products(c, ext)),
                               budget=30 * BLOCK_BUDGET)
        report = domination_report(c_ext, n_range=depths, monotone_from=depths[0])
        if report.passed:
            # observed 2-block almost-additivity constants: per degree t,
            # min over pairs of log||B_IJ^t|| - log||B_I^t|| - log||B_J^t||
            norms = log_wedge_norm_matrices(c_ext, (1, 2))
            one, two = norms[1], norms[2].reshape(c_ext.k, c_ext.k, c_ext.d)
            return DominatedSubsystem(
                base_n=n, pad_left=pad_left, pad_right=pad_right,
                ell=words.shape[1], words=words,
                tuple_cocycle=c_ext, report=report,
                log_kappa=(two - one[:, None] - one[None]).min(axis=(0, 1)),
            )
    # the worst word of the last tuple tested, none if no candidate was admissible
    worst = None if words is None else tuple(words[_worst_word_index(c_ext)].tolist())
    raise SubsystemSearchError(
        f"padding search exhausted (bound {pad_bound}); worst extended word: {worst}"
    )


def _worst_word_index(c_ext: OneStepCocycle) -> int:
    """The word with the largest log(sigma_{i+1}/sigma_i) over i (d >= 2)."""
    logs = log_wedge_norm_matrices(c_ext, (1,))[1]
    return int(np.diff(logs, n=2, axis=1, prepend=0.0).max(axis=1).argmax())


def subsystem_pressure(sub: DominatedSubsystem, grid: np.ndarray, block_depth: int) -> np.ndarray:
    """Block pressure (1/m) log s_m(q), m = block_depth, of the dominated
    subsystem at every row q of the (G, d) ``grid``, as a (G,) array,
    from one sweep and one Gibbs pass.  Divide by the word length to
    compare with the base pressure.  More blocks than the tuple
    cocycle's budget raise BudgetError."""
    grid = _check_grid(grid, sub.tuple_cocycle.d, "grid")
    if block_depth < 1:
        raise ValueError("block_depth must be >= 1")
    logs = log_sums(sub.tuple_cocycle, grid, (block_depth,))
    return logs[block_depth] / block_depth
