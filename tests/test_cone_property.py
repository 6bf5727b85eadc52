"""Property tests of multicone verification: the S-lemma pair margins
and the exact arc margins of D = 2 against arc endpoints and dense
sampling, the S-lemma under rescaling and against a plain bisection,
and the batched search and sampled fallback against per-vector
references."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lyapspec import domination, matalg  # noqa: E402

TOL = domination.CONE_MARGIN


def _canon(v):
    v = v / np.linalg.norm(v)
    j = int(np.argmax(np.abs(v)))
    return v if v[j] > 0 else -v


def _proj_dist(u, V):
    return np.arccos(np.abs(V @ u).clip(-1.0, 1.0))


def _ball_samples(center, radius, count, rng):
    """Per vector, from the same two draws as the batched sampler."""
    D = center.shape[0]
    U = rng.standard_normal((count, D))
    inner = iter(rng.uniform(0.3, 1.0, size=len(range(0, count, 3))))
    pts = [center]
    for j, u in enumerate(U):
        theta = radius * next(inner) if j % 3 == 0 else radius
        u = u - (u @ center) * center
        nrm = np.linalg.norm(u)
        if nrm < 1e-12:
            continue
        pts.append(np.cos(theta) * center + np.sin(theta) * u / nrm)
    return np.array([_canon(p) for p in pts])


def _verify_cone(reps, centers, radius, samples_per_ball, rng):
    margin = np.inf
    for center in centers:
        pts = _ball_samples(center, radius, samples_per_ball, rng)
        for B in reps:
            for img in pts @ B.T:
                dist = _proj_dist(_canon(img), centers).min()
                margin = min(margin, radius - float(dist))
    return margin


def _multicone_search(reps, seed=0, radius=0.2, margin_tol=TOL,
                      n_starts=24, burn_in=60, collect=40):
    """The per-vector cover, and its margin against the union of balls
    sampled at every ball; None where the cover or the probe fails.
    Each orbit steps with the generators over their spectral norms and
    divides by its largest |entry| after every m-th step, with m the
    most steps that the largest condition number lets shrink a vector
    by no more than 1/ORBIT_FLOOR."""
    D = reps[0].shape[0]
    rng = np.random.default_rng(seed)
    log_sv = [matalg.log_singular_values(B) for B in reps]
    log_cond = max(ls[0] - ls[-1] for ls in log_sv)
    unit = [B / np.exp(ls[0]) for B, ls in zip(reps, log_sv)]
    n_steps, room = burn_in + collect, -np.log(matalg.ORBIT_FLOOR)
    m = n_steps if log_cond * n_steps <= room else max(1, int(room // log_cond))
    starts = rng.standard_normal((n_starts, D))
    steps = rng.integers(len(reps), size=(n_steps, n_starts))
    visited = []
    for j, v in enumerate(starts):
        for i in range(n_steps):
            v = unit[steps[i, j]] @ v
            if (i + 1) % m == 0:
                v = v / np.abs(v).max()
            if i >= burn_in:
                visited.append(_canon(v))
    visited.extend(_canon(B @ v) for v in list(visited) for B in reps)
    visited = np.array(visited)

    centers = []
    uncovered = visited
    while uncovered.size:
        center = uncovered[0]
        centers.append(center)
        uncovered = uncovered[np.arccos(np.abs(uncovered @ center).clip(-1.0, 1.0))
                              > radius / 2]
        if len(centers) > 4 * len(reps) * D + 16:
            return None
    centers = np.array(centers)

    probes = np.array([_canon(rng.standard_normal(D)) for _ in range(512)])
    if not any(_proj_dist(p, centers).min() > radius + margin_tol for p in probes):
        return None
    lip = max(float(np.exp(matalg.log_singular_values(B)[0]
                           - matalg.log_singular_values(B)[-1])) for B in reps)
    samples = min(max(32, int(np.ceil(8 * radius * lip / margin_tol))), 4096)
    return centers, _verify_cone(reps, centers, radius, samples, rng)


def _family(k, D, seed):
    return list(np.random.default_rng(seed).uniform(0.05, 1.0, size=(k, D, D)))


def _wedge_family(k, seed):
    """Degree-2 wedges (D = 6) of 4x4 matrices dominated at every index."""
    rng = np.random.default_rng(seed)
    return [matalg.wedge(np.diag([8.0, 4.0, 2.0, 1.0]) + rng.uniform(0, 0.5, (4, 4)), 2)
            for _ in range(k)]


def _top_direction(B):
    w, V = np.linalg.eig(B)
    return _canon(V[:, np.abs(w).argmax()].real)


def _centers(reps, seed):
    """The top eigendirection of each generator, whose ball that
    generator maps inward, and two random directions."""
    D = reps[0].shape[0]
    extra = np.random.default_rng(seed + 1000).standard_normal((2, D))
    return np.array([_top_direction(B) for B in reps] + [_canon(c) for c in extra])


@st.composite
def positive_reps(draw, dims=(1, 2, 3)):
    return _family(draw(st.integers(1, 3)), draw(st.sampled_from(dims)),
                   draw(st.integers(0, 50)))


def _arc_margin(B, c, c_near, r):
    """Exact r - max dist(B v, c_near) over the arc K(c, r) of RP^1: the
    image is the arc from B v- through B c to B v+, and its farthest
    point from c_near is an endpoint unless it holds c_near's normal."""
    perp = np.array([-c[1], c[0]])
    a = _canon(B @ (np.cos(r) * c - np.sin(r) * perp))
    b = _canon(B @ (np.cos(r) * c + np.sin(r) * perp))
    b = b if a @ b >= 0 else -b
    x = np.linalg.solve(np.column_stack([a, b]), B @ c)
    if x[0] * x[1] < 0:
        b = -b  # the image is the arc outside the acute one
    y = np.linalg.solve(np.column_stack([a, b]), np.array([-c_near[1], c_near[0]]))
    if y[0] * y[1] >= 0:
        return r - np.pi / 2
    return r - max(_proj_dist(a, c_near[None])[0], _proj_dist(b, c_near[None])[0])


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(reps=positive_reps(dims=(2,)), seed=st.integers(0, 50),
                  radius=st.sampled_from([0.1, 0.2, 0.3]))
def test_pair_margins_match_arc_endpoints(reps, seed, radius):
    """At D = 2 a certified pair's margin is the exact arc-endpoint
    margin, rounded down by at most the bisection resolution; a pair
    that fails has an exact margin of at most CONE_MARGIN."""
    centers = _centers(reps, seed)
    margins, nearest = domination._pair_margins(np.array(reps), centers, radius)
    for j, c in enumerate(centers):
        for i, B in enumerate(reps):
            exact = _arc_margin(B, c, centers[nearest[j, i]], radius)
            m = margins[j, i]
            if m > TOL:
                assert exact - domination.RHO_TOL - 1e-12 <= m <= exact + 1e-12
            else:
                assert exact <= TOL + domination.RHO_TOL + 1e-12


def _rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


@st.composite
def arc_reps(draw):
    """Positive 2 x 2 families; in some the first generator has its rows
    swapped (det < 0), and some gain a generator R(a) diag(1/lam,
    +-lam), which spreads a ball's arc over nearly a half-turn: past the
    normal of the center nearest to B c, or over a midpoint between
    centers."""
    reps = draw(positive_reps(dims=(2,)))
    if draw(st.booleans()):
        reps[0] = reps[0][::-1]
    if draw(st.booleans()):
        lam, sign = draw(st.floats(2.0, 50.0)), draw(st.sampled_from([1.0, -1.0]))
        reps.append(_rotation(draw(st.floats(0.0, np.pi))) @ np.diag([1 / lam, sign * lam]))
    return np.array(reps)


def _nearest(reps, centers):
    """Per (ball, generator) pair, the index of the center nearest to B c."""
    return np.abs((reps[None] @ centers[:, None, :, None])[..., 0] @ centers.T).argmax(axis=-1)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(reps=arc_reps(), seed=st.integers(0, 50),
                  radius=st.sampled_from([0.1, 0.2, 0.3]))
@hypothesis.example(reps=np.array([_rotation(0.1) @ np.diag([0.1, -10.0])]), seed=0, radius=0.2)
def test_arc_margins_match_arc_endpoints(reps, seed, radius):
    """The pair margins of :func:`domination._arc_margins` are the exact
    arc margins against the center nearest to B c, for either sign of
    det B, and r - pi/2 for an arc that holds that center's normal.
    The reference takes the arccos of a cosine near 1, which loses
    about eps / sin(dist) of the farthest end's distance."""
    centers = _centers(reps, seed)
    pair, _ = domination._arc_margins(reps, centers, radius)
    nearest = _nearest(reps, centers)
    for j, c in enumerate(centers):
        for i, B in enumerate(reps):
            exact = _arc_margin(B, c, centers[nearest[j, i]], radius)
            tol = 1e-12 + np.finfo(float).eps / np.sin(radius - exact)
            assert abs(pair[j, i] - exact) <= tol


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_arc_past_the_normal_has_margin_r_minus_half_pi(sign):
    """R(0.1) diag(0.1, +-10) maps the arc of radius 0.2 around e1 onto
    the one from 0.1 - atan(100 tan 0.2) = -1.42 to 0.1 + 1.52 = 1.62,
    which holds the normal of e1, the only center: the pair and union
    margins are both r - pi/2, as is the reference's."""
    reps, centers = np.array([_rotation(0.1) @ np.diag([0.1, sign * 10.0])]), np.eye(2)[:1]
    pair, union = domination._arc_margins(reps, centers, 0.2)
    assert _arc_margin(reps[0], centers[0], centers[0], 0.2) == 0.2 - np.pi / 2
    assert pair[0, 0] == union[0, 0] == 0.2 - np.pi / 2


def _proj_angle(u, v):
    """Projective angle between unit rows, accurate near 0."""
    cross = np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    return np.arctan2(cross, np.abs((u * v).sum(axis=-1)))


def _dense_union_margin(B, c, centers, radius, count=4000):
    """r minus the farthest distance from its nearest center of the
    images of ``count`` evenly spaced directions of the arc K(c, r), and
    the largest angle between two consecutive images."""
    t = np.linspace(-radius, radius, count)
    images = (np.cos(t)[:, None] * c + np.sin(t)[:, None] * np.array([-c[1], c[0]])) @ B.T
    images /= np.linalg.norm(images, axis=1)[:, None]
    far = _proj_angle(images[:, None], centers[None]).min(axis=1).max()
    return radius - far, _proj_angle(images[1:], images[:-1]).max()


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(reps=arc_reps(), seed=st.integers(0, 50),
                  radius=st.sampled_from([0.1, 0.2, 0.3]))
def test_arc_union_margins_match_dense_samples(reps, seed, radius):
    """A union margin never exceeds the margin of 4,000 evenly spaced
    directions of its ball against the union of balls, which are a
    subset of the arc, and falls short of it by at most half the
    largest angle between consecutive images, since the distance to the
    nearest center moves no faster than the image."""
    centers = _centers(reps, seed)
    _, union = domination._arc_margins(reps, centers, radius)
    for j, c in enumerate(centers):
        for i, B in enumerate(reps):
            sampled, spacing = _dense_union_margin(B, c, centers, radius)
            assert sampled - spacing / 2 - 1e-12 <= union[j, i] <= sampled + 1e-12


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(k=st.integers(1, 3), seed=st.integers(0, 50),
                  family=st.sampled_from(["positive3", "wedge4"]))
def test_pair_margins_sound_against_dense_samples(k, seed, family):
    """At D = 3 and on the degree-2 wedge of R^4 (D = 6), no sampled
    direction of a certified pair's ball maps farther than radius -
    margin from the chosen center."""
    reps = np.array(_family(k, 3, seed) if family == "positive3" else _wedge_family(k, seed))
    cert = domination.multicone_search(reps, seed=seed)
    hypothesis.assume(cert is not None)
    margins, nearest = domination._pair_margins(reps, cert.centers, cert.radius)
    rng = np.random.default_rng(seed)
    for j, center in enumerate(cert.centers):
        pts = domination._ball_samples(center, cert.radius, 2000, rng)
        for i, B in enumerate(reps):
            if margins[j, i] > TOL:
                images = pts @ B.T
                images /= np.linalg.norm(images, axis=1)[:, None]
                dist = _proj_dist(cert.centers[nearest[j, i]], images).max()
                assert dist <= cert.radius - margins[j, i] + 1e-12


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(reps=positive_reps(dims=(2, 3)), seed=st.integers(0, 50),
                  scales=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3))
def test_pair_margins_scale_free(reps, seed, scales):
    """Scaling a generator by a positive number leaves the ball it maps
    to and its margin unchanged, up to the bisection resolution."""
    centers = _centers(reps, seed)
    scaled = np.array([s * B for s, B in zip(scales, reps)])
    m1, n1 = domination._pair_margins(np.array(reps), centers, 0.2)
    m2, n2 = domination._pair_margins(scaled, centers, 0.2)
    assert np.array_equal(n1, n2)
    assert np.array_equal(m1 > TOL, m2 > TOL)
    ok = m1 > TOL
    assert np.abs(m1[ok] - m2[ok]).max(initial=0.0) <= domination.RHO_TOL + 1e-12


def _slemma(reps, centers, radius):
    """The nearest centers of every (ball, generator) pair, and the
    S-lemma test of :func:`domination._pair_margins`, written anew."""
    D = centers.shape[1]
    BT = reps[None] @ domination._ball_frames(centers, radius)[:, None]
    images = (reps[None] @ centers[:, None, :, None])[..., 0]
    nearest = np.abs(images @ centers.T).argmax(axis=-1)
    g = (centers[nearest][..., None, :] @ BT).reshape(-1, D)
    G = (BT.swapaxes(-1, -2) @ BT).reshape(-1, D, D)
    J = np.diag(np.r_[1.0, -np.ones(D - 1)])

    def passes(idx, rho):
        s = np.cos(rho) ** 2
        A = g[idx, :, None] * g[idx, None, :] - s[:, None, None] * G[idx]
        mu = np.sort(np.linalg.eigvals(J @ A).real, axis=-1)
        lam = (mu[:, -2] + mu[:, -1]) / 2
        least = np.linalg.eigvalsh(A - lam[:, None, None] * J)[:, 0]
        scale = (g[idx] ** 2).sum(axis=1) + s * np.trace(G[idx], axis1=1, axis2=2) + abs(lam)
        return (mu[:, -1] > 0) & (least > domination.DEFINITE_TOL * scale)

    return nearest, passes


def _plain_pair_margins(reps, centers, radius):
    """The S-lemma margins by a plain bisection over [0, r - CONE_MARGIN]
    that keeps the end that passed, every pair that passes at its top
    for as many rounds as the widest bracket needs: the tests of
    :func:`domination._pair_margins`, written anew."""
    nearest, passes = _slemma(reps, centers, radius)
    top = radius - TOL
    ok = np.flatnonzero(passes(np.arange(nearest.size), np.full(nearest.size, top)))
    lo, hi = np.zeros(len(ok)), np.full(len(ok), top)
    for _ in range(int(np.ceil(np.log2(max((hi - lo).max(initial=0.0), domination.RHO_TOL)
                                       / domination.RHO_TOL)))):
        mid = (lo + hi) / 2
        p = passes(ok, mid)
        lo, hi = np.where(p, lo, mid), np.where(p, mid, hi)
    margins = np.full(nearest.size, -np.inf)
    margins[ok] = radius - hi
    return margins.reshape(nearest.shape), nearest


def _counted_margins(margins_fn, reps, centers, radius):
    """The margins, and how many stacked eigen-tests they took."""
    with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as eigvals:
        margins, nearest = margins_fn(reps, centers, radius)
    return margins, nearest, eigvals.call_count


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(k=st.integers(1, 3), seed=st.integers(0, 50),
                  radius=st.sampled_from([0.1, 0.2, 0.3]),
                  family=st.sampled_from(["positive2", "positive3", "wedge4"]))
def test_pair_margins_match_plain_bisection(k, seed, radius, family):
    """The batched margins and nearest centers are bit-identical to
    those of the plain reference bisection, from as many stacked
    eigen-tests."""
    reps = np.array(_wedge_family(k, seed) if family == "wedge4"
                    else _family(k, int(family[-1]), seed))
    centers = _centers(reps, seed)
    m, nearest, calls = _counted_margins(domination._pair_margins, reps, centers, radius)
    ref, ref_nearest, ref_calls = _counted_margins(_plain_pair_margins, reps, centers, radius)
    assert np.array_equal(nearest, ref_nearest)
    assert np.array_equal(m, ref)
    assert calls == ref_calls


@pytest.mark.parametrize("name", ["diag_cocycle", "pos_cocycle", "twisted4_cocycle",
                                  "rotation_cocycle", "golden_identity"])
def test_orbit_signed_once_matches_every_step(name, request):
    """An orbit rescaled every m steps and signed and normalised once,
    when collected, gives the ball count and kind of an orbit rescaled
    at every step (ORBIT_FLOOR = 1 makes m = 1 whenever a step can
    shrink a vector), its margin to 1e-12 and its centers to 1e-14, on
    every degree."""
    c = request.getfixturevalue(name)
    for t in range(1, c.d):
        reps = list(c.wedges[t])
        for seed in range(3):
            cert = domination.multicone_search(reps, seed=seed)
            with mock.patch.object(matalg, "ORBIT_FLOOR", 1.0):
                ref = domination.multicone_search(reps, seed=seed)
            assert (cert is None) == (ref is None)
            if cert is not None:
                assert (len(cert.centers), cert.kind) == (len(ref.centers), ref.kind)
                assert abs(cert.margin - ref.margin) <= 1e-12
                assert np.abs(cert.centers - ref.centers).max() <= 1e-14


def test_orbit_of_ill_conditioned_generators_stays_in_range():
    """diag(1e6, 1e-6) and a quarter turn of it, of condition number
    1e12: the orbit keeps jumping between the two axes, each jump
    shrinking a vector by up to 1e-12, so 100 unscaled steps underflow
    to a 0 vector.  Rescaled every 8 steps, none does, and the search
    raises no RuntimeWarning (the test configuration makes one an
    error).  A direction near the repelling axis moves by 1e12 times
    its rounding, so this family is left out of the every-step
    comparison above."""
    A = np.diag([1e6, 1e-6])
    reps = [A, np.array([[0.0, -1.0], [1.0, 0.0]]) @ A]
    for seed in range(4):
        domination.multicone_search(reps, seed=seed)


@pytest.mark.slow
@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(reps=positive_reps(), seed=st.integers(0, 50),
                  radius=st.sampled_from([0.1, 0.2, 0.3]),
                  orbits=st.sampled_from([(24, 60, 40), (3, 5, 4)]))
# short orbits leave closure images uncovered, so their order picks centers
@hypothesis.example(reps=_family(3, 2, 11), seed=2, radius=0.2, orbits=(3, 5, 4))
def test_search_matches_per_vector_reference(reps, seed, radius, orbits):
    """Same random stream, same cover.  A certified margin is at most
    the reference's margin against the union of balls, sampled at every
    ball: the S-lemma margin is exact for the one chosen ball, and the
    union can only be nearer."""
    ref = _multicone_search(reps, seed=seed, radius=radius, n_starts=orbits[0],
                            burn_in=orbits[1], collect=orbits[2])
    # module constants, set for this example only: hypothesis reuses the test's scope
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domination, "CONE_RADIUS", radius)
        for name, value in zip(("ORBIT_STARTS", "ORBIT_BURN_IN", "ORBIT_COLLECT"), orbits):
            mp.setattr(domination, name, value)
        cert = domination.multicone_search(reps, seed=seed)
    if ref is None:
        assert cert is None
    if cert is not None:
        centers, margin = ref
        assert np.array_equal(cert.centers, centers)
        if cert.kind == "certified":
            assert cert.samples_per_ball == 0
            assert cert.margin <= margin + 1e-12


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(reps=positive_reps(), seed=st.integers(0, 50),
                  count=st.integers(0, 40))
def test_verify_matches_per_vector_reference(reps, seed, count):
    """The sampled fallback alone, at every ball of arbitrary unit
    centers (not a cover)."""
    D = reps[0].shape[0]
    centers = np.random.default_rng(seed + 1000).standard_normal((3, D))
    centers = np.array([_canon(c) for c in centers])
    new = domination._sampled_margin(np.array(reps), centers, 0.2, count,
                                     np.random.default_rng(seed), range(3))
    old = _verify_cone(reps, centers, 0.2, count, np.random.default_rng(seed))
    assert abs(new - old) <= 1e-12


def test_one_dimensional_ball_skips_every_sample():
    """No direction lies off a 1-D center: only the center is returned,
    and the stream advances by the two batched draws alone."""
    center = np.array([1.0])
    rng_old, rng_new = np.random.default_rng(3), np.random.default_rng(3)
    old = _ball_samples(center, 0.2, 10, rng_old)
    new = domination._ball_samples(center, 0.2, 10, rng_new)
    assert np.array_equal(new, old) and new.shape == (1, 1)
    assert rng_new.random() == rng_old.random()
