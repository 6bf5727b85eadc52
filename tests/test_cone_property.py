"""Property tests of multicone verification: the S-lemma pair margins
against exact arc endpoints, dense sampling and rescaling, and the
batched search and sampled fallback against per-vector references."""

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
    sampled at every ball; None where the cover or the probe fails."""
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
    that fails has an exact margin of at most the floor."""
    centers = _centers(reps, seed)
    margins, nearest = domination._pair_margins(np.array(reps), centers, radius, TOL)
    for j, c in enumerate(centers):
        for i, B in enumerate(reps):
            exact = _arc_margin(B, c, centers[nearest[j, i]], radius)
            m = margins[j, i]
            if m > TOL:
                assert exact - domination.RHO_TOL - 1e-12 <= m <= exact + 1e-12
            else:
                assert exact <= TOL + domination.RHO_TOL + 1e-12


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
    margins, nearest = domination._pair_margins(reps, cert.centers, cert.radius, TOL)
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
    m1, n1 = domination._pair_margins(np.array(reps), centers, 0.2, TOL)
    m2, n2 = domination._pair_margins(scaled, centers, 0.2, TOL)
    assert np.array_equal(n1, n2)
    assert np.array_equal(m1 > TOL, m2 > TOL)
    ok = m1 > TOL
    assert np.abs(m1[ok] - m2[ok]).max(initial=0.0) <= domination.RHO_TOL + 1e-12


def _plain_pair_margins(reps, centers, radius, floor):
    """The S-lemma margins by a plain bisection over [0, r - floor]: the
    same tests as :func:`domination._pair_margins`, with no floor from
    the boundary images and no first guess."""
    nb, D = centers.shape
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

    top = radius - floor
    ok = np.flatnonzero(passes(np.arange(len(g)), np.full(len(g), top)))
    lo, hi = np.zeros(len(ok)), np.full(len(ok), top)
    for _ in range(int(np.ceil(np.log2(top / domination.RHO_TOL)))):
        mid = (lo + hi) / 2
        p = passes(ok, mid)
        lo, hi = np.where(p, lo, mid), np.where(p, mid, hi)
    margins = np.full(len(g), -np.inf)
    margins[ok] = radius - hi
    return margins.reshape(nb, -1), nearest


def _counted_margins(margins_fn, reps, centers, radius):
    """The margins, and how many stacked eigen-tests they took."""
    with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as eigvals:
        margins, nearest = margins_fn(reps, centers, radius, TOL)
    return margins, nearest, eigvals.call_count


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(k=st.integers(1, 3), seed=st.integers(0, 50),
                  radius=st.sampled_from([0.1, 0.2, 0.3]),
                  family=st.sampled_from(["positive2", "positive3", "wedge4"]))
def test_seeded_bisection_matches_plain_bisection(k, seed, radius, family):
    """Bisecting from the boundary images' radius certifies the same
    pairs against the same centers as a bisection from 0, each margin
    within the bisection resolution, and never makes more tests: at
    most two at D = 2, where a bisection from 0 makes 22 or 23."""
    reps = np.array(_wedge_family(k, seed) if family == "wedge4"
                    else _family(k, int(family[-1]), seed))
    centers = _centers(reps, seed)
    m, nearest, calls = _counted_margins(domination._pair_margins, reps, centers, radius)
    ref, ref_nearest, ref_calls = _counted_margins(_plain_pair_margins, reps, centers, radius)
    assert np.array_equal(nearest, ref_nearest)
    assert np.array_equal(np.isfinite(m), np.isfinite(ref))
    ok = np.isfinite(ref)
    assert np.abs(m[ok] - ref[ok]).max(initial=0.0) <= domination.RHO_TOL
    assert calls <= (2 if reps.shape[1] == 2 else ref_calls)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(reps=positive_reps(dims=(2,)), seed=st.integers(0, 50),
                  radius=st.sampled_from([0.1, 0.2, 0.3]), tamper=st.sampled_from(["0", "top"]))
def test_wrong_boundary_radius_never_certifies_more(reps, seed, radius, tamper):
    """A floor of 0 or of r - floor in place of the boundary images'
    radius may cost tests, but every margin stays at most the exact
    arc-endpoint margin: a pair's rho is always one that passed."""
    centers = _centers(reps, seed)

    def wrong(g, G):
        return np.full(len(g), 0.0 if tamper == "0" else radius - TOL)

    with mock.patch.object(domination, "_boundary_radius", wrong):
        margins, nearest = domination._pair_margins(np.array(reps), centers, radius, TOL)
    for j, c in enumerate(centers):
        for i, B in enumerate(reps):
            assert margins[j, i] <= _arc_margin(B, c, centers[nearest[j, i]], radius) + 1e-12


def _canon_every_step(V):
    """The per-step canonical rows of the orbit: unit rows, each signed
    so that its largest-|entry| is positive."""
    V = V / np.sqrt(V[..., None, :] @ V[..., :, None])[..., 0]
    big = np.take_along_axis(V, np.abs(V).argmax(axis=-1)[..., None], -1)
    return np.where(big > 0, V, -V)


@pytest.mark.parametrize("name", ["diag_cocycle", "pos_cocycle", "twisted4_cocycle",
                                  "rotation_cocycle", "golden_identity"])
def test_orbit_signed_once_matches_every_step(name, request):
    """Signing the collected orbit once gives the cover, margin and
    kind of an orbit canonicalised at every step, on every degree."""
    c = request.getfixturevalue(name)
    for t in range(1, c.d):
        reps = list(c.wedges[t])
        cert = domination.multicone_search(reps)
        with mock.patch.object(domination, "_unit_rows", _canon_every_step):
            ref = domination.multicone_search(reps)
        assert (cert is None) == (ref is None)
        if cert is not None:
            assert np.array_equal(cert.centers, ref.centers)
            assert (cert.margin, cert.kind) == (ref.margin, ref.kind)


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
    kw = dict(seed=seed, radius=radius, n_starts=orbits[0], burn_in=orbits[1],
              collect=orbits[2])
    ref = _multicone_search(reps, **kw)
    cert = domination.multicone_search(reps, **kw)
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
