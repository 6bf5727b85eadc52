"""Property test: the batched multicone search against the per-vector
implementation it replaced, kept here as the reference."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lyapspec import domination, matalg  # noqa: E402


def _canon(v):
    v = v / np.linalg.norm(v)
    j = int(np.argmax(np.abs(v)))
    return v if v[j] > 0 else -v


def _proj_dist(u, V):
    return np.arccos(np.abs(V @ u).clip(-1.0, 1.0))


def _ball_samples(center, radius, count, rng):
    D = center.shape[0]
    pts = [center]
    for j in range(count):
        u = rng.standard_normal(D)
        u -= (u @ center) * center
        nrm = np.linalg.norm(u)
        if nrm < 1e-12:
            continue
        u /= nrm
        theta = radius if j % 3 else radius * rng.uniform(0.3, 1.0)
        pts.append(np.cos(theta) * center + np.sin(theta) * u)
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


def _multicone_search(reps, seed=0, radius=0.2, margin_tol=domination.CONE_MARGIN,
                      n_starts=24, burn_in=60, collect=40):
    """The per-vector search; returns (centers, samples, margin) or None."""
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
    margin = _verify_cone(reps, centers, radius, samples, rng)
    if margin <= margin_tol:
        return None
    return centers, samples, margin


def _family(k, D, seed):
    return list(np.random.default_rng(seed).uniform(0.05, 1.0, size=(k, D, D)))


@st.composite
def positive_reps(draw):
    return _family(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 50)))


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(reps=positive_reps(), seed=st.integers(0, 50),
                  radius=st.sampled_from([0.1, 0.2, 0.3]),
                  orbits=st.sampled_from([(24, 60, 40), (3, 5, 4)]))
# short orbits leave closure images uncovered, so their order picks centers
@hypothesis.example(reps=_family(3, 2, 11), seed=2, radius=0.2, orbits=(3, 5, 4))
def test_search_matches_per_vector_reference(reps, seed, radius, orbits):
    """Same random stream, same centers and sample count; the margin
    agrees within 1e-12 (the rows' dot products are the reference's
    BLAS dots, so it is equal unless arccos rounds non-monotonically)."""
    kw = dict(seed=seed, radius=radius, n_starts=orbits[0], burn_in=orbits[1],
              collect=orbits[2])
    ref = _multicone_search(reps, **kw)
    cert = domination.multicone_search(reps, **kw)
    assert (cert is None) == (ref is None)
    if cert is not None:
        centers, samples, margin = ref
        assert np.array_equal(cert.centers, centers)
        assert cert.samples_per_ball == samples
        assert abs(cert.margin - margin) <= 1e-12


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(reps=positive_reps(), seed=st.integers(0, 50),
                  count=st.integers(0, 40))
def test_verify_matches_per_vector_reference(reps, seed, count):
    """The verifier alone, on arbitrary unit centers (not a cover)."""
    D = reps[0].shape[0]
    centers = np.random.default_rng(seed + 1000).standard_normal((3, D))
    centers = np.array([_canon(c) for c in centers])
    new = domination._verify_cone(reps, centers, 0.2, count, np.random.default_rng(seed))
    old = _verify_cone(reps, centers, 0.2, count, np.random.default_rng(seed))
    assert abs(new - old) <= 1e-12


@pytest.mark.parametrize("parallel", [0, 3, 4])
def test_skipped_sample_keeps_the_stream(parallel):
    """A normal draw parallel to the center is skipped and, at j % 3 ==
    0, draws no angle; the batched draws redo the stream from there.
    The center is aimed at the draw of sample ``parallel``."""
    ref_rng = np.random.default_rng(7)
    for j in range(parallel + 1):
        u = ref_rng.standard_normal(3)
        if j % 3 == 0:
            ref_rng.uniform(0.3, 1.0)
    center = _canon(u)
    rng_old, rng_new = np.random.default_rng(7), np.random.default_rng(7)
    old = _ball_samples(center, 0.2, 12, rng_old)
    new = domination._ball_samples(center, 0.2, 12, rng_new)
    assert len(old) == 12  # the center and 11 of the 12 samples
    assert np.array_equal(new, old)
    assert rng_new.random() == rng_old.random()


def test_one_dimensional_ball_skips_every_sample():
    """No direction lies off a 1-D center: only the center is returned,
    and the stream advances by the normal draws alone."""
    center = np.array([1.0])
    rng_old, rng_new = np.random.default_rng(3), np.random.default_rng(3)
    old = _ball_samples(center, 0.2, 10, rng_old)
    new = domination._ball_samples(center, 0.2, 10, rng_new)
    assert np.array_equal(new, old) and new.shape == (1, 1)
    assert rng_new.random() == rng_old.random()
