"""Property tests: the batched profile sweep against plain products,
against the SVD finish it replaced, against one sweep per length (also
resumed from an earlier sweep) and, past its first rescale, against a
sweep normalised at every level, the scale-free spectral norm and
which of its rows go to LAPACK, the exact top wedge degree, the table word ranks against a sort, the
invariants of the Gibbs Hessian and the Legendre solver, and the
one-pass solver against the three-pass loop it replaced."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lyapspec import cocycle, matalg, pressure, sft, spectrum, typicality  # noqa: E402
from lyapspec.cocycle import (  # noqa: E402
    OneStepCocycle, log_wedge_norm_matrices, product, profile_matrix,
)


def _primitive(k: int, bits: list[int]) -> sft.TransitionMatrix | None:
    try:
        return sft.validate(np.array(bits).reshape(k, k))
    except ValueError:
        return None


def _generators(seed: int, k: int, d: int) -> list[np.ndarray]:
    """Orthogonal x diagonal x orthogonal with singular values in
    [1/2, 2], so products of length <= 8 stay well conditioned."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(k):
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        gens.append(U @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ V)
    return gens


@st.composite
def cocycles(draw, d=None):
    k = draw(st.integers(1, 3))
    Q = _primitive(k, draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k)))
    hypothesis.assume(Q is not None)
    d = draw(st.integers(1, 4)) if d is None else d
    return OneStepCocycle(Q=Q, generators=_generators(draw(st.integers(0, 2**32 - 1)), k, d))


def _length(data, c) -> int:
    """Word lengths up to 8, up to 6 at d = 4 (the 6 x 6 degree)."""
    return data.draw(st.integers(1, 8 if c.d < 4 else 6))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(c=cocycles(), data=st.data())
def test_rows_match_word_products(c, data):
    n = _length(data, c)
    profs = profile_matrix(c, n)
    words = list(sft.enumerate_words(c.Q, n))
    assert profs.shape == (len(words), c.d)
    for row, w in zip(profs, words):
        expected = matalg.log_singular_values(product(c, w)) / n
        assert np.abs(row - expected).max() <= 1e-10


def _svd_norm(V: np.ndarray) -> np.ndarray:
    """The reference finish: LAPACK's largest singular value per matrix."""
    return np.linalg.svd(V, compute_uv=False)[:, 0]


#: stack sizes D of the spectral-norm tests: the closed form at 2, the
#: Rayleigh quotient or LAPACK above (D = C(d, t) of wedge degrees)
SIZES = [2, 3, 4, 5, 6, 10]


def _frames(rng, rows: int, D: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((rows, D, D)))[0]


def _max_entry_one(V: np.ndarray) -> np.ndarray:
    return V / np.abs(V).max(axis=(1, 2))[:, None, None]


@st.composite
def stacks(draw):
    """64 random D x D matrices, D in SIZES, with singular values
    spread over [10^-e, 1] (condition number 10^e, e <= 12), and largest
    |entry| log-uniform over [ORBIT_FLOOR / D, D], both ends included,
    the range of the rows of a sweep frontier between rescales."""
    D = draw(st.sampled_from(SIZES))
    e = draw(st.floats(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, W = _frames(rng, 64, D), _frames(rng, 64, D)
    s = 10.0 ** -rng.uniform(0, e, size=(64, D))
    s[:, 0], s[:, -1] = 1.0, 10.0**-e
    scale = np.exp(rng.uniform(np.log(matalg.ORBIT_FLOOR / D), np.log(D), size=64))
    scale[:2] = matalg.ORBIT_FLOOR / D, D
    return _max_entry_one((U * s[:, None, :]) @ W) * scale[:, None, None]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(V=stacks())
def test_spectral_norm_matches_svd(V):
    assert np.abs(cocycle._spectral_norm(V) / _svd_norm(V) - 1).max() <= 1e-13


class _CountedEigvalsh:
    """np.linalg.eigvalsh that counts the matrices it is given."""

    def __init__(self):
        self.rows = 0
        self._eigvalsh = np.linalg.eigvalsh

    def __call__(self, G):
        self.rows += len(G)
        return self._eigvalsh(G)


@st.composite
def near_rank_one(draw):
    """64 random D x D matrices, D >= 3, with sigma_2/sigma_1 <= 1e-3,
    as the wedge products of long words are."""
    D = draw(st.sampled_from(SIZES[1:]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = 10.0 ** -rng.uniform(3, 12, size=(64, D))
    s[:, 0] = 1.0
    return _max_entry_one((_frames(rng, 64, D) * s[:, None, :]) @ _frames(rng, 64, D))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(V=near_rank_one())
def test_near_rank_one_needs_no_lapack(V):
    """A well-separated top singular value is certified by the Rayleigh
    quotient on every row: no row goes to eigvalsh."""
    eigvalsh = _CountedEigvalsh()
    with mock.patch.object(np.linalg, "eigvalsh", eigvalsh):
        norms = cocycle._spectral_norm(V)
    assert eigvalsh.rows == 0
    assert np.abs(norms / _svd_norm(V) - 1).max() <= 1e-13


def _permuted_diagonal(D: int, top: int) -> np.ndarray:
    """A stack of 8 signed permutations times diag(1 (top times), 1/2,
    ...): lam_1 = ... = lam_top of the Gram matrix, exactly."""
    rng = np.random.default_rng(D)
    s = np.full(D, 0.5)
    s[:top] = 1.0
    P = np.eye(D)[[rng.permutation(D) for _ in range(8)]]
    return P * rng.choice([-1.0, 1.0], size=(8, 1, D)) * s


@st.composite
def degenerate(draw):
    """64 D x D matrices, D >= 3, whose top two singular values agree:
    orthogonal matrices, or U diag(1, 1, s_3, ...) W with s_i in
    [0.1, 0.9]."""
    D = draw(st.sampled_from(SIZES[1:]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = _frames(rng, 64, D)
    if draw(st.booleans()):
        s = rng.uniform(0.1, 0.9, size=(64, D))
        s[:, :2] = 1.0
        V = (V * s[:, None, :]) @ _frames(rng, 64, D)
    return V


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.example(V=np.broadcast_to(np.eye(3), (8, 3, 3)).copy())
@hypothesis.example(V=np.broadcast_to(np.eye(10), (8, 10, 10)).copy())
@hypothesis.example(V=_permuted_diagonal(3, 2))
@hypothesis.example(V=_permuted_diagonal(6, 2))
@hypothesis.example(V=_permuted_diagonal(5, 5))
@hypothesis.given(V=degenerate())
def test_degenerate_rows_go_to_lapack(V):
    """No Rayleigh quotient is certified when lam_1 = lam_2: every row
    goes to eigvalsh and keeps its value bit for bit."""
    eigvalsh = _CountedEigvalsh()
    with mock.patch.object(np.linalg, "eigvalsh", eigvalsh):
        norms = cocycle._spectral_norm(V)
    assert eigvalsh.rows == len(V)
    G = np.ascontiguousarray(np.swapaxes(V, 1, 2)) @ V
    assert np.array_equal(norms, np.sqrt(np.linalg.eigvalsh(G)[:, -1]))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(c=cocycles(), data=st.data())
def test_sweep_matches_svd_finish(c, data):
    """The whole sweep against the same sweep finished by SVD."""
    n = _length(data, c)
    with mock.patch.object(cocycle, "_spectral_norm", _svd_norm):
        ref = cocycle._sweep(c, [n])[n]
    logs = log_wedge_norm_matrices(c, (n,))[n]
    assert np.abs(logs - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def _normalised_sweep(c, n: int) -> np.ndarray:
    """The reference sweep: every word's product of wedges, divided by
    its largest |entry| at every level with the log of that entry
    accumulated, and finished by LAPACK's SVD; column d sums log|det|."""
    words = sft.word_array(c.Q, n)
    logs = np.zeros((len(words), c.d))
    for t in range(1, c.d):
        P = np.repeat(np.eye(c.wedges[t].shape[1])[None], len(words), axis=0)
        for col in words.T:
            P = c.wedges[t][col - 1] @ P
            scale = np.abs(P).max(axis=(1, 2))
            P /= scale[:, None, None]
            logs[:, t - 1] += np.log(scale)
        logs[:, t - 1] += np.log(_svd_norm(P))
    log_det = np.log(np.abs(np.linalg.det(c.generators)))
    for col in words.T:
        logs[:, -1] += log_det[col - 1]
    return logs


def _bidiagonals(rng, d: int, lower: bool) -> np.ndarray:
    """A product of d - 1 unit bidiagonal matrices with off-diagonal
    entries in [0.2, 1]: unit triangular and totally positive."""
    M, i = np.eye(d), np.arange(d - 1)
    for _ in range(d - 1):
        B = np.eye(d)
        B[(i + 1, i) if lower else (i, i + 1)] = rng.uniform(0.2, 1.0, d - 1)
        M = M @ B
    return M


@st.composite
def ill_conditioned(draw):
    """One or two d x d generators, d in 2..4, L diag(s) U with L and U
    of :func:`_bidiagonals` and s in [1/2, 2] but for s_d = 10^-e, e in
    [7, 11]: condition numbers up to about 1e12, and so a rescale every
    12 levels or fewer.  They are totally positive, so every wedge of
    their products is nonnegative and no entry comes from cancellation."""
    k, d = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = []
    for _ in range(k):
        s = rng.uniform(0.5, 2.0, size=d)
        s[-1] = 10.0 ** -draw(st.floats(7, 11))
        gens.append(_bidiagonals(rng, d, True) @ np.diag(s) @ _bidiagonals(rng, d, False))
    hypothesis.assume(all(matalg.is_invertible(A) for A in gens))
    return OneStepCocycle(Q=sft.full_shift(k), generators=gens)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(c=ill_conditioned(), extra=st.integers(1, 3))
def test_sweep_matches_normalised_reference(c, extra):
    """Past its first rescale (n > m) the sweep matches the reference
    that normalises every level, within 1e-13 relative, at every
    degree."""
    n = c.rescale_every + extra
    hypothesis.assume(sft.count_words(c.Q, n) <= 2**15)
    ref = _normalised_sweep(c, n)
    logs = log_wedge_norm_matrices(c, (n,))[n]
    assert np.abs(logs - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(c=st.one_of(cocycles(d=1), cocycles(d=4)), n=st.integers(1, 6))
def test_top_degree_is_summed_log_det(c, n):
    """Column d of the sweep is log|det A_{i_0}| + ... + log|det A_{i_{n-1}}|,
    added in word order: bit for bit, not within a tolerance."""
    log_det = np.array([np.log(abs(np.linalg.det(A))) for A in c.generators])
    expected = np.zeros(sft.count_words(c.Q, n))
    for col in sft.word_array(c.Q, n).T:
        expected = expected + log_det[col - 1]
    assert np.array_equal(log_wedge_norm_matrices(c, (n,))[n][:, -1], expected)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(c=cocycles(), data=st.data())
def test_multi_length_sweep_matches_single_lengths(c, data):
    """One sweep of a set of lengths gives, bit for bit, the arrays of
    one sweep per length from the empty word of a fresh cocycle, also
    when the frontier is cut into blocks of 1 or 7 rows, so that a
    level spans many blocks, and also after a sweep of another drawn
    length: the set is swept on from that sweep's deepest level when
    it lies past that level and the level is one block, which is then
    kept, and from the empty word otherwise."""
    top = 8 if c.d < 4 else 6
    lengths = data.draw(st.sets(st.integers(1, top), min_size=1))
    first = data.draw(st.integers(1, top))

    def fresh():
        return OneStepCocycle(Q=c.Q, generators=c.generators)

    singles = {n: cocycle._sweep(fresh(), [n])[n] for n in lengths}
    for rows in (cocycle.BLOCK_ROWS, 7, 1):
        with mock.patch.object(cocycle, "BLOCK_ROWS", rows):
            multi = cocycle._sweep(fresh(), lengths)
            resumed = fresh()
            cocycle._sweep(resumed, [first])
            assert (resumed._frontier is not None) == (sft.count_words(c.Q, first) <= rows)
            after = cocycle._sweep(resumed, lengths)
        for got in (multi, after):
            assert got.keys() == singles.keys()
            for n in lengths:
                assert np.array_equal(got[n], singles[n])


def _unique_ranks(rows: np.ndarray) -> np.ndarray:
    """The reference ranks: lexicographic rank among the distinct rows."""
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(k=st.integers(2, 4), data=st.data())
def test_table_ranks_match_unique(k, data):
    """Prefix and suffix ranks from the child tables equal the ranks of
    a sort, on shifts that are not full."""
    Q = _primitive(k, data.draw(st.lists(st.integers(0, 1), min_size=k * k, max_size=k * k)))
    hypothesis.assume(Q is not None and not Q.is_full_shift)
    L = data.draw(st.integers(2, 8))
    a, b = data.draw(st.integers(1, L - 1)), data.draw(st.integers(1, L - 1))
    W = sft.word_array(Q, L)
    tables = sft.child_tables(Q, L)
    assert np.array_equal(typicality._ranks(tables, W[:, :a]), _unique_ranks(W[:, :a]))
    assert np.array_equal(typicality._ranks(tables, W[:, -b:]), _unique_ranks(W[:, -b:]))


def _point(draw, d: int) -> np.ndarray:
    return np.array(draw(st.lists(st.floats(-2, 2), min_size=d, max_size=d)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(c=cocycles(), n=st.integers(1, 7), data=st.data())
def test_hessian_is_gradient_derivative(c, n, data):
    """The Hessian n Cov_w from the moments of a Gibbs pass is the
    Jacobian of its mean, the gradient (central differences), and is
    symmetric positive semidefinite."""
    q = _point(data.draw, c.d)
    profs = profile_matrix(c, n)
    _, mean, second = pressure._gibbs(profs, n * q[None], profs, pressure._products(profs))
    H = pressure._hessians(mean, second, n)[0]
    step = 1e-4
    steps = np.vstack([step * np.eye(c.d), -step * np.eye(c.d)])
    up, down = np.split(pressure._gibbs(profs, n * (q + steps), profs)[1], 2)
    fd = ((up - down) / (2 * step)).T
    assert np.abs(H - fd).max() <= 1e-5
    assert np.abs(H - H.T).max() <= 1e-14
    assert np.linalg.eigvalsh(H).min() >= -1e-12


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(c=cocycles(), n=st.integers(1, 7), data=st.data(),
                  seed=st.integers(0, 2**32 - 1))
def test_solver_at_a_gradient(c, n, data, seed):
    """At alpha = grad P_n(q0) the minimizer is interior, its gradient
    matches alpha to GRAD_TOL, and h is below the objective at any q.

    The objective is convex, so f(q) >= h + <grad f(q*), q - q*>; the
    infimum check allows that first-order term, because on a nearly
    flat P_n a gradient of size GRAD_TOL can leave h ~1e-7 above the
    infimum (two generators with |det| 1.2050 and 1.2042, d = 1)."""
    profs = profile_matrix(c, n)
    alpha = pressure._gibbs(profs, n * _point(data.draw, c.d)[None], profs)[1][0]
    pt = spectrum.spectrum_curve(c, alpha[None], n)[0]
    assert pt.status == "interior-converged"
    g = pressure._gibbs(profs, n * pt.q_star[None], profs)[1][0] - alpha
    assert np.abs(g).max() <= spectrum.GRAD_TOL
    grid = np.random.default_rng(seed).uniform(-5, 5, size=(20, c.d))
    for q, log_s in zip(grid, pressure.log_sums(c, grid, (n,))[n]):
        f = log_s / n - q @ alpha
        assert pt.h <= f - g @ (q - pt.q_star) + 1e-9


def _three_pass_legendre(c, alpha, n, q0=None):
    """The reference solver: the damped Newton loop of
    :func:`spectrum._newton` on one alpha, with a separate Gibbs pass
    over the profiles for the value, the gradient and the Hessian, as
    it was written before one pass served all three."""
    profs = profile_matrix(c, n)
    q = np.zeros(c.d) if q0 is None else np.asarray(q0, dtype=float).copy()

    def gibbs(qv, *fields):
        return [m[0] for m in pressure._gibbs(profs, n * qv[None], *fields)]

    def objective(qv):
        return gibbs(qv)[0] / n - float(qv @ alpha)

    f = objective(q)
    status = "diverged"
    grad_res = np.inf
    for _ in range(2000):
        g = gibbs(q, profs)[1] - alpha
        grad_res = float(np.abs(g).max())
        if grad_res <= spectrum.GRAD_TOL:
            status = "interior-converged"
            break
        if np.linalg.norm(q) > spectrum.Q_MAX:
            status = "boundary-suspect"
            break
        _, mean, second = gibbs(q, profs, pressure._products(profs))
        H = n * (second.reshape(c.d, c.d) - np.outer(mean, mean))
        p = np.linalg.solve(H + float(g @ g) * np.eye(c.d), -g)
        slope = float(g @ p)
        if not slope < 0:
            p, slope = -g, -float(g @ g)
        step = 1.0
        while step > 1e-14:
            q_new = q + step * p
            f_new = objective(q_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            status = "interior-converged"
            break
        q, f = q_new, f_new
    if status == "interior-converged" and np.linalg.norm(q) > spectrum.Q_MAX / 2:
        status = "boundary-suspect"
    h, clamped = (0.0, True) if f < 0 else (f, False)
    return h, q, status, clamped, grad_res


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(c=st.integers(1, 3).flatmap(lambda d: cocycles(d=d)),
                  n=st.integers(1, 8), case=st.sampled_from(["gradient", "outside", "warm"]),
                  data=st.data())
def test_one_pass_solver_matches_three_pass_loop(c, n, case, data):
    """The same point as the three-pass loop: at alpha = grad P_n(q0)
    from q = 0, at alpha pushed outside the profile hull (the iterate
    escapes), and at a gradient alpha from a warm start.  The batched
    Gibbs pass sums in BLAS order, so h agrees to rounding, and the
    clamp flag wherever h is not itself at rounding level."""
    profs = profile_matrix(c, n)
    alpha = pressure._gibbs(profs, n * _point(data.draw, c.d)[None], profs)[1][0]
    q0 = None
    if case == "outside":
        u = _point(data.draw, c.d)
        hypothesis.assume(np.linalg.norm(u) > 0.1)
        u /= np.linalg.norm(u)
        push = (profs @ u).max() - alpha @ u + data.draw(st.floats(0.01, 1.0))
        alpha = alpha + push * u
    elif case == "warm":
        q0 = 4 * _point(data.draw, c.d)
    pt = spectrum._newton(profs, n, alpha[None], None if q0 is None else q0[None])[0]
    h, q_star, status, clamped, grad_res = _three_pass_legendre(c, alpha, n, q0=q0)
    assert pt.status == status
    assert abs(pt.h - h) <= 1e-12 * max(1.0, abs(h))
    if abs(h) > 1e-12:
        assert pt.clamped == clamped
