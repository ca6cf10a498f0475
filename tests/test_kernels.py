import math
from fractions import Fraction

import numpy as np
import pytest
from cover_oracle import greedy_cover_count_reference

from pslab import _kernels, cartan, matgroup, patterson, presets


def test_batch_log_singular_values_matches_svd(rng):
    mats = rng.normal(size=(64, 3, 3))
    got = _kernels.batch_log_singular_values(mats)
    ref = np.log(np.linalg.svd(mats, compute_uv=False))
    assert np.allclose(got, ref, atol=1e-10)


def _lapack_logs(mats):
    return np.log(np.maximum(np.linalg.svd(mats, compute_uv=False), 1e-300))


def _assert_same_bits(mats):
    got, want = _kernels.batch_log_singular_values(mats), _lapack_logs(mats)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _samples(kind, count=100_000):
    rng = np.random.default_rng({"normal": 1, "scaled": 2, "zeros": 3, "integers": 4}[kind])
    if kind == "integers":
        return rng.integers(-4, 5, size=(count, 2, 2)).astype(float)
    x = rng.normal(size=(count, 2, 2))
    if kind == "scaled":
        x *= np.exp(rng.uniform(-30.0, 30.0, size=x.shape))
    elif kind == "zeros":
        x[rng.random(x.shape) < 0.3] = 0.0
    return x


@pytest.mark.parametrize("kind", ["normal", "scaled", "zeros", "integers"])
def test_2x2_singular_values_have_lapacks_bits(kind):
    _assert_same_bits(_samples(kind))


BALLS = pytest.mark.parametrize("make, n", [
    (lambda: presets.fuchsian_schottky(1.6), 10),
    (lambda: presets.fuchsian_schottky(2.6), 10),
    (presets.parabolic, 2000),
    # 39,365 rows, 19 of them with a21 == 0
    (presets.sanov_gamma2, 9),
], ids=["schottky-1.6", "schottky-2.6", "parabolic", "gamma2"])


@BALLS
def test_2x2_singular_values_of_word_balls_have_lapacks_bits(make, n):
    ball = matgroup.word_spheres(make(), n)
    _assert_same_bits(ball.mats)
    _assert_same_bits(ball.inv_mats)


# rows outside the range where the 2x2 steps are exact, one per class
FALLBACK_ROWS = {
    "nan": [[np.nan, 1.0], [1.0, 1.0]],
    "inf": [[1.0, 0.0], [np.inf, 1.0]],
    # above BIGNUM: dgesdd rescales
    "huge": [[1e200, 1.0], [1.0, 1.0]],
    # below SMLNUM: dgesdd rescales
    "tiny": [[1e-200, 0.0], [1e-200, 1e-200]],
    # first column under dlarfg's safmin
    "first-column": [[1e-295, 1.0], [1e-295, 1.0]],
    # t * v2 underflows, and with it the emulated fma's low part
    "product": [[1.0, 1e-160], [1e-160, 1e-160]],
    # v2 underflows to 0 past a nonzero a21, which shortens dlarf's
    # reflector; with a12 == 0 no fused product flags the row
    "reflector": [[1e100, 0.0], [1e-300, 1.0]],
}


@pytest.mark.parametrize("name", sorted(FALLBACK_ROWS))
def test_2x2_fallback_rows_go_to_lapack(name, counting_svd):
    # the row between in-range rows, which keep the 2x2 path
    mats = _samples("normal", 9)
    mats[4] = FALLBACK_ROWS[name]
    try:
        got = _kernels.batch_log_singular_values(mats)
    except np.linalg.LinAlgError:
        got = None
    assert counting_svd.rows == 1
    if got is None:
        with pytest.raises(np.linalg.LinAlgError):
            _lapack_logs(mats)
    else:
        assert got.tobytes() == _lapack_logs(mats).tobytes()


# in-range rows that take the rare branches of the 2x2 path
RARE_ROWS = [
    [[1e-200, 1e130], [0.0, 1e-200]],  # dlas2: fhmx / ga underflows to 0
    [[1e-200, 1e130], [1e-250, 1e-200]],
    [[0.0, 1.0], [0.0, 1.0]],  # dlas2: a zero on the diagonal
    [[0.0, 1.0], [0.0, 0.0]],  # dlas2: a zero diagonal
    [[0.0, 0.0], [1.0, 0.0]],  # a zero second column
    [[2.0, 0.0], [0.0, 3.0]],  # dlarfg: a21 == 0 leaves the column
    [[-0.0, 1.5], [1.3, 0.8]],  # dlarfg: the sign of a zero a11 picks beta's
    [[0.0, 1.5], [1.3, 0.8]],
    [[1.0, 2.0], [2.0, 4.0]],  # singular
]


def test_2x2_rare_branches_have_lapacks_bits(counting_svd):
    mats = np.array(RARE_ROWS)
    got = _kernels.batch_log_singular_values(mats)
    assert counting_svd.rows == 0
    assert got.tobytes() == _lapack_logs(mats).tobytes()


def _assert_vectors_have_lapacks_bits(mats):
    U, S, _ = np.linalg.svd(mats)
    u, s = _kernels.left_singular(mats)
    assert u.tobytes() == U.tobytes() and s.tobytes() == S.tobytes()
    for frames in (mats, U):
        assert (_kernels.qr_positive(frames).tobytes()
                == _kernels.lapack_qr_positive(frames).tobytes())


@pytest.mark.parametrize("kind", ["normal", "scaled", "zeros", "integers"])
def test_2x2_left_singular_vectors_and_qr_frames_have_lapacks_bits(kind):
    # singular rows included: even the sign of a zero singular value matches
    _assert_vectors_have_lapacks_bits(_samples(kind, 200_000))


@BALLS
def test_2x2_vectors_of_word_balls_have_lapacks_bits(make, n):
    ball = matgroup.word_spheres(make(), n)
    _assert_vectors_have_lapacks_bits(ball.mats)
    _assert_vectors_have_lapacks_bits(ball.inv_mats)


def _split(d1, e1, d2):
    # dbdsqr's split test
    a1 = abs(d1)
    sminoa = 0.0 if a1 == 0 else min(a1, abs(d2) * (a1 / (a1 + abs(e1))))
    return abs(e1) <= max(_kernels._BDSQR_TOL * (sminoa / math.sqrt(2.0)),
                          _kernels._BDSQR_FLOOR)


def _ordered(d1, e1, d2):
    # dlasv2's f and h after its swap, and g
    return max(abs(d1), abs(d2)), abs(e1), min(abs(d1), abs(d2))


# in-range rows that take the rare branches of the vector kernels, each with
# a test on dgebd2's bidiagonal (d1, e1, d2) that the row does take it
RARE_VECTOR_ROWS = {
    # dlasv2 swaps f and h when |h| > |f|
    "swap": ([[1.0, 0.5], [0.0, 3.0]], lambda d1, e1, d2: abs(d2) > abs(d1)),
    "swap-reflected": ([[0.3, 0.5], [0.2, 3.0]], lambda d1, e1, d2: abs(d2) > abs(d1)),
    # |g| > |f|: g is the largest entry
    "wide": ([[1.0, 5.0], [0.0, 0.5]],
             lambda *d: _ordered(*d)[1] > _ordered(*d)[0] > 2.0**-53 * _ordered(*d)[1]),
    # |f / g| < eps, with h below and above 1
    "very-wide": ([[1e-10, 1e10], [0.0, 1e-10]],
                  lambda *d: _ordered(*d)[0] / _ordered(*d)[1] < 2.0**-53),
    "very-wide-h": ([[2.5, 1e20], [0.0, 3.0]],
                    lambda *d: (_ordered(*d)[0] / _ordered(*d)[1] < 2.0**-53
                                and _ordered(*d)[2] > 1)),
    # m = g / f squares to 0 (with l != 0; l == 0 as well would split), and
    # the left rotation's sine is a subnormal that depends on t
    "mm-zero": ([[1.0, 1e-162], [0.0, 1e-150]],
                lambda *d: (_ordered(*d)[1] / _ordered(*d)[0]) ** 2 == 0 and not _split(*d)),
    # l == 0: |f| == |h|
    "l-zero": ([[1.0, 0.5], [0.0, 1.0]], lambda d1, e1, d2: abs(d1) == abs(d2)),
    "l-zero-negative": ([[2.0, 1.0], [0.0, -2.0]], lambda d1, e1, d2: abs(d1) == abs(d2)),
    # a split with the values in order, U = I
    "split": ([[2.0, 1e-20], [0.0, 1.0]],
              lambda d1, e1, d2: _split(d1, e1, d2) and abs(d1) >= abs(d2)),
    # a split that the sort swaps
    "split-swap": ([[1.0, 1e-20], [0.0, 2.0]],
                   lambda d1, e1, d2: _split(d1, e1, d2) and abs(d2) > abs(d1)),
    "split-swap-negative": ([[-1.0, 1e-20], [0.0, -2.0]],
                            lambda d1, e1, d2: _split(d1, e1, d2) and abs(d2) > abs(d1)),
    # a split that only the threshold's floor makes (sminoa == 0)
    "split-floor": ([[0.0, 1e-310], [0.0, 1.0]], lambda d1, e1, d2: _split(d1, e1, d2) and d1 == 0),
    # orthogonal columns: e1 == 0 after the reflection
    "split-reflected": ([[3.0, -4.0], [4.0, 3.0]], lambda *d: _split(*d)),
    "split-swap-reflected": ([[3.0, -8.0], [4.0, 6.0]],
                             lambda d1, e1, d2: _split(d1, e1, d2) and abs(d2) > abs(d1)),
    # a21 == 0: no reflection; in the QR tau == 0 and Q21 = -tau * a21,
    # -0.0 for a21 == +0.0 and +0.0 for a21 == -0.0
    "a21-zero": ([[3.0, 1.0], [0.0, 2.0]], lambda *d: True),
    "a21-minus-zero": ([[2.0, 1.0], [-0.0, 3.0]], lambda *d: True),
    "a21-zero-negative-diagonal": ([[-2.0, 1.0], [0.0, -3.0]], lambda *d: True),
    # singular: a zero singular value keeps dlasv2's sign, +0.0 and -0.0
    "singular": ([[0.0, 0.0], [-1.0, 1.5]], lambda d1, e1, d2: d2 == 0 and not _split(d1, e1, d2)),
    "singular-minus-zero": ([[1.0, 1.0], [0.0, -0.0]],
                            lambda d1, e1, d2: d2 == 0 and np.signbit(d2)),
    # rank one, but rounding leaves d2 ~ 2e-16
    "rank-one": ([[1.0, 2.0], [2.0, 4.0]], lambda d1, e1, d2: 0 < abs(d2) < 1e-15),
}


@pytest.mark.parametrize("name", sorted(RARE_VECTOR_ROWS))
def test_2x2_vector_rare_branches_have_lapacks_bits(name, counting_svd, counting_qr):
    row, takes_branch = RARE_VECTOR_ROWS[name]
    mats = np.array([row])
    with np.errstate(all="ignore"):
        d1, e1, d2, *_ = _kernels._bidiagonal_2x2(mats)
    assert takes_branch(d1[0], e1[0], d2[0])
    U, S, _ = np.linalg.svd(mats)
    Q = _kernels.lapack_qr_positive(mats)
    counting_svd.rows = counting_qr.rows = 0
    u, s = _kernels.left_singular(mats)
    q = _kernels.qr_positive(mats)
    assert counting_svd.rows == 0 and counting_qr.rows == 0
    assert u.tobytes() == U.tobytes() and s.tobytes() == S.tobytes()
    assert q.tobytes() == Q.tobytes()
    if name.startswith("a21-"):
        # Q21 = (-0.0 * a21) * sign(a11): a zero signed against a21 * sign(a11)
        assert np.signbit(q[0, 1, 0]) != np.signbit(mats[0, 1, 0] * np.sign(mats[0, 0, 0]))


# rows outside the range where the vector kernels' steps are exact, one per
# class: batch_log_singular_values's classes, and a reflection of U whose
# fused product underflows (the bidiagonal's own product does not)
VECTOR_FALLBACK_ROWS = {**FALLBACK_ROWS, "reflection": [[1.0, 1e10], [1e-295, 1.0]]}


@pytest.mark.parametrize("name", sorted(VECTOR_FALLBACK_ROWS))
def test_2x2_vector_fallback_rows_go_to_lapack(name, counting_svd, counting_qr):
    mats = _samples("normal", 9)
    mats[4] = VECTOR_FALLBACK_ROWS[name]
    with np.errstate(all="ignore"):
        try:
            want = np.linalg.svd(mats)[:2]
        except np.linalg.LinAlgError:
            want = None
        Q = _kernels.lapack_qr_positive(mats)
        counting_svd.rows = counting_qr.rows = 0
        if want is None:
            with pytest.raises(np.linalg.LinAlgError):
                _kernels.left_singular(mats)
        else:
            u, s = _kernels.left_singular(mats)
            assert u.tobytes() == want[0].tobytes() and s.tobytes() == want[1].tobytes()
        q = _kernels.qr_positive(mats)
    assert counting_svd.rows == 1 and counting_qr.rows == 1
    assert q.tobytes() == Q.tobytes()


def test_row_driver_sends_the_fallback_rows_of_every_chunk_to_lapack(
        counting_svd, counting_qr, monkeypatch):
    # chunks of 4 rows over 11: fallback rows at the last row of the first
    # chunk, the first row of the second and the last row of the short tail
    monkeypatch.setattr(_kernels, "_CHUNK", 4)
    mats = _samples("normal", 11)
    rows = [3, 4, 10]
    for row, name in zip(rows, ("huge", "reflection", "product")):
        mats[row] = VECTOR_FALLBACK_ROWS[name]
    with np.errstate(all="ignore"):
        logs, (U, S, _) = _lapack_logs(mats), np.linalg.svd(mats)
        Q = _kernels.lapack_qr_positive(mats)
        # the "reflection" row's values are exact; its vectors and frame are not
        for kernel, want, counter, lapack_rows in (
                (_kernels.batch_log_singular_values, (logs,), counting_svd, [3, 10]),
                (_kernels.left_singular, (U, S), counting_svd, rows),
                (_kernels.qr_positive, (Q,), counting_qr, rows)):
            counter.seen = []
            got = kernel(mats)
            got = got if isinstance(got, tuple) else (got,)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], kernel
            # one LAPACK call per chunk with a fallback row, on that row
            assert ([m.tobytes() for m in counter.seen]
                    == [mats[[r]].tobytes() for r in lapack_rows])


def test_batch_kappa_never_reaches_lapack_in_range(counting_svd):
    # a fallback mask that silently widens fails here, not only in the benchmark
    ball = matgroup.word_spheres(presets.fuchsian_schottky(1.6), 10)
    matgroup.batch_kappa(ball.mats, ball.inv_mats)
    assert counting_svd.rows == 0


def test_flag_paths_never_reach_lapack_in_range(counting_svd, counting_qr, counting_det):
    # the measure's flags and the quasi-invariance residuals of a 2x2 group
    # take the numpy kernels only: a fallback mask that silently widens
    # fails here, not only in the benchmark.  The determinant is checked on
    # the generators alone, never on the products the flags are read from.
    P = presets.fuchsian_schottky(1.6)
    counting_det.rows = 0
    phi = cartan.Functional.alpha(1, 2)
    mu = patterson.patterson_measure(P, phi, 0.35, 10, (1,))
    patterson.quasi_invariance_residual(P, phi, (1,), None, 8, (1,))
    assert len(mu.atoms) > 100_000
    assert counting_svd.rows == 0 and counting_qr.rows == 0 and counting_det.rows == 0


def test_fma_rounds_once():
    rng = np.random.default_rng(7)
    count = 3000
    a = rng.normal(size=count) * np.exp2(rng.integers(-200, 200, count))
    b = rng.normal(size=count) * np.exp2(rng.integers(-200, 200, count))
    c = rng.normal(size=count) * np.exp2(rng.integers(-400, 400, count))
    # c close to -a * b: the sum cancels to its low bits
    near = rng.random(count) < 0.5
    c[near] = -(a * b)[near] * (1.0 + rng.normal(size=near.sum()) * 2.0**-40)
    got = _kernels._fma(a, b, c)
    for x, y, z, r in zip(a, b, c, got):
        assert r == float(Fraction(x) * Fraction(y) + Fraction(z)), (x, y, z)
    # a * b + c lies just above the midpoint between 1 and 1 + 2**-52; the
    # low parts summed to nearest end on that midpoint, so rounding them to
    # nearest, or a round-to-odd step that does not move, gives 1 (ties go
    # to even)
    one = np.array([1.0])
    assert _kernels._fma(one + 2.0**-52, one * 2.0**-53 * (1 - 2.0**-53), one)[0] == 1 + 2.0**-52


def test_greedy_cover_extremes(rng):
    # k unit vectors 0.3 rad apart in one half-plane: chordal distances
    # sin(0.3 j) all exceed eps = 0.25, so first fit opens k balls
    k = 5
    ang = 0.3 * np.arange(k)
    spaced = np.c_[np.cos(ang), np.sin(ang), np.zeros(k)]
    assert _kernels.greedy_cover_count(spaced, 0.25) == k
    # one ball of radius above every distance covers everything
    pts = rng.normal(size=(200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert _kernels.greedy_cover_count(pts, 2.1) == 1


def _random_antipodes(rng, rows, flip):
    # with flip, each row or its antipode at random: the line, and so every
    # distance to it, is the same
    if not flip:
        return rows
    return rows * rng.choice([-1.0, 1.0], size=(len(rows), 1))


@pytest.mark.parametrize("flip", [1, 0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_greedy_cover_matches_per_row_oracle(flip, d):
    rng = np.random.default_rng(100 + d)
    for n in (1, 2, 37, 300, 800):
        pts = rng.normal(size=(n, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        flipped = _random_antipodes(rng, pts, flip)
        for eps in (0.003, 0.05, 0.3, 1.0, 2.1):
            count = _kernels.greedy_cover_count(flipped, eps)
            assert count == greedy_cover_count_reference(flipped, eps), (n, eps)
            assert count == _kernels.greedy_cover_count(pts, eps), (n, eps)


def _exact_unit_rows(d):
    # unit rows whose products and partial sums are exact in any order, so
    # each distance has the same bits in every call: the 24-cell vertices
    # (dots in {0, +-1/2, +-1}) for d = 4, else the axes and their antipodes
    axes = np.vstack([np.eye(d), -np.eye(d)])
    if d == 4:
        halves = np.array(np.meshgrid(*[[-0.5, 0.5]] * 4)).reshape(4, -1).T
        return np.vstack([axes, halves])
    return axes


@pytest.mark.parametrize("flip", [1, 0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_greedy_cover_ties_count_as_covered(flip, d):
    # eps set exactly to a pairwise distance: rows at distance eps are
    # covered (<= eps), in the sweep as in the per-row oracle
    rng = np.random.default_rng(200 + d)
    rows = _exact_unit_rows(d)
    for _ in range(5):
        pts = _random_antipodes(rng, rows[rng.permutation(len(rows))], flip)
        for j in range(1, min(6, len(pts))):
            dot = np.clip(pts[:1] @ pts[j], -1.0, 1.0)
            eps = float(np.sqrt(np.maximum(1.0 - dot * dot, 0.0))[0])
            for e in (eps, np.nextafter(eps, 0.0)):
                assert (_kernels.greedy_cover_count(pts, e)
                        == greedy_cover_count_reference(pts, e)), (j, e)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_greedy_cover_chordal_distance_is_per_pair(d):
    # eps set to the chordal distance of one generic pair (c, x), computed on
    # that pair alone, covers x whatever the number of rows in the call and
    # wherever x stands among them; the filler rows are copies of the centre c,
    # so the count is 1 iff x is covered
    rng = np.random.default_rng(300 + d)
    pts = rng.normal(size=(60, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    c = pts[0]
    for x in pts[1:]:
        dot = np.clip((x[None] * c).sum(axis=1), -1.0, 1.0)
        eps = float(np.sqrt(np.maximum(1.0 - dot * dot, 0.0))[0])
        for n, pos in ((2, 1), (9, 5), (64, 37), (203, 200)):
            rows = np.tile(c, (n, 1))
            rows[pos] = x
            assert _kernels.greedy_cover_count(rows, eps) == 1, (n, pos)


def test_ray_distances_lifted_on_axis(rng):
    # points on the ray itself are at distance 0; the antipodal point at
    # depth D is at distance D
    D = 2.5
    W = np.array([
        [np.sinh(D), 0.0, np.cosh(D)],
        [-np.sinh(D), 0.0, np.cosh(D)],
    ])
    dists = _kernels.ray_distances_lifted(W, np.array([1.0, 0.0]))
    assert abs(dists[0]) < 1e-12
    assert abs(dists[1] - D) < 1e-12

    # random lifts at depth D and angle a from the ray: in front of the
    # origin, the right triangle gives sinh(dist) = sinh(D) sin(a); behind
    # it the nearest ray point is the origin, at distance D
    depth = rng.uniform(0.1, 8.0, size=300)
    a = rng.uniform(-np.pi, np.pi, size=300)
    W = np.c_[np.sinh(depth) * np.cos(a), np.sinh(depth) * np.sin(a), np.cosh(depth)]
    z = np.array([0.6, 0.8])
    dists = _kernels.ray_distances_lifted(W, z)
    ray = np.arctan2(z[1], z[0])
    for Di, ai, got in zip(depth, a, dists):
        angle = abs((ai - ray + np.pi) % (2 * np.pi) - np.pi)
        if angle < np.pi / 2:
            ref = math.asinh(math.sinh(Di) * math.sin(angle))
        else:
            ref = Di
        assert abs(got - ref) < 1e-9 * max(1.0, ref)
