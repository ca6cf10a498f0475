import itertools
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from ball_oracle import word_spheres_reference
from conftest import random_sl2
from cover_oracle import greedy_cover_count_reference

from pslab import _kernels, asymptotics, cartan, flags, matgroup, patterson, presets
from pslab.errors import DecompositionFailure


def _lapack_logs(mats):
    """LAPACK's log singular values, floored as the kernel floors them, in the
    top ceil(d / 2) columns that the kernel makes."""
    top = (mats.shape[-1] + 1) // 2
    return np.log(np.maximum(np.linalg.svd(mats, compute_uv=False)[..., :top], 1e-300))


def _assert_same_bits(mats):
    got, want = _kernels.batch_log_singular_values(mats), _lapack_logs(mats)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _samples(kind, count=100_000, d=2):
    rng = np.random.default_rng({"normal": 1, "scaled": 2, "zeros": 3, "integers": 4}[kind])
    if kind == "integers":
        return rng.integers(-4, 5, size=(count, d, d)).astype(float)
    x = rng.normal(size=(count, d, d))
    if kind == "scaled":
        x *= np.exp(rng.uniform(-30.0, 30.0, size=x.shape))
    elif kind == "zeros":
        x[rng.random(x.shape) < 0.3] = 0.0
    return x


def test_batch_log_singular_values_matches_svd():
    # the top ceil(d / 2) values, the columns the splice reads
    for d in (2, 3, 4):
        for kind in ("normal", "scaled", "zeros", "integers"):
            _assert_same_bits(_samples(kind, 2000, d))


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
    ball = word_spheres_reference(make(), n)
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
    # dlas2: a zero on the diagonal
    "zero-on-diagonal": [[0.0, 1.0], [0.0, 1.0]],
    # dlas2: a zero diagonal
    "zero-diagonal": [[0.0, 1.0], [0.0, 0.0]],
    # a zero second column
    "zero-column": [[0.0, 0.0], [1.0, 0.0]],
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
    [[2.0, 0.0], [0.0, 3.0]],  # dlarfg: a21 == 0 leaves the column
    [[-0.0, 1.5], [1.3, 0.8]],  # dlarfg: the sign of a zero a11 picks beta's
    [[0.0, 1.5], [1.3, 0.8]],
    [[1.0, 2.0], [2.0, 4.0]],  # singular: the larger value alone is made
]


def test_2x2_rare_branches_have_lapacks_bits(counting_svd):
    mats = np.array(RARE_ROWS)
    got = _kernels.batch_log_singular_values(mats)
    assert counting_svd.rows == 0
    assert got.tobytes() == _lapack_logs(mats).tobytes()


def _lapack_frames(mats):
    """frames_2x2 from LAPACK: the positive QR frames of np.linalg.svd's U, and its values."""
    U, S, _ = np.linalg.svd(mats)
    return _kernels.lapack_qr_positive(U), S


def _assert_same_bytes(got, want):
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def _assert_vectors_have_lapacks_bits(mats):
    _assert_same_bytes(_kernels.frames_2x2(mats), _lapack_frames(mats))


def test_2x2_vector_kernels_reject_other_sizes_before_lapack(monkeypatch):
    # np.linalg.svd with vectors did not return within 120 s on the 3x3
    # identity with one inf entry
    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(np.linalg, "svd", lapack)
    monkeypatch.setattr(np.linalg, "qr", lapack)
    inf = np.eye(3)
    inf[0, 1] = np.inf
    for mats in (np.eye(3), inf, np.stack([np.eye(3), inf]), np.eye(4), np.eye(2)[:, :1]):
        with pytest.raises(ValueError):
            _kernels.frames_2x2(mats)


@pytest.mark.parametrize("kind", ["normal", "scaled", "zeros", "integers"])
def test_2x2_left_singular_vectors_and_qr_frames_have_lapacks_bits(kind):
    # singular rows included: even the sign of a zero singular value matches
    _assert_vectors_have_lapacks_bits(_samples(kind, 200_000))


@BALLS
def test_2x2_vectors_of_word_balls_have_lapacks_bits(make, n):
    ball = word_spheres_reference(make(), n)
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
    # l == 0: |f| == |h|
    "l-zero": ([[1.0, 0.5], [0.0, 1.0]], lambda d1, e1, d2: abs(d1) == abs(d2)),
    "l-zero-negative": ([[2.0, 1.0], [0.0, -2.0]], lambda d1, e1, d2: abs(d1) == abs(d2)),
    # a split with the values in order, U = I
    "split": ([[2.0, 1e-20], [0.0, 1.0]],
              lambda d1, e1, d2: _split(d1, e1, d2) and abs(d1) >= abs(d2)),
    "identity": ([[1.0, 0.0], [0.0, 1.0]],
                 lambda d1, e1, d2: _split(d1, e1, d2) and abs(d1) >= abs(d2)),
    # orthogonal columns: e1 == 0 after the reflection
    "split-reflected": ([[3.0, -4.0], [4.0, 3.0]], lambda *d: _split(*d)),
    # a21 == 0: dgebd2 makes no reflection (tau == 0)
    "a21-zero": ([[3.0, 1.0], [0.0, 2.0]], lambda *d: True),
    "a21-minus-zero": ([[2.0, 1.0], [-0.0, 3.0]], lambda *d: True),
    "a21-zero-negative-diagonal": ([[-2.0, 1.0], [0.0, -3.0]], lambda *d: True),
    # rank one, but rounding leaves d2 ~ 2e-16
    "rank-one": ([[1.0, 2.0], [2.0, 4.0]], lambda d1, e1, d2: 0 < abs(d2) < 1e-15),
}


@pytest.mark.parametrize("name", sorted(RARE_VECTOR_ROWS))
def test_2x2_vector_rare_branches_have_lapacks_bits(name, counting_svd, counting_qr):
    row, takes_branch = RARE_VECTOR_ROWS[name]
    mats = np.array([row])
    with np.errstate(all="ignore"):
        _, d1, e1, t, v2, a22, *_ = _kernels._bidiagonal_2x2(mats)
        d2 = _kernels._fma(t, v2, a22)
    assert takes_branch(d1[0], e1[0], d2[0])
    want = _lapack_frames(mats)
    counting_svd.rows = counting_qr.rows = 0
    got = _kernels.frames_2x2(mats)
    assert counting_svd.rows == 0 and counting_qr.rows == 0
    _assert_same_bytes(got, want)
    if name in ("split", "identity"):
        # the kernel's U is I, so the QR step takes its tau == 0 branch:
        # Q21 = -tau * U21 = -0.0
        u = np.empty_like(mats)
        with np.errstate(all="ignore"):
            assert not _kernels._left_singular_vectors_2x2(mats, u, np.empty((1, 2))).any()
        assert u.tobytes() == np.eye(2)[None].tobytes()
        assert got[0][0, 1, 0] == 0.0 and np.signbit(got[0][0, 1, 0])


# rows outside the range where the vector kernels' steps are exact, one per
# class: batch_log_singular_values's classes, a reflection of U whose fused
# product underflows (the bidiagonal's own product does not), and the cases
# of dlasv2 and of the sort that the kernel leaves to LAPACK
VECTOR_FALLBACK_ROWS = {
    **FALLBACK_ROWS,
    "reflection": [[1.0, 1e10], [1e-295, 1.0]],
    # |f / g| < eps, with h below and above 1
    "very-wide": [[1e-10, 1e10], [0.0, 1e-10]],
    "very-wide-h": [[2.5, 1e20], [0.0, 3.0]],
    # m = g / f squares to 0 (with l != 0; l == 0 as well would split), and
    # the left rotation's sine is a subnormal that depends on t
    "mm-zero": [[1.0, 1e-162], [0.0, 1e-150]],
    # singular: a zero singular value keeps dlasv2's sign, +0.0 and -0.0
    "singular": [[0.0, 0.0], [-1.0, 1.5]],
    "singular-minus-zero": [[1.0, 1.0], [0.0, -0.0]],
    # a split that only the threshold's floor makes (sminoa == 0)
    "split-floor": [[0.0, 1e-310], [0.0, 1.0]],
    # a split that the sort swaps
    "split-swap": [[1.0, 1e-20], [0.0, 2.0]],
    "split-swap-negative": [[-1.0, 1e-20], [0.0, -2.0]],
    "split-swap-reflected": [[3.0, -8.0], [4.0, 6.0]],
}


@pytest.mark.parametrize("name", sorted(VECTOR_FALLBACK_ROWS))
def test_2x2_vector_fallback_rows_go_to_lapack(name, counting_svd, counting_qr):
    mats = _samples("normal", 9)
    mats[4] = VECTOR_FALLBACK_ROWS[name]
    finite = np.isfinite(mats[4]).all()
    with np.errstate(all="ignore"):
        # np.linalg.svd raises on the NaN row: a non-finite row is not
        # handed to LAPACK, and its frame and values are NaN
        want = _lapack_frames(mats if finite else np.delete(mats, 4, axis=0))
        counting_svd.rows = counting_qr.rows = 0
        counting_svd.seen = []
        got = _kernels.frames_2x2(mats)
    if finite:
        _assert_same_bytes(got, want)
        assert [m.tobytes() for m in counting_svd.seen] == [mats[[4]].tobytes()]
        assert counting_qr.rows == 1
    else:
        _assert_same_bytes((np.delete(g, 4, axis=0) for g in got), want)
        assert np.isnan(got[0][4]).all() and np.isnan(got[1][4]).all()
        assert counting_svd.rows == 0 and counting_qr.rows == 0


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
        logs, frames = _lapack_logs(mats), _lapack_frames(mats)
        row_U = [np.linalg.svd(mats[[r]])[0] for r in rows]
        # the "reflection" row's values are exact; its vectors and frame are not
        for kernel, want, lapack_rows in (
                (_kernels.batch_log_singular_values, (logs,), [3, 10]),
                (_kernels.frames_2x2, frames, rows)):
            counting_svd.seen, counting_qr.seen = [], []
            got = kernel(mats)
            got = got if isinstance(got, tuple) else (got,)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], kernel
            # one LAPACK call per chunk with a fallback row, on that row
            assert ([m.tobytes() for m in counting_svd.seen]
                    == [mats[[r]].tobytes() for r in lapack_rows])
    # the frames' QR takes the U of each of those rows
    assert [m.tobytes() for m in counting_qr.seen] == [u.tobytes() for u in row_U]
    # a stack of larger matrices goes to LAPACK whole, and keeps its first columns
    for d in (3, 4):
        larger = _samples("normal", 11, d)
        want = _lapack_logs(larger)
        counting_svd.seen = []
        got = _kernels.batch_log_singular_values(larger)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert [m.tobytes() for m in counting_svd.seen] == [larger.tobytes()]


def _rows_seen(counter):
    """The rows of every call a CountingLinalg saw, as a sorted multiset of bytes."""
    return sorted(row.tobytes() for call in counter.seen for row in call)


def _sorted_rows(*stacks):
    return sorted(row.tobytes() for stack in stacks for row in stack)


# 1 and 4 rows make one call; 11 rows two ranges, 5 + 6; 13 rows three, 4 + 4 + 5
RANGE_ROWS = pytest.mark.parametrize("n", [1, 4, 11, 13])


def _calls(n):
    return max(1, min(3, n // 4))


@RANGE_ROWS
def test_row_ranges_keep_lapacks_values_and_row_order(n, three_ranges, counting_svd):
    for d in (3, 4):
        mats = _samples("normal", n, d)
        want = _lapack_logs(mats)
        counting_svd.seen = []
        got = _kernels.batch_log_singular_values(mats)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # each row goes to LAPACK once; threads append out of order
        assert len(counting_svd.seen) == _calls(n)
        assert _rows_seen(counting_svd) == _sorted_rows(mats)


@RANGE_ROWS
def test_row_ranges_keep_lapacks_spliced_frames_and_row_order(n, three_ranges, counting_svd):
    # d = 4 rows go to LAPACK whole; row 5 % n, the first of the second
    # range at 11 rows, has an inf entry and is never handed to LAPACK
    mats = _samples("normal", n, 4)
    inv_mats = np.linalg.inv(mats)
    bad = 5 % n
    mats[bad, 1, 2] = np.inf
    want = _kernels._lapack_spliced_frames(mats, inv_mats)
    counting_svd.seen = []
    got = _kernels.spliced_frames(mats, inv_mats)
    _assert_same_bytes(got, want)
    assert np.isnan(got[0][bad]).all() and np.isnan(got[1][bad]).all()
    assert len(counting_svd.seen) == 2 * _calls(n)
    finite = np.arange(n) != bad
    assert _rows_seen(counting_svd) == _sorted_rows(mats[finite], inv_mats[finite])


def test_row_ranges_start_no_thread_on_one_cpu(monkeypatch, counting_svd):
    monkeypatch.setattr(_kernels, "_THREAD_ROWS", 4)
    monkeypatch.setattr(_kernels, "lapack_threads", lambda: 1)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    mats = _samples("normal", 40, 3)
    want = _lapack_logs(mats)
    counting_svd.seen = []
    assert _kernels.batch_log_singular_values(mats).tobytes() == want.tobytes()
    assert [m.tobytes() for m in counting_svd.seen] == [mats.tobytes()]


def test_the_first_lapack_error_in_row_order_reaches_the_caller(three_ranges, monkeypatch):
    # ranges of 4 rows over 12: the second and third raise, the first and
    # the inverse products' stack do not
    mats, inv_mats = _samples("normal", 12, 3), _samples("scaled", 12, 3)
    svd = np.linalg.svd

    def failing(a, *args, **kwargs):
        for i in (1, 2):
            if a[0].tobytes() == mats[4 * i].tobytes():
                raise np.linalg.LinAlgError(f"range {i + 1} failed")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    before = threading.active_count()
    with pytest.raises(DecompositionFailure, match="^range 2 failed$"):
        matgroup.batch_kappa(mats, inv_mats)
    assert threading.active_count() == before
    # the other stack alone splices
    assert matgroup.batch_kappa(inv_mats, inv_mats).shape == (12, 3)


def test_worker_ranges_run_under_the_callers_errstate(three_ranges):
    # rows 4 to 11, the second and third ranges, divide by zero; warnings
    # are errors here, so a worker that starts at np.errstate's default
    # raises
    x = np.ones((12, 3, 3))
    x[4:] = 0.0

    def divide(x):
        return (1.0 / x,)

    with np.errstate(all="ignore"):
        (got,) = _kernels._lapack_rows(divide, x)
        want = 1.0 / x
    assert got.tobytes() == want.tobytes() and np.isinf(got[4:]).all()
    with np.errstate(divide="warn"), pytest.raises(RuntimeWarning):
        _kernels._lapack_rows(divide, x)


@BALLS
def test_batch_kappa_never_reaches_lapack_in_range(make, n, counting_svd, counting_qr):
    # a fallback mask that silently widens fails here, not only in the
    # benchmark; the parabolic ball is the a21 == 0 path of every row
    ball = word_spheres_reference(make(), n)
    counting_svd.rows = counting_qr.rows = 0
    matgroup.batch_kappa(ball.mats, ball.inv_mats)
    _kernels.frames_2x2(ball.mats)
    assert counting_svd.rows == 0 and counting_qr.rows == 0


@BALLS
def test_frobenius_bound_is_below_the_spliced_alpha1(make, n):
    # sigma_1(M)^2 >= |M|_F^2 / 2 for a 2x2 M, the bound by which the sphere
    # regression leaves out the rows above its window; the random rows come
    # with their adjugates, their exact inverses
    ball = word_spheres_reference(make(), n)
    A = np.array(random_sl2(2000, seed=7))
    adj = np.stack([A[:, 1, 1], -A[:, 0, 1], -A[:, 1, 0], A[:, 0, 0]], axis=-1).reshape(A.shape)
    f = cartan.theta_covector(cartan.Functional.alpha(1, 2), (1,))
    for mats, inv_mats in ((ball.mats, ball.inv_mats), (A, adj)):
        a, b = patterson._squared_norms(mats), patterson._squared_norms(inv_mats)
        bound = 0.5 * np.log(a / 2) + 0.5 * np.log(b / 2)
        assert (bound <= matgroup.batch_kappa(mats, inv_mats) @ f).all()


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


D3_BALLS = pytest.mark.parametrize("make", [lambda: presets.schottky_so21(1.6),
                                             presets.sl3_zariski_dense],
                                    ids=["schottky-so21-1.6", "zariski"])


def _cross_norms(x, y):
    return np.linalg.norm(np.cross(x, y), axis=-1)


@D3_BALLS
def test_3x3_spliced_frames_agree_with_lapack_on_word_balls(make):
    # the closed form against LAPACK's singular pairs, spliced the same way,
    # on the 118,097 rows of a radius-10 ball; the identity has no line
    ball = word_spheres_reference(make(), 10)
    mats, inv_mats = ball.mats[1:], ball.inv_mats[1:]
    frames, logs, inv_logs = _kernels.spliced_frames(mats, inv_mats)
    want_frames, want_logs, want_inv_logs = _kernels._lapack_spliced_frames(mats, inv_mats)
    assert np.abs(logs - want_logs).max() <= 1e-14
    assert np.abs(inv_logs - want_inv_logs).max() <= 1e-14
    for column in (0, 2):
        assert _cross_norms(frames[..., column], want_frames[..., column]).max() <= 1e-13
    gram = np.swapaxes(frames, -1, -2) @ frames
    assert np.abs(gram - np.eye(3)).max() <= 1e-12
    # the d = 3 gaps: kappa's middle entry is minus the sum of the others
    sigma, inv_sigma = (np.linalg.svd(m, compute_uv=False)[:, 0] for m in (mats, inv_mats))
    l, m = np.log(sigma), np.log(inv_sigma)
    _, gaps = flags._spliced_frames_gaps(mats, inv_mats, (1, 2))
    assert np.abs(gaps - np.stack([2 * l - m, 2 * m - l], axis=1)).max() <= 1e-12


@D3_BALLS
def test_3x3_spliced_frames_leave_only_the_identity_to_lapack(make, counting_svd, counting_qr):
    ball = word_spheres_reference(make(), 10)
    frames, _, _ = _kernels.spliced_frames(ball.mats, ball.inv_mats)
    assert [m.tobytes() for m in counting_svd.seen] == [np.eye(3)[None].tobytes()] * 2
    assert counting_qr.rows == 0
    # the identity's singular vectors are arbitrary, and so is its frame
    assert np.isfinite(frames[1:]).all()


def _rotation3():
    c, s = np.cos(0.3), np.sin(0.3)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return turn @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


# rows that the 3x3 kernel leaves to LAPACK, one per class
SPLICED_FALLBACK_ROWS = {
    "identity": np.eye(3),
    # sigma_1 = sigma_2: Smith's r is -1
    "top-pair-meets": np.diag([2.0, 2.0, 0.25]),
    # a Gram matrix that is the identity up to rounding
    "rotation": _rotation3(),
    "huge": np.diag([2.0**490, 1.0, 2.0**-490]),
    "inf": np.array([[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(SPLICED_FALLBACK_ROWS))
def test_3x3_spliced_fallback_rows_go_to_lapack(name, counting_svd):
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(9, 3, 3))
    mats[4] = SPLICED_FALLBACK_ROWS[name]
    with np.errstate(all="ignore"):
        inv_mats = np.linalg.inv(mats)
    with np.errstate(all="ignore"):
        mask = _kernels._spliced_frames_3x3(mats, inv_mats, *(np.empty((9,) + shape)
                                                             for shape in ((3, 3), (1,), (1,))))
    assert mask.tolist() == [i == 4 for i in range(9)]
    frames, logs, inv_logs = _kernels.spliced_frames(mats, inv_mats)
    if name == "inf":
        # dgesdd does not return on such a 3x3 matrix: the row is NaN
        assert counting_svd.rows == 0
        assert np.isnan(frames[4]).all() and np.isnan(logs[4]) and np.isnan(inv_logs[4])
    else:
        assert ([m.tobytes() for m in counting_svd.seen]
                == [mats[[4]].tobytes(), inv_mats[[4]].tobytes()])
        assert logs[4, 0] == np.log(np.linalg.svd(mats[4], compute_uv=False)[0])
    others = np.arange(9) != 4
    want = _kernels._lapack_spliced_frames(mats[others], inv_mats[others])
    for got, ref in zip((frames, logs, inv_logs), want):
        assert np.abs(got[others] - ref).max() <= 1e-13


def _fma_steps(a, b, c):
    """a * b + c from _fma and from _fma_exact_sum, whose products here never underflow."""
    exact_sum, tiny = _kernels._fma_exact_sum(a, b, c)
    assert not tiny.any()
    return _kernels._fma(a, b, c), exact_sum


def _rounded_once(a, b, c):
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def test_fma_rounds_once():
    rng = np.random.default_rng(7)
    count = 3000
    a = rng.normal(size=count) * np.exp2(rng.integers(-200, 200, count))
    b = rng.normal(size=count) * np.exp2(rng.integers(-200, 200, count))
    c = rng.normal(size=count) * np.exp2(rng.integers(-400, 400, count))
    # c close to -a * b: the sum cancels to its low bits
    near = rng.random(count) < 0.5
    c[near] = -(a * b)[near] * (1.0 + rng.normal(size=near.sum()) * 2.0**-40)
    for got in _fma_steps(a, b, c):
        for x, y, z, r in zip(a, b, c, got):
            assert r == _rounded_once(x, y, z), (x, y, z)
    # a * b + c lies just above the midpoint between 1 and 1 + 2**-52; the
    # low parts summed to nearest end on that midpoint, so rounding them to
    # nearest, or a round-to-odd step that does not move, gives 1 (ties go
    # to even)
    one = np.array([1.0])
    assert _kernels._fma(one + 2.0**-52, one * 2.0**-53 * (1 - 2.0**-53), one)[0] == 1 + 2.0**-52
    # a * b + c is the midpoint 1 + 2**-53 itself, with a low part 2**-54
    # in a * b: the tie goes to even, 1
    x = one + 2.0**-27
    z = -(one * 2.0**-26 - 2.0**-54)
    for got in _fma_steps(x, x, z):
        assert got[0] == _rounded_once(x[0], x[0], z[0]) == 1.0
    # ties that _fma_exact_sum makes without _fma: c + fl(a * b) is exactly
    # s, with last bit even or odd, and the low part 2**-54 of a * b is half
    # of s's last place; each tie goes to the even neighbour
    for s, want in ((0.75, 0.75), (0.75 + 2.0**-53, 0.75 + 2.0**-52)):
        z = one * (s - float(x[0] * x[0]))
        assert Fraction(z[0]) + Fraction(float(x[0] * x[0])) == Fraction(s)
        for got in _fma_steps(x, x, z):
            assert got[0] == _rounded_once(x[0], x[0], z[0]) == want
    # an exact cancellation is +0.0, with or without a zero operand
    for x, y, z in ((3.0, 5.0, -15.0), (-1.5, 2.0**-30, 1.5 * 2.0**-30), (0.0, 2.0, 0.0)):
        for got in _fma_steps(*(one * v for v in (x, y, z))):
            assert got[0] == 0.0 and not np.signbit(got[0]), (x, y, z)


def _d2_sum_is_inexact(mats):
    """The rows on which a22 + fl(t * v2), the sum of dgebd2's d2 = fma(t, v2, a22), is not exact or not finite."""
    with np.errstate(all="ignore"):
        _, _, _, t, v2, a22, _, _ = _kernels._bidiagonal_2x2(mats)
        p = t * v2
    return np.array([not math.isfinite(c + q) or Fraction(c) + Fraction(q) != Fraction(c + q)
                     for c, q in zip(a22.tolist(), p.tolist())])


def _mixed_2x2_stack():
    """Walked word-ball products, scaled random rows, rows of signed zeros, and the rare and fallback rows, shuffled."""
    walked = [np.concatenate([mats, inv_mats])
              for _, mats, inv_mats in matgroup._BallWalk(presets.fuchsian_schottky(1.6), 5)]
    zeros = np.array(list(itertools.product([0.0, -0.0, 1.5, -0.75], repeat=4))).reshape(-1, 2, 2)
    # np.linalg.svd raises on the NaN row
    fallback = [row for name, row in VECTOR_FALLBACK_ROWS.items() if name != "nan"]
    rows = np.concatenate(walked + [_samples("scaled", 500), zeros, np.array(fallback),
                                    np.array(RARE_ROWS)])
    return rows[np.random.default_rng(8).permutation(len(rows))]


@pytest.mark.parametrize("chunk", [4, _kernels._CHUNK])
def test_2x2_d2_is_an_exact_sum_or_fma_with_lapacks_bits(chunk, monkeypatch):
    # d2 is (a22 + p) + e, p + e = t * v2 (Dekker), where the sum a22 + p
    # is exact; _fma makes it on exactly the other rows
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    mats = _mixed_2x2_stack()
    finite = np.isfinite(mats).all(axis=(1, 2))
    with np.errstate(all="ignore"):
        want = _lapack_frames(mats[finite])
    inexact = _d2_sum_is_inexact(mats)
    assert 0 < inexact.sum() < len(mats)
    fma, seen = _kernels._fma, []

    def spy(a, b, c):
        seen.append(np.stack([a, b, c]))
        return fma(a, b, c)

    monkeypatch.setattr(_kernels, "_fma", spy)
    got = _kernels.batch_log_singular_values(mats)
    assert got.tobytes() == _lapack_logs(mats).tobytes()
    with np.errstate(all="ignore"):
        _, _, _, t, v2, a22, _, _ = _kernels._bidiagonal_2x2(mats)
    assert np.concatenate(seen, axis=1).tobytes() == np.stack([t, v2, a22])[:, inexact].tobytes()
    monkeypatch.setattr(_kernels, "_fma", fma)
    got = _kernels.frames_2x2(mats)
    _assert_same_bytes((g[finite] for g in got), want)
    # the non-finite rows' frames and values are NaN
    assert np.isnan(got[0][~finite]).all() and np.isnan(got[1][~finite]).all()


def _assert_d2_never_reaches_fma(monkeypatch, stacks):
    """No row of the stacks reaches _fma through d2, in the values kernel or in frames_2x2.

    frames_2x2 takes _fma on every row: dormbr's reflection of U once per
    column, then the QR step's r22 and Q22, four calls per chunk of the
    chunk's rows.
    """
    fma, calls = _kernels._fma, []

    def spy(a, b, c):
        calls.append(len(a))
        return fma(a, b, c)

    monkeypatch.setattr(_kernels, "_fma", spy)
    for mats in stacks:
        _kernels.batch_log_singular_values(mats)
        assert calls == []
        _kernels.frames_2x2(mats)
        chunks = [min(_kernels._CHUNK, len(mats) - a) for a in range(0, len(mats), _kernels._CHUNK)]
        assert calls == [rows for rows in chunks for _ in range(4)]
        calls.clear()


@BALLS
def test_2x2_d2_of_word_balls_never_reaches_fma(make, n, monkeypatch):
    # d2 = -+det / d1 is tiny beside a22 on a word-ball product, so fl(t v2)
    # and -a22 lie within a factor of 2 and their sum is exact (Sterbenz)
    ball = word_spheres_reference(make(), n)
    _assert_d2_never_reaches_fma(monkeypatch, (ball.mats, ball.inv_mats))


def test_2x2_d2_of_the_ball_walk_never_reaches_fma(monkeypatch):
    walk = matgroup._BallWalk(presets.fuchsian_schottky(1.6), 10)
    for _, mats, inv_mats in walk:
        _assert_d2_never_reaches_fma(monkeypatch, (mats, inv_mats))


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


def _assert_cover_is_first_fit(pts, grid):
    for eps in grid:
        assert (_kernels.greedy_cover_count(pts, eps)
                == greedy_cover_count_reference(pts, eps)), eps


@pytest.mark.parametrize("d", [2, 3, 4])
def test_greedy_cover_windows_that_overlap(d):
    # rows with first coordinate near 0, of both signs: the windows about
    # c[0] and -c[0] overlap (c[0] < r) and hold rows of either sign
    rng = np.random.default_rng(400 + d)
    pts = rng.normal(size=(400, d))
    pts[:300, 0] = rng.uniform(-0.03, 0.03, 300)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    _assert_cover_is_first_fit(pts, (0.01, 0.05, 0.1, 0.3, 0.7))
    _assert_cover_is_first_fit(_random_antipodes(rng, pts, 1), (0.02, 0.2))


def test_greedy_cover_eps_of_1_and_more(rng):
    # every computed distance is at most 1, so one ball covers all
    pts = rng.normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for eps in (1.0, np.nextafter(1.0, 0.0), 1.5, 3.0, np.inf):
        assert _kernels.greedy_cover_count(pts, eps) == greedy_cover_count_reference(pts, eps)
    for eps in (1.0, 1.5, 3.0, np.inf):
        assert _kernels.greedy_cover_count(pts, eps) == 1
    # and no ball of negative or NaN radius covers a row
    for eps in (-0.1, np.nan):
        assert _kernels.greedy_cover_count(pts, eps) == len(pts)


def _first_fit_any_centre(features, eps):
    """First-fit count where a row is covered iff some centre's per-pair distance is <= eps.

    greedy_cover_count's rule, which the per-row oracle's least distance
    over the centres only matches while no distance is NaN.
    """
    centers = []
    for row in np.asarray(features, dtype=float):
        if centers:
            dot = np.clip((np.array(centers) * row).sum(axis=1), -1.0, 1.0)
            if (np.sqrt(np.maximum(1.0 - dot * dot, 0.0)) <= eps).any():
                continue
        centers.append(row)
    return len(centers)


def test_greedy_cover_non_finite_rows():
    # no window is proven, and the windows of r = inf leave out only rows
    # whose first coordinate, or the centre's, is NaN: those are at NaN
    # distance and never covered, as in a sweep over every row
    rng = np.random.default_rng(700)
    pts = rng.normal(size=(60, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    odd = np.array([[np.nan, 0.6, 0.8], [0.6, np.nan, 0.8], [np.nan] * 3, [np.inf, 0.0, 0.0],
                    [-np.inf, 1.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]])
    for rows in (np.vstack([odd, pts]), np.vstack([pts[:30], odd, pts[30:]]),
                 np.vstack([odd[::-1], pts, odd])):
        for eps in (0.05, 0.3, 1.0, np.inf):
            # inf * 0 in a row's products with the centre is NaN
            with np.errstate(invalid="ignore"):
                got, want = (_kernels.greedy_cover_count(rows, eps),
                             _first_fit_any_centre(rows, eps))
            assert got == want, eps


def _so21_features(n):
    P = presets.schottky_so21(1.6)
    S, _, _ = flags.sample_limit_set(P, (1, 2), n)
    return asymptotics._canonical_features(np.ascontiguousarray(S.frame[:, :, 0]))


def test_greedy_cover_rows_not_sorted_by_first_coordinate():
    # canonical features come sorted by their first coordinate; the sweep
    # takes any order, and first fit follows the given one
    rng = np.random.default_rng(500)
    feats = _so21_features(5)
    for order in (rng.permutation(len(feats)), np.arange(len(feats))[::-1]):
        _assert_cover_is_first_fit(feats[order], (0.005, 0.02, 0.08, 0.3))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_greedy_cover_rows_off_unit_norm(d):
    # canonical features are rounded to 12 digits, so their norms stray from
    # 1 by about 1e-12; the windows widen by what the rows measure
    rng = np.random.default_rng(600 + d)
    pts = rng.normal(size=(500, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= 1 + 1e-12 * rng.uniform(-1, 1, size=(500, 1))
    _assert_cover_is_first_fit(pts, (0.003, 0.03, 0.3))
    _assert_cover_is_first_fit(np.round(pts, 12), (0.003, 0.03, 0.3))
    # a pair whose first coordinates differ by more than the chord of its
    # computed distance: the row lies across the line of the centre, and
    # both are 1e-12 long, which shrinks the computed distance; eps set to
    # it covers the row wherever it stands
    for t in (1e-6, 1e-5, 1e-4):
        e = np.zeros(d)
        c = e.copy()
        c[1] = 1 + 1e-12
        x = e.copy()
        x[0], x[1] = np.sin(t) * (1 + 1e-12), np.cos(t) * (1 + 1e-12)
        dot = np.clip((x[None] * c).sum(axis=1), -1.0, 1.0)
        eps = float(np.sqrt(np.maximum(1.0 - dot * dot, 0.0))[0])
        assert x[0] - c[0] > 2 * np.sin(np.arcsin(eps) / 2)
        for n, pos in ((2, 1), (64, 37)):
            rows = np.tile(c, (n, 1))
            rows[pos] = x
            assert _kernels.greedy_cover_count(rows, eps) == 1, (t, n, pos)


def test_greedy_cover_of_shipped_so21_features():
    # box-dim's input: the canonical radius-8 sphere of schottky_so21(1.6)
    # at the default scale grid
    feats = _so21_features(8)
    _assert_cover_is_first_fit(feats, np.geomspace(0.3, 0.003, 10))


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
