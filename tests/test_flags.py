import numpy as np
import pytest

from pslab import _kernels, cartan, cocycle, flags, matgroup, presets
from pslab.errors import DecompositionFailure, InsufficientGap, NotProximal, ThetaMismatch
from ball_oracle import word_spheres_reference
from identities import TRANSVERSALITY_TOLERANCE, apply_matrix, make_flag


def test_qr_positive_orthonormal_and_deterministic(rng):
    # lapack_qr_positive, the QR step of frames_2x2's LAPACK rows, also
    # makes the frames of larger matrices (tests/identities.py)
    M = rng.normal(size=(4, 4))
    Q = _kernels.lapack_qr_positive(M)
    assert np.allclose(Q.T @ Q, np.eye(4), atol=1e-12)
    assert np.allclose(Q, _kernels.lapack_qr_positive(M))


def test_flag_producers_give_orthonormal_frames(rng):
    # Flag does not check its frames: each producer makes them orthonormal
    def frames(F):
        return F.frame.reshape(-1, F.dimension, F.dimension)

    produced = []
    for P, theta in ((presets.fuchsian_schottky(1.6), (1,)),
                     (presets.sl3_zariski_dense(), (1, 2))):
        d = P.dimension
        ball = word_spheres_reference(P, 4)
        mats, inv_mats = ball.mats[1:], ball.inv_mats[1:]
        stacked, ok = flags.u_theta(mats, inv_mats, theta)
        single = flags.u_theta(mats[-1], inv_mats[-1], theta)
        produced += [stacked, single,
                     make_flag(theta, rng.normal(size=(d, d))),
                     apply_matrix(mats[-1], single),
                     apply_matrix(mats[ok], stacked),
                     flags.attracting_fixed_flag(P.word_matrix((1, 2)), theta),
                     flags.sample_limit_set(P, theta, 4)[0]]
    for F in produced:
        gram = np.swapaxes(frames(F), -1, -2) @ frames(F)
        assert len(gram) and np.abs(gram - np.eye(F.dimension)).max() <= 1e-12


def test_u_theta_of_diagonal_is_coordinate_flag():
    A = np.diag([3.0, 1.0, 1.0 / 3.0])
    F = flags.u_theta(A, np.linalg.inv(A), (1, 2))
    assert np.allclose(np.abs(F.frame), np.eye(3), atol=1e-12)


def test_u_theta_insufficient_gap():
    with pytest.raises(InsufficientGap) as exc:
        flags.u_theta(np.eye(3), np.eye(3), (1, 2))
    assert (exc.value.k, exc.value.value) == (1, 0.0)
    # the first k of theta whose gap fails is named
    with pytest.raises(InsufficientGap) as exc:
        flags.u_theta(np.diag([4.0, 1.0, 0.5, 0.5]), np.diag([0.25, 1.0, 2.0, 2.0]), (1, 2, 3))
    assert exc.value.k == 3 and abs(exc.value.value) < 1e-15


def test_u_theta_fails_the_gap_test_on_nan_gaps():
    # an infinite matrix has NaN singular values, so NaN gaps
    A = np.array([[np.inf, 0.0], [0.0, 1.0]])
    A_inv = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InsufficientGap) as exc:
        flags.u_theta(A, A_inv, (1,))
    assert exc.value.k == 1 and np.isnan(exc.value.value)
    F, ok = flags.u_theta(np.stack([A, np.diag([2.0, 0.5])]),
                          np.stack([A_inv, np.diag([0.5, 2.0])]), (1,))
    assert ok.tolist() == [False, True] and len(F) == 1


@pytest.mark.parametrize("P, theta", [(presets.fuchsian_schottky(1.6), (1,)),
                                      (presets.sl3_zariski_dense(), (1, 2))])
def test_u_theta_fails_the_gap_test_on_non_finite_rows(P, theta):
    # a product or inverse product with a NaN or infinite entry is not ok,
    # alone or in a stack, where the other rows keep the frames they have
    # without it; d = 2 reads the product alone
    d = P.dimension
    ball = word_spheres_reference(P, 3)
    mats, inv_mats = ball.mats[1:], ball.inv_mats[1:]
    nan, inf = np.full((d, d), np.nan), np.eye(d)
    inf[-1, 0] = -np.inf
    bad = [(nan, nan), (inf, np.eye(d)), (nan, inf)] + ([(mats[5], inf)] if d > 2 else [])
    rows = [0, 7, 20, len(mats)][:len(bad)]
    A = np.insert(mats, rows, [a for a, _ in bad], axis=0)
    A_inv = np.insert(inv_mats, rows, [b for _, b in bad], axis=0)
    at = np.array(rows) + np.arange(len(bad))
    F, ok = flags.u_theta(A, A_inv, theta)
    want_F, want_ok = flags.u_theta(mats, inv_mats, theta)
    assert not ok[at].any() and np.delete(ok, at).tolist() == want_ok.tolist()
    assert F.frame.tobytes() == want_F.frame.tobytes()
    for i in at:
        with pytest.raises(InsufficientGap):
            flags.u_theta(A[i], A_inv[i], theta)


@pytest.mark.parametrize("P, theta", [(presets.fuchsian_schottky(1.6), (1,)),
                                      (presets.sl3_zariski_dense(), (1, 2))])
def test_u_theta_makes_one_kernel_pass_per_stack(P, theta, monkeypatch):
    # the frames and the gaps of a stack come from one row-driver call
    by_rows, calls = _kernels._by_rows, []

    def spy(xs, *args):
        calls.append(len(xs[0]))
        return by_rows(xs, *args)

    monkeypatch.setattr(_kernels, "_by_rows", spy)
    ball = word_spheres_reference(P, 4)
    F, ok = flags.u_theta(ball.mats, ball.inv_mats, theta)
    assert calls == [len(ball.mats)] and not ok.all() and len(F) == np.count_nonzero(ok)


def test_d3_limit_flags_meet_the_conic_tangent():
    # the symmetric square maps the circle to the conic x0 x2 = x1^2 / 2,
    # and a limit flag to a point of it and its tangent plane, whose normal
    # for the line u is (u[2], -u[1], u[0]); the product's own hyperplane is
    # rounding noise on most of these words
    F, skipped, _ = flags.sample_limit_set(presets.schottky_so21(2.0), (1, 2), 8)
    u, normal = F.frame[:, :, 0], F.frame[:, :, 2]
    tangent = np.stack([u[:, 2], -u[:, 1], u[:, 0]], axis=1)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    assert skipped == 0 and len(F) == 4 * 3**7
    assert np.linalg.norm(np.cross(tangent, normal), axis=1).max() <= 1e-12


def test_apply_matrix_moves_spans(sl3):
    A = sl3.generators[0]
    F = flags.u_theta(sl3.word_matrix((2, 1)), sl3.word_matrix((-1, -2)), (1, 2))
    G = apply_matrix(A, F)
    v = A @ F.subspace(1)[:, 0]
    v /= np.linalg.norm(v)
    assert abs(abs(v @ G.subspace(1)[:, 0]) - 1.0) < 1e-10


def is_transverse(F, G, tolerance=TRANSVERSALITY_TOLERANCE):
    """(transverse?, witness): F^k + G^(d-k) = R^d for all k in theta.

    The witness is the minimum over k of |det[basis F^k | basis G^(d-k)]|.
    """
    d = F.dimension
    witness = np.inf
    for k in F.theta:
        M = np.hstack([F.subspace(k), G.subspace(d - k)])
        witness = min(witness, abs(np.linalg.det(M)))
    return bool(witness > tolerance), witness


def test_transversality_and_distance():
    F = make_flag((1, 2), np.eye(3))
    G = make_flag((1, 2), np.eye(3)[:, ::-1])
    ok, witness = is_transverse(F, G)
    assert ok and witness > 0.5
    assert not is_transverse(F, F)[0]
    assert flags.flag_distance(F, F) < 1e-12
    assert flags.flag_distance(F, G) > 0.5


def test_flag_distance_theta_mismatch():
    F = make_flag((1, 2), np.eye(3))
    H = make_flag((1,), np.eye(2))
    with pytest.raises(ThetaMismatch):
        flags.flag_distance(F, H)


def _svd_flag_distance(F, G):
    # flag_distance with LAPACK's singular value for every k, 1x1 included
    out = None
    for k in F.theta:
        pairing = np.swapaxes(F.subspace(k), -1, -2) @ G.subspace(k)
        smallest = np.clip(np.linalg.svd(pairing, compute_uv=False)[..., -1], -1.0, 1.0)
        sine = np.sqrt(np.maximum(1.0 - smallest * smallest, 0.0))
        out = sine if out is None else np.maximum(out, sine)
    return out


@pytest.mark.parametrize("d, theta", [(2, (1,)), (3, (1,)), (3, (1, 2)), (3, (2,)),
                                      (4, (1, 3)), (4, (2,))])
def test_flag_distance_matches_svd_bit_for_bit(rng, d, theta):
    # the k = 1 pairing's singular value is abs of its entry; k >= 2 keeps svd
    F = make_flag(theta, rng.normal(size=(60, d, d)))
    near = F.frame + 1e-9 * rng.normal(size=F.frame.shape)
    G = make_flag(theta, np.concatenate([rng.normal(size=(40, d, d)), near]))
    got = flags.flag_distance(F[:, None], G)
    assert got.shape == (60, 100)
    assert np.array_equal(got, _svd_flag_distance(F[:, None], G))
    assert flags.flag_distance(F[3], G[70]) == _svd_flag_distance(F[3], G[70])


def test_sample_limit_set_counts(sl2):
    F, skipped, words = flags.sample_limit_set(sl2, (1,), 3)
    assert len(F) + skipped == 36
    assert words.shape == (len(F), 3)
    assert F.theta == (1,)


def test_attracting_fixed_flag_is_fixed():
    P = presets.fuchsian_schottky(1.6)
    A = P.word_matrix((1, 2))
    F = flags.attracting_fixed_flag(A, (1,))
    assert flags.flag_distance(apply_matrix(A, F), F) < 1e-7


def test_attracting_fixed_flag_matches_deep_cartan_flag():
    P = presets.fuchsian_schottky(1.6)
    A = P.generators[0]
    F = flags.attracting_fixed_flag(A, (1,))
    U = flags.u_theta(np.linalg.matrix_power(A, 12),
                      np.linalg.matrix_power(P.word_matrix((-1,)), 12), (1,))
    assert flags.flag_distance(F, U) < 1e-6


def test_attracting_fixed_flag_needs_proximality():
    R = presets.rotation(0.3)
    with pytest.raises(NotProximal):
        flags.attracting_fixed_flag(R, (1,))


def test_attracting_fixed_flag_makes_one_eig_call(monkeypatch):
    # the proximality gaps and the frame come from the same eigen call
    calls = []
    for name in ("eig", "eigvals"):
        def counted(*args, real=getattr(np.linalg, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    for P, theta in ((presets.fuchsian_schottky(1.6), (1,)),
                     (presets.sl3_zariski_dense(), (1, 2))):
        calls.clear()
        flags.attracting_fixed_flag(P.word_matrix((1, 2)), theta)
        assert calls == ["eig"]
    calls.clear()
    with pytest.raises(NotProximal):
        flags.attracting_fixed_flag(presets.rotation(0.3), (1,))
    assert calls == ["eig"]


def test_attracting_fixed_flag_rejects_overflowing_matrix():
    # a finite matrix whose eigenvalue moduli overflow, and an infinite one
    with pytest.raises(DecompositionFailure, match="non-finite"):
        flags.attracting_fixed_flag([[1.5e308, 1.5e308], [-1.5e308, 1.5e308]], (1,))
    with pytest.raises(DecompositionFailure):
        flags.attracting_fixed_flag([[np.inf, 0.0], [0.0, 1.0]], (1,))


@pytest.mark.parametrize("P, theta", [(presets.fuchsian_schottky(1.6), (1,)),
                                      (presets.sl3_zariski_dense(), (1, 2))])
def test_stacked_flag_layer_equals_single_calls(P, theta):
    ball = word_spheres_reference(P, 3)
    d = P.dimension
    # the identity fails the gap test; put a second copy mid-stack
    mats = np.concatenate([ball.mats[:10], np.eye(d)[None], ball.mats[10:]])
    inv_mats = np.concatenate([ball.inv_mats[:10], np.eye(d)[None], ball.inv_mats[10:]])
    F, ok = flags.u_theta(mats, inv_mats, theta)
    assert len(ok) == len(mats) and np.flatnonzero(~ok).tolist() == [0, 10]
    assert len(F) == len(mats) - 2
    alpha = P.generators[0]
    B_one = cocycle.iwasawa(alpha, F)
    B_stack = cocycle.iwasawa(mats[ok], F)
    for i, (M, M_inv) in enumerate(zip(mats[ok], inv_mats[ok])):
        single = flags.u_theta(M, M_inv, theta)
        assert np.array_equal(F.frame[i], single.frame)
        assert np.array_equal(B_one[i], cocycle.iwasawa(alpha, single))
        assert np.array_equal(B_stack[i], cocycle.iwasawa(M, single))
    for i in np.flatnonzero(~ok):
        with pytest.raises(InsufficientGap):
            flags.u_theta(mats[i], inv_mats[i], theta)
    # the Cartan and Jordan projections broadcast the same way
    kappas = matgroup.batch_kappa(ball.mats, ball.inv_mats)
    nus = cartan.jordan_spliced(ball.mats, ball.inv_mats)
    for i, (M, M_inv) in enumerate(zip(ball.mats, ball.inv_mats)):
        assert np.array_equal(kappas[i], matgroup.batch_kappa(M[None], M_inv[None])[0])
        assert np.array_equal(nus[i], cartan.jordan_spliced(M, M_inv))
    empty, none_ok = flags.u_theta(mats[:0], inv_mats[:0], theta)
    assert len(empty) == 0 and none_ok.shape == (0,)


@pytest.mark.parametrize("P, theta, n", [(presets.parabolic(), (1,), 12),
                                         (presets.fuchsian_schottky(1.6), (1,), 4),
                                         (presets.sl3_zariski_dense(), (1, 2), 3)])
def test_limit_set_and_cone_read_one_sphere_of_the_walk(P, theta, n, monkeypatch):
    ball = word_spheres_reference(P, n)
    mats, inv_mats = ball.mats[ball.offsets[n]:], ball.inv_mats[ball.offsets[n]:]
    ref_F, ref_ok = flags.u_theta(mats, inv_mats, theta)
    ref_words = list(ball.sphere_letters())[n]
    proj = cartan.projection_matrix(P.dimension, theta)
    vecs = matgroup.batch_kappa(mats, inv_mats) @ proj.T
    norms = np.linalg.norm(vecs, axis=1)
    ref_dirs = vecs[norms > 1e-12] / norms[norms > 1e-12, None]
    # blocks of 5 rows span spheres
    monkeypatch.setattr(matgroup, "BLOCK_ROWS", 5)
    F, skipped, words = flags.sample_limit_set(P, theta, n)
    assert np.array_equal(F.frame, ref_F.frame)
    assert skipped == np.count_nonzero(~ref_ok)
    assert np.array_equal(words, ref_words[ref_ok])
    assert np.array_equal(matgroup.limit_cone_sample(P, theta, n), ref_dirs)
