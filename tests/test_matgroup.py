import functools
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from pslab import cartan, matgroup, patterson, presets
from pslab.errors import BadIndex, BudgetExceeded
from pslab.matgroup import reduce_word
from words import random_words, word_key


def test_word_reduction_and_inversion():
    assert reduce_word((1, -1, 2)) == (2,)
    assert reduce_word((1, 2, -2, -1)) == ()
    assert matgroup.invert_word((1, -2, 1)) == (-1, 2, -1)


def test_word_key_orders_letters_canonically():
    letters = [2, -1, 1, -2]
    assert sorted(letters, key=lambda x: word_key((x,))) == [1, -1, 2, -2]


def test_sphere_sizes_match_free_group(sl2):
    spheres = matgroup.word_spheres(sl2, 4)
    sizes = [len(s) for s in spheres]
    assert sizes == [1, 4, 12, 36, 108]
    assert sum(sizes) == matgroup.free_ball_size(2, 4)


def test_sphere_order_is_canonical(sl2):
    sphere1 = matgroup.word_spheres(sl2, 1)[1]
    assert sphere1.words() == [(1,), (-1,), (2,), (-2,)]


def test_word_matrices_consistent(sl2):
    ball = matgroup.word_spheres(sl2, 3)
    for matrix, inverse_matrix, word in zip(ball.mats, ball.inv_mats, ball.words()):
        assert np.allclose(matrix, sl2.word_matrix(word), atol=1e-12)
        assert np.allclose(
            inverse_matrix, sl2.word_matrix(matgroup.invert_word(word)),
            atol=1e-10)


def test_ball_matrices_equal_word_products(sl3):
    # the same left-to-right products as word_matrix, so equal to the bit
    ball = matgroup.word_spheres(sl3, 4)
    for matrix, word in zip(ball.mats, ball.words()):
        assert np.array_equal(matrix, sl3.word_matrix(word))


def test_sphere_views_share_the_ball(sl2):
    ball = matgroup.word_spheres(sl2, 4)
    tail = ball[2:]
    assert [len(s) for s in tail] == [12, 36, 108]
    assert tail.words() == ball.words()[5:]
    assert ball[-1].words() == tail[2].words()
    assert np.shares_memory(tail[1].mats, ball.mats)
    assert [v.size for v in ball.split(np.arange(len(ball)))] == [1, 4, 12, 36, 108]
    assert all(len(w) == 4 for w in ball[4].words())


def test_ball_is_freed_without_the_cycle_collector(sl2):
    # balls are built over and over in one run; a reference cycle would keep
    # each one's arrays alive until the cycle collector happens to run
    gc.disable()
    try:
        ball = matgroup.word_spheres(sl2, 3)
        tail = ball[1:]
        freed = weakref.ref(ball)
        del ball, tail
        assert freed() is None
    finally:
        gc.enable()


def test_element_cap_checked_before_allocating(monkeypatch):
    # sphere 10 alone holds 78,732 elements; building it before the check took 70 MB
    P = presets.sl2_mild()
    monkeypatch.setattr(matgroup, "ELEMENT_CAP", 100_000)
    # the whole ball with its matrices, and the streamed ball of the exponent fits
    for build in (matgroup.word_spheres, lambda P, n: patterson._walk_ball(P, n, None)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                build(P, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16, build


def test_cap_zero_is_a_cap(monkeypatch):
    phi = cartan.Functional.alpha(1, 2)
    monkeypatch.setattr(matgroup, "ELEMENT_CAP", 0)
    P = presets.fuchsian_schottky(1.6)
    # the ball with its matrices and the streamed balls
    for n in (0, 3):
        for build in (matgroup.word_spheres, lambda P, n: patterson._walk_ball(P, n, None),
                      lambda P, n: patterson.patterson_measure(P, phi, 1.0, n, (1,))):
            with pytest.raises(BudgetExceeded):
                build(P, n)


BALL_CASES = [(presets.cyclic_hyperbolic, 9),
              (functools.partial(presets.fuchsian_schottky, 1.6), 6),
              (lambda: rank3_schottky(), 4), (presets.schottky_so21, 5),
              (presets.sl3_zariski_dense, 4),
              # deep and narrow: 300 spheres of two rows
              (presets.parabolic, 300),
              # no sphere past the identity, and sphere 1 only
              (presets.sl2_mild, 0), (presets.sl2_mild, 1)]
BALL_IDS = ["rank1", "schottky", "rank3", "schottky-d3", "zariski-d3", "parabolic",
            "radius0", "radius1"]


@pytest.mark.parametrize("make, n", BALL_CASES, ids=BALL_IDS)
def test_block_filled_ball_matches_concatenated_spheres(make, n, monkeypatch):
    from ball_oracle import batch_kappa_reference, word_spheres_reference

    # several blocks per sphere, the last one partial
    monkeypatch.setattr(matgroup, "BLOCK_ROWS", 5)
    P = make()
    ball, ref = matgroup.word_spheres(P, n), word_spheres_reference(P, n)
    for field in ("mats", "inv_mats", "parent", "letter", "offsets"):
        got, want = getattr(ball, field), getattr(ref, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert ball.words() == ref.words()
    proj = cartan.projection_matrix(P.dimension, cartan.full_theta(P.dimension))
    K, ref_K = (matgroup.batch_kappa(ball.mats, ball.inv_mats),
                batch_kappa_reference(ref.mats, ref.inv_mats))
    assert np.array_equal(K, ref_K)
    assert np.array_equal(K @ proj.T, ref_K @ proj.T)


def test_word_spheres_allocates_the_ball_once():
    # the list-and-concatenate build peaked at about 2.2 times the ball
    tracemalloc.start()
    try:
        ball = matgroup.word_spheres(presets.fuchsian_schottky(1.6), 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in (ball.mats, ball.inv_mats, ball.parent, ball.letter))
    assert peak <= 1.2 * size


def test_letter_matrix_rejects_unknown_letters(sl2):
    for letter in (0, 3, -3):
        with pytest.raises(BadIndex):
            sl2.letter_matrix(letter)
    with pytest.raises(BadIndex):
        sl2.word_matrix((1, 0))


def test_conjugacy_classes_cyclic_and_inverse_distinct(sl2):
    reps = matgroup.conjugacy_classes(sl2, 2)
    words = set(reps.words())
    # one representative per necklace; (1, 2) covers (2, 1)
    assert (1, 2) in words and (2, 1) not in words
    # a word and its inverse are distinct classes
    assert (1,) in words and (-1,) in words
    # cyclically non-reduced words are excluded
    assert all(len(w) < 2 or w[0] != -w[-1] for w in words)


def test_conjugacy_classes_primitive_only(sl2):
    reps = matgroup.conjugacy_classes(sl2, 4, primitive_only=True)
    words = set(reps.words())
    assert (1,) in words and (1, 1) not in words


def tuple_conjugacy_classes(P, n, primitive_only=False):
    """The tuple-rotation enumeration: least rotation of each cyclic word, first seen first."""
    def is_proper_power(word):
        return any(len(word) % per == 0 and word == word[per:] + word[:per]
                   for per in range(1, len(word)))

    reps, seen = [], set()
    for w in matgroup.word_spheres(P, n)[1:].words():
        if len(w) > 1 and w[0] == -w[-1]:
            continue
        canon = min((w[i:] + w[:i] for i in range(len(w))), key=word_key)
        if canon in seen:
            continue
        seen.add(canon)
        if not (primitive_only and is_proper_power(canon)):
            reps.append(canon)
    return reps


def rank3_schottky():
    return matgroup.GroupPresentation(2, [presets.hyp_axis(p, q, 1.6)
                                          for p, q in ((-1.2, 0.8), (2.0, 4.0), (6.0, 9.0))])


@pytest.mark.parametrize("primitive_only", [False, True])
@pytest.mark.parametrize("make, n", [(presets.cyclic_hyperbolic, 6),
                                     (functools.partial(presets.fuchsian_schottky, 1.6), 8),
                                     (rank3_schottky, 5)],
                         ids=["rank1", "schottky", "rank3"])
def test_conjugacy_classes_match_tuple_enumeration(make, n, primitive_only):
    P = make()
    reps = matgroup.conjugacy_classes(P, n, primitive_only)
    words = reps.words()
    assert words == tuple_conjugacy_classes(P, n, primitive_only)
    assert len(reps) == len(words)
    assert reps.lengths().tolist() == [len(w) for w in words]
    assert np.array_equal(reps.mats, np.array([P.word_matrix(w) for w in words]))
    assert np.array_equal(reps.inv_mats, np.array(
        [P.word_matrix(matgroup.invert_word(w)) for w in words]))


def test_exterior_power_rep_multiplicative(rng):
    A, B = rng.normal(size=(2, 4, 4))
    assert np.allclose(
        matgroup.exterior_power_rep(A @ B, 2),
        matgroup.exterior_power_rep(A, 2) @ matgroup.exterior_power_rep(B, 2),
        atol=1e-10,
    )


def test_exterior_power_singular_values(rng):
    A = rng.normal(size=(4, 4))
    s = np.linalg.svd(A, compute_uv=False)
    s2 = np.linalg.svd(matgroup.exterior_power_rep(A, 2), compute_uv=False)
    assert abs(s2[0] - s[0] * s[1]) < 1e-8 * s[0] * s[1]


def test_symmetric_power_rep_homomorphism():
    from conftest import random_sl2

    A, B = random_sl2(2, seed=3)
    assert np.allclose(
        matgroup.symmetric_power_rep(A @ B, 4),
        matgroup.symmetric_power_rep(A, 4) @ matgroup.symmetric_power_rep(B, 4),
        atol=1e-9,
    )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_symmetric_power_rep_stack_matches_scalar_reference(d):
    from conftest import random_sl2
    from shadow_oracle import symmetric_power_reference

    A = np.array(random_sl2(200, seed=5))
    stacked = matgroup.symmetric_power_rep(A, d)
    assert stacked.shape == (200, d, d)
    assert np.array_equal(stacked, np.array([symmetric_power_reference(M, d) for M in A]))
    assert np.array_equal(matgroup.symmetric_power_rep(A[7], d), stacked[7])


def test_symmetric_power_rep_rotation_orthogonal():
    R = presets.rotation(0.77)
    S = matgroup.symmetric_power_rep(R, 3)
    assert np.allclose(S.T @ S, np.eye(3), atol=1e-12)


def test_batch_kappa_matches_scalar_kappa(sl3):
    ball = matgroup.word_spheres(sl3, 4)
    logs = matgroup.batch_kappa(ball.mats, ball.inv_mats)
    for matrix, row in zip(ball.mats[:40], logs[:40]):
        assert np.allclose(row, cartan.kappa(matrix), atol=1e-9)


def test_limit_cone_sample_unit_directions(sl3):
    dirs = matgroup.limit_cone_sample(sl3, (1, 2), 4)
    assert dirs.shape[1] == 3
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert np.allclose(dirs.sum(axis=1), 0.0, atol=1e-9)


def test_random_words_reduced(rng):
    for w in random_words(2, 100, 12, rng):
        assert reduce_word(w) == w
        assert 1 <= len(w) <= 12
