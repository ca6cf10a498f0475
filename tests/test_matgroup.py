import collections
import functools
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from pslab import cartan, matgroup, patterson, presets
from pslab.errors import BadIndex, BudgetExceeded
from pslab.matgroup import reduce_word
from conftest import traced_peak
import csv_oracle
from identities import exterior_power_rep
from words import ball_words, random_words, word_key


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
    assert ball_words(sphere1) == [(1,), (-1,), (2,), (-2,)]


def test_word_labels_match_per_word_rule():
    # one rule for the array labeler and word_label, on labels with
    # separators, primes and quotes of their own, and on a 3-letter alphabet
    labels = ["a", "b.c", "d'\""]
    P = matgroup.GroupPresentation(2, [np.eye(2)] * len(labels), labels=labels)
    ball = matgroup.word_spheres(P, 3)
    expected = [csv_oracle.word_label(labels, w) for w in ball_words(ball)]
    assert ball.labels() == expected
    assert ball[2:].labels() == expected[ball.offsets[2]:]
    assert [P.word_label(w) for w in ball_words(ball)] == expected
    assert P.word_label(()) == "e" and P.word_labels(np.zeros((2, 0), np.int8)) == ["e", "e"]


def test_word_matrices_consistent(sl2):
    words = ball_words(matgroup.word_spheres(sl2, 3))
    for lo, mats, inv_mats in matgroup._BallWalk(sl2, 3):
        for matrix, inverse_matrix, word in zip(mats, inv_mats, words[lo:lo + len(mats)]):
            assert np.allclose(matrix, sl2.word_matrix(word), atol=1e-12)
            assert np.allclose(
                inverse_matrix, sl2.word_matrix(matgroup.invert_word(word)),
                atol=1e-10)


def test_ball_matrices_equal_word_products(sl3):
    # the same left-to-right products as word_matrix, so equal to the bit
    words = ball_words(matgroup.word_spheres(sl3, 4))
    for lo, mats, _ in matgroup._BallWalk(sl3, 4):
        for matrix, word in zip(mats, words[lo:lo + len(mats)]):
            assert np.array_equal(matrix, sl3.word_matrix(word))


def test_sphere_views_share_the_ball(sl2):
    ball = matgroup.word_spheres(sl2, 4)
    tail = ball[2:]
    assert [len(s) for s in tail] == [12, 36, 108]
    assert ball_words(tail) == ball_words(ball)[5:]
    assert ball_words(ball[-1]) == ball_words(tail[2])
    assert np.shares_memory(tail[1].rows, ball.rows) and tail[1].walk is ball.walk
    assert [v.size for v in ball.split(np.arange(len(ball)))] == [1, 4, 12, 36, 108]
    assert all(len(w) == 4 for w in ball_words(ball[4]))


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


def test_walk_is_freed_without_the_cycle_collector():
    # a walk whose recursion referred to itself, as a nested function that
    # calls itself does, kept its buffers until the cycle collector ran.
    # Each buffer here is 512 KiB; numpy's cache of small allocations keeps
    # a few hundred bytes
    P = presets.fuchsian_schottky(1.6)
    walk = matgroup._BallWalk(P, 10)
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        collections.deque(walk, maxlen=0)
        assert tracemalloc.get_traced_memory()[0] < before + 4096
        # abandoned at its third block
        blocks = iter(walk)
        for _ in range(3):
            next(blocks)
        del blocks, _
        assert tracemalloc.get_traced_memory()[0] < before + 4096
    finally:
        tracemalloc.stop()
        gc.enable()


def test_element_cap_checked_before_allocating(monkeypatch):
    # sphere 10 alone holds 78,732 elements; building it before the check took 70 MB
    P = presets.sl2_mild()
    monkeypatch.setattr(matgroup, "ELEMENT_CAP", 100_000)
    # the words-only ball, and the streamed ball of the exponent fits
    for build in (matgroup.word_spheres, lambda P, n: patterson._walk_ball(P, n, None)):
        def over_cap():
            with pytest.raises(BudgetExceeded):
                build(P, 40)
        _, peak = traced_peak(over_cap)
        assert peak < 2**16, build


def test_element_cap_counts_matrix_entries(monkeypatch):
    # rows times d^2 is capped at 4 ELEMENT_CAP, so 2x2 balls keep ELEMENT_CAP
    # rows; the walks are made, never iterated
    rows = matgroup.free_ball_size(2, 5)
    monkeypatch.setattr(matgroup, "ELEMENT_CAP", rows)
    assert matgroup._BallWalk(presets.fuchsian_schottky(1.6), 5).rows == rows
    for P, n in ((presets.fuchsian_schottky(1.6), 6), (presets.sl3_zariski_dense(), 5)):
        with pytest.raises(BudgetExceeded):
            matgroup._BallWalk(P, n)
    monkeypatch.undo()
    # a radius-12 ball of 64x64 matrices would take a 512 MiB run buffer
    logs = np.zeros(64)
    logs[:2], logs[2:4] = (0.5, -0.5), (0.25, -0.25)
    P = matgroup.GroupPresentation(64, [np.diag(np.exp(logs)), np.diag(np.exp(logs[::-1]))])
    with pytest.raises(BudgetExceeded):
        matgroup._BallWalk(P, 12)


def test_cap_zero_is_a_cap(monkeypatch):
    phi = cartan.Functional.alpha(1, 2)
    monkeypatch.setattr(matgroup, "ELEMENT_CAP", 0)
    P = presets.fuchsian_schottky(1.6)
    # the words-only ball and the streamed balls
    for n in (0, 3):
        for build in (matgroup.word_spheres, lambda P, n: patterson._walk_ball(P, n, None),
                      lambda P, n: patterson.patterson_measure(P, phi, 1.0, n, (1,))):
            with pytest.raises(BudgetExceeded):
                build(P, n)


BALL_CASES = [(presets.cyclic_hyperbolic, 9),
              (functools.partial(presets.fuchsian_schottky, 1.6), 6),
              (lambda: rank3_schottky(), 4), (presets.schottky_so21, 5),
              (presets.sl3_zariski_dense, 4),
              # products with exact zeros, whose signs are bits too
              (presets.sanov_gamma2, 6), (presets.sl4_mild, 4),
              # deep and narrow: 300 spheres of two rows
              (presets.parabolic, 300),
              # no sphere past the identity, and sphere 1 only
              (presets.sl2_mild, 0), (presets.sl2_mild, 1),
              # rank-1 chains in d = 3, of a rotation, and at radius 0 and 1
              (lambda: presets.sym_power_presentation(presets.parabolic(), 3), 40),
              (lambda: matgroup.GroupPresentation(2, [presets.rotation(0.7)]), 50),
              (presets.parabolic, 0), (presets.parabolic, 1)]
BALL_IDS = ["rank1", "schottky", "rank3", "schottky-d3", "zariski-d3", "gamma2", "d4",
            "parabolic", "radius0", "radius1", "rank1-d3", "elliptic", "rank1-radius0",
            "rank1-radius1"]


def _bits(a):
    # array_equal takes -0.0 for +0.0; the int64 view does not
    return a.view(np.int64) if a.dtype == np.float64 else a


@pytest.mark.parametrize("make, n", BALL_CASES, ids=BALL_IDS)
def test_block_filled_ball_matches_concatenated_spheres(make, n, monkeypatch):
    from ball_oracle import batch_kappa_reference, word_spheres_reference

    P = make()
    ref = word_spheres_reference(P, n)
    ref_K = batch_kappa_reference(ref.mats, ref.inv_mats)
    proj = cartan.projection_matrix(P.dimension, cartan.full_theta(P.dimension))
    # several blocks per sphere, the last one partial; at 3 rows the
    # children of the identity, or of one rank-3 parent, take two blocks, at
    # 7 a run of parents holds two of rank 2, and at 3, 5 and 7 a rank-1
    # sphere straddles every other block's end
    for block_rows in (3, 5, 7, matgroup.BLOCK_ROWS):
        monkeypatch.setattr(matgroup, "BLOCK_ROWS", block_rows)
        ball = matgroup.word_spheres(P, n)
        assert ball.offsets.dtype == ref.offsets.dtype
        assert np.array_equal(ball.offsets, ref.offsets)
        assert ball_words(ball) == ref.words()
        K = np.empty_like(ref_K)
        for lo, mats, inv_mats in matgroup._BallWalk(P, n):
            K[lo:lo + len(mats)] = matgroup.batch_kappa(mats, inv_mats)
        assert np.array_equal(_bits(K), _bits(ref_K))
        assert np.array_equal(K @ proj.T, ref_K @ proj.T)


@pytest.mark.parametrize("make, n", BALL_CASES + [(presets.parabolic, 5)],
                         ids=BALL_IDS + ["parabolic-5"])
def test_walk_hands_out_every_row_once(make, n, monkeypatch):
    from ball_oracle import word_spheres_reference

    P = make()
    ref = word_spheres_reference(P, n)
    # blocks come as row ranges, not in row order: a walk hands out the
    # blocks below each block of a sphere before the next block of that
    # sphere, depth first.  A rank-1 walk hands out its blocks in row order,
    # each ending at the next multiple of the block rows.
    for block_rows in (3, 5, 7, matgroup.BLOCK_ROWS):
        monkeypatch.setattr(matgroup, "BLOCK_ROWS", block_rows)
        walk = matgroup._BallWalk(P, n)
        handed = np.zeros(walk.rows, dtype=int)
        stop = 0
        # the row where each sphere's next block starts
        following = walk.offsets[:-1].copy()
        for lo, mats, inv_mats in walk:
            rows = slice(lo, lo + len(mats))
            assert 0 < len(mats) <= block_rows and rows.stop <= walk.rows
            if P.rank == 1:
                assert lo == stop and (rows.stop % block_rows == 0 or rows.stop == walk.rows)
                stop = rows.stop
            else:
                # each sphere's blocks in row order, and every block after
                # the first inside one sphere
                first, last = np.searchsorted(walk.offsets, [lo, rows.stop - 1], "right") - 1
                assert first == last or not handed.any()
                for k in range(first, last + 1):
                    assert max(lo, walk.offsets[k]) == following[k]
                    following[k] = min(rows.stop, walk.offsets[k + 1])
            handed[rows] += 1
            assert np.array_equal(_bits(mats), _bits(ref.mats[rows]))
            assert np.array_equal(_bits(inv_mats), _bits(ref.inv_mats[rows]))
        assert (handed == 1).all()
        assert ball_words(walk.ball()) == ref.words()


def test_deep_rank1_walk_keeps_its_bits_across_block_ends():
    # sphere 4096 straddles the end of the first block; the words of so deep
    # a ball are not rebuilt, as they hold 10^8 letters
    from ball_oracle import word_spheres_reference

    P, n = presets.parabolic(), 10_000
    ref = word_spheres_reference(P, n)
    for lo, mats, inv_mats in matgroup._BallWalk(P, n):
        rows = slice(lo, lo + len(mats))
        assert np.array_equal(_bits(mats), _bits(ref.mats[rows]))
        assert np.array_equal(_bits(inv_mats), _bits(ref.inv_mats[rows]))


def test_rank1_walk_holds_no_block_sized_state():
    # made and walked, a walk holds one block of products, a short run of
    # chain states and its letters and offsets, 10 bytes a sphere: 0.68 MiB,
    # not a block of states.  Offsets kept as a list of ints took 0.35 MiB more
    P = presets.parabolic()
    _, peak = traced_peak(lambda: sum(1 for _ in matgroup._BallWalk(P, 10_000)))
    block = 2 * matgroup.BLOCK_ROWS * P.dimension**2 * 8
    assert peak <= block + 256 * 1024


def test_conjugacy_classes_hold_the_kept_products_and_a_few_bytes_a_letter():
    # the kept rows' products, and six bytes a letter of the last sphere:
    # its words, made into letter codes in place, a copy of the cyclically
    # reduced ones with their rows, and one rotation of those.  The ball's
    # words, and the blocks of the walk that the products are copied from,
    # fit in that, at 4.7 bytes a letter.  Taking the products from a ball
    # that holds them all peaked at 14.4 MiB here, 2.8 times this bound, and
    # comparing every rotation of every word, from the codes written twice,
    # at 6.6 bytes a letter
    P = presets.fuchsian_schottky(1.6)
    reps, peak = traced_peak(matgroup.conjugacy_classes, P, 10)
    kept = reps.mats.nbytes + reps.inv_mats.nbytes
    last_sphere = matgroup.free_ball_size(P.rank, 10) - matgroup.free_ball_size(P.rank, 9)
    assert peak < kept + 6 * 10 * last_sphere


def test_letter_matrix_rejects_unknown_letters(sl2):
    for letter in (0, 3, -3):
        with pytest.raises(BadIndex):
            sl2.letter_matrix(letter)
    with pytest.raises(BadIndex):
        sl2.word_matrix((1, 0))


def test_conjugacy_classes_cyclic_and_inverse_distinct(sl2):
    reps = matgroup.conjugacy_classes(sl2, 2)
    words = set(ball_words(reps))
    # one representative per necklace; (1, 2) covers (2, 1)
    assert (1, 2) in words and (2, 1) not in words
    # a word and its inverse are distinct classes
    assert (1,) in words and (-1,) in words
    # cyclically non-reduced words are excluded
    assert all(len(w) < 2 or w[0] != -w[-1] for w in words)


def test_conjugacy_classes_primitive_only(sl2):
    reps = matgroup.conjugacy_classes(sl2, 4, primitive_only=True)
    words = set(ball_words(reps))
    assert (1,) in words and (1, 1) not in words


def tuple_conjugacy_classes(P, n, primitive_only=False):
    """The tuple-rotation enumeration: least rotation of each cyclic word, first seen first."""
    def is_proper_power(word):
        return any(len(word) % per == 0 and word == word[per:] + word[:per]
                   for per in range(1, len(word)))

    reps, seen = [], set()
    for w in ball_words(matgroup.word_spheres(P, n)[1:]):
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
    words = ball_words(reps)
    assert words == tuple_conjugacy_classes(P, n, primitive_only)
    assert len(reps) == len(words)
    assert reps.lengths().tolist() == [len(w) for w in words]
    assert np.array_equal(reps.mats, np.array([P.word_matrix(w) for w in words]))
    assert np.array_equal(reps.inv_mats, np.array(
        [P.word_matrix(matgroup.invert_word(w)) for w in words]))


@pytest.mark.parametrize("primitive_only", [False, True])
@pytest.mark.parametrize("make, n", [(functools.partial(presets.fuchsian_schottky, 1.6), 7),
                                     (presets.parabolic, 12), (presets.sl3_zariski_dense, 5),
                                     (presets.sanov_gamma2, 6), (presets.sl4_mild, 4)],
                         ids=["schottky", "parabolic", "zariski-d3", "gamma2", "d4"])
def test_conjugacy_classes_match_whole_ball_selection(make, n, primitive_only):
    # the products copied out of the walk's blocks have the bits of the
    # whole ball's: the forward products of the words and of their inverted
    # words, not the walk's inverse products, which multiply in another order
    from ball_oracle import conjugacy_classes_reference

    P = make()
    reps = matgroup.conjugacy_classes(P, n, primitive_only)
    ref = conjugacy_classes_reference(P, n, primitive_only)
    for field in ("mats", "inv_mats"):
        got, want = getattr(reps, field), ref[field]
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want)), field
    for field in ("rows", "offsets"):
        got, want = getattr(reps, field), ref[field]
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert ball_words(reps) == ref["words"]


def test_exterior_power_rep_multiplicative(rng):
    A, B = rng.normal(size=(2, 4, 4))
    assert np.allclose(
        exterior_power_rep(A @ B, 2),
        exterior_power_rep(A, 2) @ exterior_power_rep(B, 2),
        atol=1e-10,
    )


def test_exterior_power_singular_values(rng):
    A = rng.normal(size=(4, 4))
    s = np.linalg.svd(A, compute_uv=False)
    s2 = np.linalg.svd(exterior_power_rep(A, 2), compute_uv=False)
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
    from ball_oracle import word_spheres_reference
    from identities import kappa

    ball = word_spheres_reference(sl3, 4)
    logs = matgroup.batch_kappa(ball.mats, ball.inv_mats)
    for matrix, row in zip(ball.mats[:40], logs[:40]):
        assert np.allclose(row, kappa(matrix), atol=1e-9)


def test_row_products_of_one_row_match_a_longer_stack(rng):
    for d in (2, 3, 4):
        K = rng.normal(size=(200, d)) * np.exp(rng.uniform(-5.0, 5.0, size=(200, d)))
        f = rng.normal(size=d)
        whole = K @ f
        for i in range(len(K)):
            assert matgroup._row_products(K[i:i + 1], f)[0] == whole[i]
        assert np.array_equal(matgroup._row_products(K[3:9], f), whole[3:9])


def test_limit_cone_sample_unit_directions(sl3):
    dirs = matgroup.limit_cone_sample(sl3, (1, 2), 4)
    assert dirs.shape[1] == 3
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert np.allclose(dirs.sum(axis=1), 0.0, atol=1e-9)


def test_random_words_reduced(rng):
    for w in random_words(2, 100, 12, rng):
        assert reduce_word(w) == w
        assert 1 <= len(w) <= 12
