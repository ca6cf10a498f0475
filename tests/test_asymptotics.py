import numpy as np
import pytest

from pslab import _kernels, asymptotics, cartan, flags, matgroup, presets
from pslab.errors import BadIndex, DegenerateScales, WindowEmpty
from words import ball_words, word_key


ALPHA1_2 = cartan.Functional.alpha(1, 2)


def test_class_lengths_match_translation_lengths():
    P = presets.fuchsian_schottky(1.6)
    lengths, reps = asymptotics.class_lengths(P, ALPHA1_2, 3, (1,))
    by_word = dict(zip(ball_words(reps), lengths))
    # a hyperbolic element with eigenvalues e^s, e^-s has alpha_1(nu) = 2s
    assert abs(by_word[(1,)] - 3.2) < 1e-9
    assert abs(by_word[(1, 1)] - 6.4) < 1e-9
    # length is a class function: the (1, 2) class covers (2, 1)
    assert (1, 2) in by_word and (2, 1) not in by_word


def test_class_lengths_inverse_symmetric():
    P = presets.fuchsian_schottky(1.6)
    lengths, reps = asymptotics.class_lengths(P, ALPHA1_2, 4, (1,))
    by_word = dict(zip(ball_words(reps), lengths))
    for w, ell in by_word.items():
        canon = min(
            (matgroup.invert_word(w)[i:] + matgroup.invert_word(w)[:i]
             for i in range(len(w))),
            key=word_key,
        )
        assert abs(by_word[canon] - ell) < 1e-8


@pytest.mark.parametrize("primitive_only", [False, True])
def test_class_lengths_match_per_class_jordan(primitive_only):
    P = presets.fuchsian_schottky(1.6)
    lengths, reps = asymptotics.class_lengths(P, ALPHA1_2, 7, (1,), primitive_only)
    f = ALPHA1_2.covector() @ cartan.projection_matrix(2, (1,))
    per_class = [float(f @ cartan.jordan_spliced(
        P.word_matrix(w), P.word_matrix(matgroup.invert_word(w)))) for w in ball_words(reps)]
    assert len(per_class) == len(reps) > 0
    assert np.array_equal(lengths, np.array(per_class))


def test_count_closed_geodesics_monotone_and_certified():
    P = presets.fuchsian_schottky(1.6)
    table = asymptotics.count_closed_geodesics(P, ALPHA1_2, 20.0, n_max=6, theta=(1,))
    counts = [row.count for row in table.rows]
    assert counts == sorted(counts)
    assert table.t_certified > 0.0
    assert any(row.certified for row in table.rows)
    assert all(row.certified for row in table.rows if row.T <= table.t_certified)


def test_count_unoriented_halves_counts():
    P = presets.fuchsian_schottky(1.6)
    oriented = asymptotics.count_closed_geodesics(P, ALPHA1_2, 15.0, n_max=5, theta=(1,))
    unoriented = asymptotics.count_closed_geodesics(
        P, ALPHA1_2, 15.0, n_max=5, theta=(1,), unoriented=True)
    assert len(oriented.rows) == len(unoriented.rows) == 24
    for o, u in zip(oriented.rows, unoriented.rows):
        assert u.count == o.count // 2


def test_count_log_slope_positive():
    P = presets.fuchsian_schottky(1.6)
    table = asymptotics.count_closed_geodesics(P, ALPHA1_2, 25.0, n_max=8, theta=(1,))
    slope = asymptotics.count_log_slope(table)
    assert 0.0 < slope < table.delta_hat + 0.1


def test_box_dimension_of_uniform_circle_sample():
    ang = np.linspace(0.0, np.pi, 2000, endpoint=False)
    pts = np.c_[np.cos(ang), np.sin(ang)]
    box = asymptotics.box_counting_dimension(pts, np.geomspace(0.2, 0.01, 6))
    assert abs(box.dimension - 1.0) < 0.1


def test_box_dimension_single_point_is_zero():
    # one direction and its antipode: one line
    pts = np.tile([[0.6, 0.8], [-0.6, -0.8]], (25, 1))
    box = asymptotics.box_counting_dimension(pts)
    assert box.dimension == 0.0


def test_box_dimension_permutation_invariant(rng):
    pts = rng.normal(size=(300, 3))
    grid = np.geomspace(0.5, 0.05, 6)
    a = asymptotics.box_counting_dimension(pts, grid)
    b = asymptotics.box_counting_dimension(pts[rng.permutation(300)], grid)
    assert np.array_equal(a.counts, b.counts)


def test_box_dimension_antipode_identification():
    ang = np.linspace(0.0, np.pi, 100, endpoint=False)
    pts = np.c_[np.cos(ang), np.sin(ang)]
    doubled = np.vstack([pts, -pts])
    grid = np.geomspace(0.3, 0.03, 5)
    a = asymptotics.box_counting_dimension(pts, grid)
    b = asymptotics.box_counting_dimension(doubled, grid)
    assert np.array_equal(a.counts, b.counts)


def unique_features(points):
    """_canonical_features with np.unique(..., axis=0) as its dedup and sort."""
    pts = np.asarray(points, dtype=float)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    lead = pts[np.arange(len(pts)), np.argmax(np.abs(pts) > 1e-12, axis=1)]
    pts = pts * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    return np.unique(np.round(pts, 12), axis=0)


def assert_same_bits(a, b):
    # array_equal takes -0.0 for +0.0; the int64 view does not
    assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("n", [8, 9])
def test_canonical_features_match_unique_on_limit_set(n):
    F, _, _ = flags.sample_limit_set(presets.schottky_so21(1.6), (1, 2), n)
    lines = F.frame[:, :, 0]
    assert_same_bits(asymptotics._canonical_features(lines), unique_features(lines))


def test_canonical_features_match_unique_on_ties(rng):
    # duplicates in any order
    pts = rng.normal(size=(200, 3))
    pts = np.vstack([pts, pts[:70], -pts[50:90]])[rng.permutation(310)]
    assert_same_bits(asymptotics._canonical_features(pts), unique_features(pts))
    # unit rows with zeros of either sign (a negative lead flips them),
    # -0.5e-12 rounding to -0.0, and halves at 12 decimals rounding to even;
    # up to 16 rows np.unique sorts stably, so both keep the first of two
    # rows that differ in the sign of a zero alone
    rows = np.array([[1, 0.0, 0.0], [1, -0.0, 0.0], [1, 0.0, -0.0], [-1, 0.0, 0.0],
                     [1, -0.5e-12, 0.0], [1, 0.5e-12, 1.5e-12], [1, 1e-12, 2e-12],
                     [1, 0.0, 2.5e-12], [1, 2.5e-12, -1.5e-12], [0.0, -1, 0.5e-12],
                     [1, 0.0, 0.0], [0.0, 1, -0.0]])
    for order in (np.arange(len(rows)), rng.permutation(len(rows)), np.arange(len(rows))[::-1]):
        assert_same_bits(asymptotics._canonical_features(rows[order]),
                         unique_features(rows[order]))
    # in longer arrays np.unique's sort may keep either of two such rows;
    # they are the same direction, and the covers count the same
    rows = np.vstack([rows] * 20)[rng.permutation(240)]
    a, b = asymptotics._canonical_features(rows), unique_features(rows)
    assert np.array_equal(a, b)
    for eps in (0.5, 1e-12, 1e-13):
        assert _kernels.greedy_cover_count(a, eps) == _kernels.greedy_cover_count(b, eps)


def test_box_dimension_rejects_short_grid():
    with pytest.raises(BadIndex):
        asymptotics.box_counting_dimension(np.eye(3), np.array([0.1, 0.01]))


def test_box_dimension_rejects_non_finite_rows(rng):
    pts = rng.normal(size=(50, 3))
    for bad in (np.nan, np.inf):
        pts[7, 1] = bad
        with pytest.raises(BadIndex):
            asymptotics.box_counting_dimension(pts)


def test_box_dimension_rejects_zero_chordal_row(rng):
    # a zero row has no direction: normalising it gave a silent NaN feature
    pts = rng.normal(size=(50, 3))
    pts[7] = 0.0
    with pytest.raises(BadIndex):
        asymptotics.box_counting_dimension(pts)


def test_box_dimension_saturation_raises(rng):
    # 40 random directions, none within the scales of another
    pts = rng.normal(size=(40, 2))
    with pytest.raises(DegenerateScales):
        asymptotics.box_counting_dimension(pts, np.geomspace(1e-4, 1e-6, 6))


def test_rank_one_fits_raise():
    # lstsq truncates the slope of a rank-1 fit instead of failing: with five
    # equal scales log(1 / scale) has no spread, and certified rows at one T
    # leave T none
    ang = np.linspace(0.0, np.pi, 2000, endpoint=False)
    pts = np.c_[np.cos(ang), np.sin(ang)]
    with pytest.raises(DegenerateScales, match="rank 1"):
        asymptotics.box_counting_dimension(pts, np.full(5, 0.1))
    rows = [asymptotics.CountRow(5.0, count, np.nan, np.nan, True) for count in (3, 4, 5)]
    with pytest.raises(WindowEmpty, match="rank 1"):
        asymptotics.count_log_slope(asymptotics.CountTable(rows, 0.3, 5.0, False, False))


def test_hausdorff_vs_exponent_small_run():
    P = presets.schottky_so21(2.0)
    report = asymptotics.hausdorff_vs_exponent_experiment(
        P, 6, scale_grid=np.geomspace(0.3, 0.01, 6))
    assert report["sample_size"] > 0
    assert report["delta_hat"] > 0.0
    assert report["box_dimension"] > 0.0
