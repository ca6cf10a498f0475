import functools

import numpy as np
import pytest

from pslab import _kernels, cartan, cocycle, flags, matgroup, patterson, presets
from pslab.errors import NegativePhiOnCone, SubcriticalS, WindowEmpty
from conftest import traced_peak
from identities import gromov_product, make_flag
from words import ball_words


ALPHA1_2 = cartan.Functional.alpha(1, 2)


def test_poincare_partial_sum_tail_slope_signs():
    from poincare import poincare_partial_sum

    P = presets.cyclic_hyperbolic()
    # phi(kappa(h^n)) = 2n log 2: the series transitions at s = 0
    _, slope_small = poincare_partial_sum(P, ALPHA1_2, (1,), 0.01, 30)
    assert slope_small < 0.0
    total, _ = poincare_partial_sum(P, ALPHA1_2, (1,), 1.0, 30)
    assert total < 1.0 + 2.0 / (2.0**2 - 1.0) + 1e-6


def test_negative_phi_on_cone_rejected(sl2):
    from poincare import poincare_partial_sum

    # a value counts as negative below -1e-9 |f|_1, so a tiny negative
    # multiple of alpha_1 is rejected as -alpha_1 is
    for bad in (-1.0 * ALPHA1_2, -1e-12 * ALPHA1_2):
        for estimate in (lambda: poincare_partial_sum(sl2, bad, (1,), 1.0, 5),
                         lambda: patterson.critical_exponent(sl2, bad, 5, (1,)),
                         lambda: patterson.patterson_measure(sl2, bad, 1.0, 5, (1,))):
            with pytest.raises(NegativePhiOnCone):
                estimate()


def test_critical_exponent_cyclic_hyperbolic_is_zero():
    P = presets.cyclic_hyperbolic()
    est = patterson.critical_exponent(P, ALPHA1_2, 40, (1,))
    assert est.delta_hat < 0.05
    assert est.method == "sphere-regression"


def test_critical_exponent_methods_agree_on_schottky():
    P = presets.fuchsian_schottky(2.0)
    reg, trans = patterson.critical_exponent(P, ALPHA1_2, 9, (1,), method="both")
    assert abs(reg.delta_hat - trans.delta_hat) < 0.1
    assert reg.sample_count == trans.sample_count


def test_critical_exponent_scaling():
    # scaling phi by c scales delta by 1/c
    P = presets.fuchsian_schottky(2.0)
    d1 = patterson.critical_exponent(P, ALPHA1_2, 8, (1,)).delta_hat
    d2 = patterson.critical_exponent(P, 2.0 * ALPHA1_2, 8, (1,)).delta_hat
    assert abs(d2 - d1 / 2.0) < 1e-9


def test_rank_one_regression_raises():
    # at these scales R and the fit's column of ones differ so much that
    # lstsq's fit has rank 1: it gave 2.99e-14 and 7.2e-15 for the true
    # 3.16e-14 and 3.2e15
    P = presets.fuchsian_schottky(1.6)
    for c in (1e13, 1e-16):
        with pytest.raises(WindowEmpty, match="rank 1"):
            patterson.critical_exponent(P, c * ALPHA1_2, 8, (1,))


def test_patterson_measure_normalized_and_supercritical():
    P = presets.fuchsian_schottky(2.0)
    est = patterson.critical_exponent(P, ALPHA1_2, 6, (1,))
    mu = patterson.patterson_measure(P, ALPHA1_2, 1.1 * est.delta_hat, 6, (1,),
                                     delta_hat=est.delta_hat)
    assert abs(mu.total_mass() - 1.0) < 1e-12
    assert (mu.weights > 0.0).all()
    with pytest.raises(SubcriticalS):
        patterson.patterson_measure(P, ALPHA1_2, 0.5 * est.delta_hat, 6, (1,),
                                    delta_hat=est.delta_hat)


def test_measure_keeps_words_not_matrices():
    P = presets.fuchsian_schottky(2.0)
    mu = patterson.patterson_measure(P, ALPHA1_2, 1.0, 4, (1,))
    assert mu.ball.mats is None and mu.ball.inv_mats is None
    ball = matgroup.word_spheres(P, 4)
    assert len(mu.ball) == len(ball)
    assert ball_words(mu.ball) == ball_words(ball)
    assert np.array_equal(mu.ball.lengths(), ball.lengths())


@pytest.mark.parametrize("n_max, n", [(6, 6), (4, 3)])
def test_one_ball_gives_the_estimate_and_the_measure(n_max, n):
    P = presets.fuchsian_schottky(1.6)
    est, mu = patterson._exponent_and_measure(P, ALPHA1_2, n_max, n, (1,),
                                              lambda delta: 1.05 * delta)
    ref_est = patterson.critical_exponent(P, ALPHA1_2, n_max, (1,))
    ref = patterson.patterson_measure(P, ALPHA1_2, 1.05 * ref_est.delta_hat, n, (1,),
                                      delta_hat=ref_est.delta_hat)
    assert est == ref_est
    for field in ("frames", "weights", "atoms"):
        assert np.array_equal(getattr(mu, field), getattr(ref, field)), field
    assert (mu.s, mu.excluded) == (ref.s, ref.excluded)
    assert ball_words(mu.ball) == ball_words(ref.ball)
    with pytest.raises(SubcriticalS):
        patterson._exponent_and_measure(P, ALPHA1_2, n_max, n, (1,), lambda delta: delta)


def test_outer_sphere_restriction():
    P = presets.fuchsian_schottky(2.0)
    mu = patterson.patterson_measure(P, ALPHA1_2, 1.0, 4, (1,))
    outer = patterson.outer_sphere_restriction(mu)
    assert (outer.ball.lengths()[outer.atoms] == 4).all()
    assert abs(outer.total_mass() - 1.0) < 1e-12


def test_measure_of_an_elliptic_group_has_no_atoms():
    # every rotation has equal singular values and fails the gap test
    P = matgroup.GroupPresentation(2, [presets.rotation(0.3)])
    with pytest.raises(WindowEmpty):
        patterson.patterson_measure(P, ALPHA1_2, 1.0, 4, (1,))


def test_quasi_invariance_residuals_decay():
    P = presets.fuchsian_schottky(2.0)
    stats = patterson.quasi_invariance_residual(P, ALPHA1_2, (1,), 1.0, 7, (1,))
    assert stats[-1]["sphere"] == 7
    # the cocycle defect vanishes as orbit flags converge to limit flags
    assert stats[-1]["median"] < 0.1 * stats[0]["median"]
    assert stats[-1]["median"] < 1e-3


def _quasi_invariance_whole_ball(P, phi, alpha_word, n, theta):
    """The per-row residuals of quasi_invariance_residual from whole-ball stacks."""
    alpha_mat = P.word_matrix(tuple(alpha_word))
    alpha_inv = P.word_matrix(matgroup.invert_word(tuple(alpha_word)))
    from ball_oracle import word_spheres_reference

    f = phi.covector() @ cartan.projection_matrix(P.dimension, theta)
    ball = word_spheres_reference(P, n)
    mats, inv_mats = ball.mats[1:], ball.inv_mats[1:]
    base = matgroup.batch_kappa(mats, inv_mats) @ f
    shifted = matgroup.batch_kappa(alpha_inv @ mats, inv_mats @ alpha_mat) @ f
    F, ok = flags.u_theta(mats, inv_mats, theta)
    residuals = np.abs(shifted[ok] - base[ok] - phi(cocycle.iwasawa(alpha_inv, F)))
    spheres = np.split(ok, ball.offsets[2:-1] - 1)
    return np.split(residuals, np.cumsum([keep.sum() for keep in spheres])[:-1])


@pytest.mark.parametrize("make, alpha, n, theta", [
    (functools.partial(presets.fuchsian_schottky, 1.6), (1,), 8, (1,)),
    (functools.partial(presets.fuchsian_schottky, 2.0), (-2, 1), 9, (1,)),
    (presets.schottky_so21, (1, 2), 6, (1, 2)),
], ids=["schottky", "schottky-alpha-word", "schottky-d3"])
def test_quasi_invariance_walk_matches_whole_ball(make, alpha, n, theta):
    # the walked residuals have the bits of the whole-ball computation
    P = make()
    phi = cartan.Functional.alpha(1, P.dimension)
    stats = patterson.quasi_invariance_residual(P, phi, alpha, None, n, theta)
    spheres = _quasi_invariance_whole_ball(P, phi, alpha, n, theta)
    want = [{"sphere": j, "min": float(r.min()), "median": float(np.median(r)),
             "max": float(r.max()), "count": int(r.size)}
            for j, r in enumerate(spheres, 1) if r.size]
    assert stats == want


@pytest.mark.parametrize("make, n, theta", [
    (functools.partial(presets.schottky_so21, 1.6), 10, (1, 2)),
    (functools.partial(presets.fuchsian_schottky, 1.6), 10, (1,)),
], ids=["schottky-d3", "schottky"])
def test_quasi_invariance_does_not_hold_the_balls_matrices(make, n, theta):
    P = make()
    phi = cartan.Functional.alpha(1, P.dimension)
    _, peak = traced_peak(patterson.quasi_invariance_residual, P, phi, (1,), None, n, theta)
    matrices = 2 * matgroup.free_ball_size(P.rank, n) * P.dimension**2 * 8
    assert peak < matrices


def pair_density(phi, delta, F, G):
    """BMS pair density e^{-delta phi(G_theta(F, G))} on transverse pairs."""
    return float(np.exp(-delta * phi(gromov_product(F, G))))


def test_pair_density_matches_gromov_product(rng):
    F = make_flag((1, 2), np.eye(3))
    G = make_flag((1, 2), rng.normal(size=(3, 3)))
    phi = cartan.Functional.alpha(1, 3)
    rho = pair_density(phi, 0.7, F, G)
    assert rho > 0.0
    assert abs(np.log(rho) + 0.7 * phi(gromov_product(F, G))) < 1e-12


def test_subgroup_presentation_labels(sl2):
    P0 = patterson.subgroup_presentation(sl2, [[1], [2, 1, -2]])
    assert P0.rank == 2
    assert P0.labels == ["a", "b.a.b'"]
    assert np.allclose(P0.generators[1], sl2.word_matrix((2, 1, -2)), atol=1e-12)


def test_subgroup_generators_from_reduced_words():
    # a^9 a^-9 b is the element b: its generator carries no rounding of the
    # cancelled letters, so it passes the determinant check bit for bit
    P = presets.fuchsian_schottky(1.6)
    P0 = patterson.subgroup_presentation(P, [[1] * 9 + [-1] * 9 + [2]])
    assert np.array_equal(P0.generators[0], P.word_matrix((2,)))
    assert P0.labels == ["b"]


def test_entropy_drop_gap_positive():
    P = presets.fuchsian_schottky(1.6)
    report = patterson.entropy_drop_experiment(P, [[1]], ALPHA1_2, 6, (1,))
    assert report["gap"] > 0.0
    assert report["limit_set_separation"] > 0.0
    # cyclic groups grow linearly: the subgroup exponent sits well below the
    # ambient one and shrinks with depth
    assert report["delta_subgroup"].delta_hat < 0.5 * report["delta_ambient"].delta_hat


# Gamma(2) is a lattice, so delta = 1 exactly.  Both estimators leave out
# the cusps' correction and converge slowly, from opposite sides; the bounds
# are the measured errors (sphere-regression 1.157 and 1.100, series-transition
# 0.957 and 0.965), so the test documents them and claims no accuracy
@pytest.mark.parametrize("n, sphere_error, series_error", [(8, 0.16, 0.045), (10, 0.105, 0.04)])
def test_gamma2_exponent_estimates_bracket_one(n, sphere_error, series_error):
    P = presets.PRESETS["sanov-gamma2"]()
    sphere = patterson.critical_exponent(P, ALPHA1_2, n, (1,)).delta_hat
    series = patterson.critical_exponent(P, ALPHA1_2, n, (1,), "series-transition").delta_hat
    assert 1.0 < sphere <= 1.0 + sphere_error
    assert 1.0 - series_error <= series < 1.0


def test_gamma2_entropy_drop_at_a_cusp():
    # the parabolic subgroup <a> has delta = 1/2, so the gap is 1/2 (0.481
    # measured at n = 8), and its limit set is one point of the circle
    P = presets.PRESETS["sanov-gamma2"]()
    report = patterson.entropy_drop_experiment(P, [[1]], ALPHA1_2, 8, (1,))
    assert abs(report["gap"] - 0.5) < 0.03
    assert report["limit_set_separation"] > 0.95


def test_concavity_experiment_normalizes_endpoints():
    P = presets.sl3_zariski_dense()
    a1 = cartan.Functional.alpha(1, 3)
    a2 = cartan.Functional.alpha(2, 3)
    report = patterson.concavity_experiment(P, a1, a2, [0.0, 1.0], 6, (1, 2))
    for row in report["rows"]:
        assert abs(row["delta_hat"] - 1.0) < 0.05


def test_limit_set_separation_matches_scalar_double_loop(monkeypatch):
    from pslab import flags

    P = presets.sl3_zariski_dense()
    F, _, _ = flags.sample_limit_set(P, (1, 2), 3)
    G, _, _ = flags.sample_limit_set(
        patterson.subgroup_presentation(P, [[1], [2, 1, -2]]), (1, 2), 2)
    F, G = F[:37], G[:11]
    brute = max(min(flags.flag_distance(F[i], G[j]) for j in range(len(G)))
                for i in range(len(F)))
    # 100 pairs a chunk: 9 rows of F per chunk, the last one short
    monkeypatch.setattr(patterson, "SEPARATION_CHUNK", 100)
    assert patterson.limit_set_separation(F, G) == brute
    assert patterson.limit_set_separation(G, F) == max(
        min(flags.flag_distance(G[j], F[i]) for i in range(len(F))) for j in range(len(G)))
    assert patterson.limit_set_separation(F[:0], G) == 0.0


def _separation_oracle(F, G):
    """limit_set_separation as one all-pairs flag_distance call."""
    return float(flags.flag_distance(F[:, None], G).min(axis=1).max())


def _line_flags(angles):
    """d = 2 flags (rotation frames) whose lines lie at the given angles."""
    c, s = np.cos(angles), np.sin(angles)
    return flags.Flag((1,), np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2))


def _assert_separation_is_all_pairs(F, G):
    got = patterson.limit_set_separation(F, G)
    want = _separation_oracle(F, G)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (got, want)


def test_limit_set_separation_d2_matches_all_pairs_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    for size_f, size_g in ((300, 200), (1, 200), (200, 1), (1, 1), (37, 5)):
        for _ in range(4):
            F = _line_flags(rng.uniform(-np.pi, np.pi, size_f))
            G = _line_flags(rng.uniform(-np.pi, np.pi, size_g))
            _assert_separation_is_all_pairs(F, G)
            _assert_separation_is_all_pairs(G, F)
    # duplicated rows on both sides, and antipodal frames of one line
    a = rng.uniform(0, np.pi, 40)
    F = _line_flags(np.concatenate([a, a, a[:7] + np.pi]))
    G = _line_flags(np.concatenate([a[::3], a[::3], a[1::5] - np.pi]))
    _assert_separation_is_all_pairs(F, G)
    _assert_separation_is_all_pairs(G, F)
    # clusters straddling the wrap at 0 / pi: each row's nearest line lies
    # across it
    near0 = np.concatenate([rng.uniform(-1e-3, 1e-3, 50), np.pi + rng.uniform(-1e-3, 1e-3, 50)])
    F = _line_flags(near0)
    G = _line_flags(np.concatenate([near0[::7] + 2e-3, [0.5, 2.0]]))
    _assert_separation_is_all_pairs(F, G)
    _assert_separation_is_all_pairs(G, F)
    for lone in (1e-12, np.pi - 1e-12, -1e-12, 0.0):
        F = _line_flags(np.array([lone]))
        for G in (_line_flags(near0), _line_flags(np.array([np.pi / 2, 1e-4]))):
            _assert_separation_is_all_pairs(F, G)
            _assert_separation_is_all_pairs(G, F)
    # a NaN line in either sample makes the all-pairs maximum NaN, also
    # where it sorts past the largest angle, as the wrap's neighbour of F's
    # rows there, and where it lies in a later chunk than the largest
    # finite distance
    F = _line_flags(np.concatenate([rng.uniform(0, np.pi, 30), [np.pi - 1e-6]]))
    G = _line_flags(np.concatenate([rng.uniform(0, np.pi, 20), [np.nan]]))
    for a, b in ((F, G), (G, F), (F, G[::-1])):
        assert np.isnan(_separation_oracle(a, b))
        assert np.isnan(patterson.limit_set_separation(a, b))
    # 100 pairs a chunk: G's rows go 3 to a chunk, its NaN line in the last
    monkeypatch.setattr(patterson, "SEPARATION_CHUNK", 100)
    assert np.isnan(patterson.limit_set_separation(G, F))


def test_limit_set_separation_d2_near_zero_matches_all_pairs_oracle():
    # G holds F: every least distance is 0 up to the rounding of
    # sqrt(1 - s^2) near 0 (about 1e-8), where the margin decides which
    # rows the exact pass reads
    P = presets.fuchsian_schottky(1.6)
    F, _, _ = flags.sample_limit_set(P, (1,), 5)
    rng = np.random.default_rng(12)
    for G in (F, F[rng.permutation(len(F))],
              flags.Flag((1,), np.concatenate([F.frame, -F.frame[::3]])[rng.permutation(
                  len(F) + len(F.frame[::3]))])):
        _assert_separation_is_all_pairs(F, G)
    # lines turned by 1e-10 to 1e-7 rad from F's: the least distances lie
    # in the rounding noise of the nearest pair
    turn = rng.uniform(1e-10, 1e-7, len(F)) * rng.choice([-1.0, 1.0], len(F))
    c, s = np.cos(turn)[:, None, None], np.sin(turn)[:, None, None]
    R = np.concatenate([np.concatenate([c, -s], 2), np.concatenate([s, c], 2)], 1)
    G = flags.Flag((1,), R @ F.frame)
    _assert_separation_is_all_pairs(F, G)
    _assert_separation_is_all_pairs(G, F)
    lines = _line_flags(np.linspace(0, np.pi, 500, endpoint=False))
    _assert_separation_is_all_pairs(lines, flags.Flag((1,), lines.frame[::-1]))
    # the first row's nearer line by angle (2.0e-10 rad) computes to 2.1e-8
    # and its farther one (5.0e-10 rad) to 0, while the second row's nearest
    # line computes to 1.5e-8: the first row's bound is the largest, and only
    # the margin sends the second row, which holds the maximum, to the exact
    # pass
    a = 0.5278481612616994
    F = _line_flags(np.array([a, 2.0]))
    G = _line_flags(np.array([a + 2.0349407232407503e-10, a + 4.986547241998592e-10,
                              2.0 + 1.02e-08]))
    _assert_separation_is_all_pairs(F, G)


def test_limit_set_separation_d3_matches_all_pairs_oracle():
    P = presets.sl3_zariski_dense()
    F, _, _ = flags.sample_limit_set(P, (1, 2), 3)
    G, _, _ = flags.sample_limit_set(
        patterson.subgroup_presentation(P, [[1], [2, 1, -2]]), (1, 2), 3)
    _assert_separation_is_all_pairs(F, G)
    _assert_separation_is_all_pairs(G, F)
    _assert_separation_is_all_pairs(F[:1], G)
    _assert_separation_is_all_pairs(F, G[:1])


def test_entropy_drop_separation_reads_few_rows_of_the_ambient_sample(monkeypatch):
    # the shipped entropy-drop config: of its 972 ambient flags, only the few
    # whose nearest subgroup flag lies within the margin of the farthest go
    # to the exact pass, paired with every subgroup flag
    exact_rows, distance = [], flags.flag_distance

    def counting(F, G):
        if F.frame.ndim == 4:
            exact_rows.append(F.frame.shape[0])
        return distance(F, G)

    monkeypatch.setattr(flags, "flag_distance", counting)
    P = presets.PRESETS["fuchsian-schottky-1"]()
    report = patterson.entropy_drop_experiment(P, [[1], [2, 1, -2]], ALPHA1_2, 8, (1,))
    assert report["limit_set_separation"] == 0.23511435548458906
    assert 1 <= sum(exact_rows) <= 16
    monkeypatch.setattr(flags, "flag_distance", distance)
    amb, _, _ = flags.sample_limit_set(P, (1,), patterson.SEPARATION_RADIUS)
    sub, _, _ = flags.sample_limit_set(
        patterson.subgroup_presentation(P, [[1], [2, 1, -2]]), (1,), patterson.SEPARATION_RADIUS)
    assert len(amb) == 972
    assert _separation_oracle(amb, sub) == 0.23511435548458906


STREAM_CASES = [(presets.parabolic, 60, (1,)),
                (functools.partial(presets.fuchsian_schottky, 1.6), 6, (1,)),
                (functools.partial(presets.schottky_so21, 1.6), 5, (1, 2)),
                (presets.sl3_zariski_dense, 4, (1, 2))]
STREAM_IDS = ["parabolic", "schottky", "schottky-d3", "zariski-d3"]


@pytest.mark.parametrize("block_rows", [5, 7, matgroup.BLOCK_ROWS])
@pytest.mark.parametrize("make, n, theta", STREAM_CASES, ids=STREAM_IDS)
def test_streamed_ball_matches_whole_ball(make, n, theta, block_rows, monkeypatch):
    from ball_oracle import word_spheres_reference

    P = make()
    ref = word_spheres_reference(P, n)
    ref_K = matgroup.batch_kappa(ref.mats, ref.inv_mats)
    # at 5 and 7 rows the first block holds spheres 0 and 1 of every rank-2
    # ball here, whose rows are read as parents after that block is handed
    # out, and every later block holds the children of one run of parents
    # or a part of them
    monkeypatch.setattr(matgroup, "BLOCK_ROWS", block_rows)
    walk, K, _ = patterson._walk_ball(P, n, None)
    ball = walk.ball()
    assert ball.mats is None and ball.inv_mats is None
    assert ball.offsets.dtype == ref.offsets.dtype and np.array_equal(ball.offsets, ref.offsets)
    assert ball_words(ball) == ref.words()
    assert np.array_equal(K, ref_K)
    # one value per row, block by block, with the bits of the whole-ball product
    f = cartan.theta_covector(cartan.Functional.alpha(1, P.dimension), theta)
    _, values, _ = patterson._walk_ball(P, n, f)
    assert values.shape == (len(ref),) and np.array_equal(values, ref_K @ f)
    # the flags of spheres 0..n-1 and of the whole ball, as u_theta gives
    # them for the whole stack; with flags on sphere n, a block of it is
    # handed out right after the block of its parents, before the later
    # blocks of sphere n - 1
    for flag_spheres in (n - 1, n):
        _, _, (frames, ok) = patterson._walk_ball(P, n, f, flag_spheres, theta)
        rows = slice(ref.offsets[flag_spheres + 1])
        ref_F, ref_ok = flags.u_theta(ref.mats[rows], ref.inv_mats[rows], theta)
        assert np.array_equal(ok, ref_ok)
        assert np.array_equal(frames, ref_F.frame)


@pytest.mark.parametrize("make, n", [(functools.partial(presets.schottky_so21, 1.6), 9),
                                     (functools.partial(presets.fuchsian_schottky, 1.6), 10),
                                     (functools.partial(presets.fuchsian_schottky, 1.6), 12)],
                         ids=["schottky-d3", "schottky", "schottky-12"])
def test_critical_exponent_does_not_hold_the_balls_matrices(make, n):
    P = make()
    phi = cartan.Functional.alpha(1, P.dimension)
    theta = (1,) if P.dimension == 2 else (1, 2)
    _, peak = traced_peak(patterson.critical_exponent, P, phi, n, theta)
    products = 2 * P.dimension**2 * 8  # bytes of a row's forward and inverse products
    rows = matgroup.free_ball_size(P.rank, n)
    assert peak < rows * products
    # one letter (int8) per ball row and one value (float64) per row the
    # regression keeps: every row of a d = 3 ball, and of a 2x2 ball only the
    # rows that may reach its window, with no value for the others.  One
    # block of products per sphere that reaches past the first block: the
    # buffer of its children of one run of parents, and no sphere is stored
    # whole.  Three more blocks hold the first block, a run's rows of the
    # child tables and the kernels' work on one block.  With the store of
    # sphere n - 2 the radius-12 peak was 1.31 times this bound (with a
    # value for every row).
    if P.dimension == 2:
        kept = sum(map(len, patterson._window_values(
            P, n, cartan.theta_covector(phi, theta))[0]))
        assert kept < rows / 5
        values = rows + 8 * kept
    else:
        values = 9 * rows
    spilled = sum(matgroup.free_ball_size(P.rank, k) > matgroup.BLOCK_ROWS for k in range(n + 1))
    assert peak < values + (spilled + 3) * matgroup.BLOCK_ROWS * products
    if n == 12:
        # 12.65 MiB with a value for every row
        assert peak < 6.5 * 2**20


def test_sphere_regression_counts_values_on_the_grid():
    # values that repeat and fall exactly on grid points of the regression:
    # N(R) counts the values at or below R, so a count that took a value on
    # R as above it would move every estimate here
    from sphere_oracle import sphere_regression_reference

    spheres = [np.zeros(1), np.array([1.0, 1.0, 1.25, 1.5]),
               np.array([2.0, 2.0, 2.25, 2.5, 3.0, 3.5]), np.array([3.0, 3.0, 4.5, 6.0])]
    window = sphere_regression_reference(spheres, 3).window
    grid = np.linspace(*window, 40)
    # on sphere 1 they leave the least value and the certified radius as they were
    spheres[1] = np.concatenate([spheres[1], np.repeat(grid[::3], 3), grid[1::7]])
    values, offsets = np.concatenate(spheres), np.cumsum([0] + [len(s) for s in spheres])
    est = patterson._sphere_regression(*patterson._regression_input(values, offsets), 3)
    assert est.window == window
    assert est == sphere_regression_reference(spheres, 3)


def _outcome(estimator, *args):
    try:
        return estimator(*args)
    except (WindowEmpty, NegativePhiOnCone) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("make, n, theta", [
    (presets.parabolic, 1000, (1,)),
    (functools.partial(presets.fuchsian_schottky, 1.6), 10, (1,)),
    (functools.partial(presets.schottky_so21, 1.6), 8, (1, 2)),
], ids=["parabolic", "schottky", "schottky-d3"])
def test_estimators_match_list_based_reference(make, n, theta):
    from sphere_oracle import (
        series_transition_reference,
        sphere_regression_reference,
        sphere_sums_reference,
    )

    P = make()
    phi = cartan.Functional.alpha(1, P.dimension)
    walk, values, _ = patterson._walk_ball(P, n, cartan.theta_covector(phi, theta))
    ball = walk.ball()
    by_sphere = ball.split(values)
    for s in (0.0, 0.25, 0.5, 1.0, 3.0):
        sums, slope = patterson._sphere_sums(values, ball.offsets, s)
        ref_sums, ref_slope = sphere_sums_reference(by_sphere, s)
        assert np.array_equal(sums, ref_sums), s
        assert slope == ref_slope, s
    assert (_outcome(patterson._sphere_regression,
                     *patterson._regression_input(values, ball.offsets), n)
            == _outcome(sphere_regression_reference, by_sphere, n))
    assert (_outcome(patterson._series_transition, values, ball.offsets, n)
            == _outcome(series_transition_reference, by_sphere, n))


def _rotation_and_hyperbolic():
    # the rotation's sphere-1 value is zero up to rounding, and with it R
    return matgroup.GroupPresentation(2, [presets.rotation(0.7), presets.hyp_axis(-1.0, 1.0, 0.5)])


# (make, radius at the default BLOCK_ROWS, radius at 3, 5 and 7 rows, the
# block sizes at which the regression path gives some row of the ball +inf)
DEFAULT_ROWS = matgroup.BLOCK_ROWS
PRUNE_CASES = [(functools.partial(presets.fuchsian_schottky, 1.6), 12, 5, {5, 7, DEFAULT_ROWS}),
               (functools.partial(presets.fuchsian_schottky, 2.6), 11, 5, {5, 7, DEFAULT_ROWS}),
               (presets.sanov_gamma2, 10, 5, {DEFAULT_ROWS}),
               (presets.parabolic, 2000, 60, set()),
               (presets.cyclic_hyperbolic, 40, 40, set()),
               (_rotation_and_hyperbolic, 8, 5, set()),
               (functools.partial(presets.schottky_so21, 1.6), 8, 4, set())]
PRUNE_IDS = ["schottky-1.6", "schottky-2.6", "gamma2", "parabolic", "cyclic", "rotation",
             "schottky-d3"]


def _window_rows(P, n, f, values):
    """The ball rows of each block that _window_values(P, n, f) splices, in walk order, and top.

    values holds one value per ball row.  The first block's rows are all
    spliced, and the identity's value is not kept; a later block splices
    the rows that _near_rows leaves under the cut of the first block's whole
    spheres, or all of them when they are more than half the block.  top is
    _window_top of those spheres: a block keeps the values of the rows it
    splices that are not above top.
    """
    walk = matgroup._BallWalk(P, n)
    rows, cut, top = [], np.inf, np.inf
    for lo, mats, inv_mats in walk:
        near = np.arange(len(mats))
        if lo == 0:
            whole = walk.offsets[:np.searchsorted(walk.offsets, len(mats), "right") - 1]
            least = np.minimum.reduceat(values, whole)
            top = patterson._window_top(least, n)
            cut = patterson._far_cut(top, f)
            near = near[1:]
        elif cut < np.inf:
            pruned = patterson._near_rows(mats, inv_mats, cut)
            if 2 * len(pruned) <= len(mats):
                near = pruned
        rows.append(lo + near)
    return rows, top


@pytest.mark.parametrize("block_rows", [3, 5, 7, DEFAULT_ROWS])
@pytest.mark.parametrize("make, n, small_n, prunes", PRUNE_CASES, ids=PRUNE_IDS)
def test_window_pruned_regression_matches_full_values(make, n, small_n, prunes, block_rows,
                                                      monkeypatch):
    P = make()
    d = P.dimension
    n = n if block_rows == DEFAULT_ROWS else small_n
    theta = (1,) if d == 2 else (1, 2)
    monkeypatch.setattr(matgroup, "BLOCK_ROWS", block_rows)
    # _walk_ball's values for a covector f are these K @ f, row for row
    # (test_streamed_ball_matches_whole_ball)
    walk, K, _ = patterson._walk_ball(P, n, None)
    alpha = cartan.Functional.alpha(1, d)
    for phi in (alpha, 2.0 * alpha, cartan.Functional.omega(1, d), 1e-3 * alpha,
                -1.0 * alpha, 0.0 * alpha):
        f = cartan.theta_covector(phi, theta)
        values = matgroup._row_products(K, f)
        want = _outcome(lambda: patterson._sphere_regression(
            *patterson._regression_input(patterson._cone_checked(values, f), walk.offsets), n))
        got = _outcome(patterson.critical_exponent, P, phi, n, theta)
        assert got == want, phi.coefficients
        if not isinstance(got, str):
            assert (np.float64(got.delta_hat).view(np.int64)
                    == np.float64(want.delta_hat).view(np.int64))
        # the values the regression path keeps are those of the rows it
        # splices that are not above top, with their bits, and the others lie
        # above the certified radius; d = 3 and a phi that is not positive on
        # the 2x2 Cartan vectors splice every row
        parts, least, rows = patterson._window_values(P, n, f)
        assert rows == len(values)
        spliced, kept = np.zeros(rows, dtype=bool), np.zeros(rows, dtype=bool)
        at_rows, top = _window_rows(P, n, f, values)
        for part, at in zip(parts, at_rows, strict=True):
            spliced[at] = True
            at = at[~(values[at] > top)]
            assert np.array_equal(part, values[at])
            kept[at] = True
        assert not spliced[0] and len(np.concatenate(parts)) == np.count_nonzero(kept)
        pruned = not spliced[1:].all()
        assert pruned == (d == 2 and f[0] > f[1] and block_rows in prunes)
        if not kept[1:].all():
            R = patterson._certified_rmax(np.minimum.reduceat(values, walk.offsets[:-1]), n)
            assert values[1:][~kept[1:]].min() > R


@pytest.mark.parametrize("block_rows", [3, 5, 7, DEFAULT_ROWS])
@pytest.mark.parametrize("make, n, small_n, prunes", PRUNE_CASES, ids=PRUNE_IDS)
def test_window_least_values_are_the_spheres_least_values(make, n, small_n, prunes,
                                                          block_rows, monkeypatch):
    # the first block, and every block of a rank-1 walk, spans several
    # spheres: each of them gets the least of its own rows
    P = make()
    d = P.dimension
    n = n if block_rows == DEFAULT_ROWS else small_n
    theta = (1,) if d == 2 else (1, 2)
    monkeypatch.setattr(matgroup, "BLOCK_ROWS", block_rows)
    for phi in (cartan.Functional.alpha(1, d), cartan.Functional.omega(1, d)):
        f = cartan.theta_covector(phi, theta)
        walk, values, _ = patterson._walk_ball(P, n, f)
        offsets = walk.offsets
        _, least, _ = patterson._window_values(P, n, f)
        kept = np.zeros(len(values), dtype=bool)
        for at in _window_rows(P, n, f, values)[0]:
            kept[at] = True
        kept[0] = True
        keeps = np.add.reduceat(kept, offsets[:-1]) > 0
        assert keeps.any()
        assert np.array_equal(least[keeps], np.minimum.reduceat(values, offsets[:-1])[keeps])
        # a sphere that keeps no row has no least value
        assert (least[~keeps] == np.inf).all()


@pytest.mark.parametrize("make, n, theta, count, kept", [
    (functools.partial(presets.fuchsian_schottky, 1.6), 12, (1,), 1_062_881, 112_726),
    (functools.partial(presets.schottky_so21, 1.6), 9, (1, 2), 39_365, 6_174)],
    ids=["schottky-12", "schottky-d3-9"])
def test_window_values_keep_no_value_far_above_the_certified_radius(make, n, theta, count,
                                                                    kept):
    # once a block's least values are taken it keeps no value above R (1 +
    # 4 eps) for R of the first block's spheres, for d = 3 as for d = 2:
    # 43,530 of the 156,256 values that the radius-12 ball kept before lay
    # above its certified radius 38.40, as did 33,191 of the d = 3 ball's
    # 39,364
    P = make()
    f = cartan.theta_covector(cartan.Functional.alpha(1, P.dimension), theta)
    parts, least, rows = patterson._window_values(P, n, f)
    values = np.concatenate(parts)
    assert (rows, len(values)) == (count, kept)
    assert np.count_nonzero(values > patterson._certified_rmax(least, n)) <= 1


def test_far_cut_leaves_out_only_rows_above_R():
    # A = x I and A_inv = y I meet sigma_1(M)^2 >= |M|_F^2 / 2 with equality,
    # so the rows just past the cut have the least values it leaves out
    offsets = np.array([0, 1, 3, 5])
    eps = np.finfo(float).eps
    for f in ([2.0, 0.0], [1.0, 0.0], [2e-3, 0.0], [1.5, -0.5]):
        f = np.array(f)
        c = (f[0] - f[1]) / 2
        # R / c of 18, 250 and 300, with exp(2 R / c) below the float range
        for n, v in ((12, 1.5), (1000, 0.25), (5, 60.0)):
            first = c * np.array([0.0, v, 1.5 * v, 2.5 * v])
            # the block holds spheres 0 and 1 whole
            least = np.minimum.reduceat(first[:3], offsets[:2])
            R = patterson._certified_rmax(least, n)
            top = patterson._window_top(least, n)
            assert top == R * (1 + 4 * eps)
            cut = patterson._far_cut(top, f)
            x = (cut / 4) ** 0.25 * (1 + eps * np.arange(-40, 41))
            A = x[:, None, None] * np.eye(2)
            far = np.setdiff1d(np.arange(len(x)), patterson._near_rows(A, A, cut))
            assert 0 < len(far) < len(x)
            values = matgroup._row_products(matgroup.batch_kappa(A[far], A[far]), f)
            assert (values > top).all()


def test_window_pruned_regression_splices_few_rows(monkeypatch):
    rows, kernel = [], _kernels.batch_log_singular_values
    monkeypatch.setattr(_kernels, "batch_log_singular_values",
                        lambda mats: rows.append(len(mats)) or kernel(mats))
    est = patterson.critical_exponent(presets.fuchsian_schottky(1.6), ALPHA1_2, 12, (1,))
    assert est.delta_hat == 0.30764260671045124
    # 1,062,881 products and as many inverse products; 15% are spliced
    products = 2 * matgroup.free_ball_size(2, 12)
    assert products == 2_125_762
    assert sum(rows) <= 0.2 * products
