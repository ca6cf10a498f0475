import numpy as np
import pytest

from pslab import cartan, matgroup, patterson, presets
from pslab.errors import NegativePhiOnCone, SubcriticalS, WindowEmpty


ALPHA1_2 = cartan.Functional.alpha(1, 2)


def test_poincare_partial_sum_tail_slope_signs():
    P = presets.cyclic_hyperbolic(2.0)
    # phi(kappa(h^n)) = 2n log 2: the series transitions at s = 0
    _, slope_small = patterson.poincare_partial_sum(P, ALPHA1_2, (1,), 0.01, 30)
    assert slope_small < 0.0
    total, _ = patterson.poincare_partial_sum(P, ALPHA1_2, (1,), 1.0, 30)
    assert total < 1.0 + 2.0 / (2.0**2 - 1.0) + 1e-6


def test_negative_phi_on_cone_rejected(sl2):
    bad = -1.0 * ALPHA1_2
    with pytest.raises(NegativePhiOnCone):
        patterson.poincare_partial_sum(sl2, bad, (1,), 1.0, 5)


def test_critical_exponent_cyclic_hyperbolic_is_zero():
    P = presets.cyclic_hyperbolic(2.0)
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
    assert mu.ball.words() == ball.words()
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
    assert mu.ball.words() == ref.ball.words()
    with pytest.raises(SubcriticalS):
        patterson._exponent_and_measure(P, ALPHA1_2, n_max, n, (1,), lambda delta: delta)


def test_outer_sphere_restriction():
    P = presets.fuchsian_schottky(2.0)
    mu = patterson.patterson_measure(P, ALPHA1_2, 1.0, 4, (1,))
    outer = patterson.outer_sphere_restriction(mu)
    assert (outer.ball.lengths()[outer.atoms] == 4).all()
    assert abs(outer.total_mass() - 1.0) < 1e-12
    partial = patterson.outer_sphere_restriction(mu, min_length=3)
    assert set(partial.ball.lengths()[partial.atoms].tolist()) == {3, 4}
    with pytest.raises(WindowEmpty):
        patterson.outer_sphere_restriction(mu, min_length=5)


def test_quasi_invariance_residuals_decay():
    P = presets.fuchsian_schottky(2.0)
    stats = patterson.quasi_invariance_residual(P, ALPHA1_2, (1,), 1.0, 7, (1,))
    assert stats[-1]["sphere"] == 7
    # the cocycle defect vanishes as orbit flags converge to limit flags
    assert stats[-1]["median"] < 0.1 * stats[0]["median"]
    assert stats[-1]["median"] < 1e-3


def test_pair_density_matches_gromov_product(rng):
    from pslab import cocycle, flags

    F = flags.make_flag((1, 2), np.eye(3))
    G = flags.make_flag((1, 2), rng.normal(size=(3, 3)))
    phi = cartan.Functional.alpha(1, 3)
    rho = patterson.pair_density(phi, 0.7, F, G)
    assert rho > 0.0
    assert abs(np.log(rho) + 0.7 * phi(cocycle.gromov_product(F, G))) < 1e-12


def test_subgroup_presentation_labels(sl2):
    P0 = patterson.subgroup_presentation(sl2, [[1], [2, 1, -2]])
    assert P0.rank == 2
    assert P0.labels == ["a", "b.a.b'"]
    assert np.allclose(P0.generators[1], sl2.word_matrix((2, 1, -2)), atol=1e-12)


def test_entropy_drop_gap_positive():
    P = presets.fuchsian_schottky(1.6)
    report = patterson.entropy_drop_experiment(P, [[1]], ALPHA1_2, 6, (1,))
    assert report["gap"] > 0.0
    assert report["limit_set_separation"] > 0.0
    # cyclic groups grow linearly: the subgroup exponent sits well below the
    # ambient one and shrinks with depth
    assert report["delta_subgroup"].delta_hat < 0.5 * report["delta_ambient"].delta_hat


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
