import itertools
import warnings

import numpy as np
import pytest

from pslab import cartan, presets
from pslab.errors import AsymmetricTheta, DecompositionFailure, NonUnimodular
from identities import hat_iota, iota_star


def test_require_unimodular_rejects_scaled_matrix():
    with pytest.raises(NonUnimodular):
        cartan.require_unimodular(2.0 * np.eye(2))


def test_require_unimodular_where_column_squares_overflow():
    # the squares of a 1e200 column overflow; its norm and the product of
    # the norms do not, and the determinant is checked against them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in (np.diag([1e200, 1e-100]), [[1e160, 0.0], [0.0, 1.0]],
                  np.diag([1e200, 1e200, 1e-154]), np.diag([1e200, 1e200, 1e200])):
            with pytest.raises(NonUnimodular):
                cartan.require_unimodular(A)
        for A in (np.diag([1e100, 1e-100]), np.diag([1e200, 1e-200])):
            assert np.array_equal(cartan.require_unimodular(A), A)


def test_kappa_rejects_non_finite_matrix():
    # the SVD of an infinite matrix gives NaN singular values without raising
    with pytest.raises(DecompositionFailure, match="non-finite"):
        cartan.kappa([[np.inf, 0.0], [0.0, 1.0]])
    # a finite matrix whose singular values and eigenvalue moduli overflow
    A = np.array([[1.5e308, 1.5e308], [-1.5e308, 1.5e308]])
    for projection in (cartan.kappa, cartan.jordan):
        with pytest.raises(DecompositionFailure, match="non-finite"):
            projection(A)


def test_kappa_diagonal():
    A = np.diag([4.0, 1.0, 0.25])
    k = cartan.kappa(A)
    assert np.allclose(k, [np.log(4.0), 0.0, -np.log(4.0)])
    assert abs(k.sum()) < 1e-12


def test_kappa_sorted_and_zero_sum(rng):
    for _ in range(50):
        A = rng.normal(size=(3, 3))
        A /= np.sign(np.linalg.det(A)) * abs(np.linalg.det(A)) ** (1.0 / 3.0)
        k = cartan.kappa(A)
        assert np.all(np.diff(k) <= 1e-12)
        assert abs(k.sum()) < 1e-9


def test_jordan_conjugation_invariant(rng):
    A = np.diag([3.0, 1.0, 1.0 / 3.0])
    Q = rng.normal(size=(3, 3))
    Q /= np.sign(np.linalg.det(Q)) * abs(np.linalg.det(Q)) ** (1.0 / 3.0)
    assert np.allclose(cartan.jordan(Q @ A @ np.linalg.inv(Q)), cartan.jordan(A),
                       atol=1e-9)


def test_jordan_spliced_matches_jordan_when_well_conditioned():
    A = np.diag([2.0, 1.0, 0.5])
    A_inv = np.linalg.inv(A)
    assert np.allclose(cartan.jordan_spliced(A, A_inv), cartan.jordan(A), atol=1e-12)


def test_jordan_spliced_survives_ill_conditioned_product(sl2):
    # a long alternating word whose direct eigenvalue computation loses the
    # small modulus to cancellation
    word = (1, 1, -2, 1, 2, -1, 2, -1, 2) * 3
    from pslab import matgroup

    A = sl2.word_matrix(word)
    A_inv = sl2.word_matrix(matgroup.invert_word(word))
    nu = cartan.jordan_spliced(A, A_inv)
    assert abs(nu.sum()) < 1e-9
    assert nu[0] > 0.0
    assert abs(nu[0] + nu[1]) < 1e-9


def test_jordan_spliced_row_ranges_keep_every_bit(three_ranges):
    # 13 rows make three LAPACK ranges: rotations (complex eigenvalues) fill
    # the first, hyperbolic matrices (real ones) the second, and the third
    # mixes both, so the ranges' eigvals come out in different dtypes
    mats = [presets.rotation(0.1 + 0.2 * i) for i in range(4)]
    mats += [presets.hyp_axis(-1.0 - i, 0.5 * i, 0.3 + i) for i in range(6)]
    mats += [presets.rotation(2.0), presets.hyp_axis(2.0, -3.0, 4.0), presets.rotation(0.7)]
    for A in (np.stack(mats), np.stack([presets.rotation3(i % 3, 0.2 + i) @ np.diag(
            [np.exp(0.1 * i), 1.0, np.exp(-0.1 * i)]) for i in range(13)])):
        A_inv = np.linalg.inv(A)
        nu = cartan.jordan_spliced(A, A_inv)
        for i in range(len(A)):
            assert np.array_equal(nu[i], cartan.jordan_spliced(A[i], A_inv[i])), i
        # a row LAPACK rejects, in the second range, fails the whole stack
        A[5] = np.inf
        with pytest.raises(DecompositionFailure):
            cartan.jordan_spliced(A, A_inv)


def test_validate_theta_symmetry():
    assert cartan.validate_theta([1, 3], 4) == (1, 3)
    assert cartan.validate_theta([2], 4) == (2,)
    with pytest.raises(AsymmetricTheta):
        cartan.validate_theta([1], 4)
    with pytest.raises(AsymmetricTheta):
        cartan.validate_theta([0, 4], 4)
    # None, and only None, is the full theta
    for d in range(2, 6):
        assert cartan.validate_theta(None, d) == cartan.full_theta(d)
    with pytest.raises(AsymmetricTheta):
        cartan.validate_theta((), 3)


def test_project_theta_preserves_omegas_kills_off_theta_roots():
    v = np.array([3.0, 1.0, -1.0, -3.0])
    theta = (1, 3)
    p = cartan.project_theta(v, theta)
    assert abs(p.sum()) < 1e-12
    assert abs(p[0] - v[0]) < 1e-12            # omega_1 preserved
    assert abs(p[:3].sum() - v[:3].sum()) < 1e-12  # omega_3 preserved
    assert abs(p[1] - p[2]) < 1e-12            # alpha_2 = 0 off theta


def test_projection_matrix_matches_project_theta(rng):
    theta = (1, 3)
    M = cartan.projection_matrix(4, theta)
    for _ in range(20):
        v = rng.normal(size=4)
        v -= v.mean()
        assert np.allclose(M @ v, cartan.project_theta(v, theta), atol=1e-12)


def test_constraint_matrix_is_nonsingular_for_every_theta():
    # each run of indices outside theta is pinned by two known omegas
    # (omega_0 = omega_d = 0), so solving for a_theta vectors cannot fail
    for d in range(2, 9):
        pairs = sorted({frozenset((k, d - k)) for k in range(1, d)}, key=min)
        for r in range(1, len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                theta = cartan.validate_theta(set().union(*chosen), d)
                det = np.linalg.det(cartan._constraint_matrix(d, theta))
                assert abs(det) >= 1.0 - 1e-9, (d, theta)


def test_theta_covector_is_phi_on_the_projection(rng):
    for d, theta in ((2, (1,)), (3, (1, 2)), (4, (2,)), (4, (1, 3)), (5, (2, 3)),
                     (6, (1, 3, 5))):
        phi = cartan.Functional(d, {k: rng.normal() for k in range(1, d)})
        K = rng.normal(size=(50, d))
        want = phi(K @ cartan.projection_matrix(d, theta).T)
        assert np.allclose(K @ cartan.theta_covector(phi, theta), want, rtol=0, atol=1e-12)


def test_hat_iota_involution(rng):
    v = rng.normal(size=5)
    assert np.allclose(hat_iota(hat_iota(v)), v)


def test_functional_alpha_and_omega_values():
    v = np.array([2.0, 0.5, -2.5])
    a1 = cartan.Functional.alpha(1, 3)
    w2 = cartan.Functional.omega(2, 3)
    assert abs(a1(v) - (v[0] - v[1])) < 1e-12
    assert abs(w2(v) - (v[0] + v[1])) < 1e-12


def test_functional_covector_consistent(rng):
    phi = cartan.Functional(4, {1: 0.5, 3: -2.0})
    v = rng.normal(size=4)
    assert abs(phi(v) - phi.covector() @ v) < 1e-12


def test_functional_arithmetic():
    a = cartan.Functional.omega(1, 3)
    b = cartan.Functional.omega(2, 3)
    combo = 2.0 * a + b * (-1.0)
    assert combo.coefficients == {1: 2.0, 2: -1.0}


def test_iota_star_swaps_weights():
    phi = cartan.Functional(4, {1: 1.0, 2: 3.0})
    dual = iota_star(phi)
    assert dual.coefficients == {3: 1.0, 2: 3.0}


def test_iota_star_matches_opposition_involution(rng):
    # the opposition involution on zero-sum vectors is v -> -reverse(v)
    phi = cartan.Functional(4, {1: 0.7, 3: -1.3})
    for _ in range(10):
        v = rng.normal(size=4)
        v -= v.mean()
        assert abs(iota_star(phi)(v) + phi(hat_iota(v))) < 1e-12
