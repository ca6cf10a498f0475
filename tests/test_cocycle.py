import numpy as np
import pytest

from pslab import cocycle
from identities import apply_matrix, gromov_product, hat_iota, make_flag


def random_flag(rng, d, theta):
    return make_flag(theta, rng.normal(size=(d, d)))


def test_iwasawa_cocycle_identity(rng, sl3):
    theta = (1, 2)
    for _ in range(25):
        A = sl3.word_matrix(tuple(rng.choice([1, -1, 2, -2], size=3)))
        B = sl3.word_matrix(tuple(rng.choice([1, -1, 2, -2], size=3)))
        F = random_flag(rng, 3, theta)
        lhs = cocycle.iwasawa(A @ B, F)
        rhs = cocycle.iwasawa(A, apply_matrix(B, F)) + cocycle.iwasawa(B, F)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_iwasawa_identity_element(rng):
    F = random_flag(rng, 3, (1, 2))
    assert np.allclose(cocycle.iwasawa(np.eye(3), F), 0.0, atol=1e-12)


def test_iwasawa_diagonal_on_coordinate_flag():
    A = np.diag([2.0, 1.0, 0.5])
    F = make_flag((1, 2), np.eye(3))
    b = cocycle.iwasawa(A, F)
    assert np.allclose(b, np.log([2.0, 1.0, 0.5]), atol=1e-12)


def test_iwasawa_values_in_a_theta(rng, sl4):
    theta = (1, 3)
    A = sl4.generators[0] @ sl4.generators[1]
    F = random_flag(rng, 4, theta)
    b = cocycle.iwasawa(A, F)
    assert abs(b.sum()) < 1e-10
    assert abs(b[1] - b[2]) < 1e-10  # alpha_2 = 0 off theta


def test_gromov_product_symmetry(rng):
    # G(F, G) = iota G(G, F) with the opposition involution v -> -reverse(v)
    theta = (1, 2)
    for _ in range(20):
        F = random_flag(rng, 3, theta)
        G = random_flag(rng, 3, theta)
        assert np.allclose(
            gromov_product(F, G),
            -hat_iota(gromov_product(G, F)),
            atol=1e-10,
        )


def test_gromov_product_nonpositive_omegas(rng):
    # each omega_k is the log of a determinant of a matrix with orthonormal
    # rows and columns, hence <= 0
    theta = (1, 2)
    for _ in range(20):
        F = random_flag(rng, 3, theta)
        G = random_flag(rng, 3, theta)
        v = gromov_product(F, G)
        assert v[0] <= 1e-12
        assert v[0] + v[1] <= 1e-12


def test_gromov_product_rejects_non_transverse():
    F = make_flag((1, 2), np.eye(3))
    with pytest.raises(ValueError, match="not transverse"):
        gromov_product(F, F)


def test_gromov_cocycle_relation(rng, sl3):
    # G(AF, AG) - G(F, G) = -B(A, F) + hat-iota B(A, G)
    theta = (1, 2)
    for _ in range(20):
        A = sl3.word_matrix(tuple(rng.choice([1, -1, 2, -2], size=4)))
        F = random_flag(rng, 3, theta)
        G = random_flag(rng, 3, theta)
        lhs = gromov_product(
            apply_matrix(A, F), apply_matrix(A, G)
        ) - gromov_product(F, G)
        rhs = -cocycle.iwasawa(A, F) + hat_iota(cocycle.iwasawa(A, G))
        assert np.allclose(lhs, rhs, atol=1e-9)
