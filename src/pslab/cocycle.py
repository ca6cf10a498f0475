"""Partial Iwasawa cocycle and Gromov product, valued in a_theta."""

import numpy as np

from . import cartan, flags
from .errors import NotTransverse


def iwasawa(A, F, tol=cartan.DET_TOLERANCE):
    """Partial Iwasawa cocycle B_theta(A, F) as a zero-sum vector in a_theta.

    omega_k of the result is the log wedge-norm growth of A on F^k; the flag
    frame is orthonormal, so the denominator norm is 1.  Off-theta entries are
    completed by alpha_k = 0.
    """
    A = cartan.require_unimodular(A, tol)
    omegas = []
    for k in F.theta:
        B = A @ F.subspace(k)
        sign, logdet = np.linalg.slogdet(B.T @ B)
        omegas.append(0.5 * logdet)
    return cartan.vector_from_omegas(F.dimension, F.theta, omegas)


def gromov_product(F, G, transversality_tolerance=flags.TRANSVERSALITY_TOLERANCE):
    """Gromov product G_theta(F, G) of a transverse flag pair, in a_theta.

    omega_k is log |det(f_i(v_j))| over the wedge norms, with f_i an
    orthonormal basis of the annihilator of G^(d-k) and v_j the orthonormal
    frame of F^k (so both norms are 1 by construction).
    """
    d = F.dimension
    omegas = []
    for k in F.theta:
        # annihilator of G^(d-k) = orthogonal complement = trailing frame columns
        ann = G.frame[:, d - k :]
        pairing = ann.T @ F.subspace(k)
        det = np.linalg.det(pairing)
        if abs(det) <= transversality_tolerance:
            raise NotTransverse(k, abs(det))
        omegas.append(np.log(abs(det)))
    return cartan.vector_from_omegas(d, F.theta, omegas)


def kappa_theta(A, theta):
    return cartan.project_theta(cartan.kappa(A), theta)


def phi_iwasawa(phi, A, F):
    return phi(iwasawa(A, F))


def phi_kappa(phi, A, theta):
    return phi(kappa_theta(A, theta))
