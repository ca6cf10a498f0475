"""Partial Iwasawa cocycle, valued in a_theta."""

import numpy as np

from . import cartan


def iwasawa(A, F):
    """Partial Iwasawa cocycle B_theta(A, F) as a zero-sum vector in a_theta.

    omega_k of the result is the log wedge-norm growth of A on F^k; the flag
    frame is orthonormal, so the denominator norm is 1.  Off-theta entries are
    completed by alpha_k = 0.  A and the frames broadcast: a matrix or a stack
    against a flag or a stack gives one (..., d) vector per pair.
    """
    A = np.asarray(A, dtype=float)
    omegas = []
    for k in F.theta:
        B = A @ F.subspace(k)
        sign, logdet = np.linalg.slogdet(np.swapaxes(B, -1, -2) @ B)
        omegas.append(0.5 * logdet)
    return cartan.vector_from_omegas(F.dimension, F.theta, np.stack(omegas, axis=-1))

