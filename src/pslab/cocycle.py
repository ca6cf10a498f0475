"""Partial Iwasawa cocycle and Gromov product, valued in a_theta."""

import numpy as np

from . import cartan, flags
from .errors import NotTransverse


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


def gromov_product(F, G):
    """Gromov product G_theta(F, G) of a transverse flag pair, in a_theta.

    omega_k is log |det(f_i(v_j))| over the wedge norms, with f_i an
    orthonormal basis of the annihilator of G^(d-k) and v_j the orthonormal
    frame of F^k (so both norms are 1 by construction).  Stacks broadcast
    as in iwasawa; any non-transverse pair raises NotTransverse.
    """
    d = F.dimension
    omegas = []
    for k in F.theta:
        # annihilator of G^(d-k) = orthogonal complement = trailing frame columns
        ann = G.frame[..., d - k :]
        det = np.abs(np.linalg.det(np.swapaxes(ann, -1, -2) @ F.subspace(k)))
        if (det <= flags.TRANSVERSALITY_TOLERANCE).any():
            raise NotTransverse(k, det.min())
        omegas.append(np.log(det))
    return cartan.vector_from_omegas(d, F.theta, np.stack(omegas, axis=-1))
