"""Paper identities that no command computes, for tests: the opposition
involution on the Cartan subspace and on functionals, flags from spanning
columns and the projective action on flags, the Gromov product of a
transverse flag pair and the exterior power representation.
"""

import itertools

import numpy as np

from pslab import _kernels, cartan
from pslab.flags import Flag

# the Gromov product's and is_transverse's transversality test
TRANSVERSALITY_TOLERANCE = 1e-10


def hat_iota(v):
    """The opposition involution on the Cartan subspace: reverse coordinates."""
    return np.asarray(v, dtype=float)[::-1].copy()


def iota_star(phi):
    """The dual involution: c_k -> c_{d-k}, so iota(omega_k) = omega_{d-k}."""
    return cartan.Functional(phi.d, {phi.d - k: c for k, c in phi.coefficients.items()})


def make_flag(theta, columns):
    """Flag from (possibly non-orthonormal) spanning columns, via a QR pass."""
    return Flag(theta, _kernels.lapack_qr_positive(columns))


def apply_matrix(A, F):
    """The projective action of A on flags, with frame re-orthonormalization."""
    return Flag(F.theta, _kernels.lapack_qr_positive(np.asarray(A, dtype=float) @ F.frame))


def gromov_product(F, G):
    """Gromov product G_theta(F, G) of a transverse flag pair, in a_theta.

    omega_k is log |det(f_i(v_j))| over the wedge norms, with f_i an
    orthonormal basis of the annihilator of G^(d-k) and v_j the orthonormal
    frame of F^k (so both norms are 1 by construction).  Stacks broadcast
    as in cocycle.iwasawa; any non-transverse pair raises ValueError.
    """
    d = F.dimension
    omegas = []
    for k in F.theta:
        # annihilator of G^(d-k) = orthogonal complement = trailing frame columns
        ann = G.frame[..., d - k:]
        det = np.abs(np.linalg.det(np.swapaxes(ann, -1, -2) @ F.subspace(k)))
        if (det <= TRANSVERSALITY_TOLERANCE).any():
            raise ValueError(f"flags not transverse at k={k} (witness {det.min():g})")
        omegas.append(np.log(det))
    return cartan.vector_from_omegas(d, F.theta, np.stack(omegas, axis=-1))


def exterior_power_rep(A, k):
    """Induced action on the k-th exterior power, lexicographic wedge basis."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if not 1 <= k <= d - 1:
        raise ValueError(f"k={k} outside 1..{d - 1}")
    combos = list(itertools.combinations(range(d), k))
    m = len(combos)
    out = np.empty((m, m))
    for col, J in enumerate(combos):
        sub = A[:, J]
        for row, I in enumerate(combos):
            out[row, col] = np.linalg.det(sub[I, :])
    return out
