"""Pairwise shadow-membership oracles on hyperboloid lifts.

Brute-force references for the angular-window shadow masses in
``pslab.hilbert``: each tests every (orbit point, boundary point) pair, so
``oracle(...) @ ws`` is the shadow mass the fast path must reproduce.  The
one-matrix scalar references for the symmetric power and the hyperboloid
lift are what the stacked paths must reproduce bit for bit.
"""

import math

import numpy as np

from pslab._kernels import TIE
from pslab.hilbert import C_MINKOWSKI, C_MINKOWSKI_INV


def symmetric_power_reference(A, d):
    """symmetric_power_rep of one 2x2 matrix, one scalar product at a time."""
    n = d - 1
    a, b = A[0]
    c, e = A[1]
    out = np.zeros((d, d))
    for j in range(d):
        poly = np.zeros(d)
        for p in range(n - j + 1):
            for q in range(j + 1):
                coeff = (
                    math.comb(n - j, p) * a**p * c ** (n - j - p)
                    * math.comb(j, q) * b**q * e ** (j - q)
                )
                poly[n - (p + q)] += coeff
        scale_j = math.sqrt(math.comb(n, j))
        for i in range(d):
            out[i, j] = poly[i] * scale_j / math.sqrt(math.comb(n, i))
    return out


def lift_reference(M, family):
    """Hyperboloid lift of the basepoint's image under one group element."""
    if family == "so":
        M = symmetric_power_reference(M, 3)
    w = C_MINKOWSKI @ M @ C_MINKOWSKI_INV @ np.array([0.0, 0.0, 1.0])
    return -w if w[2] < 0.0 else w


def _shadow_from_origin_np(W, Z, r):
    """Boolean (n, m): is boundary point Z[j] in the shadow from the origin of
    the r-ball at lift W[i] (does the ray [origin, Z[j]) pass within r)?

    W rows are unnormalized hyperboloid lifts (w[2] = cosh distance); Z rows
    are unit circle points.
    """
    sh = np.hypot(W[:, 0], W[:, 1])[:, None]
    ch = W[:, 2][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        dot = (W[:, :2] @ Z.T) / sh
        cross = np.abs(W[:, 0][:, None] * Z[:, 1] - W[:, 1][:, None] * Z[:, 0]) / sh
    d = np.where(dot <= 0.0, np.arccosh(np.maximum(ch, 1.0)),
                 np.arcsinh(sh * cross))
    d = np.where(sh == 0.0, 0.0, d)
    return d <= r + TIE


def _shadow_to_origin_np(Minvs, Z, r):
    """Boolean (n, m): is Z[j] in the shadow from orbit point i of the r-ball
    at the origin?

    Implemented by pulling the test back with the group element: z is in
    O_r(g b0, b0) iff g^-1 z is in O_r(b0, g^-1 b0), which keeps every
    quantity representable at depth.  Minvs[i] is the SO(2,1) matrix of the
    inverse of element i.
    """
    n = Minvs.shape[0]
    out = np.zeros((n, Z.shape[0]), dtype=bool)
    L = np.column_stack([Z, np.ones(Z.shape[0])])
    for i in range(n):
        M = Minvs[i]
        w = M[:, 2].copy()
        if w[2] < 0.0:
            w = -w
        U = L @ M.T
        U[U[:, 2] < 0.0] *= -1.0
        nz = np.hypot(U[:, 0], U[:, 1])
        keep = nz > 0.0
        Zi = np.empty_like(Z)
        Zi[keep] = U[keep, :2] / nz[keep, None]
        Zi[~keep] = 2.0  # off-circle sentinel, never within r
        out[i] = _shadow_from_origin_np(w[None, :], Zi, r)[0]
    return out
