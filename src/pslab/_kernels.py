"""Hot numeric kernels, in numpy.

Kernels:
  * ray_distances_lifted - distances from hyperboloid lifts to a ray from the
    origin
  * batch_log_singular_values - log singular values of a stack of matrices
  * greedy_cover_count - first-fit greedy ball-covering counts for box
    dimension, swept once per centre rather than once per row
"""

import numpy as np

# There is one backend; the benchmark records this flag with each result.
USE_NUMBA = False

# Shadow membership counts distances within TIE of the radius as inside.
TIE = 1e-9


# ---------------------------------------------------------------------------
# rays on hyperboloid lifts
#
# Deep orbit points are unrepresentable in the Klein chart (the chart gap
# 1 - |x| underflows beyond distance ~18), so ray tests work on the
# unnormalized SO(2,1) lifts w = M(0,0,1) with w[2] = cosh(distance).

def ray_distances_lifted(W, z):
    """Distances from the lifted points W to the single ray [origin, z).

    z is a unit circle point.  A point in front of the origin (w . z > 0)
    closes a right triangle with the ray: sinh(dist) = sinh(D) sin(angle)
    = |w x z|.  Any other point is nearest to the origin, at distance D.
    """
    W = np.asarray(W, dtype=float)
    z = np.asarray(z, dtype=float)
    along = W[:, 0] * z[0] + W[:, 1] * z[1]
    across = np.abs(W[:, 0] * z[1] - W[:, 1] * z[0])
    return np.where(along > 0.0, np.arcsinh(across),
                    np.arccosh(np.maximum(W[:, 2], 1.0)))


# ---------------------------------------------------------------------------
# batched log singular values

def batch_log_singular_values(mats):
    """log singular values (descending) for a stack of square matrices (n, d, d).

    Values rounding to 0 are floored at 1e-300 before the log; callers that
    need accurate small singular values recover them from inverse products.
    """
    sigma = np.linalg.svd(np.asarray(mats, dtype=float), compute_uv=False)
    return np.log(np.maximum(sigma, 1e-300, out=sigma), out=sigma)


# ---------------------------------------------------------------------------
# greedy covering counts (box dimension)

METRIC_EUCLIDEAN = 0
METRIC_CHORDAL = 1  # rows are unit vectors; dist = sin(angle), antipodes identified


def greedy_cover_count(features, eps, metric=METRIC_EUCLIDEAN):
    """Number of eps-balls a first-fit greedy pass needs to cover the rows.

    Deterministic: points are scanned in the given (canonical) order.  A row
    becomes a centre iff no earlier centre lies within eps of it.  The sweep
    runs once per centre: the first remaining row is a centre, and one
    vectorised distance call drops every remaining row within eps of it.
    The work is O(rows * centres) in a few numpy calls per centre.
    """
    rest = np.asarray(features, dtype=float)
    count = 0
    while rest.shape[0]:
        center, rest = rest[0], rest[1:]
        if metric == METRIC_CHORDAL:
            # a per-pair sum, whose bits do not depend on how many rows
            # share the call (a BLAS matrix-vector product's may)
            dot = np.clip((rest * center).sum(axis=1), -1.0, 1.0)
            dists = np.sqrt(np.maximum(1.0 - dot * dot, 0.0))
        else:
            dists = np.linalg.norm(rest - center, axis=1)
        rest = rest[~(dists <= eps)]
        count += 1
    return count
