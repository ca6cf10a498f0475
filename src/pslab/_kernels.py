"""Hot numeric kernels, in numpy.

Kernels:
  * seg_point_distance - Hilbert distance from a point to a segment [q, z) in
    the Klein unit ball
  * ray_distances_lifted - distances from hyperboloid lifts to a ray from the
    origin
  * batch_log_singular_values - log singular values of a stack of matrices
  * greedy_cover_count - first-fit greedy ball-covering counts for box
    dimension, swept once per centre rather than once per row
"""

import math

import numpy as np

# There is one backend; the benchmark records this flag with each result.
USE_NUMBA = False

# Shadow membership counts distances within TIE of the radius as inside.
TIE = 1e-9
# Iterations of guarded ternary refinement along the segment.
SEG_ITERS = 60


# ---------------------------------------------------------------------------
# scalar geometry in the Klein unit ball

def _hilbert_dist_ball(x, y):
    """Hilbert (= hyperbolic) distance between interior points of the unit ball."""
    vv = 0.0
    xv = 0.0
    xx = 0.0
    for i in range(x.shape[0]):
        v = y[i] - x[i]
        vv += v * v
        xv += x[i] * v
        xx += x[i] * x[i]
    if vv < 1e-300:
        return 0.0
    c = xx - 1.0
    disc = xv * xv - vv * c
    if disc <= 0.0 or c >= 0.0:
        # x on or outside the ball: no chord, treat as infinitely far
        return math.inf
    sq = math.sqrt(disc)
    tm = (-xv - sq) / vv
    tp = (-xv + sq) / vv
    num = (1.0 - tm) * tp
    den = (-tm) * (tp - 1.0)
    if den <= 0.0 or num <= 0.0:
        return math.inf
    return 0.5 * math.log(num / den)


def _seg_point_distance(q, z, p):
    """min over t in [0,1) of d(q + t*(z - q), p), by guarded ternary search.

    The distance along a projective segment in the ball is unimodal, and it
    blows up at the boundary endpoint, so plain ternary search is safe.
    """
    k = q.shape[0]
    y1 = np.empty(k)
    y2 = np.empty(k)
    lo = 0.0
    hi = 1.0 - 1e-9
    for _ in range(SEG_ITERS):
        t1 = lo + (hi - lo) / 3.0
        t2 = hi - (hi - lo) / 3.0
        for i in range(k):
            y1[i] = q[i] + t1 * (z[i] - q[i])
            y2[i] = q[i] + t2 * (z[i] - q[i])
        if _hilbert_dist_ball(y1, p) <= _hilbert_dist_ball(y2, p):
            hi = t2
        else:
            lo = t1
    for i in range(k):
        y1[i] = q[i] + 0.5 * (lo + hi) * (z[i] - q[i])
    d = _hilbert_dist_ball(y1, p)
    dq = _hilbert_dist_ball(q, p)
    if dq < d:
        d = dq
    return d


def seg_point_distance(q, z, p):
    """Scalar min Hilbert distance from p to the segment [q, z) in the ball."""
    return _seg_point_distance(
        np.ascontiguousarray(q, dtype=float),
        np.ascontiguousarray(z, dtype=float),
        np.ascontiguousarray(p, dtype=float),
    )


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
    return np.log(np.maximum(sigma, 1e-300))


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
            dot = np.clip(rest @ center, -1.0, 1.0)
            dists = np.sqrt(np.maximum(1.0 - dot * dot, 0.0))
        else:
            dists = np.linalg.norm(rest - center, axis=1)
        rest = rest[~(dists <= eps)]
        count += 1
    return count
