import math

import numpy as np

from pslab import _kernels


def test_batch_log_singular_values_matches_svd(rng):
    mats = rng.normal(size=(64, 3, 3))
    got = _kernels.batch_log_singular_values(mats)
    ref = np.log(np.linalg.svd(mats, compute_uv=False))
    assert np.allclose(got, ref, atol=1e-10)


def test_greedy_cover_backends_and_extremes(rng):
    # k unit vectors 0.3 rad apart in one half-plane: chordal distances
    # sin(0.3 j) all exceed eps = 0.25, so first fit opens k balls
    k = 5
    ang = 0.3 * np.arange(k)
    spaced = np.c_[np.cos(ang), np.sin(ang), np.zeros(k)]
    assert _kernels.greedy_cover_count(spaced, 0.25, _kernels.METRIC_CHORDAL) == k
    assert _kernels.greedy_cover_count(spaced, 0.25) == k
    # one ball of radius above every distance covers everything
    pts = rng.normal(size=(200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert _kernels.greedy_cover_count(pts, 2.1, _kernels.METRIC_CHORDAL) == 1


def test_hilbert_dist_ball_kernel_symmetry(rng):
    for _ in range(30):
        x, y = rng.uniform(-0.6, 0.6, size=(2, 2))
        d1 = _kernels._hilbert_dist_ball(x, y)
        d2 = _kernels._hilbert_dist_ball(y, x)
        assert abs(d1 - d2) < 1e-10


def test_seg_point_distance_endpoint_minimum():
    # p next to the segment start: the minimum is at the endpoint q
    q = np.array([0.0, 0.0])
    z = np.array([1.0, 0.0])
    p = np.array([-0.1, 0.0])
    d = _kernels.seg_point_distance(q, z, p)
    assert abs(d - _kernels._hilbert_dist_ball(q, p)) < 1e-9


def test_ray_distances_lifted_on_axis(rng):
    # points on the ray itself are at distance 0; the antipodal point at
    # depth D is at distance D
    D = 2.5
    W = np.array([
        [np.sinh(D), 0.0, np.cosh(D)],
        [-np.sinh(D), 0.0, np.cosh(D)],
    ])
    dists = _kernels.ray_distances_lifted(W, np.array([1.0, 0.0]))
    assert abs(dists[0]) < 1e-12
    assert abs(dists[1] - D) < 1e-12

    # random lifts at depth D and angle a from the ray: in front of the
    # origin, the right triangle gives sinh(dist) = sinh(D) sin(a); behind
    # it the nearest ray point is the origin, at distance D
    depth = rng.uniform(0.1, 8.0, size=300)
    a = rng.uniform(-np.pi, np.pi, size=300)
    W = np.c_[np.sinh(depth) * np.cos(a), np.sinh(depth) * np.sin(a), np.cosh(depth)]
    z = np.array([0.6, 0.8])
    dists = _kernels.ray_distances_lifted(W, z)
    ray = np.arctan2(z[1], z[0])
    for Di, ai, got in zip(depth, a, dists):
        angle = abs((ai - ray + np.pi) % (2 * np.pi) - np.pi)
        if angle < np.pi / 2:
            ref = math.asinh(math.sinh(Di) * math.sin(angle))
        else:
            ref = Di
        assert abs(got - ref) < 1e-9 * max(1.0, ref)
