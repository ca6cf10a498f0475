import numpy as np
import pytest

from pslab import cartan, flags, hilbert, matgroup, patterson, presets
from pslab.errors import AsymmetricTheta, UnsupportedFamily
import shadow_oracle
from ball_oracle import word_spheres_reference
from conftest import traced_peak


def test_klein_family_requires_matching_dimension():
    with pytest.raises(UnsupportedFamily):
        hilbert.KleinFamily(presets.sl3_mild(), "so")
    with pytest.raises(UnsupportedFamily):
        hilbert.KleinFamily(presets.sl2_mild(), "sym2")


def test_orbit_distances_match_upper_half_plane():
    # d(i, g i) from the trace formula equals the Klein-disk distance of the
    # orbit point from the origin, arctanh of its Euclidean norm
    P = presets.fuchsian_schottky(1.6)
    fam = hilbert.KleinFamily(P, "so")
    for g in word_spheres_reference(P, 2).mats:
        cosh_d = np.trace(g.T @ g) / 2.0
        x = hilbert.klein_chart(fam.lifted_orbit(g))
        assert abs(np.arctanh(np.linalg.norm(x))
                   - np.arccosh(max(cosh_d, 1.0))) < 1e-8


def test_lifted_orbit_consistent_with_chart(sl2):
    fam = hilbert.KleinFamily(sl2, "so")
    ball = word_spheres_reference(sl2, 3)
    lifts = fam.lifted_orbit(ball.mats)
    pts = hilbert.klein_chart(fam.lifted_orbit(ball.mats))
    assert np.allclose(lifts[:, :2] / lifts[:, 2:], pts, atol=1e-10)
    assert np.all(lifts[:, 2] >= 1.0 - 1e-12)


@pytest.mark.parametrize("family", ["so", "sym2"])
def test_stacked_lifts_match_scalar_reference(family):
    P = (presets.fuchsian_schottky if family == "so" else presets.schottky_so21)(1.6)
    fam = hilbert.KleinFamily(P, family)
    mats = word_spheres_reference(P, 6).mats
    lifts = fam.lifted_orbit(mats)
    reference = np.array([shadow_oracle.lift_reference(M, family) for M in mats])
    assert lifts.shape == (len(mats), 3)
    assert np.array_equal(lifts, reference)
    assert np.array_equal(hilbert.klein_chart(lifts), reference[:, :2] / reference[:, 2:])
    assert np.array_equal(fam.lifted_orbit(mats[-1]), reference[-1])
    assert np.array_equal(hilbert.klein_chart(reference[-1]), reference[-1, :2] / reference[-1, 2])


def test_boundary_points_on_unit_circle():
    for P, family, theta in ((presets.fuchsian_schottky(1.6), "so", (1,)),
                             (presets.schottky_so21(1.6), "sym2", (1, 2))):
        fam = hilbert.KleinFamily(P, family)
        F, _, _ = flags.sample_limit_set(P, theta, 4)
        zs = fam.boundary_point(F.frame)
        assert np.allclose(np.linalg.norm(zs, axis=1), 1.0, atol=1e-12)
        for z, frame in zip(zs, F.frame):
            assert np.array_equal(z, fam.boundary_point(frame))


def test_sym2_family_matches_so_family():
    P2 = presets.fuchsian_schottky(1.6)
    P3 = presets.schottky_so21(1.6)
    fam2 = hilbert.KleinFamily(P2, "so")
    fam3 = hilbert.KleinFamily(P3, "sym2")
    for w in [(1,), (2, -1), (1, 2, 1)]:
        assert np.allclose(hilbert.klein_chart(fam2.lifted_orbit(P2.word_matrix(w))),
                           hilbert.klein_chart(fam3.lifted_orbit(P3.word_matrix(w))), atol=1e-8)


def test_sorted_boundary_measure_window_masses(rng):
    ang = rng.uniform(-np.pi, np.pi, size=200)
    zs = np.c_[np.cos(ang), np.sin(ang)]
    ws = rng.uniform(0.1, 1.0, size=200)
    sbm = hilbert.SortedBoundaryMeasure(zs, ws)
    assert abs(sbm.total - ws.sum()) < 1e-12
    # window wrapping through the branch cut at pi
    m = sbm.window_mass(np.array([np.pi]), np.array([0.5]))
    brute = ws[(np.abs(np.mod(ang - np.pi + np.pi, 2 * np.pi) - np.pi) <= 0.5)].sum()
    assert abs(float(m[0]) - brute) < 1e-12


def test_shadow_masses_agree_with_membership_kernel(rng):
    ang = rng.uniform(-np.pi, np.pi, size=300)
    zs = np.c_[np.cos(ang), np.sin(ang)]
    ws = rng.uniform(0.0, 1.0, size=300)
    ws /= ws.sum()
    d = rng.uniform(0.5, 6.0, size=40)
    oa = rng.uniform(-np.pi, np.pi, size=40)
    lifts = np.c_[np.sinh(d) * np.cos(oa), np.sinh(d) * np.sin(oa), np.cosh(d)]

    fast = hilbert.shadow_masses(hilbert.SortedBoundaryMeasure(zs, ws), lifts, 1.2)
    slow = shadow_oracle._shadow_from_origin_np(lifts, zs, 1.2) @ ws
    assert np.allclose(fast, slow, atol=1e-12)


def test_shadow_masses_to_origin_agree_with_kernel(rng):
    P = presets.fuchsian_schottky(1.6)
    fam = hilbert.KleinFamily(P, "so")
    ball = word_spheres_reference(P, 3)
    lifts = fam.lifted_orbit(ball.mats[1:])
    Minvs = fam.minkowski_matrix(ball.inv_mats[1:])
    ang = rng.uniform(-np.pi, np.pi, size=300)
    zs = np.c_[np.cos(ang), np.sin(ang)]
    ws = rng.uniform(0.0, 1.0, size=300)
    ws /= ws.sum()

    fast = hilbert.shadow_masses_to_origin(hilbert.SortedBoundaryMeasure(zs, ws), lifts,
                                            1.5)
    slow = shadow_oracle._shadow_to_origin_np(Minvs, zs, 1.5) @ ws
    assert np.allclose(fast, slow, atol=1e-10)


def test_conicality_generator_axis_versus_parabolic_point():
    P = presets.fuchsian_schottky(1.6)
    fam = hilbert.KleinFamily(P, "so")
    F = flags.attracting_fixed_flag(P.generators[0], (1,))
    z_axis = fam.boundary_point(F.frame)
    counts = hilbert.conicality_score(P, z_axis, 2.0, 7, "so")
    assert all(c >= 1 for c in counts)
    # a generic circle point misses the limit set: deep spheres leave the ray
    counts_off = hilbert.conicality_score(P, np.array([0.0, 1.0]), 0.5, 7, "so")
    assert counts_off[-1] == 0


def test_conicality_reads_the_walk_block_by_block():
    # the lifts and ray distances of the ball's rows, and one walk's blocks:
    # reading the products of a ball that held them all peaked at 32.1 MiB
    P = presets.fuchsian_schottky(1.6)
    products = 2 * matgroup.free_ball_size(P.rank, 10) * P.dimension**2 * 8
    _, peak = traced_peak(hilbert.conicality_score, P, np.array([1.0, 0.0]), 2.0, 10, "so")
    assert peak < 1.5 * products


def test_shadow_measure_check_rejects_an_empty_theta(sl2):
    # only None is the full theta; an empty one is an error, as everywhere
    phi = cartan.Functional.alpha(1, 2)
    mu = patterson.patterson_measure(sl2, phi, 1.0, 3, (1,))
    report = hilbert.shadow_measure_check(sl2, mu, phi, 1.0, 1.0, 3, "so")
    assert [row.sphere for row in report.rows] == [1, 2, 3]
    with pytest.raises(AsymmetricTheta):
        hilbert.shadow_measure_check(sl2, mu, phi, 1.0, 1.0, 3, "so", theta=())
