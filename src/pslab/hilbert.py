"""Hilbert geometry of the Klein disk: shadows and conicality.

The Klein disk is the Hilbert geometry of the unit disk, i.e. the hyperbolic
plane.  Two shipped group families carry an explicit boundary
identification with it ("so" and "sym2").  Orbit points are handled as
unnormalized hyperboloid lifts rather than Klein-chart points, because the
chart gap 1 - |x| underflows at orbit distance ~18; shadows from and to the
basepoint are exact angular windows on the circle, and conicality counts
orbit points near a ray.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels, cartan, matgroup
from .errors import BoundaryPoint, UnsupportedFamily


# ---------------------------------------------------------------------------
# Klein-disk boundary identification for the shipped group families

# Bombieri coordinates (w0, w1, w2) of a binary quadratic to Minkowski
# coordinates (u1, u2, u3) with u1^2 + u2^2 - u3^2 the discriminant form;
# conjugation by this matrix carries symmetric_power_rep(g, 3) into SO(2,1).
C_MINKOWSKI = np.array([
    [0.0, np.sqrt(2.0), 0.0],
    [1.0, 0.0, -1.0],
    [1.0, 0.0, 1.0],
])
C_MINKOWSKI_INV = np.linalg.inv(C_MINKOWSKI)

FAMILIES = ("so", "sym2")
# the radii shadow_constants tries, in order
SHADOW_RADII = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)


def klein_chart(w):
    """Klein-disk points of Minkowski vectors w[..., :3] (orbit lifts or boundary lines)."""
    return w[..., :2] / w[..., 2:]


class KleinFamily:
    """Klein-disk realization of a presentation with an explicit boundary model.

    family "so": 2x2 generators acting on the hyperbolic plane; pushed through
    the symmetric square.  family "sym2": 3x3 generators already in the image
    of the symmetric square (Bombieri coordinates).
    """

    def __init__(self, P, family):
        if family not in FAMILIES:
            raise UnsupportedFamily(f"no boundary identification for {family!r}")
        if family == "so" and P.dimension != 2:
            raise UnsupportedFamily("family 'so' needs a 2x2 presentation")
        if family == "sym2" and P.dimension != 3:
            raise UnsupportedFamily("family 'sym2' needs a 3x3 presentation")
        self.P = P
        self.family = family

    def minkowski_matrix(self, M):
        """SO(2,1) image of one group element or of a (N, d, d) stack."""
        if self.family == "so":
            M = matgroup.symmetric_power_rep(M, 3)
        return C_MINKOWSKI @ M @ C_MINKOWSKI_INV

    def lifted_orbit(self, mats):
        """Unnormalized hyperboloid lifts of the orbit of the basepoint.

        (3,) for one matrix, (N, 3) for a (N, d, d) stack; w[..., 2] is cosh
        d(b0, gamma b0), which unlike the Klein chart stays representable.
        """
        w = self.minkowski_matrix(mats) @ np.array([0.0, 0.0, 1.0])
        return np.where(w[..., 2:] < 0.0, -w, w)

    def ball_lifts(self, ball, f):
        """(lifts, values) of the rows of a walked ball's spheres, block by block from ball.walk.

        lifts holds their lifted_orbit; values holds K @ f for the spliced
        Cartan vector K of each row (matgroup._row_products), or is None
        when f is.
        """
        first, n, walk = ball.first, ball.first + len(ball.offsets) - 2, ball.walk
        start = walk.offsets[first]
        lifts, values = np.empty((len(ball), 3)), None if f is None else np.empty(len(ball))
        for lo, mats, inv_mats in walk:
            part = walk.cut(lo, len(mats), first, n)
            rows = slice(lo + part.start - start, lo + part.stop - start)
            lifts[rows] = self.lifted_orbit(mats[part])
            if f is not None:
                values[rows] = matgroup._row_products(
                    matgroup.batch_kappa(mats[part], inv_mats[part]), f)
        return lifts, values

    def boundary_point(self, frames):
        """Unit-circle images of the lines frames[..., :, 0] of limit flags.

        One (d, d) frame gives a (2,) point, a (N, d, d) stack (N, 2) points.
        """
        v = np.asarray(frames)[..., :, 0]
        if self.family == "so":
            a, b = v[..., 0], v[..., 1]
            u = np.stack([2.0 * a * b, a * a - b * b, a * a + b * b], axis=-1)
        else:
            u = (C_MINKOWSKI @ v[..., None])[..., 0]
        x = klein_chart(np.where(u[..., 2:] < 0.0, -u, u))
        # a dot per row, as np.linalg.norm takes for one vector (shipped CSV bits)
        n = np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0]
        if (n <= 0.0).any():
            raise UnsupportedFamily("flag line does not meet the boundary model")
        return x / n


class SortedBoundaryMeasure:
    """Atomic measure on the unit circle with prefix sums over sorted angles.

    Shadows from the basepoint are exact angular windows, so their masses
    reduce to two binary searches.  The pairwise membership kernels in the
    test suite's shadow oracle are the reference they are checked against.
    """

    def __init__(self, zs, ws):
        angles = np.arctan2(zs[:, 1], zs[:, 0])
        order = np.argsort(angles, kind="stable")
        self.angles = angles[order]
        self.weights = np.asarray(ws, dtype=float)[order]
        self.cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        self.total = float(self.cum[-1])

    def arc_mass(self, a_from, a_to):
        """Mass of the counterclockwise arc from a_from to a_to (radians)."""
        a_from = np.mod(np.asarray(a_from, dtype=float) + np.pi, 2 * np.pi) - np.pi
        a_to = np.mod(np.asarray(a_to, dtype=float) + np.pi, 2 * np.pi) - np.pi
        lo = self.cum[np.searchsorted(self.angles, a_from, side="left")]
        hi = self.cum[np.searchsorted(self.angles, a_to, side="right")]
        return np.where(a_from <= a_to, hi - lo, self.total - (lo - hi))

    def window_mass(self, centers, half_widths):
        return self.arc_mass(centers - half_widths, centers + half_widths)


def _window_half_width(sh, r):
    """Angular half-width of O_r(b0, point at sinh-distance sh); pi for full."""
    s = np.sinh(r + _kernels.TIE)
    return np.where(sh <= s, np.pi, np.arcsin(np.minimum(s / np.maximum(sh, s), 1.0)))


def shadow_masses(sbm, lifts, r):
    """mu-mass of the r-shadow from the basepoint of each lifted orbit point.

    sbm is mu as a SortedBoundaryMeasure.
    """
    sh = np.hypot(lifts[:, 0], lifts[:, 1])
    centers = np.arctan2(lifts[:, 1], lifts[:, 0])
    half = _window_half_width(sh, r)
    out = sbm.window_mass(centers, half)
    return np.where(half >= np.pi, sbm.total, out)


def shadow_masses_to_origin(sbm, lifts, r):
    """mu-mass of O_r(gamma b0, b0) per lifted orbit point.

    sbm is mu as a SortedBoundaryMeasure.  The geodesic from the orbit
    point toward z stays within r of the basepoint iff the angle delta
    between z and the orbit direction satisfies cos(delta) <= c_b, the
    smaller root of the tangency quadratic
    cosh^2(r) c^2 - 2 sinh^2(r) (ch/sh) c + sinh^2(r)(2 + 1/sh^2) - cosh^2(r),
    so each shadow is an exact arc around the antipodal direction.
    """
    sh = np.hypot(lifts[:, 0], lifts[:, 1])
    ch = lifts[:, 2]
    sigma2 = np.sinh(r + _kernels.TIE) ** 2
    chr2 = 1.0 + sigma2
    full = ch <= np.cosh(r + _kernels.TIE)
    sh_safe = np.where(sh > 0.0, sh, 1.0)
    B = sigma2 * ch / sh_safe
    Cq = sigma2 * (2.0 + 1.0 / sh_safe**2) - chr2
    disc = np.maximum(B * B - chr2 * Cq, 0.0)
    c_b = np.clip((B - np.sqrt(disc)) / chr2, -1.0, 1.0)
    half = np.pi - np.arccos(c_b)
    centers = np.arctan2(lifts[:, 1], lifts[:, 0]) + np.pi
    out = sbm.window_mass(centers, half)
    return np.where(full, sbm.total, out)


def shadow_constants(P, mu, n, family):
    """Empirical (R0, eps0): the smallest SHADOW_RADII radius whose shadows
    from the orbit back to the basepoint all carry positive measure, and that
    minimal measure.  The boundary measure is sorted once for every radius."""
    fam = KleinFamily(P, family)
    sbm = SortedBoundaryMeasure(fam.boundary_point(mu.frames), mu.weights)
    lifts, _ = fam.ball_lifts(matgroup.word_spheres(P, n)[1:], None)
    for r in SHADOW_RADII:
        masses = shadow_masses_to_origin(sbm, lifts, r)
        eps0 = float(masses.min())
        if eps0 > 0.0:
            return float(r), eps0
    raise UnsupportedFamily("no grid radius gives uniformly positive shadow mass")


@dataclass
class ShadowRow:
    sphere: int
    count: int
    rho_min: float
    rho_max: float
    spread: float


@dataclass
class ShadowReport:
    r: float
    delta: float
    rows: list
    spread: float  # global max/min


def shadow_measure_check(P, mu, phi, delta, r, n, family, theta=None):
    """Shadow Lemma ratios rho(gamma) = mu(O_r(b0, gamma b0)) * e^{+delta phi(kappa_theta)}.

    Returns per-sphere min/max/spread of rho over the word ball of radius n;
    bounded spread across spheres is the empirical Shadow Lemma constant.
    """
    fam = KleinFamily(P, family)
    f = cartan.theta_covector(phi, theta)
    sbm = SortedBoundaryMeasure(fam.boundary_point(mu.frames), mu.weights)
    ball = matgroup.word_spheres(P, n)[1:]
    lifts, values = fam.ball_lifts(ball, f)
    masses = shadow_masses(sbm, lifts, r)
    rho = masses * np.exp(delta * values)
    rows = []
    for sphere_index, (rh, m) in enumerate(zip(ball.split(rho), ball.split(masses)), 1):
        pos = rh[m > 0.0]
        lo, hi = (float(pos.min()), float(pos.max())) if pos.size else (np.nan, np.nan)
        rows.append(ShadowRow(sphere_index, int(pos.size), lo, hi, hi / lo))
    pos = rho[masses > 0.0]
    return ShadowReport(float(r), float(delta), rows,
                        float(pos.max() / pos.min()) if pos.size else np.nan)


def conicality_score(P, z, r, n, family):
    """Orbit points per word-sphere within Hilbert distance r of the ray [b0, z).

    A non-vanishing tail across spheres is the finite signature of z being an
    r-conical limit point.
    """
    fam = KleinFamily(P, family)
    z = np.asarray(z, dtype=float)
    norm = np.linalg.norm(z)
    if not np.isfinite(norm) or norm == 0.0:
        raise BoundaryPoint(f"conicality direction {z.tolist()} names no boundary point")
    z = z / norm
    ball = matgroup.word_spheres(P, n)[1:]
    dists = _kernels.ray_distances_lifted(fam.ball_lifts(ball, None)[0], z)
    return [int(np.count_nonzero(d < r)) for d in ball.split(dists)]
