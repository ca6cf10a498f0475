"""Closed-geodesic counting and box-counting dimension of sampled limit sets."""

from dataclasses import dataclass

import numpy as np

from . import _kernels, cartan, flags, matgroup, patterson
from .errors import BadIndex, DegenerateScales, WindowEmpty

ZERO_LENGTH_TOLERANCE = 1e-9
SATURATION_FRACTION = 0.40


@dataclass
class CountRow:
    T: float
    count: int
    prediction: float
    ratio: float
    certified: bool


@dataclass
class CountTable:
    rows: list
    delta_hat: float
    t_certified: float
    primitive_only: bool
    unoriented: bool


def class_lengths(P, phi, n, theta=None, primitive_only=False):
    """phi(nu_theta) per conjugacy class representative, lengths <= n.

    Class length uses the Jordan projection (conjugation-invariant); kappa is
    not a class function.  Returns (lengths, reps): reps is the WordBall of
    matgroup.conjugacy_classes, in canonical class order.
    """
    f = cartan.theta_covector(phi, theta)
    reps = matgroup.conjugacy_classes(P, n, primitive_only)
    return cartan.jordan_spliced(reps.mats, reps.inv_mats) @ f, reps


def count_closed_geodesics(P, phi, t_max, n_max=10, theta=None, primitive_only=False,
                           unoriented=False, delta_hat=None):
    """N(T) = #{conjugacy classes with 0 < phi(nu_theta) <= T} against e^{dT}/(dT),
    at 24 evenly spaced T up to t_max.

    Classes come from cyclic words of length <= n_max.  A row at T is
    certified complete when T <= n_max * (minimal per-letter length growth
    observed); beyond that the enumeration may miss classes and the row is
    marked uncertified rather than dropped.
    """
    if t_max <= 0:
        raise BadIndex("t_max must be positive")
    lengths, reps = class_lengths(P, phi, n_max, theta, primitive_only)
    pos = lengths > ZERO_LENGTH_TOLERANCE
    lengths = lengths[pos]
    if lengths.size == 0:
        raise WindowEmpty("no classes of positive length enumerated")
    word_lens = reps.lengths()[pos]
    t_certified = float(n_max * np.min(lengths / word_lens))
    if delta_hat is None:
        delta_hat = patterson.critical_exponent(P, phi, max(n_max, 4), theta).delta_hat
    lengths = np.sort(lengths)
    rows = []
    for T in np.linspace(t_max / 24.0, t_max, 24):
        count = int(np.searchsorted(lengths, T + ZERO_LENGTH_TOLERANCE, side="left"))
        if unoriented:
            count //= 2
        if delta_hat > 0 and T > 0:
            pred = float(np.exp(delta_hat * T) / (delta_hat * T))
            if unoriented:
                pred /= 2.0
        else:
            pred = np.nan
        ratio = count / pred if pred and np.isfinite(pred) else np.nan
        rows.append(CountRow(float(T), count, pred, float(ratio),
                             certified=T <= t_certified))
    return CountTable(rows, float(delta_hat), t_certified,
                      primitive_only, unoriented)


def count_log_slope(table):
    """Regression slope of log N(T) against T over deep certified rows.

    Restricts to the upper 60% of the certified T-range: early rows have
    single-digit counts and a lattice-like N(T) that biases the slope down.
    """
    pts = [(row.T, row.count) for row in table.rows
           if row.certified and row.count > 0]
    if len(pts) < 2:
        raise WindowEmpty("not enough certified rows with positive counts")
    t_hi = max(t for t, _ in pts)
    deep = [(t, c) for t, c in pts if t >= 0.4 * t_hi]
    if len(deep) >= 2:
        pts = deep
    x = np.array([t for t, _ in pts])
    y = np.log([c for _, c in pts])
    return patterson._line_fit(
        x, y, WindowEmpty("log N(T) on the certified T fits no slope (rank 1)"))[0]


@dataclass
class BoxDimension:
    dimension: float
    residual: float
    scales: np.ndarray
    counts: np.ndarray


def _canonical_features(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise BadIndex("points must be a 2-d array of coordinates")
    if not np.isfinite(pts).all():
        raise BadIndex("points must be finite")
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    if not norms.all():
        raise BadIndex("points must be nonzero directions")
    pts = pts / norms
    # antipode identification: fix the sign of the leading nonzero entry
    lead = pts[np.arange(len(pts)), np.argmax(np.abs(pts) > 1e-12, axis=1)]
    pts = pts * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    # dedup + canonical order makes the greedy cover permutation-invariant: the
    # distinct rows sorted as np.unique(pts, axis=0) sorts them, by a stable lexsort
    pts = np.round(pts, 12)
    pts = pts[np.lexsort(pts.T[::-1])]
    return pts[np.concatenate([[True], (pts[1:] != pts[:-1]).any(axis=1)])]


def box_counting_dimension(points, scale_grid=None):
    """Slope of log(cover count) against log(1/scale) by greedy ball covering.

    The rows are projective directions, and the distance of two of them is
    the sine of their line angle (the chordal metric).  Points are
    deduplicated and canonically ordered first.  Raises DegenerateScales
    when the covering saturates at the sample size on more than 40% of the
    scales.
    """
    feats = _canonical_features(points)
    if scale_grid is None:
        scale_grid = np.geomspace(0.3, 0.003, 10)
    scale_grid = np.asarray(scale_grid, dtype=float)
    if scale_grid.size < 5:
        raise BadIndex("scale grid needs at least 5 scales")
    counts = np.array(
        [_kernels.greedy_cover_count(feats, eps) for eps in scale_grid]
    )
    n = len(feats)
    if n > 1:
        saturated = np.count_nonzero(counts >= n)
        if saturated / counts.size > SATURATION_FRACTION:
            raise DegenerateScales(
                f"cover saturates at the sample size on {saturated}/{counts.size} scales"
            )
    slope, resid = patterson._line_fit(
        np.log(1.0 / scale_grid), np.log(counts),
        DegenerateScales("log counts on log(1 / scale) fit no slope (rank 1)"))
    return BoxDimension(slope, resid, scale_grid, counts)


def hausdorff_vs_exponent_experiment(P, n_max, theta=None, scale_grid=None):
    """Pairs the alpha_1 exponent estimate with the sampled limit-set box dimension."""
    theta = cartan.validate_theta(
        theta if theta is not None else {1, P.dimension - 1}, P.dimension
    )
    phi = cartan.Functional.alpha(1, P.dimension)
    est = patterson.critical_exponent(P, phi, n_max, theta)
    samples, skipped, _ = flags.sample_limit_set(P, theta, n_max)
    if not len(samples):
        raise WindowEmpty("limit-set sample is empty")
    lines = np.ascontiguousarray(samples.frame[:, :, 0])
    box = box_counting_dimension(lines, scale_grid)
    return {
        "delta_hat": est.delta_hat,
        "delta_residual": est.residual,
        "box_dimension": box.dimension,
        "box_residual": box.residual,
        "sample_size": len(samples),
        "skipped": skipped,
        "scales": box.scales,
        "counts": box.counts,
    }
