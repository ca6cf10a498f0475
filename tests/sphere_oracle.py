"""List-based per-sphere estimators over one array of values per sphere.

The reference for the estimators in ``pslab.patterson``, which read one
array of per-row values and the ball's sphere offsets: they must reproduce
these per-sphere sums, slopes and estimates bit for bit.
"""

import math

import numpy as np

from pslab.errors import WindowEmpty
from pslab.patterson import WINDOW_DROP_HIGH, WINDOW_DROP_LOW, ExponentEstimate


def sphere_sums_reference(values_by_sphere, s):
    """Per-sphere sums of exp(-s * v) and their outer-half log-slope."""
    sums = np.array([np.exp(-s * v).sum() for v in values_by_sphere])
    inc = sums[1:]
    inc = inc[inc > 0]
    if inc.size < 2:
        return sums, -math.inf
    logs = np.log(inc)
    half = logs[inc.size // 2 :]
    return sums, float(np.mean(np.diff(half))) if half.size >= 2 else float(np.diff(logs)[-1])


def certified_rmax_reference(values_by_sphere, n_max):
    """n_max times the least phi per letter over the non-identity spheres."""
    ratios = [vals.min() / length for length, vals in enumerate(values_by_sphere) if length > 0]
    if not ratios:
        raise WindowEmpty("no non-identity elements enumerated")
    return n_max * min(ratios)


def sphere_regression_reference(values_by_sphere, n_max):
    """Slope of the log orbit counts over the certified window."""
    flat = np.concatenate(values_by_sphere[1:])
    if flat.size == 0:
        raise WindowEmpty("no elements to regress on")
    r_max = certified_rmax_reference(values_by_sphere, n_max)
    flat = np.sort(flat)
    r_lo = max(flat[0], 0.0)
    span = r_max - r_lo
    if span <= 0:
        raise WindowEmpty(f"certified window degenerate (Rmax={r_max:g})")
    lo = r_lo + WINDOW_DROP_LOW * span
    hi = r_max - WINDOW_DROP_HIGH * span
    grid = np.linspace(lo, hi, 40)
    counts = np.searchsorted(flat, grid, side="right")
    keep = counts > 0
    if keep.sum() < 2:
        raise WindowEmpty("certified window contains too few orbit points")
    x = grid[keep]
    y = np.log(counts[keep])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return ExponentEstimate(
        delta_hat=max(float(coef[0]), 0.0),
        method="sphere-regression",
        window=(float(lo), float(hi)),
        residual=resid,
        sample_count=int(flat.size),
    )


def series_transition_reference(values_by_sphere, n_max):
    """Bisect s for the sign change of the per-sphere increment log-slope."""
    def tail_slope(s):
        return sphere_sums_reference(values_by_sphere, s)[1]

    lo, hi = 0.0, 1.0
    while tail_slope(hi) > 0 and hi < 1e3:
        hi *= 2.0
    if tail_slope(lo) <= 0:
        delta = 0.0
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if tail_slope(mid) > 0:
                lo = mid
            else:
                hi = mid
        delta = 0.5 * (lo + hi)
    count = sum(v.size for v in values_by_sphere[1:])
    r_max = certified_rmax_reference(values_by_sphere, n_max)
    return ExponentEstimate(
        delta_hat=delta,
        method="series-transition",
        window=(0.0, float(r_max)),
        residual=abs(tail_slope(delta)),
        sample_count=int(count),
    )
