"""Poincare series, critical exponents and Patterson-Sullivan approximants."""

import math
from dataclasses import dataclass

import numpy as np

from . import cartan, cocycle, flags, matgroup
from .errors import (
    ConfigInvalid,
    NegativePhiOnCone,
    SubcriticalS,
    WindowEmpty,
)

# regression window trimming: boundary truncation bias dominates both ends
WINDOW_DROP_LOW = 0.20
WINDOW_DROP_HIGH = 0.10
NEGATIVE_CONE_FRACTION = 0.05
# s must exceed a given exponent estimate by this fraction of it
MIN_S_MARGIN = 0.01
# the largest sphere radius whose limit-set samples the entropy drop separates
SEPARATION_RADIUS = 6
# flag pairs per flag_distance call in the limit-set separation
SEPARATION_CHUNK = 1 << 16


@dataclass
class ExponentEstimate:
    delta_hat: float
    method: str  # "sphere-regression" or "series-transition"
    window: tuple
    residual: float
    sample_count: int


@dataclass
class AtomicMeasure:
    """Finitely supported probability measure on flags (mu_s approximant).

    Atom i has mass weights[i] at the flag with frame frames[i]; it comes
    from the element in row atoms[i] of ball, which keeps the words of its
    rows but not their matrices.
    """

    frames: np.ndarray  # (N, d, d)
    weights: np.ndarray  # (N,)
    atoms: np.ndarray  # (N,) int ball rows, increasing
    ball: matgroup.WordBall
    s: float
    phi: cartan.Functional
    excluded: int = 0

    def total_mass(self):
        return float(self.weights.sum())


def _walk_ball(P, n, f, flag_spheres=-1, theta=None):
    """The radius-n ball and one value per row, plus the flags of the rows of
    spheres 0..flag_spheres (none at -1).

    Returns (ball, values, (frames, ok)): ball holds the words only, and
    values[i] is K @ f for the spliced Cartan vector K of row i, or K itself
    when f is None.  The matrices are spliced (and passed to u_theta) one
    block at a time as the walk writes them, so with a covector f the walk
    keeps one float per row.  ok marks the flag rows passing the gap test and
    frames stacks their U_theta frames in row order.
    """
    walk = matgroup._BallWalk(P, n)
    d = P.dimension
    values = np.empty((walk.rows, d) if f is None else walk.rows)
    flag_rows = matgroup.free_ball_size(P.rank, flag_spheres) if flag_spheres >= 0 else 0
    frames, ok = np.empty((flag_rows, d, d)), np.empty(flag_rows, dtype=bool)
    kept = 0
    for lo, mats, inv_mats in walk:
        K = matgroup.batch_kappa(mats, inv_mats)
        values[lo:lo + len(mats)] = K if f is None else _row_products(K, f)
        part = walk.cut(lo, len(mats), 0, flag_spheres)
        if part.stop:
            F, good = flags.u_theta(mats[part], theta)
            ok[lo:lo + len(good)] = good
            frames[kept:kept + len(F)] = F.frame
            kept += len(F)
    return walk.ball(), values, (frames[:kept], ok)


def _cone_checked(values):
    """The per-row phi(kappa_theta) values of a ball (identity first), checked on the cone.

    Raises NegativePhiOnCone when phi is negative on more than
    NEGATIVE_CONE_FRACTION of the non-identity elements.
    """
    neg = np.count_nonzero(values[1:] < -1e-9)
    if values.size > 1 and neg / (values.size - 1) > NEGATIVE_CONE_FRACTION:
        raise NegativePhiOnCone(
            f"phi negative on {neg}/{values.size - 1} of the sampled cone"
        )
    return values


def _exponent_theta(P, n_max, theta, method):
    """The checked theta of an exponent estimate, before any ball is built."""
    if n_max < 4:
        raise ConfigInvalid("n_max", "must be >= 4")
    if method not in METHODS:
        raise ConfigInvalid("method", f"must be one of {METHODS}, not {method!r}")
    return cartan.validate_theta(theta, P.dimension)


def _require_supercritical(s, delta_hat):
    if delta_hat is not None and s < delta_hat * (1.0 + MIN_S_MARGIN):
        raise SubcriticalS(f"s={s:g} below delta*(1+margin)={delta_hat * (1 + MIN_S_MARGIN):g}")


def _measure_from_flags(phi, s, ball, values, frames, ok):
    """The mu_s approximant from phi(kappa_theta) of the flag rows and their flags.

    The measure keeps the ball's words, not its matrices.
    """
    if not ok.any():
        raise WindowEmpty("every enumerated element failed the gap test")
    raw = values[ok]
    w = np.exp(-s * (raw - raw.min()))
    w /= w.sum()
    return AtomicMeasure(frames, w, np.flatnonzero(ok), ball, float(s), phi,
                         int(np.count_nonzero(~ok)))


def _exponent_and_measure(P, phi, n_max, n, theta, s_of_delta):
    """The exponent estimate at radius n_max and mu_s over the radius-n ball, n <= n_max.

    One spliced ball serves both; s is s_of_delta(delta_hat) and must be
    supercritical for that estimate.
    """
    theta = _exponent_theta(P, n_max, theta, "sphere-regression")
    ball, values, (frames, ok) = _walk_ball(P, n_max, cartan.theta_covector(phi, theta), n, theta)
    est = _sphere_regression(_cone_checked(values), ball.offsets, n_max)
    s = s_of_delta(est.delta_hat)
    _require_supercritical(s, est.delta_hat)
    return est, _measure_from_flags(phi, s, ball[:n + 1], values[:len(ok)], frames, ok)


def _sphere_sums(values, offsets, s):
    """Per-sphere sums of exp(-s * v) and their outer-half log-slope.

    ``values`` holds one value per ball row, and sphere j is rows
    offsets[j]:offsets[j + 1].  The slope is the mean log increment over the
    outer half of the non-identity spheres that carry mass, or -inf when
    fewer than two do.
    """
    terms = np.exp(-s * values)
    # reduceat adds a segment as t[0] + (t[1] + ...), while ndarray.sum adds
    # fewer than 8 elements left to right and more pairwise; the two agree on
    # spheres of up to two rows, so longer ones are summed one by one
    sums = np.add.reduceat(terms, offsets[:-1])
    for j in np.flatnonzero(np.diff(offsets) > 2):
        sums[j] = terms[offsets[j]:offsets[j + 1]].sum()
    inc = sums[1:]
    inc = inc[inc > 0]
    if inc.size < 2:
        return sums, -math.inf
    logs = np.log(inc)
    half = logs[inc.size // 2 :]
    return sums, float(np.mean(np.diff(half))) if half.size >= 2 else float(np.diff(logs)[-1])


def _certified_rmax(values, offsets, n_max):
    """R up to which the word ball provably exhausts the phi-sublevel set.

    Uses the minimal observed per-letter displacement m = min phi/|word|;
    the ball of radius n_max then contains every element below n_max * m.
    """
    if len(offsets) < 3:
        raise WindowEmpty("no non-identity elements enumerated")
    lengths = np.arange(1, len(offsets) - 1)
    return n_max * (np.minimum.reduceat(values, offsets[1:-1]) / lengths).min()


def _sphere_regression(values, offsets, n_max):
    flat = values[offsets[1]:]
    if flat.size == 0:
        raise WindowEmpty("no elements to regress on")
    r_max = _certified_rmax(values, offsets, n_max)
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


def _series_transition(values, offsets, n_max):
    """Bisect s for the sign change of the per-sphere increment log-slope."""
    def tail_slope(s):
        return _sphere_sums(values, offsets, s)[1]

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
    count = len(values) - offsets[1]
    r_max = _certified_rmax(values, offsets, n_max)
    return ExponentEstimate(
        delta_hat=delta,
        method="series-transition",
        window=(0.0, float(r_max)),
        residual=abs(tail_slope(delta)),
        sample_count=int(count),
    )


METHODS = ("sphere-regression", "series-transition", "both")


def critical_exponent(P, phi, n_max, theta=None, method="sphere-regression"):
    """Estimate the phi-critical exponent from the word ball of radius n_max.

    ``method`` is "sphere-regression" (slope of log-counts against R over the
    certified-complete window), "series-transition" (bisect the divergence/
    convergence transition of the partial sums), or "both".
    """
    theta = _exponent_theta(P, n_max, theta, method)
    ball, values, _ = _walk_ball(P, n_max, cartan.theta_covector(phi, theta))
    values, offsets = _cone_checked(values), ball.offsets
    del ball  # the estimators read the values and sphere offsets, not the words
    if method == "sphere-regression":
        return _sphere_regression(values, offsets, n_max)
    if method == "series-transition":
        return _series_transition(values, offsets, n_max)
    return (_sphere_regression(values, offsets, n_max),
            _series_transition(values, offsets, n_max))


def patterson_measure(P, phi, s, n, theta=None, delta_hat=None):
    """Atomic mu_s approximant: atoms at U_theta(gamma), weights ~ e^{-s phi}.

    Requires s to sit above the critical exponent estimate when one is given
    (supercriticality keeps the normalization meaningful).
    """
    theta = cartan.validate_theta(theta, P.dimension)
    _require_supercritical(s, delta_hat)
    ball, values, (frames, ok) = _walk_ball(P, n, cartan.theta_covector(phi, theta), n, theta)
    return _measure_from_flags(phi, s, ball, _cone_checked(values), frames, ok)


def outer_sphere_restriction(mu):
    """Restriction of an atomic measure to its outermost word sphere.

    Keeps the atoms of the maximum word length present and renormalizes.
    The restricted approximant is depth self-similar: every shadow at probe
    depth is filled by atoms from a single sphere, so shadow-mass ratios
    carry no ball-truncation drift.
    """
    lengths = mu.ball.lengths()[mu.atoms]
    keep = lengths == lengths.max()
    w = mu.weights[keep]
    # cumsum adds left to right (w.sum() adds pairwise); the shipped
    # shadow-check CSV depends on this rounding
    return AtomicMeasure(mu.frames[keep], w / np.cumsum(w)[-1], mu.atoms[keep], mu.ball,
                         mu.s, mu.phi, mu.excluded)


def quasi_invariance_residual(P, phi, alpha_word, s, n, theta=None):
    """Defect between weight-ratio exponents and the Iwasawa cocycle value.

    For gamma on each sphere, r(gamma) = |phi(kappa_theta(alpha^-1 gamma))
    - phi(kappa_theta(gamma)) - phi(B_theta(alpha^-1, U_theta(gamma)))|;
    vanishing residuals in the limit give the e^{-s phi(B)} density.
    Elements failing the singular-gap test are left out.  Returns a list of
    per-sphere dicts with min/median/max.  s is not used.  The ball is walked
    block by block, and only the per-row residuals are kept.
    """
    theta = cartan.validate_theta(theta, P.dimension)
    alpha_mat = P.word_matrix(tuple(alpha_word))
    alpha_inv = P.word_matrix(matgroup.invert_word(tuple(alpha_word)))
    f = cartan.theta_covector(phi, theta)
    walk = matgroup._BallWalk(P, n)
    residuals = np.full(walk.rows, np.nan)
    ok = np.zeros(walk.rows, dtype=bool)
    for lo, mats, inv_mats in walk:
        part = walk.cut(lo, len(mats), 1, n)
        mats, inv_mats = mats[part], inv_mats[part]
        # spliced batch kappa: the direct SVD of a deep product loses the
        # small singular values, which would swamp the residual
        base = _row_products(matgroup.batch_kappa(mats, inv_mats), f)
        shifted = _row_products(matgroup.batch_kappa(alpha_inv @ mats, inv_mats @ alpha_mat), f)
        F, good = flags.u_theta(mats, theta)
        rows = slice(lo + part.start, lo + part.stop)
        ok[rows] = good
        residuals[rows][good] = np.abs(shifted[good] - base[good]
                                       - phi(cocycle.iwasawa(alpha_inv, F)))
    residuals, ok, ball = residuals[1:], ok[1:], walk.ball()[1:]
    stats = []
    for j, (arr, keep) in enumerate(zip(ball.split(residuals), ball.split(ok)), 1):
        arr = arr[keep]
        if arr.size:
            stats.append(
                {
                    "sphere": j,
                    "min": float(arr.min()),
                    "median": float(np.median(arr)),
                    "max": float(arr.max()),
                    "count": int(arr.size),
                }
            )
    return stats


def _row_products(K, f):
    """K @ f for the rows of K, each with the bits of one product over a longer stack.

    numpy multiplies a single row by f as a dot product and two or more rows
    by gemv, which may round differently; so a block of one row is
    multiplied as two.
    """
    if len(K) == 1:
        return (np.repeat(K, 2, axis=0) @ f)[:1]
    return K @ f


def subgroup_presentation(P, words):
    """Presentation generated by the matrices of the given words of P, freely reduced."""
    words = [matgroup.reduce_word(w) for w in words]
    mats = [P.word_matrix(w) for w in words]
    labels = [P.word_label(w) for w in words]
    return matgroup.GroupPresentation(P.dimension, mats, labels=labels)


def entropy_drop_experiment(P, subgroup_words, phi, n_max, theta=None):
    """Exponent estimates for Gamma and a subgroup, plus limit-set separation.

    Separation is the one-sided Hausdorff excess of the ambient limit-set
    sample over the subgroup sample in flag_distance (positive when the
    subgroup limit set is a proper subset).
    """
    theta = cartan.validate_theta(theta, P.dimension)
    P0 = subgroup_presentation(P, subgroup_words)
    est = critical_exponent(P, phi, n_max, theta)
    est0 = critical_exponent(P0, phi, n_max, theta)
    sep_n = min(n_max, SEPARATION_RADIUS)
    amb, _, _ = flags.sample_limit_set(P, theta, sep_n)
    sub, _, _ = flags.sample_limit_set(P0, theta, sep_n)
    return {
        "delta_ambient": est,
        "delta_subgroup": est0,
        "gap": est.delta_hat - est0.delta_hat,
        "limit_set_separation": limit_set_separation(amb, sub),
    }


def limit_set_separation(F, G):
    """max over flags f of F of min over flags g of G of flag_distance(f, g).

    F and G are flag stacks; 0.0 when either is empty.  The pairs are taken
    SEPARATION_CHUNK at a time.
    """
    if not (len(F) and len(G)):
        return 0.0
    rows = max(1, SEPARATION_CHUNK // len(G))
    return float(max(flags.flag_distance(F[i:i + rows, None], G).min(axis=1).max()
                     for i in range(0, len(F), rows)))


def concavity_experiment(P, phi1, phi2, lambdas, n_max, theta=None):
    """delta-hat across the segment between two normalized functionals.

    Both inputs are rescaled in-tool so their exponents are 1 (scaling phi by
    c scales delta by 1/c); concavity of the exponent then predicts values
    <= 1 along the segment.
    """
    theta = _exponent_theta(P, n_max, theta, "sphere-regression")
    # one ball of Cartan vectors serves every phi
    ball, K, _ = _walk_ball(P, n_max, None)

    def fit(phi):
        values = _cone_checked(K @ cartan.theta_covector(phi, theta))
        return _sphere_regression(values, ball.offsets, n_max)

    d1 = fit(phi1).delta_hat
    d2 = fit(phi2).delta_hat
    if d1 <= 0 or d2 <= 0:
        raise WindowEmpty("cannot normalize a vanishing exponent")
    n1, n2 = phi1 * d1, phi2 * d2
    rows = []
    for lam in lambdas:
        est = fit(lam * n1 + (1.0 - lam) * n2)
        rows.append({"lambda": float(lam), "delta_hat": est.delta_hat,
                     "residual": est.residual})
    return {"delta_phi1": d1, "delta_phi2": d2, "rows": rows}
