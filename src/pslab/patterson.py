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
    excluded: int

    def total_mass(self):
        return float(self.weights.sum())


def _walk_ball(P, n, f, flag_spheres=-1, theta=None):
    """The walk of the radius-n ball and one value per row, plus the flags of
    the rows of spheres 0..flag_spheres (none at -1).

    Returns (walk, values, (frames, ok)): walk is the walked _BallWalk, whose
    ``offsets`` are the sphere offsets and whose ``ball()`` makes the
    WordBall for the callers that read words.  values[i] is K @ f for
    the spliced Cartan vector K of row i, or K itself when f is None.  The
    matrices are spliced (and passed to u_theta) one block at a time as the
    walk writes them, so with a covector f the walk keeps one float per row.
    ok marks the flag rows passing the gap test and frames stacks their
    U_theta frames in row order.  The walk's blocks need not come in row
    order (a sphere may be handed out between the blocks of the one
    before), so a block's frames are written from its first row, and moved
    down over the failed rows once the walk is done, block by block in row
    order.
    """
    walk = matgroup._BallWalk(P, n)
    d = P.dimension
    values = np.empty((walk.rows, d) if f is None else walk.rows)
    flag_rows = matgroup.free_ball_size(P.rank, flag_spheres) if flag_spheres >= 0 else 0
    frames, ok = np.empty((flag_rows, d, d)), np.empty(flag_rows, dtype=bool)
    parts = []  # (first row, frames) of each block's flags
    for lo, mats, inv_mats in walk:
        K = matgroup.batch_kappa(mats, inv_mats)
        values[lo:lo + len(mats)] = K if f is None else matgroup._row_products(K, f)
        part = walk.cut(lo, len(mats), 0, flag_spheres)
        if part.stop:
            F, good = flags.u_theta(mats[part], inv_mats[part], theta)
            ok[lo:lo + len(good)] = good
            frames[lo:lo + len(F)] = F.frame
            parts.append((lo, len(F)))
    kept = 0
    for lo, count in sorted(parts):
        # at most lo frames are kept before row lo, so the move overwrites
        # no block still to be read (numpy buffers an overlapping copy)
        frames[kept:kept + count] = frames[lo:lo + count]
        kept += count
    return walk, values, (frames[:kept], ok)


# a 2x2 row's value is c s to within VALUE_ULPS eps g (1 + s), for
# s = log sigma_1(A) + log sigma_1(A_inv) >= 0, c = (f[0] - f[1]) / 2 and
# g = |f[0]| + |f[1]| (see _far_cut).  The kernel's sigma_1 (dgesdd's 2x2
# steps, backward stable) is within 32 ulps, which the two logs turn into
# 32 eps each; their own rounding (4 ulps), splice's three and the two of
# the product with f add under 4 eps s.  So the error is at most
# g eps (32 + 4 s), under half of this bound
VALUE_ULPS = 64


def _squared_norms(mats):
    """The squared Frobenius norms of a stack of 2x2 matrices, each within 4 roundings."""
    flat = mats.reshape(len(mats), 4)
    return np.square(flat) @ np.ones(4)


def _near_rows(mats, inv_mats, cut):
    """The rows of a 2x2 block that _far_cut's bound cut leaves in the window.

    A row is left out where a b > cut for the squared norms a, b of its
    product and inverse product, each at least 2 (1 + 4 eps); a NaN norm
    keeps its row.
    """
    a, b = _squared_norms(mats), _squared_norms(inv_mats)
    far = np.minimum(a, b) >= 2 * (1 + 4 * np.finfo(float).eps)
    far &= np.multiply(a, b, out=a) > cut
    return np.flatnonzero(~far)


def _window_top(least, n):
    """The bound above which a value reaches none of the regression's grid points, or inf.

    least holds the least values of spheres 0..len(least) - 1 of the
    radius-n ball, the spheres that the walk's first block holds whole.  R =
    n min_k least[k] / k over its spheres k >= 1 is at least the certified
    radius r_max.  _sphere_regression reads no value above r_max but through
    the least value of each sphere and of the ball: a value v > R (1 + 4 eps)
    is above every grid point, and v / k >= R / n leaves the least value of
    the ball and the certified radius as they are.  So such a value may be
    left out of the values the regression reads.

    Returns R (1 + 4 eps), or inf unless least holds a non-identity sphere
    and R > 0.
    """
    if len(least) < 2:
        return math.inf
    R = _certified_rmax(least, n)
    return R * (1 + 4 * np.finfo(float).eps) if R > 0 else math.inf


def _far_cut(top, f):
    """The least product of squared norms past which a 2x2 row's value is above top.

    top is _window_top's bound, so such a row is above the regression's
    window and may be left out.  For a 2x2 M, sigma_1(M)^2 >= |M|_F^2 / 2.
    So where the computed squared norms a, b of A and A_inv are at least
    2 (1 + 4 eps), both log sigma_1 are >= 0 and their sum s is >= log(a b /
    4) / 2, up to the rounding of a and b.  A value is within err (1 + s) of
    c s, err = VALUE_ULPS eps g, so it exceeds top once s > s_cut = (top +
    err) / (c - err).  The slack in the returned cut T covers the rounding
    of s_cut and of T (a relative error of a few eps, which the exponent
    turns into one of 2 s_cut times that) and of a b (9 roundings): a b > T
    gives s > s_cut.

    Returns inf, which cuts no row, unless d = 2, c > 2 err and top < inf.
    """
    if len(f) != 2 or not top < math.inf:
        return math.inf
    eps = np.finfo(float).eps
    c, err = (f[0] - f[1]) / 2, VALUE_ULPS * eps * (abs(f[0]) + abs(f[1]))
    if not c > 2 * err:
        return math.inf
    s_cut = (top + err) / (c - err)
    arg = 2 * s_cut * (1 + 16 * eps) + 32 * eps
    return 4 * math.exp(arg) if arg < 700 else math.inf


def _window_values(P, n, f):
    """What the sphere regression reads of the radius-n ball: (values, least, rows).

    values is a list of per-block arrays, in no stated order, of the values
    of non-identity rows: of every such row that can reach the regression's
    window.  least[k] is the least value of sphere k over the rows it keeps
    (inf where it keeps none), and rows is the ball's row count.

    Every row of the first block is spliced.  Past it, a row of a 2x2 ball
    whose squared norms exceed _far_cut's bound lies above the window and is
    left out, and only the other rows are spliced.  They keep the bits that
    _walk_ball gives them, since the kernel, the splice and _row_products
    work row by row.  A block may span several spheres (the first block,
    and every block of a rank-1 walk), so its least values are taken
    sphere by sphere.  After that, for any d, a block keeps only its values
    at most _window_top of the first block's whole spheres: the others are
    above every grid point and not negative, so neither the counts nor the
    cone check read them.
    """
    walk = matgroup._BallWalk(P, n)
    offsets = walk.offsets
    least = np.full(n + 1, np.inf)
    parts, cut, top = [], math.inf, math.inf
    for lo, mats, inv_mats in walk:
        count = len(mats)
        near = _near_rows(mats, inv_mats, cut) if cut < math.inf else None
        # a block that keeps more than half its rows is spliced whole, so the
        # copy of the kept rows' products is at most half a block
        if near is not None and 2 * len(near) <= count:
            mats, inv_mats = mats.take(near, 0), inv_mats.take(near, 0)
        else:
            near = None
        values = matgroup._row_products(matgroup.batch_kappa(mats, inv_mats), f)
        # the spheres k, k + 1, ... that meet the block, and where each starts
        # in values; one whose rows the block all leaves out is not lowered
        k = np.searchsorted(offsets, lo, "right") - 1
        starts = np.maximum(offsets[k:np.searchsorted(offsets, lo + count)] - lo, 0)
        if near is not None:
            starts = np.searchsorted(near, starts)
        some = starts < np.append(starts[1:], len(values))
        spheres = least[k:k + len(starts)]
        spheres[some] = np.minimum(spheres[some], np.minimum.reduceat(values, starts[some]))
        if lo == 0:
            whole = least[:np.searchsorted(offsets, count, "right") - 1]
            top = _window_top(whole, n)
            cut = _far_cut(top, f)
            values = values[1:]
        # values above top reach no grid point (see _window_top)
        above = values > top
        if above.any():
            values = values[~above]
        parts.append(values)
    return parts, least, walk.rows


def _check_cone(values, rows, f):
    """Check phi(kappa_theta) = kappa @ f on the cone of a ball of `rows` rows.

    values is a list of arrays that hold the values of the ball's
    non-identity rows, or of all of them that may be negative.  Raises
    NegativePhiOnCone when phi is below -1e-9 |f|_1, a rounding allowance
    that scales as the values do, on more than NEGATIVE_CONE_FRACTION of the
    non-identity elements.
    """
    tol = -1e-9 * np.abs(f).sum()
    neg = sum(np.count_nonzero(part < tol) for part in values)
    if rows > 1 and neg / (rows - 1) > NEGATIVE_CONE_FRACTION:
        raise NegativePhiOnCone(f"phi negative on {neg}/{rows - 1} of the sampled cone")


def _cone_checked(values, f):
    """The per-row phi(kappa_theta) values of a ball (identity first), checked by _check_cone."""
    _check_cone([values[1:]], values.size, f)
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
    f = cartan.theta_covector(phi, theta)
    walk, values, (frames, ok) = _walk_ball(P, n_max, f, n, theta)
    ball = walk.ball()
    est = _sphere_regression(*_regression_input(_cone_checked(values, f), ball.offsets), n_max)
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


def _certified_rmax(least, n_max):
    """R up to which the word ball provably exhausts the phi-sublevel set.

    least[k] is the least value of sphere k.  Uses the minimal observed
    per-letter displacement m = min phi/|word|; the ball of radius n_max
    then contains every element below n_max * m.
    """
    if len(least) < 2:
        raise WindowEmpty("no non-identity elements enumerated")
    return n_max * (least[1:] / np.arange(1, len(least))).min()


def _line_fit(x, y, degenerate):
    """(slope, RMS residual) of the least-squares line through (x, y); raises degenerate at rank 1."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < 2:
        raise degenerate
    return float(coef[0]), float(np.sqrt(np.mean((A @ coef - y) ** 2)))


def _regression_input(values, offsets):
    """_sphere_regression's (values, least, rows) of one value per ball row (identity first)."""
    return [values[1:]], np.minimum.reduceat(values, offsets[:-1]), len(values)


def _sphere_regression(values, least, rows, n_max):
    """The slope of log N(R) on R over the certified window of a ball of `rows` rows.

    values is a list of arrays, in any order, of the values of the ball's
    non-identity rows, or of all of them that can reach the window
    (_window_values); least[k] is the least value of sphere k.  Rows left
    out lie above the window, so they are not counted.
    """
    if rows < 2:
        raise WindowEmpty("no elements to regress on")
    r_max = _certified_rmax(least, n_max)
    r_lo = max(least[1:].min(), 0.0)
    span = r_max - r_lo
    if span <= 0:
        raise WindowEmpty(f"certified window degenerate (Rmax={r_max:g})")
    lo = r_lo + WINDOW_DROP_LOW * span
    hi = r_max - WINDOW_DROP_HIGH * span
    grid = np.linspace(lo, hi, 40)
    # counts[i] = #{v <= grid[i]}, with no sorted copy of the values: bins[i]
    # counts the values in (grid[i - 1], grid[i]], a block of values at a time
    bins = np.zeros(grid.size + 1, dtype=np.intp)
    for part in values:
        for i in range(0, part.size, matgroup.BLOCK_ROWS):
            bins += np.bincount(np.searchsorted(grid, part[i:i + matgroup.BLOCK_ROWS]),
                                minlength=grid.size + 1)
    counts = np.cumsum(bins[:-1])
    keep = counts > 0
    if keep.sum() < 2:
        raise WindowEmpty("certified window contains too few orbit points")
    slope, resid = _line_fit(grid[keep], np.log(counts[keep]), WindowEmpty(
        f"log N(R) on R in [{lo:.3g}, {hi:.3g}] fits no slope (rank 1)"))
    return ExponentEstimate(
        delta_hat=max(slope, 0.0),
        method="sphere-regression",
        window=(float(lo), float(hi)),
        residual=resid,
        sample_count=int(rows - 1),
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
    r_max = _certified_rmax(np.minimum.reduceat(values, offsets[:-1]), n_max)
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

    The sphere regression of a 2x2 ball splices the walk's first block, and
    after it only the rows whose product and inverse product have squared
    Frobenius norms small enough that their value may lie below R = n_max
    min_k (least value of sphere k) / k over that block's whole spheres
    (_window_values).  It keeps those values, the least value of each
    sphere and the row count, and no array of one value per row.  R is at
    least the certified radius, so the rows left out lie above the
    regression's grid and move neither the certified radius nor the least
    value of the ball: the counts, the window, the fit and sample_count are
    the numbers that splicing every row gives, bit for bit.
    Series-transition and "both" read every value, and d >= 3, whose middle
    Cartan entry no norm bounds, splices every row.
    """
    theta = _exponent_theta(P, n_max, theta, method)
    f = cartan.theta_covector(phi, theta)
    # the estimators read values and spheres: no words are made
    if method == "sphere-regression":
        values, least, rows = _window_values(P, n_max, f)
        _check_cone(values, rows, f)
        return _sphere_regression(values, least, rows, n_max)
    walk, values, _ = _walk_ball(P, n_max, f)
    values, offsets = _cone_checked(values, f), walk.offsets
    if method == "series-transition":
        return _series_transition(values, offsets, n_max)
    return (_sphere_regression(*_regression_input(values, offsets), n_max),
            _series_transition(values, offsets, n_max))


def patterson_measure(P, phi, s, n, theta=None, delta_hat=None):
    """Atomic mu_s approximant: atoms at U_theta(gamma), weights ~ e^{-s phi}.

    Requires s to sit above the critical exponent estimate when one is given
    (supercriticality keeps the normalization meaningful).
    """
    theta = cartan.validate_theta(theta, P.dimension)
    _require_supercritical(s, delta_hat)
    f = cartan.theta_covector(phi, theta)
    walk, values, (frames, ok) = _walk_ball(P, n, f, n, theta)
    return _measure_from_flags(phi, s, walk.ball(), _cone_checked(values, f), frames, ok)


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
        base = matgroup._row_products(matgroup.batch_kappa(mats, inv_mats), f)
        shifted = matgroup._row_products(
            matgroup.batch_kappa(alpha_inv @ mats, inv_mats @ alpha_mat), f)
        F, good = flags.u_theta(mats, inv_mats, theta)
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

    F and G are flag stacks; 0.0 when either is empty.  The rows of F that
    can hold the maximum (every row for d >= 3, _line_candidates for d = 2)
    are paired with every row of G, SEPARATION_CHUNK pairs at a time; the
    other rows are not read, so the result has the bits of the all-pairs
    maximum.
    """
    if not (len(F) and len(G)):
        return 0.0
    rows = _line_candidates(F, G) if F.dimension == 2 else np.arange(len(F))
    step = max(1, SEPARATION_CHUNK // len(G))
    # np.max, like the all-pairs maximum and unlike max, keeps a NaN of any chunk
    return float(np.max([flags.flag_distance(F[rows[i:i + step], None], G).min(axis=1).max()
                         for i in range(0, len(rows), step)]))


def _line_candidates(F, G):
    """The rows of the d = 2 flag stack F whose distance to G may be the largest.

    A d = 2 flag is a line, and flag_distance is the sine of the angle t
    between two lines, which grows with t in [0, pi / 2].  So the line of G
    nearest a row f is one of f's two neighbours among G's line angles,
    sorted mod pi (cyclically, across the wrap at 0 / pi), up to the
    rounding of the angles (under 1e-15).  The lesser flag_distance b of f
    to those two is then within 2 e of f's least distance D over G, where e
    bounds the error of one computed distance.  With the squared norms of
    the frames' lines measured to lie within nu of 1 (so truly within
    nu + 2 eps), the computed pairing s is within 2 nu + 6 eps of cos t,
    1 - s^2 within 4 nu + 13 eps of sin^2 t, and its square root within the
    root of that: e is 2 sqrt(nu + 3.25 eps) and a rounding, 5.4e-8 at
    nu = 0 (the cancellation of sqrt(1 - s^2) near 0).  The margin
    8 sqrt(nu + 8 eps) + 64 eps, at least 1e-7, covers 4 e and the angles:
    a row whose b is below max(b) - margin has a D below another row's D,
    and is left out.  Every row is a candidate where the frames are not
    finite.
    """
    f, g = F.frame[:, :, 0], G.frame[:, :, 0]
    lines = np.arctan2(g[:, 1], g[:, 0]) % np.pi
    # the stable sort is the one the library's other argsorts run; the
    # default quicksort maps numpy's SIMD sort code, which added about
    # 128 kB of resident pages to a run (numpy 2.4, x86-64)
    order = np.argsort(lines, kind="stable")
    after = np.searchsorted(lines[order], np.arctan2(f[:, 1], f[:, 0]) % np.pi)
    near = np.minimum(flags.flag_distance(F, G[order[after - 1]]),
                      flags.flag_distance(F, G[order[after % len(G)]]))
    eps = np.finfo(float).eps
    # np.max, unlike max, keeps a NaN of either stack
    nu = np.max([np.abs(np.square(v) @ np.ones(2) - 1.0).max() for v in (f, g)])
    margin = 8 * math.sqrt(nu + 8 * eps) + 64 * eps
    if not margin < 1:
        return np.arange(len(F))
    return np.flatnonzero(near >= near.max() - margin)


def concavity_experiment(P, phi1, phi2, lambdas, n_max, theta=None):
    """delta-hat across the segment between two normalized functionals.

    Both inputs are rescaled in-tool so their exponents are 1 (scaling phi by
    c scales delta by 1/c); concavity of the exponent then predicts values
    <= 1 along the segment.
    """
    theta = _exponent_theta(P, n_max, theta, "sphere-regression")
    # one ball of Cartan vectors serves every phi
    walk, K, _ = _walk_ball(P, n_max, None)

    def fit(phi):
        f = cartan.theta_covector(phi, theta)
        return _sphere_regression(*_regression_input(_cone_checked(K @ f, f), walk.offsets),
                                  n_max)

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
