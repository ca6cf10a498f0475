"""Hot numeric kernels, in numpy.

Kernels:
  * ray_distances_lifted - distances from hyperboloid lifts to a ray from the
    origin
  * batch_log_singular_values - log singular values of a stack of matrices.
    A (N, 2, 2) stack does not call LAPACK: the kernel repeats, row by row in
    numpy, what LAPACK's dgesdd does to one 2x2 matrix (a dlarfg reflection
    of column 1, the dlarf update of column 2 with its fused multiply-add
    emulated exactly, then dlas2), so every value has LAPACK's bits.  LAPACK
    still takes larger matrices, and the 2x2 rows where those steps are not
    exact: non-finite entries, a largest |entry| outside [2**-459, 2**459]
    (dgesdd rescales those), a nonzero first column of norm below 2**-969
    (dlarfg rescales it) and a fused product that underflows.
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
#
# On one 2x2 matrix, dgesdd(JOBZ='N') runs dgebd2, which reflects column 1
# (dlarfg) and applies the reflector to column 2 (dlarf), leaving the upper
# bidiagonal (d1, e1; 0, d2); dbdsdc hands that, through dlasdq, dbdsqr and
# dlasq1, to dlas2.
# Each of these steps is one IEEE operation, except that OpenBLAS's dger
# kernel fuses the multiply-add that gives d2, which _fma reproduces.  The
# exactness tests hold the result to the installed LAPACK's bits (checked
# with OpenBLAS 0.3.31 on x86-64); a BLAS whose dger does not fuse would
# round d2 differently.

# dgesdd rescales A when its largest entry lies outside [SMLNUM, BIGNUM]:
# SMLNUM = sqrt(dlamch('S')) / dlamch('P')
_SMLNUM = 2.0**-459
_BIGNUM = 2.0**459
# dlarfg rescales a column whose norm is below dlamch('S') / dlamch('E')
_SAFMIN = 2.0**-969
# _fma is exact unless a nonzero product a * b falls below this
_FMA_TINY = 2.0**-967
# Veltkamp's constant: splits a double into two 26-bit halves
_SPLIT = 2.0**27 + 1.0
# rows per pass of the 2x2 kernel, which keeps its temporaries small
_CHUNK = 4096


def _two_sum(a, b):
    """(s, e): s = fl(a + b) and s + e == a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _two_product(a, b):
    """(p, e): p = fl(a * b) and p + e == a * b exactly (Dekker's TwoProduct).

    Exact while the product neither overflows nor underflows.
    """
    p = a * b
    g = _SPLIT * a
    ah = g - (g - a)
    al = a - ah
    g = _SPLIT * b
    bh = g - (g - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fma(a, b, c):
    """a * b + c rounded once, elementwise, without a hardware FMA.

    Boldo & Melquiond, "Emulation of FMA and correctly rounded sums: proved
    algorithms using rounding to odd" (IEEE TC 2008): the low parts of the
    exact a * b + c are summed rounded to odd, so that adding them to the
    high part rounds once.  Exact where a * b is zero or at least _FMA_TINY
    in magnitude, and nothing overflows.
    """
    uh, ul = _two_product(a, b)
    th, tl = _two_sum(c, uh)
    v, err = _two_sum(tl, ul)
    # round to odd: of the two doubles around an inexact sum, take the one
    # with an odd last bit, which is the sum rounded toward zero with its
    # last bit set.  v is the sum rounded to nearest and err the exact rest,
    # so the sum rounded toward zero is v, or the double one step nearer
    # zero when err and v differ in sign
    bits = v.view(np.int64)
    inexact = err != 0
    bits = (bits - (inexact & (np.signbit(err) != np.signbit(v)))) | inexact
    return th + bits.view(np.float64)


def _dlas2(f, g, h, out):
    """LAPACK dlas2: singular values of the upper triangle (f, g; 0, h), into out (n, 2).

    out[:, 0] is the larger.  The two main branches are evaluated on every
    row (the floating point warnings of the unused one are off) and the taken
    one kept; the rare fhmn == 0 branch is evaluated on its own rows.
    """
    fa, ga, ha = np.abs(f), np.abs(g), np.abs(h)
    fhmn, fhmx = np.minimum(fa, ha), np.maximum(fa, ha)
    as_ = 1.0 + fhmn / fhmx
    at = (fhmx - fhmn) / fhmx
    # ga < fhmx
    au = ga / fhmx
    au = au * au
    c = 2.0 / (np.sqrt(as_ * as_ + au) + np.sqrt(at * at + au))
    min_b, max_b = fhmn * c, fhmx / c
    # ga >= fhmx
    au = fhmx / ga
    p, q = as_ * au, at * au
    c = 1.0 / (np.sqrt(1.0 + p * p) + np.sqrt(1.0 + q * q))
    min_c = (fhmn * c) * au
    # dlas2 gives (fhmn * fhmx) / ga and ga where au underflows to 0; with
    # entries in range ga < 2**462, so there fhmx < 2**-613, fhmn * fhmx is
    # 0 as min_c is, and ga / (c + c) is ga
    narrow = ga < fhmx
    out[:, 0] = np.where(narrow, max_b, ga / (c + c))
    out[:, 1] = np.where(narrow, min_b, min_c + min_c)
    # fhmn == 0
    rows = fhmn == 0
    if rows.any():
        fhmx, ga = fhmx[rows], ga[rows]
        big, small = np.maximum(fhmx, ga), np.minimum(fhmx, ga)
        ratio = small / big
        out[rows, 0] = np.where(fhmx == 0, ga, big * np.sqrt(1.0 + ratio * ratio))
        out[rows, 1] = 0.0


def _bidiagonal_2x2(x):
    """dgebd2's upper bidiagonal (d1, e1; 0, d2) of each row of the (n, 2, 2) stack x.

    Returns (d1, e1, d2, lapack): lapack marks the rows outside the range
    where these steps are exact, whose values are not used.
    """
    # one contiguous array per entry
    a11, a12, a21, a22 = x.reshape(-1, 4).T.copy()
    # dlarfg on column 1: beta = -sign(dlapy2(a11, |a21|), a11), the
    # reflector (1, v2) and its tau
    abs11, abs21 = np.abs(a11), np.abs(a21)
    big = np.maximum(abs11, abs21)
    ratio = np.minimum(abs11, abs21) / big
    norm = big * np.sqrt(1.0 + ratio * ratio)
    beta = -np.copysign(norm, a11)
    tau = (beta - a11) / beta
    v2 = a21 * (1.0 / (a11 - beta))
    # dlarf on column 2: dgemv gives w = a12 + a22 v2, and dger adds
    # t (1, v2) with t = -tau w, its second row fused
    t = -tau * (a12 + a22 * v2)
    d1, e1, d2 = beta, a12 + t, _fma(t, v2, a22)
    # a21 == 0: dlarfg leaves the column (tau = 0), and dlarf does nothing
    identity = a21 == 0
    if identity.any():
        d1[identity], e1[identity], d2[identity] = a11[identity], a12[identity], a22[identity]
    amax = np.maximum(big, np.maximum(np.abs(a12), np.abs(a22)))
    lapack = ~((amax >= _SMLNUM) & (amax <= _BIGNUM))
    lapack |= ~identity & ((norm < _SAFMIN)
                           | ((np.abs(t * v2) < _FMA_TINY) & (t != 0) & (v2 != 0)))
    return d1, e1, d2, lapack


def _singular_values_2x2(x, out):
    """dgesdd's singular values of the (n, 2, 2) stack x, descending, into out (n, 2)."""
    with np.errstate(all="ignore"):
        d1, e1, d2, lapack = _bidiagonal_2x2(x)
        _dlas2(d1, e1, d2, out)
    if lapack.any():
        out[lapack] = np.linalg.svd(x[lapack], compute_uv=False)


def batch_log_singular_values(mats):
    """log singular values (descending) for a stack of square matrices (n, d, d).

    Values rounding to 0 are floored at 1e-300 before the log; callers that
    need accurate small singular values recover them from inverse products.
    A 2x2 stack is computed _CHUNK rows at a time by _singular_values_2x2,
    bit for bit as LAPACK would; any other size goes to LAPACK.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim == 3 and mats.shape[1:] == (2, 2):
        sigma = np.empty(mats.shape[:2])
        for a in range(0, len(mats), _CHUNK):
            _singular_values_2x2(mats[a:a + _CHUNK], sigma[a:a + _CHUNK])
    else:
        sigma = np.linalg.svd(mats, compute_uv=False)
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
