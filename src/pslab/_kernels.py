"""Hot numeric kernels, in numpy.

Kernels:
  * ray_distances_lifted - distances from hyperboloid lifts to a ray from the
    origin
  * batch_log_singular_values - log singular values of a stack of matrices
  * left_singular - np.linalg.svd's left singular vectors and singular values
  * qr_positive - the frames of lapack_qr_positive (np.linalg.qr, with
    columns signed so that R's diagonal is positive)
  * greedy_cover_count - first-fit greedy ball-covering counts for box
    dimension, swept once per centre rather than once per row

The three matrix kernels take one matrix or a stack, and each is one call of
_by_rows, which sends any size but 2x2 to LAPACK.  On 2x2 matrices it runs a
numpy kernel _CHUNK rows at a time that repeats, row by row, what LAPACK
does to one 2x2 matrix, so every value has LAPACK's bits: dgesdd's dgebd2 (a
dlarfg reflection of column 1, the dlarf update of column 2 with its fused
multiply-add emulated exactly), then dlas2 for the values alone, or dbdsqr's
split test, dlasv2, the sort and dormbr's reflection of U for the vectors;
dgeqr2, dorg2r and the sign step for the QR frames.  Each kernel returns
the mask of the rows where those steps are not exact, and _by_rows hands
those rows to LAPACK: non-finite entries, a largest |entry| outside
[2**-459, 2**459] (dgesdd rescales those), a nonzero first column of norm
below 2**-969 (dlarfg rescales it), a reflector whose second entry
underflows to 0 (dlarf shortens it), a fused product that underflows and,
for the vectors, a non-finite result.

The 2x2 kernels are held to the installed LAPACK's bits by the exactness
tests, checked with OpenBLAS 0.3.31 on x86-64, whose dger fuses one
multiply-add; a BLAS that does not fuse it would round some entries
differently.
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
# the row driver of the 2x2 kernels

# rows per pass of the 2x2 kernels, which keeps their temporaries small
_CHUNK = 4096


def _by_rows(x, kernel, lapack, *shapes):
    """The outputs of lapack(x), one matrix or a stack, made by kernel where x is 2x2.

    lapack takes a stack and returns a tuple of per-row outputs.  A 2x2
    stack is read _CHUNK rows at a time: kernel(chunk, *outs) writes outputs
    of per-row shapes ``shapes`` into outs and returns the mask of the rows
    where its steps are not exact, whose outputs lapack(chunk[mask]) then
    writes.  The floating point warnings of the unused values are off.
    """
    if x.shape[-2:] != (2, 2):
        return lapack(x)
    stack = x.reshape(-1, 2, 2)
    outs = tuple(np.empty((len(stack),) + shape) for shape in shapes)
    with np.errstate(all="ignore"):
        for a in range(0, len(stack), _CHUNK):
            chunk, parts = stack[a:a + _CHUNK], tuple(out[a:a + _CHUNK] for out in outs)
            mask = kernel(chunk, *parts)
            if mask.any():
                for part, value in zip(parts, lapack(chunk[mask])):
                    part[mask] = value
    return tuple(out.reshape(x.shape[:-2] + shape) for out, shape in zip(outs, shapes))


# ---------------------------------------------------------------------------
# batched log singular values
#
# On one 2x2 matrix, dgesdd(JOBZ='N') runs dgebd2, which reflects column 1
# (dlarfg) and applies the reflector to column 2 (dlarf), leaving the upper
# bidiagonal (d1, e1; 0, d2); dbdsdc hands that, through dlasdq, dbdsqr and
# dlasq1, to dlas2.
# Each of these steps is one IEEE operation, except that OpenBLAS's dger
# kernel fuses the multiply-add that gives d2, which _fma reproduces.

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

    Returns (d1, e1, d2, tau, v2, lapack): H = I - tau (1, v2)(1, v2)^T is
    the reflector of column 1 (tau = 0 and v2 = a21 where a21 == 0), and
    lapack marks the rows outside the range where these steps are exact,
    whose values are not used.
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
    # a21 == 0: dlarfg leaves the column (tau = 0), and dlarf does nothing;
    # a zero column 2 is left alone too, signs of zeros included
    identity = a21 == 0
    if identity.any():
        d1[identity], tau[identity], v2[identity] = a11[identity], 0.0, a21[identity]
    keep = identity | ((a12 == 0) & (a22 == 0))
    if keep.any():
        e1[keep], d2[keep] = a12[keep], a22[keep]
    amax = np.maximum(big, np.maximum(np.abs(a12), np.abs(a22)))
    lapack = ~((amax >= _SMLNUM) & (amax <= _BIGNUM))
    # v2 == 0 past a nonzero a21 (an underflow) shortens dlarf's reflector
    lapack |= ~identity & ((norm < _SAFMIN) | (v2 == 0)
                           | ((np.abs(t * v2) < _FMA_TINY) & (t != 0)))
    return d1, e1, d2, tau, v2, lapack


def _singular_values_2x2(x, out):
    """dgesdd's singular values of the (n, 2, 2) stack x, descending, into out (n, 2).

    Returns the mask of the rows left to LAPACK.
    """
    d1, e1, d2, _, _, lapack = _bidiagonal_2x2(x)
    _dlas2(d1, e1, d2, out)
    return lapack


def batch_log_singular_values(mats):
    """log singular values (descending) for a stack of square matrices (n, d, d).

    Values rounding to 0 are floored at 1e-300 before the log; callers that
    need accurate small singular values recover them from inverse products.
    """
    mats = np.asarray(mats, dtype=float)
    (sigma,) = _by_rows(mats, _singular_values_2x2,
                        lambda x: (np.linalg.svd(x, compute_uv=False),), (2,))
    return np.log(np.maximum(sigma, 1e-300, out=sigma), out=sigma)


# ---------------------------------------------------------------------------
# 2x2 left singular vectors and positive QR frames
#
# With vectors, dgesdd(JOBZ='A') runs the same dgebd2, then dbdsdc, which
# hands the bidiagonal and U = I to dbdsqr (through dlasdq).  dbdsqr splits
# the bidiagonal where |e1| <= thresh; otherwise dlasv2 gives the signed
# singular values and a left rotation, which drot applies to U's columns.
# A negative value changes sign (which moves VT only) and the values are
# sorted in decreasing order, swapping U's columns.  dormbr then applies
# dgebd2's reflector to U from the left through dlarf: dgemv takes
# w = u1 + u2 v2 per column, unfused, and dger adds t (1, v2), t = -tau w,
# its second row fused.  np.linalg.qr runs dgeqr2, whose reflector and R
# are dgebd2's, and dorg2r, which builds Q from the reflector alone.

# dlamch('E')
_EPS = 2.0**-53
# dbdsqr's relative tolerance max(10, min(100, eps**(-1/8))) * eps, and its
# threshold floor maxitr * (n * (n * unfl)) at n = 2
_BDSQR_TOL = max(10.0, min(100.0, _EPS**-0.125)) * _EPS
_BDSQR_FLOOR = 6 * (2 * (2 * 2.0**-1022))


def _dlasv2(f, g, h):
    """LAPACK dlasv2 on the upper triangles (f, g; 0, h), as dbdsqr uses it.

    Returns (ssmax, ssmin, csl, snl): the singular values as dbdsqr leaves
    them once it has made them positive, and the left rotation.  dbdsqr
    negates a negative value, so only a zero ssmin keeps dlasv2's sign,
    which is worked out for those rows alone.  The general case is evaluated
    on every row (the floating point warnings of the others are off); the
    rows of the rare cases, a g so large that |f / g| < eps and a tiny m,
    are redone on their own.  dlasv2's case g == 0 is left out: dbdsqr
    splits those rows before it calls dlasv2, and the values returned for
    them are not used.
    """
    fa, ga, ha = np.abs(f), np.abs(g), np.abs(h)
    # swap: h is the larger diagonal entry, and dlasv2 works on the transpose
    swap = ha > fa
    ft, ht = np.where(swap, h, f), np.where(swap, f, h)
    fa, ha = np.maximum(fa, ha), np.minimum(fa, ha)
    d = fa - ha
    l = np.where(d == fa, 1.0, d / fa)
    m = g / ft
    t2 = 2.0 - l
    mm = m * m
    s = np.sqrt(t2 * t2 + mm)
    r = np.where(l == 0, np.abs(m), np.sqrt(l * l + mm))
    a = 0.5 * (s + r)
    ssmin, ssmax = ha / a, fa * a
    t = (m / (s + t2) + m / (r + l)) * (1.0 + a)
    rows = mm == 0
    if rows.any():
        t[rows] = np.where(l[rows] == 0, np.copysign(2.0, ft[rows]) * np.copysign(1.0, g[rows]),
                           g[rows] / np.copysign(d[rows], ft[rows]) + m[rows] / t2[rows])
    l = np.sqrt(t * t + 4.0)
    crt, srt = 2.0 / l, t / l
    clt = (crt + srt * m) / a
    slt = (ht / ft) * srt / a
    wide = ga > fa
    rows = wide & (fa / ga < _EPS)
    if rows.any():
        fa_, ga_, ha_, ft_, ht_, g_ = fa[rows], ga[rows], ha[rows], ft[rows], ht[rows], g[rows]
        ssmax[rows] = ga_
        ssmin[rows] = np.where(ha_ > 1.0, fa_ / (ga_ / ha_), (fa_ / ga_) * ha_)
        clt[rows], slt[rows], srt[rows], crt[rows] = 1.0, ht_ / g_, 1.0, ft_ / g_
    csl, snl = np.where(swap, srt, clt), np.where(swap, crt, slt)
    # ssmax is zero on a zero matrix only, which is out of range
    rows = ssmin == 0
    if rows.any():
        # dlasv2 gives ssmax the sign of the largest entry's term (g's, else
        # h's after a swap, else f's), and ssmin that times sign(f h)
        neg = np.signbit
        csr, snr = np.where(swap, slt, crt)[rows], np.where(swap, clt, srt)[rows]
        f, g, h, swap = f[rows], g[rows], h[rows], swap[rows]
        tsign = np.where(wide[rows], neg(snr) ^ neg(csl[rows]) ^ neg(g),
                         np.where(swap, neg(snr) ^ neg(snl[rows]) ^ neg(h),
                                  neg(csr) ^ neg(csl[rows]) ^ neg(f)))
        ssmin[rows] = np.where(tsign ^ neg(f) ^ neg(h), -0.0, 0.0)
    return ssmax, ssmin, csl, snl


def _left_singular_vectors_2x2(x, u, sigma):
    """dgesdd's U and singular values of the (n, 2, 2) stack x, into u and sigma (n, 2).

    Returns the mask of the rows left to LAPACK.
    """
    d1, e1, d2, tau, v2, lapack = _bidiagonal_2x2(x)
    s1, s2, c, s = _dlasv2(d1, e1, d2)
    # U = I rotated by drot: (c, s) and (-s, c), each entry a sum
    # c * 1 + s * 0 whose zero signs are worked out where c or s is 0
    u11, u21, u12, u22 = c, s, -s, c.copy()
    rows = (c == 0) | (s == 0)
    if rows.any():
        c, s = c[rows], s[rows]
        u11[rows], u21[rows] = c + s * 0.0, c * 0.0 + s
        u12[rows], u22[rows] = c * 0.0 - s, c - s * 0.0
    # dbdsqr's split test, with its estimate sminoa of the smallest
    # value: a split row keeps U = I and its diagonal as the values
    a1, ae = np.abs(d1), np.abs(e1)
    sminoa = np.minimum(a1, np.abs(d2) * (a1 / (a1 + ae)))
    sminoa[a1 == 0] = 0.0
    rows = ae <= np.maximum(_BDSQR_TOL * (sminoa / np.sqrt(2.0)), _BDSQR_FLOOR)
    if rows.any():
        d1, d2 = d1[rows], d2[rows]
        s1[rows], s2[rows] = np.where(d1 < 0, -d1, d1), np.where(d2 < 0, -d2, d2)
        u11[rows], u21[rows], u12[rows], u22[rows] = 1.0, 0.0, 0.0, 1.0
    # the sort: decreasing values, U's columns swapped with them
    rows = s2 > s1
    if rows.any():
        s1[rows], s2[rows] = s2[rows], s1[rows]
        u11[rows], u12[rows] = u12[rows], u11[rows]
        u21[rows], u22[rows] = u22[rows], u21[rows]
    # the reflection keeps finite entries finite (1 <= tau <= 2, |v2| <= 1)
    lapack |= ~np.isfinite(s1 + s2 + u11 + u12 + u21 + u22)
    sigma[:, 0], sigma[:, 1] = s1, s2
    # dormbr: the reflector from the left, column by column.  Where tau
    # == 0 dlarf does nothing, and adding t = -0.0 * w is no change
    # either: a zero of U here is +0.0
    ntau = -tau
    for j, (p, q) in enumerate(((u11, u21), (u12, u22))):
        t = ntau * (p + q * v2)
        u[:, 0, j], u[:, 1, j] = p + t, _fma(t, v2, q)
        lapack |= (np.abs(t * v2) < _FMA_TINY) & (t != 0)
    return lapack


def left_singular(A):
    """np.linalg.svd's U and singular values of each matrix of A, one or a stack."""
    return _by_rows(A, _left_singular_vectors_2x2, lambda x: np.linalg.svd(x)[:2],
                    (2, 2), (2,))


def lapack_qr_positive(M):
    """Q of np.linalg.qr for each matrix of M, its columns signed so that R's diagonal is positive.

    A zero on R's diagonal counts as positive.
    """
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return Q * signs[..., None, :]


def qr_positive(M):
    """QR with positive diagonal of R per matrix of M: deterministic orthonormal frames.

    lapack_qr_positive's Q, one matrix or a stack: Q's columns are signed so
    that R's diagonal is positive (a zero counts as positive).
    """
    M = np.asarray(M, dtype=float)
    (Q,) = _by_rows(M, _qr_frames_2x2, lambda x: (lapack_qr_positive(x),), (2, 2))
    return Q


def _qr_frames_2x2(x, out):
    """lapack_qr_positive of the (n, 2, 2) stack x, into out; returns the LAPACK rows.

    The kernel repeats dgeqr2, dorg2r and the sign step on each 2x2 matrix:
    Q = [[1 - tau, t], [t, fma(t, v2, 1)]] with t = -tau v2, and at tau == 0
    Q21 = -tau a21, a zero that may be -0.0.
    """
    r11, _, r22, tau, v2, lapack = _bidiagonal_2x2(x)
    # dorg2r: dlarf on the identity's column 2, then dscal of v2 by -tau;
    # where tau == 0 dlarf does nothing and column 2 stays (0, 1)
    t = -tau * v2
    s1, s2 = np.where(r11 < 0, -1.0, 1.0), np.where(r22 < 0, -1.0, 1.0)
    out[:, 0, 0], out[:, 1, 0] = (1.0 - tau) * s1, t * s1
    out[:, 0, 1] = np.where(tau == 0, 0.0, t) * s2
    out[:, 1, 1] = _fma(t, v2, 1.0) * s2
    return lapack | ((np.abs(t * v2) < _FMA_TINY) & (t != 0))


# ---------------------------------------------------------------------------
# greedy covering counts (box dimension)

def greedy_cover_count(features, eps):
    """Number of eps-balls a first-fit greedy pass needs to cover the rows.

    The rows are unit vectors, and the distance of two rows is the sine of
    the angle between their lines, so antipodes coincide.  Deterministic:
    points are scanned in the given (canonical) order.  A row becomes a
    centre iff no earlier centre lies within eps of it.  The sweep
    runs once per centre: the first remaining row is a centre, and one
    vectorised distance call drops every remaining row within eps of it.
    The work is O(rows * centres) in a few numpy calls per centre.
    """
    rest = np.asarray(features, dtype=float)
    count = 0
    while rest.shape[0]:
        center, rest = rest[0], rest[1:]
        # a per-pair sum, whose bits do not depend on how many rows share
        # the call (a BLAS matrix-vector product's may)
        dot = np.clip((rest * center).sum(axis=1), -1.0, 1.0)
        dists = np.sqrt(np.maximum(1.0 - dot * dot, 0.0))
        rest = rest[~(dists <= eps)]
        count += 1
    return count
