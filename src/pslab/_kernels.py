"""Hot numeric kernels, in numpy.

Kernels:
  * ray_distances_lifted - distances from hyperboloid lifts to a ray from the
    origin
  * batch_log_singular_values - the top ceil(d / 2) log singular values of a
    stack of matrices, the columns that cartan.splice reads
  * frames_2x2 - the d = 2 flag frames: lapack_qr_positive (np.linalg.qr,
    with columns signed so that R's diagonal is positive) of np.linalg.svd's
    left singular vectors, and the singular values, of 2x2 matrices
  * spliced_frames - d >= 3 flag frames spliced from products and their
    inverse-word products, with the log singular values of their gaps
  * greedy_cover_count - first-fit greedy ball-covering counts for box
    dimension, swept once per centre rather than once per row, each centre
    testing only the rows in two windows of the first coordinate, sorted
    once (_cover_window proves their half-width)

The matrix kernels take one matrix or a stack, and each is one call of
_by_rows, which runs a numpy kernel _CHUNK rows at a time on matrices of
its size and sends any other size to LAPACK; the 2x2 frame kernel,
frames_2x2, rejects any other size instead.  The kernels copy only the
steps that measured traffic takes: each returns the mask of every other
row, and _by_rows hands those rows to LAPACK.

Every LAPACK call of _by_rows goes through _lapack_rows, which cuts a
stack of at least 2 * _THREAD_ROWS rows into up to lapack_threads()
contiguous row ranges and runs them at once, one on the calling thread and
each other one on a thread started for the call, under a copy of the
caller's context (np.errstate lives there).  numpy's LAPACK gufuncs work
matrix by matrix and release the GIL, so the ranges run in parallel and
every row keeps the bits of one call over the whole stack.  BLAS stays
single-threaded within each call where OPENBLAS_NUM_THREADS=1 asks it to.
A smaller stack, or a process with one CPU, makes one call and starts no
thread; no thread outlives the call.

The 2x2 kernels repeat, row by row, what LAPACK does to one 2x2 matrix, so
every value has LAPACK's bits: dgesdd's dgebd2 (a dlarfg reflection of
column 1, the dlarf update of column 2 with its fused multiply-add made
exactly), then dlas2's larger value alone, or dbdsqr's split test, dlasv2
and dormbr's reflection of U for the vectors; dgeqr2, dorg2r and the sign
step for the QR frames.  The fused d2 = fma(t, v2, a22) of the values and
vectors is (a22 + p) + e, p + e = t * v2 by Dekker's TwoProduct, on the
rows where the sum a22 + p is exact, and one rounding of that sum is the
FMA's.  On a word-ball product d2 is tiny beside a22, so p and -a22 lie
within a factor of 2 of each other and Sterbenz's lemma makes the sum
exact; the other rows, and every other fused product (dormbr's and the QR
frames', whose inputs are orthonormal), take _fma's round-to-odd
emulation.  The rows the 2x2 kernels leave are non-finite entries, a
largest |entry| outside [2**-459, 2**459] (dgesdd rescales those), a
nonzero first column of norm below 2**-969 (dlarfg rescales it), a
reflector whose second entry underflows to 0 (dlarf shortens it), a fused
product that underflows, a zero second column and, for the larger value, a
zero on the diagonal; for the vectors, dlasv2's cases |f / g| < eps and
m * m == 0, a zero smaller value or rotation entry, a split that the sort
reorders and a non-finite result.  They are held to the installed LAPACK's
bits by the exactness tests, checked with OpenBLAS 0.3.31 on x86-64, whose
dger fuses one multiply-add; a BLAS that does not fuse it would round some
entries differently.

The 3x3 kernel of spliced_frames is a closed form, accurate to a few ulps
rather than LAPACK's bits: the top eigenpairs of the Gram matrices A A^T
and A_inv^T A_inv by Smith's formula and a cross product.  The rows it
leaves are a largest |entry| outside [2**-480, 2**480] (non-finite ones
included), where a Gram matrix would overflow or underflow; a Gram matrix
whose eigenvalues spread by at most 2**-40 of their mean, such as the
identity's or an orthogonal matrix's; and top eigenvalues that meet
(1 + r <= 1e-2 in Smith's formula), where it loses up to sqrt(eps).
"""

import contextvars
import math
import os
import threading

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
# the row driver of the matrix kernels

# rows per pass of the matrix kernels, which keeps their temporaries small
_CHUNK = 4096
# least rows per LAPACK range: a stack is cut into at most rows //
# _THREAD_ROWS ranges, so one of fewer than 2 * _THREAD_ROWS rows makes one
# call; a thread costs tens of microseconds to start and join
_THREAD_ROWS = 1024


def lapack_threads():
    """The CPUs this process may run on: the most LAPACK ranges _lapack_rows runs at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _lapack_range(lapack, xs, outs, i):
    """outs[i] = lapack(*xs), or the exception it raises."""
    try:
        outs[i] = lapack(*xs)
    except BaseException as exc:
        outs[i] = exc
        # the traceback holds this frame: drop its reference to outs
        outs = None


def _lapack_rows(lapack, *xs):
    """lapack(*xs), a tuple of per-row outputs, made in up to lapack_threads() row ranges at once.

    A stack of n rows is cut into k = min(lapack_threads(), n //
    _THREAD_ROWS) contiguous ranges.  The calling thread runs the first
    and a thread started here each other one, under a copy of the caller's
    context; all are joined before this returns, even when one raises.
    The first exception in row order is raised, else the outputs are
    concatenated in row order.  k <= 1 makes the one call lapack(*xs).
    """
    rows = len(xs[0]) if xs[0].ndim > 2 else 0
    k = min(lapack_threads(), rows // _THREAD_ROWS)
    if k <= 1:
        return lapack(*xs)
    cuts = [rows * i // k for i in range(k + 1)]
    ranges = [tuple(x[lo:hi] for x in xs) for lo, hi in zip(cuts, cuts[1:])]
    outs = [None] * k
    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(_lapack_range, lapack, ranges[i], outs, i))
               for i in range(1, k)]
    try:
        for thread in threads:
            thread.start()
        _lapack_range(lapack, ranges[0], outs, 0)
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    for out in outs:
        if isinstance(out, BaseException):
            try:
                raise out
            finally:
                # the traceback holds this frame
                out = outs = None
    return tuple(np.concatenate(parts) for parts in zip(*outs))


def _by_rows(xs, size, kernel, lapack, *shapes):
    """The outputs of lapack(*xs), matrices or stacks of one shape, made by kernel where they are size x size.

    lapack takes stacks and returns a tuple of per-row outputs; _lapack_rows
    makes each of its calls.  Stacks of size x size matrices are read
    _CHUNK rows at a time: kernel(*chunks, *outs) writes outputs of per-row
    shapes ``shapes`` into outs and returns the mask of the rows it leaves,
    whose outputs lapack(*(chunk[mask] for chunk in chunks)) then writes.
    The floating point warnings of the unused values are off.
    """
    x = xs[0]
    if x.shape[-2:] != (size, size):
        return _lapack_rows(lapack, *xs)
    stacks = tuple(y.reshape(-1, size, size) for y in xs)
    outs = tuple(np.empty((len(stacks[0]),) + shape) for shape in shapes)
    with np.errstate(all="ignore"):
        for a in range(0, len(stacks[0]), _CHUNK):
            chunks = tuple(stack[a:a + _CHUNK] for stack in stacks)
            parts = tuple(out[a:a + _CHUNK] for out in outs)
            mask = kernel(*chunks, *parts)
            if mask.any():
                for part, value in zip(parts, _lapack_rows(lapack, *(chunk[mask] for chunk in chunks))):
                    part[mask] = value
    return tuple(out.reshape(x.shape[:-2] + shape) for out, shape in zip(outs, shapes))


# ---------------------------------------------------------------------------
# batched log singular values
#
# On one 2x2 matrix, dgesdd(JOBZ='N') runs dgebd2, which reflects column 1
# (dlarfg) and applies the reflector to column 2 (dlarf), leaving the upper
# bidiagonal (d1, e1; 0, d2); dbdsdc hands that, through dlasdq, dbdsqr and
# dlasq1, to dlas2, whose larger value is the only one a 2x2 splice reads.
# Each of these steps is one IEEE operation, except that OpenBLAS's dger
# kernel fuses the multiply-add that gives d2.  _fma_exact_sum reproduces
# it: where a22 + fl(t v2) is exact (Sterbenz's lemma makes it so on
# word-ball products), adding Dekker's low part of t v2 rounds once, and
# _fma's round-to-odd path makes the other rows.  The kernels run in
# place, through out= arguments and augmented operators, on the arrays
# they own.

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
    e = s - bv
    np.subtract(a, e, out=e)
    np.subtract(b, bv, out=bv)
    e += bv
    return s, e


def _two_product(a, b):
    """(p, e): p = fl(a * b) and p + e == a * b exactly (Dekker's TwoProduct).

    Exact while the product neither overflows nor underflows.
    """
    p = a * b
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _SPLIT * b
    bh -= bh - b
    bl = b - bh
    e = ah * bh
    e -= p
    ah *= bl
    e += ah
    bh *= al
    e += bh
    al *= bl
    e += al
    return p, e


def _fma(a, b, c):
    """a * b + c rounded once, elementwise, without a hardware FMA.

    Boldo & Melquiond, "Emulation of FMA and correctly rounded sums: proved
    algorithms using rounding to odd" (IEEE TC 2008): the low parts of the
    exact a * b + c are summed rounded to odd, so that adding them to the
    high part rounds once.  Exact where a * b is zero or at least _FMA_TINY
    in magnitude, and nothing overflows.  _fma_exact_sum hands it the rows
    whose sum c + fl(a * b) is inexact; _qr_frames_2x2 and the reflection
    of U in _left_singular_vectors_2x2 call it on every row.
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


def _fma_exact_sum(a, b, c):
    """(a * b + c rounded once, tiny), where tiny marks the rows on which a * b is nonzero and below _FMA_TINY.

    Dekker's TwoProduct gives p + e == a * b.  Where c + p is exact (its
    TwoSum rest is 0), a * b + c == (c + p) + e, and one rounding of that
    sum is the FMA's; the other rows take _fma.  Exact on the rows that
    tiny leaves, up to the sign of a zero when c and a * b are both zero.
    dgebd2's d2 = fma(t, v2, a22) = -det / d1 (the reflector's
    determinant is -1) is tiny beside a22 on word-ball products, so
    fl(t * v2) and -a22 lie within a factor of 2 of each other, and
    Sterbenz's lemma makes the sum exact: on the word balls of the presets
    no row reaches _fma here.
    """
    p, e = _two_product(a, b)
    s, rest = _two_sum(c, p)
    s += e
    inexact = rest != 0
    if inexact.any():
        s[inexact] = _fma(a[inexact], b[inexact], c[inexact])
    np.abs(p, out=p)
    tiny = p < _FMA_TINY
    tiny &= a != 0
    return s, tiny


def _dlas2(fa, g, h, out):
    """LAPACK dlas2's larger singular value of the upper triangle (f, g; 0, h), into out (n,).

    Takes fa = |f|, which _singular_values_2x2 reads from dlarfg's norm,
    and overwrites g and h = d2, which _fma_exact_sum makes.  The two main
    branches are evaluated on every row (the floating point warnings of the
    unused one are off), in place, and the taken one kept.  Returns the
    mask of the rows of dlas2's other branch, a zero on the diagonal (fhmn
    == 0), whose values are not used, and of the rows where fa is NaN.
    """
    ga, ha = np.abs(g, out=g), np.abs(h, out=h)
    fhmn, fhmx = np.minimum(fa, ha), np.maximum(fa, ha, out=ha)
    lapack = fhmn > 0
    np.logical_not(lapack, out=lapack)
    # as_ = 1 + fhmn / fhmx and at = (fhmx - fhmn) / fhmx
    at = fhmx - fhmn
    at /= fhmx
    as_ = np.divide(fhmn, fhmx, out=fhmn)
    as_ += 1.0
    # ga < fhmx: fhmx / c with c = 2 / (sqrt(as_^2 + au) + sqrt(at^2 + au)),
    # au = (ga / fhmx)^2
    au = ga / fhmx
    au *= au
    x = as_ * as_
    x += au
    np.sqrt(x, out=x)
    y = at * at
    y += au
    np.sqrt(y, out=y)
    x += y
    np.divide(2.0, x, out=x)
    np.divide(fhmx, x, out=out)
    # ga >= fhmx: ga / (c + c) with c = 1 / (sqrt(1 + p^2) + sqrt(1 + q^2)),
    # p, q = as_ au, at au and au = fhmx / ga; where au underflows to 0
    # dlas2 gives ga, and so does ga / (c + c) with c = 1 / 2
    np.divide(fhmx, ga, out=au)
    as_ *= au
    as_ *= as_
    as_ += 1.0
    np.sqrt(as_, out=as_)
    at *= au
    at *= at
    at += 1.0
    np.sqrt(at, out=at)
    as_ += at
    np.divide(1.0, as_, out=as_)
    as_ += as_
    np.divide(ga, as_, out=out, where=ga >= fhmx)
    return lapack


def _bidiagonal_2x2(x):
    """dgebd2 on each row of the (n, 2, 2) stack x, all but the fused step of d2.

    Returns (norm, d1, e1, t, v2, a22, tau, lapack).  dgebd2's upper
    bidiagonal is (d1, e1; 0, d2), |d1| = norm but where the first column
    is zero (norm is NaN there), and d2 = fma(t, v2, a22), which each
    caller forms; H = I - tau (1, v2)(1, v2)^T is the reflector of column
    1.  Where a21 == 0, tau = t = 0 and v2 = a21, and d2 is a22 up to the
    sign of a zero.  lapack marks the rows outside the range where these
    steps are exact, whose values are not used, but for a fused product
    that underflows, which the step of d2 marks.
    """
    # one contiguous array per entry
    a11, a12, a21, a22 = x.reshape(-1, 4).T.copy()
    # dlarfg on column 1: beta = -sign(dlapy2(a11, |a21|), a11), the
    # reflector (1, v2) and its tau
    abs11, abs21 = np.abs(a11), np.abs(a21)
    big = np.maximum(abs11, abs21)
    norm = np.minimum(abs11, abs21, out=abs11)
    norm /= big
    norm *= norm
    norm += 1.0
    np.sqrt(norm, out=norm)
    norm *= big
    beta = np.copysign(norm, a11)
    np.negative(beta, out=beta)
    tau = beta - a11
    tau /= beta
    v2 = a11 - beta
    np.divide(1.0, v2, out=v2)
    v2 *= a21
    # dlarf on column 2: dgemv gives w = a12 + a22 v2, and dger adds
    # t (1, v2) with t = -tau w, its second row fused
    t = a22 * v2
    t += a12
    t *= tau
    np.negative(t, out=t)
    e1 = a12 + t
    # a21 == 0: dlarfg leaves the column (tau = 0), and dlarf does nothing
    identity = a21 == 0
    lapack = ~identity
    if identity.any():
        beta[identity], tau[identity], v2[identity] = a11[identity], 0.0, a21[identity]
        e1[identity], t[identity] = a12[identity], 0.0
    # v2 == 0 past a nonzero a21 (an underflow) shortens dlarf's reflector
    lapack &= (norm < _SAFMIN) | (v2 == 0)
    amax = np.maximum(big, np.maximum(np.abs(a12), np.abs(a22)))
    lapack |= ~((amax >= _SMLNUM) & (amax <= _BIGNUM))
    # dlarf leaves a zero column 2 alone, signs of zeros included
    lapack |= (a12 == 0) & (a22 == 0)
    return norm, beta, e1, t, v2, a22, tau, lapack


def _singular_values_2x2(x, out):
    """dgesdd's larger singular value of each matrix of the (n, 2, 2) stack x, into out (n, 1).

    Returns the mask of the rows left to LAPACK.
    """
    norm, _, e1, t, v2, a22, _, lapack = _bidiagonal_2x2(x)
    d2, tiny = _fma_exact_sum(t, v2, a22)
    lapack |= tiny
    lapack |= _dlas2(norm, e1, d2, out[:, 0])
    return lapack


def batch_log_singular_values(mats):
    """The top ceil(d / 2) log singular values, descending, of a stack (n, d, d).

    Those are the columns cartan.splice reads of a product and of its
    inverse product, each with the bits of the same column of LAPACK's
    values (one matrix gives one row).  Values rounding to 0 are floored at
    1e-300 before the log; callers that need accurate small singular values
    recover them from inverse products.
    """
    mats = np.asarray(mats, dtype=float)
    top = (mats.shape[-1] + 1) // 2
    (sigma,) = _by_rows((mats,), 2, _singular_values_2x2,
                        lambda x: (np.linalg.svd(x, compute_uv=False)[..., :top],), (top,))
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

    Returns (ssmax, ssmin, csl, snl, rare): the singular values as dbdsqr
    leaves them once it has made them positive, and the left rotation, from
    dlasv2's general case evaluated on every row (its floating point
    warnings on the other rows are off).  rare marks the rows of the other
    cases, whose outputs are not used: a g so large that |f / g| < eps, an
    m whose square is 0, and a zero ssmin, which keeps a sign that dlasv2
    works out from its rotations (dbdsqr negates a negative value).
    dlasv2's case g == 0 is not marked: dbdsqr splits those rows before it
    calls dlasv2, and the values returned for them are not used.
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
    l = np.sqrt(t * t + 4.0)
    crt, srt = 2.0 / l, t / l
    clt = (crt + srt * m) / a
    slt = (ht / ft) * srt / a
    csl, snl = np.where(swap, srt, clt), np.where(swap, crt, slt)
    rare = (mm == 0) | ((ga > fa) & (fa / ga < _EPS)) | (ssmin == 0)
    return ssmax, ssmin, csl, snl, rare


def _left_singular_vectors_2x2(x, u, sigma):
    """dgesdd's U and singular values of the (n, 2, 2) stack x, into u and sigma (n, 2).

    Returns the mask of the rows left to LAPACK.
    """
    _, d1, e1, t, v2, a22, tau, lapack = _bidiagonal_2x2(x)
    d2, tiny = _fma_exact_sum(t, v2, a22)
    lapack |= tiny
    # where a21 == 0 (tau == 0) d2 is a22, signs of zeros included
    d2 = np.where(tau == 0, a22, d2)
    s1, s2, c, s, rare = _dlasv2(d1, e1, d2)
    # U = I rotated by drot: (c, s) and (-s, c), each entry a sum c * 1 +
    # s * 0 whose zero signs differ from c's and s's where c or s is 0
    u11, u21, u12, u22 = c, s, -s, c
    rare |= (c == 0) | (s == 0)
    # dbdsqr's split test, with its estimate sminoa of the smallest
    # value: a split row keeps U = I and its diagonal as the values
    a1, ae = np.abs(d1), np.abs(e1)
    sminoa = np.minimum(a1, np.abs(d2) * (a1 / (a1 + ae)))
    sminoa[a1 == 0] = 0.0
    split = ae <= np.maximum(_BDSQR_TOL * (sminoa / np.sqrt(2.0)), _BDSQR_FLOOR)
    if split.any():
        d1, d2 = d1[split], d2[split]
        s1[split], s2[split] = np.where(d1 < 0, -d1, d1), np.where(d2 < 0, -d2, d2)
        u11[split], u21[split], u12[split], u22[split] = 1.0, 0.0, 0.0, 1.0
    # the sort to decreasing values, which swaps U's columns, moves split
    # rows only (dlasv2's values are in order): those rows go to LAPACK
    lapack |= (s2 > s1) | (rare & ~split)
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


def _require_2x2(x):
    """x, which must be one 2x2 matrix or a stack of them.

    The frame kernel serves d = 2 alone: np.linalg.svd with vectors did not
    return within 120 s on a 3x3 identity with one inf entry.
    """
    if x.shape[-2:] != (2, 2):
        raise ValueError(f"a 2x2 kernel was given {x.shape[-2:]} matrices")
    return x


def lapack_qr_positive(M):
    """Q of np.linalg.qr for each matrix of M, its columns signed so that R's diagonal is positive.

    A zero on R's diagonal counts as positive.
    """
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return Q * signs[..., None, :]


def _qr_frames_2x2(x, out):
    """lapack_qr_positive of the (n, 2, 2) stack x, into out; returns the LAPACK rows.

    The kernel repeats dgeqr2, dorg2r and the sign step on each 2x2 matrix:
    Q = [[1 - tau, t], [t, fma(t, v2, 1)]] with t = -tau v2, and at tau == 0
    Q21 = -tau a21, a zero that may be -0.0.
    """
    _, r11, _, t, v2, a22, tau, lapack = _bidiagonal_2x2(x)
    # only the sign of r22 is read.  It keeps _fma: the inputs here are
    # orthonormal frames, on which a22 + fl(t v2) is inexact on most rows
    # (92,757 of the 118,096 left singular frames of the radius-10
    # fuchsian_schottky(1.6) ball), so _fma_exact_sum would only add work
    r22 = _fma(t, v2, a22)
    lapack |= (np.abs(t * v2) < _FMA_TINY) & (t != 0)
    # dorg2r: dlarf on the identity's column 2, then dscal of v2 by -tau;
    # where tau == 0 dlarf does nothing and column 2 stays (0, 1)
    t = -tau * v2
    s1, s2 = np.where(r11 < 0, -1.0, 1.0), np.where(r22 < 0, -1.0, 1.0)
    out[:, 0, 0], out[:, 1, 0] = (1.0 - tau) * s1, t * s1
    out[:, 0, 1] = np.where(tau == 0, 0.0, t) * s2
    out[:, 1, 1] = _fma(t, v2, 1.0) * s2
    return lapack | ((np.abs(t * v2) < _FMA_TINY) & (t != 0))


def _frames_2x2(x, frames, sigma):
    """frames_2x2 of the (n, 2, 2) stack x, into the outputs; returns the rows either step leaves to LAPACK."""
    u = np.empty_like(x)
    return _left_singular_vectors_2x2(x, u, sigma) | _qr_frames_2x2(u, frames)


def _lapack_frames_2x2(x):
    """frames_2x2 of the stack x from LAPACK, whose svd raises on a NaN: a non-finite row is left NaN."""
    frames, sigma = np.full(x.shape, np.nan), np.full(x.shape[:-1], np.nan)
    finite = np.isfinite(x).all(axis=(-2, -1))
    U, sigma[finite], _ = np.linalg.svd(x[finite])
    frames[finite] = lapack_qr_positive(U)
    return frames, sigma


def frames_2x2(A):
    """(frames, sigma) of each 2x2 matrix of A, one or a stack, in one pass: u_theta's d = 2 frames.

    frames is lapack_qr_positive of np.linalg.svd's U and sigma its values,
    with LAPACK's bits; a matrix with a non-finite entry has NaN ones.
    """
    A = _require_2x2(np.asarray(A, dtype=float))
    return _by_rows((A,), 2, _frames_2x2, _lapack_frames_2x2, (2, 2), (2,))


# ---------------------------------------------------------------------------
# spliced frames of d >= 3 products
#
# A deep product A is accurate in its large singular directions only: its
# small ones carry an error of about eps * sigma_1 / sigma_k.  The forward
# product A_inv of the inverted word sees them as its large ones, with A's
# left singular vector k as its right singular vector d + 1 - k.  So a
# spliced frame, like a spliced Cartan vector, takes its first ceil(d / 2)
# columns from A and the others from A_inv.  For d = 3 it needs two top
# eigenpairs of symmetric 3x3 Gram matrices, G = A A^T for the line u and
# H = A_inv^T A_inv for the normal n: Smith's trigonometric formula gives
# the top eigenvalue (Smith, "Eigenvalues of a symmetric 3x3 matrix", CACM
# 4(4), 1961) and the longest cross product of two rows of G - lambda I its
# eigenvector (Kopp, "Efficient numerical diagonalization of hermitian 3x3
# matrices", arXiv:physics/0610206).

# the largest |entry| of a 3x3 kernel row lies in [_GRAM_MIN, _GRAM_MAX], so
# that its Gram matrix neither overflows nor underflows
_GRAM_MIN = 2.0**-480
_GRAM_MAX = 2.0**480
# a Gram matrix whose eigenvalues spread by at most this fraction of their
# mean is taken as scalar (the identity's, or an orthogonal matrix's)
_SCALAR_SPREAD = 2.0**-40
# Smith's formula loses up to sqrt(eps) in lambda_max where the top two
# eigenvalues meet, at r = -1
_MEET = 1e-2


def _signed(Q):
    """Q with each column signed so that its largest |entry| (the first of a tie) is positive."""
    lead = np.take_along_axis(Q, np.abs(Q).argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(lead < 0, -Q, Q)


def _spliced_orthonormal(M, top):
    """Orthonormal frames from the columns of M, of which the first top come from A.

    Gram-Schmidt, twice, takes the columns from the last one up to column
    top + 1, then from the first one down: each is projected off those
    taken before it.  The last columns keep their spans, and so do the
    first ones, up to the projection off the last ones; an odd d's middle
    column comes last, as the completion of the others.
    """
    Q = M.copy()
    d = M.shape[-1]
    order = list(range(d - 1, top - 1, -1)) + list(range(top))
    for i, j in enumerate(order):
        v = Q[..., j]
        for _ in range(2):
            for k in order[:i]:
                v = v - (Q[..., k] * v).sum(axis=-1)[..., None] * Q[..., k]
        # a column in the span of those before it (the identity's arbitrary
        # singular vectors may be) is NaN, and so is its flag's gap
        with np.errstate(invalid="ignore", divide="ignore"):
            Q[..., j] = v / np.sqrt((v * v).sum(axis=-1))[..., None]
    return Q


def _lapack_spliced_frames(A, A_inv):
    """spliced_frames of the stacks A and A_inv, from np.linalg.svd.

    dgesdd does not return on some 3x3 matrices with an infinite entry, so
    the rows with a non-finite entry are not handed to it: their frames
    and log values are NaN.
    """
    d = A.shape[-1]
    top = (d + 1) // 2
    values = 1 if d == 3 else top
    frames = np.full(A.shape, np.nan)
    logs, inv_logs = np.full((2,) + A.shape[:-2] + (values,), np.nan)
    finite = np.isfinite(A).all(axis=(-2, -1)) & np.isfinite(A_inv).all(axis=(-2, -1))
    U, sigma, _ = np.linalg.svd(A[finite])
    _, inv_sigma, Vt = np.linalg.svd(A_inv[finite])
    # A_inv's top right singular vectors, reversed, as the last columns
    columns = np.concatenate([U[..., :top], np.swapaxes(Vt[..., d - top - 1::-1, :], -1, -2)],
                             axis=-1)
    frames[finite] = _signed(_spliced_orthonormal(columns, top))
    logs[finite] = np.log(np.maximum(sigma[..., :values], 1e-300))
    inv_logs[finite] = np.log(np.maximum(inv_sigma[..., :values], 1e-300))
    return frames, logs, inv_logs


def _top_eigenpair_3x3(g00, g01, g02, g11, g12, g22):
    """Top eigenvalue and unit eigenvector of the symmetric 3x3 matrices with these entries.

    Returns (lam, v, meet): v is (3, n), of either sign, and meet marks the
    rows left to LAPACK, whose outputs are not used: a scalar matrix and top
    eigenvalues that meet.  The formula
    runs on G / q - I, q being G's mean eigenvalue, whose entries are at
    most 2 in size.
    """
    q = (g00 + g11 + g22) / 3.0
    scale = 1.0 / q
    d0, d1, d2 = g00 * scale - 1.0, g11 * scale - 1.0, g22 * scale - 1.0
    o01, o02, o12 = g01 * scale, g02 * scale, g12 * scale
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (o01 * o01 + o02 * o02 + o12 * o12)) / 6.0)
    # r = det((G / q - I) / p) / 2, the cosine of three times the top angle
    r = (d0 * (d1 * d2 - o12 * o12) - o01 * (o01 * d2 - o12 * o02)
         + o02 * (o01 * o12 - d1 * o02)) / (2.0 * p * p * p)
    c = 2.0 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0)
    meet = ~(p > _SCALAR_SPREAD) | ~(1.0 + r > _MEET)
    # the rows of G / q - (1 + c) I, and their cross products
    e0, e1, e2 = d0 - c, d1 - c, d2 - c
    crosses = np.array([
        [o01 * o12 - o02 * e1, o02 * o01 - e0 * o12, e0 * e1 - o01 * o01],
        [o01 * e2 - o02 * o12, o02 * o02 - e0 * e2, e0 * o12 - o01 * o02],
        [e1 * e2 - o12 * o12, o12 * o02 - o01 * e2, o01 * o12 - e1 * o02],
    ])
    lengths = (crosses * crosses).sum(axis=1)
    longest = lengths.argmax(axis=0)
    rows = np.arange(len(q))
    v = crosses[longest, :, rows].T / np.sqrt(lengths[longest, rows])
    return q * (1.0 + c), v, meet


def _spliced_frames_3x3(x, x_inv, frames, logs, inv_logs):
    """_lapack_spliced_frames of the (n, 3, 3) stacks x and x_inv in closed form, into the outputs.

    The frame is [u', n x u', n], u' being u projected onto the plane
    normal to n.  Returns the mask of the rows left to LAPACK: those whose
    largest |entry| lies outside [_GRAM_MIN, _GRAM_MAX] (non-finite ones
    included) and those where _top_eigenpair_3x3 leaves G or H.
    """
    a = x.reshape(-1, 9).T.copy()
    b = x_inv.reshape(-1, 9).T.copy()
    amax = np.maximum(np.abs(a).max(axis=0), np.abs(b).max(axis=0))
    lapack = ~((amax >= _GRAM_MIN) & (amax <= _GRAM_MAX))
    # G from the rows of A and H from the columns of A_inv, elementwise, so
    # that a row has the same bits in every stack
    rows, cols = (a[0:3], a[3:6], a[6:9]), (b[0::3], b[1::3], b[2::3])
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    lam, u, meet = _top_eigenpair_3x3(*((rows[i] * rows[j]).sum(axis=0) for i, j in pairs))
    lam_inv, n, meet_inv = _top_eigenpair_3x3(*((cols[i] * cols[j]).sum(axis=0) for i, j in pairs))
    u = u - (u * n).sum(axis=0) * n
    u /= np.sqrt((u * u).sum(axis=0))
    middle = np.array([n[1] * u[2] - n[2] * u[1], n[2] * u[0] - n[0] * u[2],
                       n[0] * u[1] - n[1] * u[0]])
    frames[:] = _signed(np.stack([u, middle, n]).transpose(2, 1, 0))
    logs[:, 0] = 0.5 * np.log(lam)
    inv_logs[:, 0] = 0.5 * np.log(lam_inv)
    return lapack | meet | meet_inv


def spliced_frames(A, A_inv):
    """Spliced frames of the stacks (n, d, d) A and A_inv, d >= 3, and the log singular values of their gaps.

    A_inv must be the forward products of the inverted words, not matrix
    inverses.  Returns (frames, logs, inv_logs).  frames[i] is
    _spliced_orthonormal of A[i]'s top ceil(d / 2) left singular vectors
    followed by A_inv[i]'s top d - ceil(d / 2) right singular vectors in
    reverse order, each column signed so that its largest |entry| (the
    first of a tie) is positive.  logs and inv_logs
    hold log sigma_1 of A and of A_inv for d = 3, and their top
    ceil(d / 2) log singular values for d >= 4, floored at 1e-300.  3x3
    rows take _spliced_frames_3x3, and the rows it leaves and every larger
    row take _lapack_spliced_frames.
    """
    return _by_rows((A, A_inv), 3, _spliced_frames_3x3, _lapack_spliced_frames,
                    (3, 3), (1,), (1,))


# ---------------------------------------------------------------------------
# greedy covering counts (box dimension)

def _cover_window(rows, eps):
    """The half-width r of greedy_cover_count's windows, or inf.

    A row x that the cover's distance test puts within eps of a centre c
    has x[0] within r of c[0] or of -c[0].  r is inf where no bound is
    proven: non-finite rows or eps, squared norms that stray from 1 by more
    than 1/4, or eps near 1.

    Let e = 2**-52, d the row length, and nu the measured largest
    |x . x - 1| over the rows plus d e, so that |x|^2 is within nu of 1 for
    every row x (its sum of squares, in any order, rounds by under d e / 2,
    and the subtraction of 1 is exact).  Write t for the angle between the
    lines of x and c, and C for the cosine of the angle of the vectors, so
    that sin^2 t = 1 - C^2.
      * |x| and |c| lie in [1 - nu, 1 + nu / 2], so rho = |x| |c| is within
        2 nu of 1.
      * The per-pair sum s of x[i] c[i] is within (d e / 2) 1.01 rho of
        x . c = rho C, so within 2 nu + d e of C, and clipping s to [-1, 1]
        keeps it there.
      * q = 1 - s * s, computed, is within e of 1 - s^2, and |C^2 - s^2|
        <= 2 |C - s|, so q is within kappa = 4 nu + (2 d + 1) e of sin^2 t.
      * The computed sqrt(max(q, 0)) <= eps gives q <= eps^2 (1 + 2 e), so
        sin^2 t <= sigma^2 = eps^2 (1 + 2 e) + kappa.
    With sign g of C, the unit vectors x / |x| and g c / |c| then lie at
    chord 2 sin(t / 2) = sqrt(2 sigma^2 / (1 + sqrt(1 - sigma^2))) at most,
    which bounds the gap of their first coordinates, and x[0] and c[0] are
    each within nu of those.  The returned r adds 4 e for the rounding of
    c[0] +- r and a relative 1e-12 for the rounding of r itself.
    """
    machine = np.finfo(float).eps
    d = rows.shape[1]
    nu = float(np.abs(np.square(rows) @ np.ones(d) - 1.0).max()) + d * machine
    sigma2 = max(eps, 0.0) ** 2 * (1 + 2 * machine) + 4 * nu + (2 * d + 1) * machine
    if not (nu <= 0.25 and sigma2 < 1.0):
        return math.inf
    chord = math.sqrt(2 * sigma2 / (1 + math.sqrt(1 - sigma2)))
    return chord * (1 + 1e-12) + 2 * nu + 4 * machine


def greedy_cover_count(features, eps):
    """Number of eps-balls a first-fit greedy pass needs to cover the rows.

    The rows are unit vectors, and the distance of two rows is the sine of
    the angle between their lines, so antipodes coincide.  Deterministic:
    points are scanned in the given (canonical) order.  A row becomes a
    centre iff no earlier centre lies within eps of it.  The sweep
    runs once per centre: the first row no centre covers is the next
    centre, and one vectorised distance call drops every remaining row
    within eps of it.  Only the rows whose first coordinate lies within r of
    the centre's or of its negative can be within eps (_cover_window proves
    r from eps and the rows' measured distance from unit norm), so the rows
    are sorted by their first coordinate once, and each centre tests only
    the remaining rows of its two windows, found by binary search.  Where no
    r is proven, r is inf, and the windows leave out a row only where its
    first coordinate or the centre's is NaN (NaN sorts last): its product
    with the centre, and so its distance, is then NaN, and no eps covers it.
    Each pair's distance is the same per-pair expression as in a sweep over
    all rows, so the count is that sweep's.
    """
    rows = np.asarray(features, dtype=float)
    if not len(rows):
        return 0
    r = _cover_window(rows, eps)
    order = np.argsort(rows[:, 0], kind="stable")
    firsts = rows[order, 0]
    alive = np.ones(len(rows), dtype=bool)
    count = i = 0
    while True:
        center = rows[i]
        alive[i] = False
        count += 1
        # the sorted positions of the windows about c0 = center[0] and -c0,
        # as one range where they meet; float arithmetic makes inf - inf a
        # NaN without numpy's warning
        c0 = float(center[0])
        lo = np.searchsorted(firsts, (c0 - r, -c0 - r), "left")
        hi = np.searchsorted(firsts, (c0 + r, -c0 + r), "right")
        (lo0, hi0), (lo1, hi1) = sorted(zip(lo, hi))
        near = (order[lo0:max(hi0, hi1)] if lo1 <= hi0
                else np.concatenate((order[lo0:hi0], order[lo1:hi1])))
        near = near[alive[near]]
        if len(near):
            # a per-pair sum, whose bits do not depend on how many rows share
            # the call (a BLAS matrix-vector product's may)
            dot = np.clip((rows[near] * center).sum(axis=1), -1.0, 1.0)
            dists = np.sqrt(np.maximum(1.0 - dot * dot, 0.0))
            alive[near[dists <= eps]] = False
        # the first remaining row; none remains where alive[i] stays False
        i += int(alive[i:].argmax())
        if not alive[i]:
            return count
