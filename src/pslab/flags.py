"""Partial flag manifolds, the Cartan limit map and limit-set sampling."""

from dataclasses import dataclass

import numpy as np

from . import _kernels, cartan, matgroup
from .errors import InsufficientGap, NotProximal, ThetaMismatch

GAP_TOLERANCE = 1e-10
TRANSVERSALITY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Flag:
    """Points of F_theta: nested column spans of orthonormal frames.

    ``frame`` is one (d, d) frame or a stack of them with leading axes, such
    as (N, d, d); the operations below broadcast over the leading axes and
    give a plain value for a single flag.  The k-subspace (k in theta) is the
    span of the first k frame columns.  Equality of flags is span equality,
    tested through flag_distance.  Frames are not checked: each producer
    below makes them orthonormal, by _kernels.qr_positive or Gram-Schmidt.
    """

    theta: tuple
    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(self.theta))
        object.__setattr__(self, "frame", np.asarray(self.frame, dtype=float))

    @property
    def dimension(self):
        return self.frame.shape[-1]

    def __len__(self):
        """Number of flags in a stack."""
        return len(self.frame)

    def __getitem__(self, key):
        """The flags of the stack rows picked by a numpy index."""
        return Flag(self.theta, self.frame[key])

    def subspace(self, k):
        return self.frame[..., :k]


def make_flag(theta, columns):
    """Flag from (possibly non-orthonormal) spanning columns, via a QR pass."""
    return Flag(theta, _kernels.qr_positive(columns))


def u_theta(A, theta):
    """Flags of leading left singular subspaces ("span of the k largest axes").

    For a (N, d, d) stack, returns (F, ok): ok marks the rows whose singular
    gaps at every k in theta are above GAP_TOLERANCE, and F stacks their flags
    in row order.  One (d, d) matrix is the stack of one row: its Flag, or
    InsufficientGap at its first bad k.

    The frames are _kernels.qr_positive of the left singular vectors
    (_kernels.left_singular), both with LAPACK's bits; 2x2 matrices take
    the numpy kernels.
    """
    A = np.asarray(A, dtype=float)
    single = A.ndim == 2
    stack = A[None] if single else A
    theta = cartan.validate_theta(theta, A.shape[-1])
    # made before the singular vectors, which keeps the peak footprint lower
    frames = np.empty(stack.shape)
    U, gaps = _left_singular_gaps(stack, theta)
    # a NaN gap fails the test
    failed = ~(gaps > GAP_TOLERANCE)
    if single and failed.any():
        i = int(np.argmax(failed[0]))
        raise InsufficientGap(theta[i], gaps[0, i])
    ok = ~failed.any(axis=-1)
    kept = int(np.count_nonzero(ok))
    frames[:kept] = _kernels.qr_positive(U[ok])
    F = Flag(theta, frames[:kept])
    return F[0] if single else (F, ok)


def _left_singular_gaps(A, theta):
    """Left singular vectors of A and its log singular gaps at each k in theta."""
    U, sigma = _kernels.left_singular(A)
    logs = np.log(sigma)
    return U, logs[..., np.array(theta) - 1] - logs[..., theta]


def apply_matrix(A, F):
    """The projective action of A on flags, with frame re-orthonormalization."""
    return Flag(F.theta, _kernels.qr_positive(np.asarray(A, dtype=float) @ F.frame))


def _check_compatible(F, G):
    if F.theta != G.theta or F.dimension != G.dimension:
        raise ThetaMismatch(f"{F.theta} (d={F.dimension}) vs {G.theta} (d={G.dimension})")


def flag_distance(F, G):
    """max over k in theta of sin(largest principal angle of F^k vs G^k).

    The sine is sqrt(1 - s^2) for the smallest singular value s of the
    pairing of the two orthonormal bases.  For k = 1 the pairing is 1x1 and
    s is the absolute value of its entry, which is what LAPACK returns, bit
    for bit.  Stacks broadcast: one distance per pair of rows, a float for
    two single flags.
    """
    _check_compatible(F, G)
    out = None
    for k in F.theta:
        pairing = np.swapaxes(F.subspace(k), -1, -2) @ G.subspace(k)
        if k == 1:
            smallest = np.abs(pairing[..., 0, 0])
        else:
            smallest = np.linalg.svd(pairing, compute_uv=False)[..., -1]
        smallest = np.clip(smallest, -1.0, 1.0)
        sine = np.sqrt(np.maximum(1.0 - smallest * smallest, 0.0))
        out = sine if out is None else np.maximum(out, sine)
    return float(out) if out.ndim == 0 else out


def sample_limit_set(P, theta, n):
    """U_theta over the word sphere of radius n: a finite limit-set stand-in.

    Returns (F, skipped, words): F stacks the flags of the sphere elements
    passing the singular-gap test, skipped counts the others and words is
    the (len(F), n) int8 array of the kept elements' words.  The sphere's
    flags are read block by block as the walk writes its matrices.
    """
    walk = matgroup._BallWalk(P, n)
    frames, ok = [], []
    for lo, mats, _ in walk:
        F, good = u_theta(mats[walk.cut(lo, len(mats), n, n)], theta)
        frames.append(F.frame)
        ok.append(good)
    ok = np.concatenate(ok)
    (words,) = walk.ball()[n].sphere_letters()
    return Flag(F.theta, np.concatenate(frames)), int(np.count_nonzero(~ok)), words[ok]


def attracting_fixed_flag(A, theta):
    """Flag of dominant generalized eigenspaces of a theta-proximal matrix."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    theta = cartan.validate_theta(theta, d)
    nu = cartan.jordan(A)
    for k in theta:
        gap = nu[k - 1] - nu[k]
        if gap <= GAP_TOLERANCE:
            raise NotProximal(k, gap)
    eigvals, eigvecs = np.linalg.eig(A)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    cols = []
    for idx in order:
        v = eigvecs[:, idx]
        cols.append(v.real)
        if abs(v.imag).max() > 0:
            cols.append(v.imag)
    # conjugate pairs contribute duplicate real spans; Gram-Schmidt in
    # dominance order, dropping dependent columns, yields the frame
    kept = []
    for v in cols + list(np.eye(d)):
        for _ in range(2):
            for u in kept:
                v = v - (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            kept.append(v / norm)
        if len(kept) == d:
            break
    frame = np.column_stack(kept)
    signs = np.sign(frame[np.abs(frame).argmax(axis=0), np.arange(d)])
    signs[signs == 0] = 1.0
    return Flag(theta, frame * signs)
