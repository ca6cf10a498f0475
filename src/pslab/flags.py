"""Partial flag manifolds, the Cartan limit map and limit-set sampling."""

from dataclasses import dataclass

import numpy as np

from . import _kernels, cartan, matgroup
from .errors import DecompositionFailure, InsufficientGap, NotProximal, ThetaMismatch

GAP_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Flag:
    """Points of F_theta: nested column spans of orthonormal frames.

    ``frame`` is one (d, d) frame or a stack of them with leading axes, such
    as (N, d, d); the operations below broadcast over the leading axes and
    give a plain value for a single flag.  The k-subspace (k in theta) is the
    span of the first k frame columns.  Equality of flags is span equality,
    tested through flag_distance, and no reader depends on a column's sign.
    Frames are not checked: each producer below (u_theta, sample_limit_set,
    attracting_fixed_flag) makes them orthonormal, by _kernels.frames_2x2
    (d = 2), _kernels.spliced_frames (d >= 3) or Gram-Schmidt.
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


def u_theta(A, A_inv, theta):
    """Flags of leading singular subspaces ("span of the k largest axes"), spliced for d >= 3.

    A_inv holds the forward products of the inverted words of A's rows, not
    matrix inverses.  For a (N, d, d) stack, returns (F, ok): ok marks the
    rows whose gaps at every k in theta are above GAP_TOLERANCE, and F
    stacks their flags in row order.  One (d, d) matrix is the stack of one
    row: its Flag, or InsufficientGap at its first bad k.

    Each branch makes its frames and gaps in one kernel pass over the
    stack.  For d = 2 the frames are _kernels.frames_2x2, the positive QR
    frames of A's left singular vectors with LAPACK's bits, and the gaps
    are A's log singular gaps; A_inv is not read.  For d >= 3 a deep
    product's small singular directions are rounding noise, so the frames
    are _kernels.spliced_frames: the large subspaces come from A and the
    small ones from A_inv, as cartan.splice takes a Cartan vector's
    entries.  The gaps are those of the spliced Cartan vector, whose d = 3
    middle entry is minus the sum of the others, so they read log sigma_1
    of A and of A_inv alone.  A row with a non-finite entry fails the gap
    test.
    """
    A = np.asarray(A, dtype=float)
    single = A.ndim == 2
    stack = A[None] if single else A
    d = A.shape[-1]
    theta = cartan.validate_theta(theta, d)
    if d == 2:
        frames, sigma = _kernels.frames_2x2(stack)
        logs = np.log(sigma)
        gaps = logs[..., np.array(theta) - 1] - logs[..., theta]
    else:
        frames, gaps = _spliced_frames_gaps(
            stack, np.asarray(A_inv, dtype=float).reshape(stack.shape), theta)
    # a NaN gap fails the test
    failed = ~(gaps > GAP_TOLERANCE)
    if single and failed.any():
        i = int(np.argmax(failed[0]))
        raise InsufficientGap(theta[i], gaps[0, i])
    ok = ~failed.any(axis=-1)
    kept = int(np.count_nonzero(ok))
    frames[:kept] = frames[ok]
    F = Flag(theta, frames[:kept])
    return F[0] if single else (F, ok)


def _spliced_frames_gaps(A, A_inv, theta):
    """Spliced frames of the stacks A and A_inv (d >= 3) and the gaps at each k in theta of their spliced Cartan vectors."""
    frames, logs, inv_logs = _kernels.spliced_frames(A, A_inv)
    d = A.shape[-1]
    if d == 3:
        # the middle entry is minus the sum of the others (det = 1)
        K = np.concatenate([logs, inv_logs - logs, -inv_logs], axis=-1)
    else:
        K = cartan.splice(logs, inv_logs, np.empty(A.shape[:-1]))
    return frames, K[..., np.array(theta) - 1] - K[..., theta]


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
    passing u_theta's gap test, skipped counts the others and words is the
    (len(F), n) int8 array of the kept elements' words.  The sphere's flags
    are read block by block as the walk writes its products and their
    inverse-word products, which u_theta splices for d >= 3.
    """
    walk = matgroup._BallWalk(P, n)
    frames, ok = [], []
    for lo, mats, inv_mats in walk:
        part = walk.cut(lo, len(mats), n, n)
        F, good = u_theta(mats[part], inv_mats[part], theta)
        frames.append(F.frame)
        ok.append(good)
    ok = np.concatenate(ok)
    (words,) = walk.ball()[n].sphere_letters()
    return Flag(F.theta, np.concatenate(frames)), int(np.count_nonzero(~ok)), words[ok]


def attracting_fixed_flag(A, theta):
    """Flag of dominant generalized eigenspaces of a theta-proximal matrix.

    One eig call gives the Jordan gaps and the frame's eigenvectors.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    theta = cartan.validate_theta(theta, d)
    try:
        eigvals, eigvecs = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(str(exc)) from exc
    order = np.argsort(-np.abs(eigvals), kind="stable")
    moduli = np.abs(eigvals)[order]
    # NaN fails both tests
    if not moduli[-1] > 0.0 or not moduli[0] < np.inf:
        raise DecompositionFailure("vanishing or non-finite eigenvalue modulus")
    nu = np.log(moduli)
    nu -= nu.mean()
    for k in theta:
        gap = nu[k - 1] - nu[k]
        if gap <= GAP_TOLERANCE:
            raise NotProximal(k, gap)
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
    return Flag(theta, _kernels._signed(np.column_stack(kept)))
