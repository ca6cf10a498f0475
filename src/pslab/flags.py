"""Partial flag manifolds, the Cartan limit map and limit-set sampling."""

from dataclasses import dataclass

import numpy as np

from . import cartan, matgroup
from .errors import InsufficientGap, NotProximal, ThetaMismatch

GAP_TOLERANCE = 1e-10
TRANSVERSALITY_TOLERANCE = 1e-10


def qr_positive(M):
    """QR with positive diagonal of R; deterministic orthonormal frame."""
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


@dataclass(frozen=True)
class Flag:
    """Point of F_theta: nested column spans of an orthonormal frame.

    The k-subspace (k in theta) is the span of the first k frame columns.
    Equality of flags is span equality, tested through flag_distance.
    """

    theta: tuple
    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(self.theta))
        frame = np.asarray(self.frame, dtype=float)
        object.__setattr__(self, "frame", frame)
        if np.max(np.abs(frame.T @ frame - np.eye(frame.shape[0]))) > 1e-8:
            raise ValueError("flag frame is not orthonormal")

    @property
    def dimension(self):
        return self.frame.shape[0]

    def subspace(self, k):
        return self.frame[:, :k]


def make_flag(theta, columns):
    """Flag from (possibly non-orthonormal) spanning columns, via a QR pass."""
    return Flag(theta, qr_positive(np.asarray(columns, dtype=float)))


def u_theta(A, theta, gap_tolerance=GAP_TOLERANCE):
    """Flag of leading left singular subspaces ("span of the k largest axes")."""
    A = cartan.require_unimodular(A)
    d = A.shape[0]
    theta = cartan.validate_theta(theta, d)
    U, sigma, _ = np.linalg.svd(A)
    logs = np.log(sigma)
    for k in theta:
        gap = logs[k - 1] - logs[k]
        if gap <= gap_tolerance:
            raise InsufficientGap(k, gap)
    return Flag(theta, qr_positive(U))


def apply_matrix(A, F):
    """The projective action of A on a flag, with frame re-orthonormalization."""
    return Flag(F.theta, qr_positive(np.asarray(A, dtype=float) @ F.frame))


def _check_compatible(F, G):
    if F.theta != G.theta or F.dimension != G.dimension:
        raise ThetaMismatch(f"{F.theta} (d={F.dimension}) vs {G.theta} (d={G.dimension})")


def is_transverse(F, G, tolerance=TRANSVERSALITY_TOLERANCE):
    """(transverse?, witness): F^k + G^(d-k) = R^d for all k in theta.

    The witness is the minimum over k of |det[basis F^k | basis G^(d-k)]|.
    """
    _check_compatible(F, G)
    d = F.dimension
    witness = np.inf
    for k in F.theta:
        M = np.hstack([F.subspace(k), G.subspace(d - k)])
        witness = min(witness, abs(np.linalg.det(M)))
    return bool(witness > tolerance), witness


def largest_principal_angle_sine(B1, B2):
    """sin of the largest principal angle between equal-dim orthonormal bases."""
    sigma = np.linalg.svd(B1.T @ B2, compute_uv=False)
    smallest = np.clip(sigma[-1], -1.0, 1.0)
    return float(np.sqrt(max(1.0 - smallest * smallest, 0.0)))


def flag_distance(F, G):
    """max over k in theta of sin(largest principal angle of F^k vs G^k)."""
    _check_compatible(F, G)
    return max(
        largest_principal_angle_sine(F.subspace(k), G.subspace(k)) for k in F.theta
    )


def flags_equal(F, G, tol=1e-7):
    return flag_distance(F, G) < tol


def sample_limit_set(P, theta, n, gap_tolerance=GAP_TOLERANCE):
    """U_theta over the word sphere of radius n: a finite limit-set stand-in.

    Returns (samples, skipped) where samples is a list of (Flag, word) and
    skipped counts the sphere elements failing the singular-gap test.
    """
    theta = cartan.validate_theta(theta, P.dimension)
    sphere = matgroup.word_spheres(P, n)[n]
    samples = []
    skipped = 0
    for M, word in zip(sphere.mats, sphere.words()):
        try:
            samples.append((u_theta(M, theta, gap_tolerance), word))
        except InsufficientGap:
            skipped += 1
    return samples, skipped


def attracting_fixed_flag(A, theta, gap_tolerance=GAP_TOLERANCE):
    """Flag of dominant generalized eigenspaces of a theta-proximal matrix."""
    A = cartan.require_unimodular(A)
    d = A.shape[0]
    theta = cartan.validate_theta(theta, d)
    nu = cartan.jordan(A)
    for k in theta:
        gap = nu[k - 1] - nu[k]
        if gap <= gap_tolerance:
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
