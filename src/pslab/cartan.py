"""Cartan subspace of sl(d,R): roots, weights, projections, involutions.

Vectors in the Cartan subspace are plain length-d numpy arrays (natural-log
scale, zero-sum).  ``matgroup.batch_kappa`` (Cartan) and ``jordan_spliced``
(Jordan) return dominant vectors (weakly decreasing entries).
"""

import numpy as np

from . import _kernels
from .errors import AsymmetricTheta, DecompositionFailure, NonUnimodular

DET_TOLERANCE = 1e-6


def require_unimodular(A):
    """Return the square matrix A as floats after its unit-determinant check.

    The allowance grows with eps times the product of A's column norms, the
    determinant's rounding scale (Hadamard's bound).  The norms and their
    product are taken without squaring an entry or multiplying the norms, so
    neither overflows; an allowance or a determinant that does is a
    rejection.  Only generators are checked: the products of checked
    generators lie in SL(d) too.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.isfinite(A).all():
        raise NonUnimodular(None)
    with np.errstate(over="ignore", divide="ignore"):
        det = np.linalg.det(A)
        log_hadamard = np.log(np.hypot.reduce(A, axis=0)).sum()
        allowance = np.exp(np.log(64 * len(A) * np.finfo(float).eps) + log_hadamard)
    # an overflowed allowance or determinant fails
    if not abs(det - 1.0) <= max(DET_TOLERANCE, allowance) < np.inf:
        raise NonUnimodular(float(det))
    return A


def jordan_spliced(A, A_inv):
    """Jordan projection of a long product, stabilized by its inverse product.

    A_inv must be the forward product of the inverted word, not a matrix
    inverse; the eigenvalue moduli of both are spliced as ``splice`` says.
    Stacks of both give one row per pair.
    """
    A, A_inv = np.asarray(A, dtype=float), np.asarray(A_inv, dtype=float)
    try:
        # LAPACK's dgeev works matrix by matrix, so the row ranges keep every bit
        mf, mi = _kernels._lapack_rows(_eigenvalue_moduli, A, A_inv)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(str(exc)) from exc
    mf, mi = np.sort(mf)[..., ::-1], np.sort(mi)[..., ::-1]
    return splice(np.log(np.maximum(mf, 1e-300)), np.log(np.maximum(mi, 1e-300)),
                  np.empty(mf.shape))


def _eigenvalue_moduli(A, A_inv):
    """The eigenvalue moduli of A and of A_inv, stacks or matrices."""
    return np.abs(np.linalg.eigvals(A)), np.abs(np.linalg.eigvals(A_inv))


def splice(logs, inv_logs, out):
    """The zero-sum log spectra of products, read from them and their inverse products.

    logs and inv_logs are the decreasing log singular values (or eigenvalue
    moduli) of the products and of the forward products of their inverted
    words, one row each; only their first ceil(d / 2) columns are read, d
    being the length of out's rows.  Small values of an ill-conditioned
    product carry absolute error of order eps times its largest one; the
    inverse product sees them as its large values.  So the top half of each
    row comes from logs, the bottom half from inv_logs negated and reversed,
    and an odd d's middle entry is the mean of the two.  The rows are
    written into out, which is returned.
    """
    d = out.shape[-1]
    top = (d + 1) // 2
    out[..., :top] = logs[..., :top]
    np.negative(inv_logs[..., :d - top][..., ::-1], out=out[..., top:])
    if d % 2 == 1:
        # reversal maps the middle entry to itself
        mid = d // 2
        out[..., mid] = 0.5 * (logs[..., mid] - inv_logs[..., mid])
    # zero-sum normalization in log space (robust |det|^(-1/d) rescaling):
    # the row sums are added column by column, left to right, the order in
    # which ndarray.mean adds a short contiguous row
    mean = out[..., 0].copy()
    for j in range(1, d):
        mean += out[..., j]
    mean /= d
    out -= mean[..., None]
    return out


def validate_theta(theta, d):
    """Canonicalize theta to a sorted tuple, checking symmetry k <-> d-k.

    None is the full theta, 1..d-1.
    """
    if theta is None:
        theta = full_theta(d)
    ts = tuple(sorted({int(k) for k in theta}))
    if not ts:
        raise AsymmetricTheta("theta must be non-empty")
    for k in ts:
        if not 1 <= k <= d - 1:
            raise AsymmetricTheta(f"index {k} outside 1..{d - 1}")
        if d - k not in ts:
            raise AsymmetricTheta(f"theta not symmetric: {k} in, {d - k} out")
    return ts


def full_theta(d):
    return tuple(range(1, d))


def _constraint_matrix(d, theta):
    # Rows: omega_k for k in theta, alpha_k = 0 for k outside theta, sum = 0.
    # Nonsingular for every non-empty theta: each run of indices outside
    # theta lies between two known omegas (omega_0 = omega_d = 0).
    M = np.zeros((d, d))
    row = 0
    for k in theta:
        M[row, :k] = 1.0
        row += 1
    for k in range(1, d):
        if k not in theta:
            M[row, k - 1] = 1.0
            M[row, k] = -1.0
            row += 1
    M[row, :] = 1.0
    return M


def vector_from_omegas(d, theta, omega_values):
    """The unique zero-sum vector in a_theta with the given omega_k values.

    omega_values has shape (..., len(theta)); the result has shape (..., d).
    """
    theta = validate_theta(theta, d)
    M = _constraint_matrix(d, theta)
    omega_values = np.asarray(omega_values, dtype=float)
    rhs = np.zeros(omega_values.shape[:-1] + (d, 1))
    rhs[..., : len(theta), 0] = omega_values
    return np.linalg.solve(M, rhs)[..., 0]


def projection_matrix(d, theta):
    """The projection onto a_theta: keeps omega_k for k in theta, kills alpha_k off theta."""
    theta = validate_theta(theta, d)
    M = _constraint_matrix(d, theta)
    R = np.zeros((d, d))
    for row, k in enumerate(theta):
        R[row, :k] = 1.0
    return np.linalg.solve(M, R)


def theta_covector(phi, theta):
    """The covector f with phi(kappa_theta) = kappa @ f: phi on the a_theta-projection."""
    return phi.covector() @ projection_matrix(phi.d, theta)


class Functional:
    """Linear functional on the Cartan subspace, stored as fundamental-weight
    coefficients: phi = sum_k c_k * omega_k.

    ``Functional.alpha(k, d)`` and ``Functional.omega(k, d)`` build the simple
    roots and fundamental weights; arbitrary combinations come from ``+`` and
    scalar ``*``.
    """

    def __init__(self, d, coefficients):
        self.d = int(d)
        coeffs = {}
        for k, c in dict(coefficients).items():
            k = int(k)
            if not 1 <= k <= self.d - 1:
                raise AsymmetricTheta(f"weight index {k} outside 1..{self.d - 1}")
            c = float(c)
            if c != 0.0:
                coeffs[k] = c
        self.coefficients = coeffs

    @classmethod
    def omega(cls, k, d):
        return cls(d, {k: 1.0})

    @classmethod
    def alpha(cls, k, d):
        # alpha_k = 2*omega_k - omega_{k-1} - omega_{k+1}, dropping omega_0
        # and omega_d (both vanish on zero-sum vectors).
        coeffs = {k: 2.0}
        if k - 1 >= 1:
            coeffs[k - 1] = -1.0
        if k + 1 <= d - 1:
            coeffs[k + 1] = -1.0
        return cls(d, coeffs)

    def covector(self):
        """Gradient f with phi(v) = f . v (f_i = sum of c_k over k >= i)."""
        f = np.zeros(self.d)
        for k, c in self.coefficients.items():
            f[:k] += c
        return f

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        cs = np.cumsum(v, axis=-1)
        out = 0.0
        for k, c in self.coefficients.items():
            out = out + c * cs[..., k - 1]
        return out

    def __add__(self, other):
        if not isinstance(other, Functional) or other.d != self.d:
            return NotImplemented
        coeffs = dict(self.coefficients)
        for k, c in other.coefficients.items():
            coeffs[k] = coeffs.get(k, 0.0) + c
        return Functional(self.d, coeffs)

    def __mul__(self, scalar):
        return Functional(self.d, {k: c * scalar for k, c in self.coefficients.items()})

    __rmul__ = __mul__

    def __repr__(self):
        terms = " + ".join(f"{c:g}*w{k}" for k, c in sorted(self.coefficients.items()))
        return f"Functional(d={self.d}, {terms or '0'})"

