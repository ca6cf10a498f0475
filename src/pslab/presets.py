"""Shipped example presentations used by the CLI configs and the test suite."""

import numpy as np

from . import matgroup


def parabolic():
    """The cyclic parabolic group <[[1,1],[0,1]]> in SL(2,R)."""
    return matgroup.GroupPresentation(2, [np.array([[1.0, 1.0], [0.0, 1.0]])],
                                      labels=["t"])


def cyclic_hyperbolic():
    """The cyclic hyperbolic group <diag(2, 1/2)> in SL(2,R)."""
    return matgroup.GroupPresentation(2, [np.diag([2.0, 0.5])], labels=["h"])


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def hyp_axis(p, q, s):
    """Hyperbolic element of SL(2,R) with attracting fixed point q, repelling
    p (boundary points of the upper half-plane) and translation length 2s."""
    C = np.array([[q, p], [1.0, 1.0]])
    C /= np.sqrt(abs(np.linalg.det(C)))
    return C @ np.diag([np.exp(s), np.exp(-s)]) @ np.linalg.inv(C)


def fuchsian_schottky(s=2.0):
    """Two-generator Fuchsian Schottky group with disjoint axes.

    Generator a has fixed points {-1.2, 0.8}, generator b has {2, 4}; for s
    large enough the four isometric-circle disks are disjoint and ping-pong
    applies.  Neither axis passes through the basepoint i, so no orbit point
    or Cartan flag degenerates onto a fixed point exactly.
    """
    A = hyp_axis(-1.2, 0.8, s)
    B = hyp_axis(2.0, 4.0, s)
    return matgroup.GroupPresentation(2, [A, B], labels=["a", "b"])


FUCHSIAN_SCHOTTKY_PARAMS = [1.6, 2.0, 2.6]


def sanov_gamma2():
    """The level-2 congruence subgroup Gamma(2) of SL(2,Z), as Sanov's free pair.

    <[[1,2],[0,1]], [[1,0],[2,1]]> is free of rank 2 with two parabolic
    generators and finite covolume, so delta for alpha_1 is exactly 1: an
    exponentially growing group with cusps and a known exponent.
    """
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.0], [2.0, 1.0]])
    return matgroup.GroupPresentation(2, [A, B], labels=["a", "b"])


def sym_power_presentation(P, d):
    """Image of a 2x2 presentation under the d-dimensional irreducible rep."""
    gens = [matgroup.symmetric_power_rep(g, d) for g in P.generators]
    return matgroup.GroupPresentation(d, gens, labels=list(P.labels))


def schottky_so21(s=2.0):
    """Fuchsian Schottky pushed to SL(3,R) through the symmetric square."""
    return sym_power_presentation(fuchsian_schottky(s), 3)


def rotation3(axis, angle):
    R = np.eye(3)
    plane = [(1, 2), (0, 2), (0, 1)][axis]
    R[np.ix_(plane, plane)] = rotation(angle)
    return R


def sl3_zariski_dense():
    """Two-generator Zariski-dense subgroup of SL(3,R).

    Strongly proximal generators in general position: the conjugating
    rotation is a generic Euler product, so no attracting line of a letter
    lands in a repelling hyperplane of another, and reduced words stay
    uniformly regular (sphere-minimal root gaps grow linearly).
    """
    A = np.diag([36.0, 1.0, 1.0 / 36.0])
    Q = rotation3(2, 0.7) @ rotation3(1, 0.4) @ rotation3(0, 0.3)
    B = Q @ np.diag([25.0, 1.0, 0.04]) @ Q.T
    return matgroup.GroupPresentation(3, [A, B], labels=["a", "b"])


def sl2_mild():
    """Well-conditioned SL(2,R) pair for identity and property tests."""
    A = hyp_axis(-1.0, 1.0, 0.3)
    B = hyp_axis(3.0, 5.0, 0.25) @ rotation(0.2)
    return matgroup.GroupPresentation(2, [A, B], labels=["a", "b"])


def sl3_mild():
    """Well-conditioned SL(3,R) pair for identity and property tests."""
    A = np.diag([1.3, 1.0, 1.0 / 1.3])
    B = rotation3(2, 0.5) @ np.diag([1.25, 0.95, 1.0 / (1.25 * 0.95)]) @ rotation3(0, 0.9)
    return matgroup.GroupPresentation(3, [A, B], labels=["a", "b"])


def sl4_mild():
    """Well-conditioned SL(4,R) pair for identity and property tests."""
    A = np.diag([1.4, 1.1, 1.0 / 1.1, 1.0 / 1.4])
    B = np.eye(4)
    B[:2, :2] = rotation(0.6)
    B[2:, 2:] = rotation(0.3)
    B = B @ np.diag([1.2, 1.05, 0.9, 1.0 / (1.2 * 1.05 * 0.9)])
    return matgroup.GroupPresentation(4, [A, B], labels=["a", "b"])


PRESETS = {
    "parabolic": parabolic,
    "cyclic-hyperbolic": cyclic_hyperbolic,
    "fuchsian-schottky-1": lambda: fuchsian_schottky(FUCHSIAN_SCHOTTKY_PARAMS[0]),
    "fuchsian-schottky-2": lambda: fuchsian_schottky(FUCHSIAN_SCHOTTKY_PARAMS[1]),
    "fuchsian-schottky-3": lambda: fuchsian_schottky(FUCHSIAN_SCHOTTKY_PARAMS[2]),
    "sanov-gamma2": sanov_gamma2,
    "schottky-so21": schottky_so21,
    "sl3-zariski-dense": sl3_zariski_dense,
    "sl2-mild": sl2_mild,
    "sl3-mild": sl3_mild,
    "sl4-mild": sl4_mild,
}
