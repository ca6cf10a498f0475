"""Partial phi-Poincare sums over word balls, for tests of the series' tail."""

from pslab import cartan, patterson


def poincare_partial_sum(P, phi, theta, s, n):
    """Partial phi-Poincare sum over the word ball of radius n.

    Returns (value, tail_slope): tail_slope is the mean log increment of the
    per-sphere sums over the outer half of the spheres; negative slope points
    at convergence, positive at divergence, at this s.  Raises
    NegativePhiOnCone as the exponent estimators do.
    """
    theta = cartan.validate_theta(theta, P.dimension)
    ball, values, _ = patterson._walk_ball(P, n, cartan.theta_covector(phi, theta))
    per_sphere, tail_slope = patterson._sphere_sums(patterson._cone_checked(values),
                                                    ball.offsets, s)
    return float(per_sphere.sum()), tail_slope
