"""Reference values for the n >= 2 curvature points pinned in test_curvature.py.

Runs ``two_leaf_curvature`` with every radial integral re-done by
``scipy.integrate.quad_vec`` at absolute and relative tolerance 1e-15:

  * the weighted core int_0^delta rho^-a g(rho) drho through the substitution
    rho = delta x^(1/(1-a)), which leaves delta^(1-a)/(1-a) g(rho(x)) on [0, 1];
  * the mirror core as it stands;
  * the midfield and every tail band as one integral of the node-summed
    integrand, split at each radius where some angular node's offset meets a
    knot or a zero crossing, computed here afresh.

The angular rule, the tail escalation and the outer radius stay the
program's own, so a reference differs from the program's value only by the
program's radial quadrature error, which core plus midfield error must
cover.  Each point takes a few seconds.  Run from the repository root:

    PYTHONPATH=src python tests/make_n2_references.py
"""

import numpy as np
from scipy import integrate

from fracsurf import BarrierProfile, QuadratureConfig, angular_rule, curvature, two_leaf_curvature
from fracsurf.profiles import profile_zeros

TOL = dict(epsabs=1e-15, epsrel=1e-15)
# the core's difference quotient carries rounding noise near 1e-11 relative
# around rho = 1e-4, so the core never meets 1e-15 and stops at this many
# intervals, with an estimate near 1e-13
CORE_INTERVALS = 200

NECK = BarrierProfile(0.5).shifted(0.6)
TWIN = BarrierProfile(0.2).dilated(0.5)
BASE = BarrierProfile(0.2)
# (name, profile, radius, n, alpha)
POINTS = [("neck", NECK, 3.0, 2, 0.5), ("neck", NECK, 2.0, 2, 0.5),
          ("neck", NECK, 3.0, 3, 0.5), ("twin", TWIN, 1.0, 2, 0.5),
          ("twin", TWIN, 1.0, 3, 0.5), ("barrier", BASE, 0.5793650965138123, 2, 0.2),
          ("barrier", BASE, 0.5, 3, 0.8)]


def kinks(profile, s, n):
    """log rho where some angular node's offset radius meets a knot or a
    zero crossing: |x' + rho theta| = k solved for rho > 0."""
    cj, _ = angular_rule(n, QuadratureConfig().angular_order)
    k = np.concatenate((profile.knots, profile_zeros(profile)))[:, None]
    disc = k * k - s * s * (1.0 - cj * cj)
    real = disc >= 0.0
    mid = np.broadcast_to(-s * cj, disc.shape)[real]
    rho = np.concatenate((mid - np.sqrt(disc[real]), mid + np.sqrt(disc[real])))
    return np.log(np.unique(rho[rho > 0.0]))


def reference_quad(func, lo, hi, weight=None, wvar=None, points=(), **_):
    if weight == "alg":
        a = -wvar[0]
        scale = hi ** (1.0 - a) / (1.0 - a)
        val, err = integrate.quad_vec(lambda x: func(hi * x ** (1.0 / (1.0 - a))),
                                      0.0, 1.0, limit=CORE_INTERVALS, **TOL)
        return scale * val, scale * err
    points = [u for u in points if lo < u < hi]
    return integrate.quad_vec(func, lo, hi, points=points or None,
                              limit=len(points) + 10_000, **TOL)


def reference_points(profile, r, n):
    bends = kinks(profile, r, n).tolist()

    def band(f, a, b, term, limit):
        # f(u, j) is node j's term at u; the reference integrates their sum
        nodes = np.unique(term)[:, None]
        return reference_quad(lambda u: np.sum(f(np.full(nodes.shape, u), nodes)),
                              float(np.min(a)), float(np.max(b)), points=bends)
    return band


def main():
    curvature._quad = reference_quad
    for name, profile, r, n, alpha in POINTS:
        curvature._gk21_band = reference_points(profile, r, n)
        res = two_leaf_curvature(profile, r, n, alpha)
        print(f"{name} r={r} n={n} alpha={alpha}: {res.value!r} "
              f"(outer radius {res.outer_radius:g}, warnings {res.warnings})")


if __name__ == "__main__":
    main()
