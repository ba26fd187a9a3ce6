"""Reference values for the n >= 2 curvature points pinned in test_curvature.py.

Runs ``two_leaf_curvature`` with every radial band re-done by
``scipy.integrate.quad_vec`` at absolute and relative tolerance 1e-15, as
one integral of the node-summed integrand, split at each radius where some
angular node's offset meets a knot or a zero crossing, computed here afresh:

  * the core, the graph and the mirror terms summed, in the program's own
    variable x = rho^(1-a), in which rho^-a drho = dx / (1 - a);
  * the midfield and every tail band in log rho.

The angular rule, the tail escalation and the outer radius stay the
program's own, so a reference differs from the program's value only by the
program's radial quadrature error, which core plus midfield error must
cover.  Each point takes a few seconds.  Run from the repository root:

    PYTHONPATH=src python tests/make_n2_references.py
"""

import numpy as np
from scipy import integrate

from fracsurf import BarrierProfile, angular_rule, curvature, two_leaf_curvature
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
    cj, _ = angular_rule(n, curvature.ANGULAR_ORDER)
    k = np.concatenate((profile.knots, profile_zeros(profile)))[:, None]
    disc = k * k - s * s * (1.0 - cj * cj)
    real = disc >= 0.0
    mid = np.broadcast_to(-s * cj, disc.shape)[real]
    rho = np.concatenate((mid - np.sqrt(disc[real]), mid + np.sqrt(disc[real])))
    return np.log(np.unique(rho[rho > 0.0]))


def reference_bands(profile, r, n, alpha):
    bends = kinks(profile, r, n)

    def band(f, a, b, term, limit):
        # f(u, j) is node j's term at u; the reference integrates their sum.
        # The core band starts at x = 0, the others in log rho.
        nodes = np.unique(term)[:, None]
        lo, hi = float(np.min(a)), float(np.max(b))
        core = lo == 0.0
        points = [u for u in (np.exp((1.0 - alpha) * bends) if core else bends) if lo < u < hi]
        return integrate.quad_vec(lambda u: np.sum(f(np.full(nodes.shape, u), nodes)), lo, hi,
                                  points=points or None,
                                  limit=CORE_INTERVALS if core else len(points) + 10_000, **TOL)
    return band


def main():
    for name, profile, r, n, alpha in POINTS:
        curvature._gk21_band = reference_bands(profile, r, n, alpha)
        res = two_leaf_curvature(profile, r, n, alpha)
        print(f"{name} r={r} n={n} alpha={alpha}: {res.value!r} "
              f"(outer radius {res.outer_radius:g}, warnings {res.warnings})")


if __name__ == "__main__":
    main()
