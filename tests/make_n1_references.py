"""Reference values for the n = 1 curvature points pinned in test_curvature.py.

Runs ``two_leaf_curvature`` at n = 1 with every QUADPACK call replaced by
``scipy.integrate.quad_vec`` at absolute and relative tolerance 1e-15, split
at each radius where the offset radius |s -+ rho| of a node meets the axis,
a knot or a zero crossing, computed here afresh as |k - s| and k + s:

  * the weighted call below the pivot, the core's graph term, in
    x = rho^(1-a), in which rho^-a drho = dx / (1 - a), so its rho^-a
    singularity is gone;
  * the other calls below the pivot in rho: the mirror term under its
    weight tends to a constant at rho = 0 (gap / rho is of order rho^a
    there), and a core piece that starts at a bend is smooth;
  * the midfield and every tail band in the program's own log rho.

The integrands, the pivot, the tail escalation and the outer radius stay the
program's own, so a reference differs from the program's value only by the
program's radial quadrature error, which core plus midfield error must
cover.  It does not matter how the program splits the core: each of its
pieces is redone whole, split at every bend inside it.  Each point takes a
few seconds.  Run from the repository root:

    PYTHONPATH=src python tests/make_n1_references.py
"""

import numpy as np
from scipy import integrate

from fracsurf import BarrierProfile, QuadratureConfig, curvature, two_leaf_curvature
from fracsurf.profiles import SampledProfile, profile_zeros

TOL = dict(epsabs=1e-15, epsrel=1e-15)
# the core's difference quotient carries rounding noise, so at a = 0.8 the
# graph term never meets 1e-15: it stops at this many intervals, with an
# estimate near 2e-12 but within 2e-14 of where 5000 intervals stop
CORE_INTERVALS = 1000

_R = np.linspace(0.0, 4.0, 81)
KNOTTED = SampledProfile(_R, 1.0 + _R ** 2 / 8.0)
BASE = BarrierProfile(0.2)
# (name, profile, radius, alpha)
POINTS = [("knotted", KNOTTED, 1.0001, 0.5), ("knotted", KNOTTED, 0.97, 0.2),
          ("knotted", KNOTTED, 2.02, 0.8), ("barrier", BASE, 0.99, 0.5),
          ("barrier", BASE, 2.01, 0.5)]


def bends(profile, s):
    """rho > 0 where the offset radius |s + c rho| of a node c = +-1 meets
    the axis, a knot or a zero crossing k: rho = |k - s| or k + s."""
    k = np.concatenate(([0.0], profile.knots, profile_zeros(profile)))
    rho = np.concatenate((np.abs(k - s), k + s))
    return np.unique(rho[rho > 0.0])


def reference_quad(profile, s, alpha):
    at_rho = bends(profile, s)
    delta = min(QuadratureConfig().pv_inner_radius, 0.5 * profile.value(s))
    e = 1.0 / (1.0 - alpha)

    def quad(func, lo, hi, warnings, weight=None, **kw):
        if weight == "alg":
            # the weighted rule's func carries no rho^-a
            g, at, limit = lambda x: e * func(x ** e), at_rho ** (1.0 - alpha), CORE_INTERVALS
            lo, hi = lo ** (1.0 - alpha), hi ** (1.0 - alpha)
        elif hi <= delta:
            g, at, limit = func, at_rho, CORE_INTERVALS
        else:
            g, at, limit = func, np.log(at_rho), 10_000
        points = [u for u in at if lo < u < hi]
        val, err = integrate.quad_vec(g, lo, hi, points=points or None,
                                      limit=len(points) + limit, **TOL)
        return float(val), float(err)
    return quad


def main():
    for name, profile, r, alpha in POINTS:
        curvature._quad = reference_quad(profile, r, alpha)
        res = two_leaf_curvature(profile, r, 1, alpha)
        print(f"{name} r={r} alpha={alpha}: {res.value!r} "
              f"(outer radius {res.outer_radius:g}, warnings {res.warnings})")


if __name__ == "__main__":
    main()
