"""Sliding audit: shrink the barrier onto a rescaled candidate set.

A candidate set with sublinear growth is first shrunk until it sits inside
the half-height barrier, then the barrier height is bisected downward.
Either the candidate stays inside all the way to the floor (the rigidity
mechanism closes), or a first contact appears at a bounded radius (where the
barrier's positive curvature certifies the obstruction), or the contact
radii run away to the grid edge (the candidate was not actually sublinear).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import QuadratureConfig, two_leaf_curvature
from .errors import InitialInclusionError, NotSublinearError
from .profiles import (BarrierProfile, RadialProfile, profile_values,
                       sublinearity_modulus)

SLIDE_FLOOR = 1e-4
SLIDE_ITERATIONS = 30

VERDICT_CONFIRMED = "RIGIDITY_MECHANISM_CONFIRMED"
VERDICT_TOUCH = "TOUCH_FOUND"
VERDICT_UNBOUNDED = "UNBOUNDED_TOUCH_SEQUENCE"


@dataclass(frozen=True)
class RescalePlan:
    lam: float
    eps0: float
    modulus_constant: float
    modulus_location: float


def rescale_for_slide(envelope: RadialProfile, eps0: float,
                      r_max: float = 100.0) -> RescalePlan:
    """Shrink factor placing any envelope-bounded set under (eps0/8)(1+r).

    With C the grid modulus at slack eps0/8, the factor eps0/(8C) turns the
    envelope bound phi(t) <= C + (eps0/8) t into exactly the target line.
    A non-sublinear envelope has no such factor and is rejected.
    """
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    delta = eps0 / 8.0
    report = sublinearity_modulus(envelope, delta, r_max=r_max)
    if not report.sublinear:
        raise NotSublinearError(
            f"envelope {envelope.kind!r} keeps growing at the grid edge; "
            "no rescaling can place it under the barrier")
    lam = eps0 / (8.0 * report.constant)
    grid = np.linspace(0.0, r_max, 2001)
    rescaled = lam * profile_values(envelope, grid / lam)
    bound = delta * (1.0 + grid)
    if np.any(rescaled > bound + 1e-9):
        bad = grid[np.argmax(rescaled - bound)]
        raise NotSublinearError(
            f"rescaled envelope exceeds the target line near r = {bad}")
    return RescalePlan(lam=lam, eps0=float(eps0), modulus_constant=report.constant,
                       modulus_location=report.location)


@dataclass(frozen=True)
class SlideOutcome:
    lam: float
    eps_star: float
    floor: float
    verdict: str
    interpretation: str
    touch_radius: float | None = None
    touch_point: tuple | None = None
    curvature_at_touch: float | None = None
    curvature_error: float | None = None


def slide(candidate: RadialProfile, lam: float, eps0: float, n: int, alpha: float,
          config: QuadratureConfig | None = None, r_max: float = 100.0,
          floor: float = SLIDE_FLOOR) -> SlideOutcome:
    """Bisect the barrier height down onto the rescaled candidate.

    The candidate profile is evaluated through the shrink factor
    (height lam * candidate(r / lam)) on a fixed radial grid; containment
    against the barrier profile is strict.  Contact radii of rejected
    heights are tracked: three consecutive failures beyond r_max/2 end the
    run as an escape to infinity.
    """
    if not lam > 0.0:
        raise ValueError("shrink factor must be positive")
    if not eps0 > 0.0:
        raise ValueError("starting barrier height must be positive")
    grid = np.linspace(0.0, r_max, 4001)
    heights = lam * profile_values(candidate, grid / lam)

    def barrier_heights(eps):
        return profile_values(BarrierProfile(eps), grid)

    def contained(eps):
        return bool(np.all(heights < barrier_heights(eps)))

    start = 0.5 * eps0
    if not contained(start):
        gap = heights - barrier_heights(start)
        worst = grid[int(np.argmax(gap))]
        raise InitialInclusionError(
            f"rescaled candidate pokes out of the half-height barrier near r = {worst}")

    if contained(floor):
        return SlideOutcome(
            lam=lam, eps_star=floor, floor=floor, verdict=VERDICT_CONFIRMED,
            interpretation=("the candidate stayed inside every barrier down to the "
                            "height floor; nothing obstructs sliding it to the flat limit"))

    lo, hi = floor, start
    escape_streak = 0
    for _ in range(SLIDE_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if contained(mid):
            # no failure radius at an accepted level; the escape count only
            # tracks consecutive failing levels
            hi = mid
        else:
            lo = mid
            gap = heights - barrier_heights(mid)
            fail_radius = grid[int(np.argmax(gap))]
            if fail_radius > 0.5 * r_max:
                escape_streak += 1
                if escape_streak >= 3:
                    return SlideOutcome(
                        lam=lam, eps_star=hi, floor=floor,
                        verdict=VERDICT_UNBOUNDED,
                        touch_radius=float(fail_radius),
                        interpretation=(
                            "containment failures run off toward the grid edge as the "
                            "barrier shrinks; the candidate grows too fast for the "
                            "sliding mechanism, no bounded first contact exists"))
            else:
                escape_streak = 0

    eps_star = hi
    closeness = barrier_heights(eps_star) - heights
    idx = int(np.argmin(closeness))
    touch_radius = float(grid[idx])
    touch_point = (touch_radius,) + (0.0,) * (n - 1) + (float(heights[idx]),)
    cfg = config if config is not None else QuadratureConfig.for_profile(BarrierProfile(eps_star))
    res = two_leaf_curvature(BarrierProfile(eps_star), touch_radius, n, alpha, cfg)
    return SlideOutcome(
        lam=lam, eps_star=float(eps_star), floor=floor, verdict=VERDICT_TOUCH,
        touch_radius=touch_radius, touch_point=touch_point,
        curvature_at_touch=float(res.value), curvature_error=float(res.total_error),
        interpretation=(
            "the barrier cannot shrink past this height without contacting the "
            "candidate; at the contact radius the barrier curvature is strictly "
            "positive, and a genuinely stationary candidate touched from outside "
            "would force it nonpositive there, so the contact rules out stationarity "
            "at this scale"))
