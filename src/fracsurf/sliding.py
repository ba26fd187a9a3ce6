"""Sliding audit: shrink the barrier onto a rescaled candidate set.

A candidate set with sublinear growth is first shrunk until it sits inside
the half-height barrier, then the barrier is lowered until it first touches.
That height is the exact supremum of candidate over unit barrier, read at
the radii where the ratio can peak.  Either the candidate stays inside all
the way to the floor (the rigidity mechanism closes), or a first contact
appears at a bounded radius (where the barrier's positive curvature
certifies the obstruction), or the ratio only reaches its supremum as
r -> inf (the candidate was not actually sublinear).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureResult, two_leaf_curvature
from .errors import InitialInclusionError, positive_finite
from .profiles import (BarrierProfile, RadialProfile, profile_extremes,
                       profile_values, sublinearity_modulus)

SLIDE_FLOOR = 1e-4

VERDICT_CONFIRMED = "RIGIDITY_MECHANISM_CONFIRMED"
VERDICT_TOUCH = "TOUCH_FOUND"
VERDICT_UNBOUNDED = "UNBOUNDED_TOUCH_SEQUENCE"


@dataclass(frozen=True)
class RescalePlan:
    lam: float
    eps0: float
    modulus_constant: float
    modulus_location: float


def rescale_for_slide(envelope: RadialProfile, eps0: float) -> RescalePlan:
    """Shrink factor placing any envelope-bounded set under (eps0/8)(1+r).

    With C the modulus at slack eps0/8, the factor eps0/(8C) turns the
    envelope bound phi(t) <= C + (eps0/8) t into exactly the target line.
    A non-sublinear envelope has no such factor and is rejected.
    """
    positive_finite("eps0", eps0)
    report = sublinearity_modulus(envelope, eps0 / 8.0)
    return RescalePlan(lam=eps0 / (8.0 * report.constant), eps0=float(eps0),
                       modulus_constant=report.constant,
                       modulus_location=report.location)


@dataclass(frozen=True)
class SlideOutcome:
    lam: float
    eps_star: float
    floor: float
    verdict: str
    interpretation: str
    touch_point: tuple | None = None
    curvature: CurvatureResult | None = None  # the barrier's, at the touch point


def slide(candidate: RadialProfile, lam: float, eps0: float, n: int, alpha: float) -> SlideOutcome:
    """Lower the barrier height onto the rescaled candidate.

    The rescaled candidate c(r) = lam * candidate(r / lam) lies strictly
    inside the barrier of height eps exactly when eps exceeds
    eps* = sup c/u, with u the unit barrier.  The supremum is the larger of
    the ratio's maximum over the radii where it can peak and its limit as
    r -> inf; a limit above every finite ratio is an escape to infinity.
    Below ``SLIDE_FLOOR`` the barrier counts as flat.
    """
    positive_finite("shrink factor", lam)
    positive_finite("starting barrier height eps0", eps0)
    rescaled = candidate.dilated(1.0 / lam)
    unit = BarrierProfile(1.0)
    radii, limit = profile_extremes(rescaled, over=unit)
    ratios = profile_values(rescaled, radii) / profile_values(unit, radii)
    idx = int(np.argmax(ratios))
    eps_star = max(float(ratios[idx]), limit)

    if eps_star >= 0.5 * eps0:
        raise InitialInclusionError("rescaled candidate pokes out of the half-height barrier "
                                    f"at r = {radii[idx] if ratios[idx] >= limit else np.inf}")

    if eps_star < SLIDE_FLOOR:
        return SlideOutcome(
            lam=lam, eps_star=SLIDE_FLOOR, floor=SLIDE_FLOOR, verdict=VERDICT_CONFIRMED,
            interpretation=("the candidate stayed inside every barrier down to the "
                            "height floor; nothing obstructs sliding it to the flat limit"))

    if limit > ratios[idx]:
        return SlideOutcome(
            lam=lam, eps_star=eps_star, floor=SLIDE_FLOOR, verdict=VERDICT_UNBOUNDED,
            interpretation=(
                "the candidate over the barrier only reaches its supremum as r -> inf, "
                "so contact runs off to infinity as the barrier shrinks; the candidate "
                "grows too fast for the sliding mechanism, no bounded first contact exists"))

    touch_radius = float(radii[idx])
    return SlideOutcome(
        lam=lam, eps_star=eps_star, floor=SLIDE_FLOOR, verdict=VERDICT_TOUCH,
        touch_point=(touch_radius,) + (0.0,) * (n - 1) + (rescaled.value(touch_radius),),
        curvature=two_leaf_curvature(BarrierProfile(eps_star), touch_radius, n, alpha),
        interpretation=(
            "the barrier cannot shrink past this height without contacting the "
            "candidate; at the contact radius the barrier curvature is strictly "
            "positive, and a genuinely stationary candidate touched from outside "
            "would force it nonpositive there, so the contact rules out stationarity "
            "at this scale"))
