"""Large-scale rescaling diagnostics for radial graphs.

Looking at a graph from farther and farther away (divide space by R) should
flatten it when the height grows sublinearly.  The certificate here measures
exactly that on [0, 1], predicts the first passing radius from the growth
envelope, and cross-checks the gradient Holder seminorm identity that makes
the rescaling argument quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEpsilonError, InvalidExponentError
from .geometry import Subgraph
from .profiles import (DilatedGraphProfile, RadialProfile, SampledProfile, profile_extremes,
                       profile_slopes, profile_values, sublinearity_modulus)


def blowdown_rescale(body: Subgraph, factor: float) -> Subgraph:
    """View the subgraph at scale ``factor``: translate the boundary through
    the origin, then shrink space by the factor."""
    if not isinstance(body, Subgraph):
        raise TypeError("blowdown rescaling is defined for subgraph bodies")
    return Subgraph(rescaled_profile(body.profile, factor))


def rescaled_profile(profile: RadialProfile, factor: float) -> RadialProfile:
    """u(R r)/R - u(0)/R: the graph translated through the origin, then
    rescaled by R = factor."""
    return DilatedGraphProfile(profile.shifted(profile.value(0.0)), factor)


@dataclass(frozen=True)
class FlatnessReport:
    R: float
    epsilon: float
    R_eps_predicted: float
    passed: bool
    violator: float | None
    sup: float
    inf: float


def flatness_certificate(profile: RadialProfile, envelope: RadialProfile,
                         epsilon: float, R: float) -> FlatnessReport:
    """Check |rescaled height| <= epsilon on the unit horizontal ball.

    The predicted first passing radius comes from the envelope modulus at
    slack epsilon/2: R_pred = 2 C_(eps/2) / eps, the radius at which the
    envelope bound C + (eps/2) r divided by R dips under eps on [0, 1].  An
    envelope that is not sublinear has no such radius and is rejected.
    """
    eps = float(epsilon)
    if not 0.0 < eps < 0.25:
        raise InvalidEpsilonError(
            f"flatness tolerance must lie in (0, 1/4), got {eps}")
    R = float(R)
    if not R > 0:
        raise ValueError("rescaling radius must be positive")
    # raw u(R r)/R, no vertical translation: a nonzero apex height must
    # count against flatness (it decays like u(0)/R under the rescaling);
    # its extremes on [0, 1] sit at the profile's extremes on [0, R]
    radii, _ = profile_extremes(profile, R)
    w = profile_values(profile, radii) / R
    sup = float(np.max(w))
    inf = float(np.min(w))
    passed = sup <= eps and inf >= -eps
    violator = None
    if not passed:
        violator = float(radii[int(np.argmax(np.abs(w)))] / R)
    modulus = sublinearity_modulus(envelope, 0.5 * eps)
    r_pred = 2.0 * modulus.constant / eps
    return FlatnessReport(R=R, epsilon=eps, R_eps_predicted=float(r_pred),
                          passed=passed, violator=violator, sup=sup, inf=inf)


@dataclass(frozen=True)
class HolderReport:
    R: float
    beta: float
    lhs: float
    rhs: float


def holder_rescaling_check(profile: RadialProfile, R: float,
                           beta: float = 0.5) -> HolderReport:
    """Discrete gradient Holder seminorm against its rescaled counterpart.

    lhs: seminorm of the profile slope over the quarter ball of radius R/4,
    on a 60-node grid whose pairs are at least one spacing apart.
    rhs: the same seminorm of the rescaled graph u(R r)/R over the quarter
    unit ball, evaluated through an independently resampled interpolant and
    divided by R^beta.  Exactly equal in the continuum; the gap here is
    pure interpolation error.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidExponentError(f"Holder exponent must lie in (0, 1), got {beta}")
    R = float(R)
    radii = (0.25 * R) * (np.arange(60) + 1.0) / 60
    lhs = _seminorm(radii, profile_slopes(profile, radii), beta)

    sample_t = np.linspace(0.0, 0.3, 401)
    sampled = SampledProfile(sample_t, profile_values(profile, R * sample_t) / R)
    t = radii / R
    rhs = _seminorm(t, profile_slopes(sampled, t), beta) / R ** beta
    return HolderReport(R=R, beta=float(beta), lhs=float(lhs), rhs=float(rhs))


def _seminorm(points: np.ndarray, values: np.ndarray, beta: float) -> float:
    spacing = float(points[1] - points[0]) if len(points) > 1 else 0.0
    best = 0.0
    for i in range(len(points)):
        dr = np.abs(points[i + 1:] - points[i])
        keep = dr >= spacing * (1.0 - 1e-12)
        if not keep.any():
            continue
        ratios = np.abs(values[i + 1:][keep] - values[i]) / dr[keep] ** beta
        m = float(np.max(ratios))
        if m > best:
            best = m
    return best
