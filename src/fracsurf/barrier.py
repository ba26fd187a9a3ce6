"""Barrier construction, cone-constant measurement, and positivity audits.

The barrier is the two-leaf body over the capped-cone profile: flat height
eps out to radius 1, a C^2 quintic blend on [1, 2], then the straight cone
eps * r.  The claim under audit is that its curvature stays strictly
positive on the whole boundary once eps is small, with the far field
governed by the curvature constant of the matching straight cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import derived_seed
from .curvature import QuadratureConfig, two_leaf_curvature
from .errors import FracsurfError, HomogeneityViolationError, InvalidCutoffError
from .geometry import Cone, SampleSpec, TwoLeaf, boundary_sample
from .oracle import direct_curvature
from .profiles import BarrierProfile


def build_barrier(epsilon: float) -> BarrierProfile:
    """Construct the barrier profile and verify the blend is C^2 at both knots."""
    if not 0.0 < epsilon:
        raise ValueError("epsilon must be positive")
    prof = BarrierProfile(epsilon)
    h = 1e-7
    for knot in (1.0, 2.0):
        ds = prof.first_derivative(knot + h) - prof.first_derivative(knot - h)
        dc = prof.second_derivative(knot + h) - prof.second_derivative(knot - h)
        if abs(ds) > 1e-5 * epsilon or abs(dc) > 1e-3 * epsilon:
            raise InvalidCutoffError(
                f"blend fails C^2 check at r = {knot}: slope jump {ds}, curvature jump {dc}")
    return prof


@dataclass(frozen=True)
class ConeConstantReport:
    epsilon: float
    value: float
    error: float
    entries: tuple  # (norm, scaled_value, scaled_error)


def cone_constant(epsilon: float, n: int, alpha: float,
                  config: QuadratureConfig | None = None,
                  seed: int = 0) -> ConeConstantReport:
    """|x|^alpha-scaled curvature of the straight cone, averaged over rays.

    The cone curvature is (-alpha)-homogeneous, so the scaled samples along
    the upper boundary ray must agree; disagreement beyond three combined
    error bars is a hard failure, not noise to average away.
    """
    if config is None:
        config = QuadratureConfig()
    cone = Cone(epsilon)
    tilt = math.sqrt(1.0 + epsilon * epsilon)
    entries = []
    for m in (2.0, 5.0, 10.0):
        r = m / tilt
        point = np.zeros(n + 1)
        point[0] = r
        point[-1] = epsilon * r
        res = direct_curvature(cone, point, n, alpha, config,
                               seed=derived_seed(seed, "cone", epsilon, m))
        entries.append((float(m), m ** alpha * res.value, m ** alpha * res.total_error))
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            gap = abs(entries[i][1] - entries[j][1])
            budget = 3.0 * (entries[i][2] + entries[j][2])
            if gap > budget:
                raise HomogeneityViolationError(
                    f"scaled cone curvature at |x|={entries[i][0]} and |x|={entries[j][0]} "
                    f"differ by {gap}, beyond 3x the error budget {budget}")
    vals = [e[1] for e in entries]
    value = float(np.mean(vals))
    error = max(e[2] for e in entries)
    return ConeConstantReport(epsilon=float(epsilon), value=value, error=error,
                              entries=tuple(entries))


@dataclass(frozen=True)
class ConeSweepReport:
    entries: tuple  # ConeConstantReport per epsilon, in input order
    blow_up_trend: bool
    monotone: bool


def sweep_cone_constant(epsilons, n: int, alpha: float,
                        config: QuadratureConfig | None = None,
                        seed: int = 0) -> ConeSweepReport:
    """Cone constants across an opening-slope grid, largest slope first.

    The blow-up flag is set when the constant strictly increases as the
    slope shrinks by more than the combined error bars at every step.
    Non-monotone runs are reported as such, never reordered or dropped.
    """
    reports = [cone_constant(float(e), n, alpha, config, seed=seed) for e in epsilons]
    blow_up = True
    monotone = True
    for prev, nxt in zip(reports, reports[1:]):
        if nxt.epsilon >= prev.epsilon:
            raise ValueError("sweep grid must be strictly decreasing in epsilon")
        if nxt.value - prev.value <= prev.error + nxt.error:
            blow_up = False
        if nxt.value < prev.value:
            monotone = False
    return ConeSweepReport(entries=tuple(reports), blow_up_trend=blow_up,
                           monotone=monotone)


@dataclass(frozen=True)
class BarrierSamplePoint:
    point: tuple
    radius: float
    value: float
    error: float
    outer_radius: float
    warnings: tuple


@dataclass(frozen=True)
class BarrierReport:
    epsilon: float
    n: int
    alpha: float
    samples: tuple
    min_margin: float
    verdict: str
    empirical_eps0: float
    far_scaled: float | None = None
    cone_value: float | None = None
    cone_error: float | None = None
    far_agrees: bool | None = None
    shrink_consistent: bool | None = None
    notes: tuple = field(default_factory=tuple)


VERDICT_POSITIVE = "POSITIVE"
VERDICT_NOT_POSITIVE = "NOT_POSITIVE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

FAR_RADIUS = 50.0
EPS0_WINDOW = (0.0, 0.5)
EPS0_STEPS = 6


def _sample_radii(count: int) -> SampleSpec:
    ray = tuple(float(r) for r in np.geomspace(4.5, FAR_RADIUS, max(8, count // 8)))
    return SampleSpec(count=max(16, count - len(ray) - 12), r_max=4.0,
                      refine_near=(1.0, 2.0), ray_radii=ray)


def _evaluate_boundary(epsilon, n, alpha, config, count):
    profile = build_barrier(epsilon)
    pts = []
    for bs in boundary_sample(TwoLeaf(profile), n, _sample_radii(count)):
        res = two_leaf_curvature(profile, bs.radius, n, alpha, config)
        pts.append(BarrierSamplePoint(point=tuple(float(c) for c in bs.point),
                                      radius=bs.radius, value=res.value,
                                      error=res.total_error,
                                      outer_radius=float(res.outer_radius),
                                      warnings=res.warnings))
    return pts, any(p.warnings for p in pts)


def _positivity_probe(epsilon, n, alpha, config, count, notes):
    try:
        pts, failed = _evaluate_boundary(epsilon, n, alpha, config, count)
    except FracsurfError as exc:
        # an invalid barrier at this height reads as "not positive", with its
        # reason in the notes; any other exception is a fault and propagates
        notes.append(f"positivity probe at epsilon = {epsilon!r} failed: {exc}")
        return None, True
    margin = min(p.value - p.error for p in pts)
    return margin, failed


def verify_barrier(epsilon: float, n: int, alpha: float,
                   config: QuadratureConfig | None = None, seed: int = 0,
                   min_samples: int = 200,
                   bisect_eps0: bool = True,
                   check_shrink: bool = True) -> BarrierReport:
    """Audit curvature positivity on the barrier boundary.

    Samples the boundary densely through the cap, blend, and near cone,
    refines around both knots, and walks the straight-cone ray out to the
    far radius.  The verdict is POSITIVE only when every sample clears its
    own reported error; a failed evaluation makes the whole run
    INCONCLUSIVE rather than silently shrinking the sample set.
    """
    notes = []
    try:
        pts, failed = _evaluate_boundary(epsilon, n, alpha, config, min_samples)
    except FracsurfError as exc:
        return BarrierReport(epsilon=epsilon, n=n, alpha=alpha, samples=(),
                             min_margin=float("nan"),
                             verdict=VERDICT_INCONCLUSIVE, empirical_eps0=0.0,
                             notes=(f"evaluation failed: {exc}",))
    min_margin = min(p.value - p.error for p in pts)
    if failed:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("some evaluations did not reach their error target")
    else:
        verdict = VERDICT_POSITIVE if min_margin > 0.0 else VERDICT_NOT_POSITIVE

    far = max(pts, key=lambda p: p.radius)
    norm = far.radius * math.sqrt(1.0 + epsilon * epsilon)
    far_scaled = norm ** alpha * far.value
    cone = cone_constant(epsilon, n, alpha, config, seed=seed)
    far_agrees = bool(abs(far_scaled - cone.value) <= 0.05 * abs(cone.value))
    if not far_agrees:
        notes.append("far-field scaled curvature disagrees with the cone constant by more than 5%")

    eps0 = 0.0
    if bisect_eps0:
        lo, hi = EPS0_WINDOW
        probe_count = max(64, min_samples // 2)
        for _ in range(EPS0_STEPS):
            mid = 0.5 * (lo + hi)
            margin, bad = _positivity_probe(mid, n, alpha, config, probe_count, notes)
            if margin is not None and not bad and margin > 0.0:
                lo = mid
            else:
                hi = mid
        eps0 = lo

    shrink_ok = None
    if check_shrink:
        margin, bad = _positivity_probe(0.5 * epsilon, n, alpha, config,
                                        max(64, min_samples // 2), notes)
        shrink_ok = bool(margin is not None and not bad and margin > 0.0)
        if verdict == VERDICT_POSITIVE and not shrink_ok:
            notes.append("positivity did not persist at half the height scale")

    return BarrierReport(epsilon=float(epsilon), n=int(n), alpha=float(alpha),
                         samples=tuple(pts), min_margin=float(min_margin),
                         verdict=verdict, empirical_eps0=float(eps0),
                         far_scaled=float(far_scaled), cone_value=cone.value,
                         cone_error=cone.error, far_agrees=far_agrees,
                         shrink_consistent=shrink_ok, notes=tuple(notes))
