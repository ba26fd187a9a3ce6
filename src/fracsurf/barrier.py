"""Barrier construction, cone-constant measurement, and positivity audits.

The barrier is the two-leaf body over the capped-cone profile: flat height
eps out to radius 1, a C^2 sextic blend on [1, 2], then the straight cone
eps * r.  The claim under audit is that its curvature stays strictly
positive on the whole boundary once eps is small, with the far field
governed by the curvature of the matching straight cone, which the audit
evaluates by quadrature at its farthest sample.  The cone sweep takes the
cone constants by quadrature as well; the Monte Carlo cone constant stays
as the oracle's referee.  The audit and its eps0 and half-height probes
share one failure path: a package error at some radius (a non-smooth point,
say) leaves no samples at that height and a note with the height and the
reason, which reads as INCONCLUSIVE for the audit and as not positive for a
probe.  Any other exception is a fault and propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import derived_seed
from .curvature import QuadratureConfig, two_leaf_curvature
from .errors import FracsurfError, HomogeneityViolationError, positive_finite
from .geometry import Cone
from .oracle import direct_curvature
from .profiles import BarrierProfile, LinearProfile


@dataclass(frozen=True)
class ConeConstantReport:
    epsilon: float
    value: float
    error: float
    entries: tuple  # (norm, scaled_value, scaled_error)
    warnings: tuple = ()


def _cone_report(epsilon, alpha, ray_curvature) -> ConeConstantReport:
    """|x|^alpha-scaled curvature of the straight cone, averaged over rays.

    ``ray_curvature(r, m)`` evaluates the upper boundary point at radius r
    and norm m.  The cone curvature is (-alpha)-homogeneous, so the scaled
    values along the ray must agree; disagreement beyond three combined
    error bars is a hard failure, not noise to average away.
    """
    tilt = math.sqrt(1.0 + epsilon * epsilon)
    entries, warnings = [], []
    for m in (2.0, 5.0, 10.0):
        res = ray_curvature(m / tilt, m)
        entries.append((m, m ** alpha * res.value, m ** alpha * res.total_error))
        warnings += [w for w in res.warnings if w not in warnings]
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            gap = abs(entries[i][1] - entries[j][1])
            budget = 3.0 * (entries[i][2] + entries[j][2])
            if gap > budget:
                raise HomogeneityViolationError(
                    f"scaled cone curvature at |x|={entries[i][0]} and |x|={entries[j][0]} "
                    f"differ by {gap}, beyond 3x the error budget {budget}")
    value = float(np.mean([e[1] for e in entries]))
    error = max(e[2] for e in entries)
    return ConeConstantReport(epsilon=float(epsilon), value=value, error=error,
                              entries=tuple(entries), warnings=tuple(warnings))


def cone_constant(epsilon: float, n: int, alpha: float,
                  oracle_samples: int = 1_000_000,
                  seed: int = 0) -> ConeConstantReport:
    """The cone constant from the Monte Carlo oracle, one seed per ray."""
    cone = Cone(epsilon)

    def oracle(r, m):
        point = np.zeros(n + 1)
        point[0] = r
        point[-1] = epsilon * r
        return direct_curvature(cone, point, n, alpha, oracle_samples,
                                seed=derived_seed(seed, "cone", epsilon, m))
    return _cone_report(epsilon, alpha, oracle)


@dataclass(frozen=True)
class ConeSweepReport:
    entries: tuple  # ConeConstantReport per epsilon, in input order
    blow_up_trend: bool
    monotone: bool


def sweep_cone_constant(epsilons, n: int, alpha: float) -> ConeSweepReport:
    """Quadrature cone constants across an opening-slope grid, largest slope first.

    The blow-up flag is set when the constant strictly increases as the
    slope shrinks by more than the combined error bars at every step.
    Non-monotone runs are reported as such, never reordered or dropped.
    """
    if len(epsilons) < 2 or any(float(nxt) >= float(prev)
                                for prev, nxt in zip(epsilons, epsilons[1:])):
        raise ValueError("sweep grid must hold two or more slopes, strictly decreasing "
                         "in epsilon")
    for e in epsilons:
        positive_finite("epsilons", e)

    def quadrature(epsilon):
        cone = LinearProfile(epsilon)
        return _cone_report(epsilon, alpha, lambda r, m: two_leaf_curvature(cone, r, n, alpha))
    reports = [quadrature(float(e)) for e in epsilons]
    blow_up = True
    monotone = True
    for prev, nxt in zip(reports, reports[1:]):
        if nxt.value - prev.value <= prev.error + nxt.error:
            blow_up = False
        if nxt.value < prev.value:
            monotone = False
    return ConeSweepReport(entries=tuple(reports), blow_up_trend=blow_up,
                           monotone=monotone)


@dataclass(frozen=True)
class BarrierReport:
    epsilon: float
    n: int
    alpha: float
    samples: tuple  # (point, CurvatureResult) per sample radius, in radius order
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


def _sample_radii(count: int) -> np.ndarray:
    """Sorted radii: an even grid over [0, 4], each knot offset by +-0.01,
    +-0.05 and +-0.2, and the cone ray from 4.5 out to the far radius."""
    ray = np.geomspace(4.5, FAR_RADIUS, max(8, count // 8))
    knots = np.array([[1.0], [2.0]]) + np.array([-0.2, -0.05, -0.01, 0.01, 0.05, 0.2])
    grid = np.linspace(0.0, 4.0, max(16, count - len(ray) - 12))
    return np.unique(np.concatenate([grid, knots.ravel(), ray]))


def _evaluate_boundary(epsilon, n, alpha, config, count, notes):
    """The barrier's samples at this height, and whether any evaluation failed:
    missed its error target, or raised a package error and left no samples."""
    profile = BarrierProfile(epsilon)
    samples = []
    try:
        for r in map(float, _sample_radii(count)):
            res = two_leaf_curvature(profile, r, n, alpha, config)
            samples.append(((r,) + (0.0,) * (n - 1) + (float(profile.value(r)),), res))
    except FracsurfError as exc:
        notes.append(f"evaluation at epsilon = {epsilon!r} failed: {exc}")
        return [], True
    return samples, any(res.warnings for _, res in samples)


def _positivity_probe(epsilon, n, alpha, config, count, notes):
    """Whether the barrier at this height is positive and no evaluation failed."""
    samples, failed = _evaluate_boundary(epsilon, n, alpha, config, count, notes)
    return not failed and min(res.value - res.total_error for _, res in samples) > 0.0


def verify_barrier(epsilon: float, n: int, alpha: float,
                   config: QuadratureConfig = QuadratureConfig(),
                   min_samples: int = 200,
                   bisect_eps0: bool = True,
                   check_shrink: bool = True) -> BarrierReport:
    """Audit curvature positivity on the barrier boundary.

    Samples the boundary densely through the cap, blend, and near cone,
    refines around both knots, and walks the straight-cone ray out to the
    far radius.  The verdict is POSITIVE only when every sample clears its
    own reported error; a failed evaluation makes the whole run
    INCONCLUSIVE rather than silently shrinking the sample set.  The far
    field must match the straight cone's quadrature curvature at the far
    radius within their summed total errors, with no cone warnings.
    """
    if min_samples < 1:
        raise ValueError(f"samples must be >= 1, not {min_samples!r}")
    notes = []
    samples, failed = _evaluate_boundary(epsilon, n, alpha, config, min_samples, notes)
    if not samples:
        return BarrierReport(epsilon=epsilon, n=n, alpha=alpha, samples=(),
                             min_margin=float("nan"), verdict=VERDICT_INCONCLUSIVE,
                             empirical_eps0=0.0, notes=tuple(notes))
    min_margin = min(res.value - res.total_error for _, res in samples)
    if failed:
        verdict = VERDICT_INCONCLUSIVE
        notes.append("some evaluations did not reach their error target")
    else:
        verdict = VERDICT_POSITIVE if min_margin > 0.0 else VERDICT_NOT_POSITIVE

    far_point, far = samples[-1]  # the radii run in increasing order
    far_r = far_point[0]
    scale = (far_r * math.sqrt(1.0 + epsilon * epsilon)) ** alpha
    cone = two_leaf_curvature(LinearProfile(epsilon), far_r, n, alpha, config)
    far_agrees = bool(abs(far.value - cone.value) <= far.total_error + cone.total_error
                      and not cone.warnings)
    if not far_agrees:
        notes.append(f"far field disagrees with the cone; cone warnings: {list(cone.warnings)}")

    eps0 = 0.0
    probe_count = max(64, min_samples // 2)
    if bisect_eps0:
        lo, hi = EPS0_WINDOW
        for _ in range(EPS0_STEPS):
            mid = 0.5 * (lo + hi)
            if _positivity_probe(mid, n, alpha, config, probe_count, notes):
                lo = mid
            else:
                hi = mid
        eps0 = lo

    shrink_ok = None
    if check_shrink:
        shrink_ok = _positivity_probe(0.5 * epsilon, n, alpha, config, probe_count, notes)
        if verdict == VERDICT_POSITIVE and not shrink_ok:
            notes.append("positivity did not persist at half the height scale")

    return BarrierReport(epsilon=float(epsilon), n=int(n), alpha=float(alpha),
                         samples=tuple(samples), min_margin=float(min_margin),
                         verdict=verdict, empirical_eps0=float(eps0),
                         far_scaled=float(scale * far.value), cone_value=float(scale * cone.value),
                         cone_error=float(scale * cone.total_error), far_agrees=far_agrees,
                         shrink_consistent=shrink_ok, notes=tuple(notes))
