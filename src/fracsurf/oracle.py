"""Sampling cross-checks: direct curvature estimates and interaction energies.

The direct curvature estimator shares nothing with the deterministic
quadrature except the kernel exponent, which is what makes it a usable
referee.  It stratifies space around the evaluation point into geometric
shells and pairs every sample with its antipode, so the principal value
cancels exactly sample by sample instead of in expectation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureResult, QuadratureConfig
from .errors import DisjointnessError, InvalidPointError
from .geometry import Body, Box

_SHELL_RATIO = math.sqrt(2.0)


def _sphere_area(n: int) -> float:
    # surface measure of S^n inside R^(n+1)
    d = n + 1
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def _unit_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((count, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # resample the (measure-zero) degenerate draws instead of dividing by ~0
    bad = norms[:, 0] < 1e-12
    while bad.any():
        v[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-12
    return v / norms


def _check_on_boundary(body: Body, point: np.ndarray) -> None:
    d = point.shape[0]
    scale = 1e-6 * max(1.0, float(np.linalg.norm(point)))
    dirs = [np.eye(d)[i] * sgn for i in range(d) for sgn in (1.0, -1.0)]
    dirs += list(_unit_directions(np.random.default_rng(12345), 16, d))
    probes = point[None, :] + scale * np.array(dirs)
    flags = body.contains(probes)
    if flags.all() or not flags.any():
        raise InvalidPointError(
            f"membership does not flip near {point.tolist()}; not a boundary point")


def direct_curvature(body: Body, point, n: int, alpha: float,
                     config: QuadratureConfig | None = None,
                     seed: int = 0) -> CurvatureResult:
    """Shell-stratified antipodal Monte Carlo estimate of the curvature.

    Error accounting: the Monte Carlo standard error lands in
    error_midfield; the unsampled core below the innermost shell is bounded
    by extrapolating the shell magnitudes and goes to error_core; the
    analytic bound for the region beyond the outer radius goes to
    error_tail.
    """
    if config is None:
        config = QuadratureConfig()
    point = np.asarray(point, dtype=float)
    d = n + 1
    if point.shape != (d,):
        raise InvalidPointError(f"expected a point in R^{d}, got shape {point.shape}")
    _check_on_boundary(body, point)

    r_lo = 1e-3 * max(1.0, float(np.linalg.norm(point)))
    r_hi = 100.0 * config.truncation_radius
    n_shells = max(1, int(math.ceil(math.log(r_hi / r_lo) / math.log(_SHELL_RATIO))))
    edges = r_lo * _SHELL_RATIO ** np.arange(n_shells + 1)
    edges[-1] = r_hi
    pairs_per_shell = max(256, int(config.oracle_samples) // (2 * n_shells))

    streams = np.random.SeedSequence(seed).spawn(n_shells)
    total = 0.0
    var_sum = 0.0
    shell_means = []
    sphere = _sphere_area(n)
    for j in range(n_shells):
        a, b = float(edges[j]), float(edges[j + 1])
        rng = np.random.default_rng(streams[j])
        u = rng.random(pairs_per_shell)
        rho = (a ** d + u * (b ** d - a ** d)) ** (1.0 / d)
        omega = _unit_directions(rng, pairs_per_shell, d)
        ys = point[None, :] + rho[:, None] * omega
        ym = point[None, :] - rho[:, None] * omega
        sp = np.where(body.contains(ys), -1.0, 1.0)
        sm = np.where(body.contains(ym), -1.0, 1.0)
        # shell volume over sample count converts the mean into an integral
        vol = sphere / d * (b ** d - a ** d)
        w = 0.5 * (sp + sm) * rho ** (-(d + alpha)) * vol
        mean = float(np.mean(w))
        var = float(np.var(w, ddof=1)) / pairs_per_shell if pairs_per_shell > 1 else 0.0
        total += mean
        var_sum += var
        shell_means.append((a, b, mean, math.sqrt(var)))

    # three standard errors: downstream checks read the error fields as
    # one-sided bounds (margin = value - error), matching the deterministic
    # components' semantics
    mc_err = 3.0 * math.sqrt(var_sum)
    # |shell integral| <= c * int_a^b rho^-alpha drho near the surface; imply
    # the worst c from the lowest shells and integrate it inward.  The
    # innermost shells see only a handful of membership flips, so each
    # shell's own standard error is added to its magnitude before implying c;
    # using eight shells instead of the starved bottom ones keeps the implied
    # coefficient from reading low.
    c_hat = 0.0
    for a, b, mean, se in shell_means[:8]:
        denom = (b ** (1.0 - alpha) - a ** (1.0 - alpha)) / (1.0 - alpha)
        c_hat = max(c_hat, (abs(mean) + se) / denom)
    core_err = c_hat * r_lo ** (1.0 - alpha) / (1.0 - alpha)
    tail_err = sphere * r_hi ** (-alpha) / alpha
    return CurvatureResult(value=total, error_core=core_err,
                           error_midfield=mc_err, error_tail=tail_err,
                           outer_radius=r_hi)


@dataclass(frozen=True)
class EnergyResult:
    value: float
    error: float
    near_cut: float
    far_cut: float
    truncated: bool


def interaction_energy(first: Body, second: Body, window: Box, n: int, alpha: float,
                       samples: int = 400_000, seed: int = 0,
                       check_disjoint: bool = True) -> EnergyResult:
    """alpha(1-alpha)-weighted kernel energy between two disjoint bodies.

    The base point runs uniformly over ``window``; the offset is drawn from
    the kernel-weighted radial law between the near and far cuts, both tied
    to the window diameter so rescaled inputs rescale the estimate exactly.
    Offsets outside the cut annulus are the flagged truncation.
    """
    d = n + 1
    if window.dim != d:
        raise ValueError(f"window must live in R^{d}")
    rng_x = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    rng_d = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])

    near = 1e-4 * window.diameter
    far = 4.0 * window.diameter
    xs = window.sample(rng_x, samples)
    in_a = first.contains(xs)
    if check_disjoint:
        both = in_a & second.contains(xs)
        if both.any():
            raise DisjointnessError("regions overlap inside the sampling window")

    # kernel mass of the offset annulus, exact: |S^n| (near^-a - far^-a)/a
    sphere = _sphere_area(n)
    mass = sphere * (near ** (-alpha) - far ** (-alpha)) / alpha
    u = rng_d.random(samples)
    # inverse CDF of rho^(-1-alpha) restricted to [near, far]
    rho = (near ** (-alpha) - u * (near ** (-alpha) - far ** (-alpha))) ** (-1.0 / alpha)
    omega = _unit_directions(rng_d, samples, d)
    ys = xs + rho[:, None] * omega
    hit = in_a & second.contains(ys)
    vals = hit.astype(float)
    scale = alpha * (1.0 - alpha) * window.volume * mass
    value = scale * float(np.mean(vals))
    # three standard errors, same one-sided reading as everywhere else
    err = 3.0 * scale * float(np.std(vals, ddof=1)) / math.sqrt(samples)
    return EnergyResult(value=value, error=err, near_cut=near, far_cut=far,
                        truncated=True)


@dataclass(frozen=True)
class PerimeterResult:
    value: float
    error: float
    inner_inner: EnergyResult
    inner_outer: EnergyResult
    outer_inner: EnergyResult


def relative_perimeter(body: Body, window: Box, n: int, alpha: float,
                       samples: int = 400_000, seed: int = 0) -> PerimeterResult:
    """Fractional perimeter of the body relative to the window box.

    Three interaction energies: inside-with-inside, inside-with-outside
    complement, outside-body-with-inside complement.
    """
    E, W = body, window
    seeds = np.random.SeedSequence(seed).spawn(3)

    def run(first, second, s):
        return interaction_energy(first, second, window=_padded(window), n=n,
                                  alpha=alpha, samples=samples,
                                  seed=int(s.generate_state(1)[0]),
                                  check_disjoint=False)

    t1 = run(E & W, ~E & W, seeds[0])
    t2 = run(E & W, ~E - W, seeds[1])
    t3 = run(E - W, ~E & W, seeds[2])
    value = t1.value + t2.value + t3.value
    error = t1.error + t2.error + t3.error
    return PerimeterResult(value=value, error=error, inner_inner=t1,
                           inner_outer=t2, outer_inner=t3)


def _padded(window: Box) -> Box:
    # the base-point box must cover E \ W contributions near the window
    pad = 0.5 * window.diameter
    return Box(tuple(v - pad for v in window.lo), tuple(v + pad for v in window.hi))
