"""Sampling cross-checks: direct curvature, interaction energy, relative perimeter.

The direct curvature estimator shares nothing with the deterministic
quadrature except the kernel exponent, which is what makes it a usable
referee.  It stratifies space around the evaluation point into geometric
shells and pairs every sample with its antipode, so the principal value
cancels exactly sample by sample instead of in expectation only.

Samples are (N, n + 1) arrays only a few columns wide.  Their norms are
summed column by column (``geometry.row_norms``), not reduced along each
short row, which costs numpy one strided inner loop per sample; the order
of addition, and so every estimate, stays that of ``np.linalg.norm``.

Both samplers build their directions, offsets and membership tests
``_BLOCK`` = 32768 rows at a time.  Only the radii are kept whole, 8 bytes
per sample: the pair samplers count each block's hits, and a shell keeps
its own signs, so a 16 M-sample perimeter peaks near 0.21 GB.  Every
generator is drawn in the order of one whole-array draw, which keeps each
estimate bit for bit; only the measure-zero redraw of a degenerate
direction lands inside its own block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureResult, sphere_area
from .errors import DisjointnessError, InvalidPointError, check_order
from .geometry import Body, Box, row_norms

_SHELL_RATIO = math.sqrt(2.0)
# the direct estimate samples shells out to this radius and bounds the rest
_OUTER_RADIUS = 1e5
# rows of pair samples built at a time
_BLOCK = 32768


def _unit_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` uniform directions in R^dim, normalised Gaussian draws.

    Both samplers call it through ``_offset_blocks`` on ``_BLOCK`` = 32768
    rows at a time (8 bytes per sample stay whole: the radii).  A
    draw of norm below 1e-12 (measure zero) is redrawn from ``rng`` right
    away, so it lands inside its own block, before the next block's draws.
    """
    v = rng.standard_normal((count, dim))
    norms = row_norms(v)
    # resample the (measure-zero) degenerate draws instead of dividing by ~0
    bad = norms < 1e-12
    while bad.any():
        v[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = row_norms(v)
        bad = norms < 1e-12
    return v / norms[:, None]


def _offset_blocks(rng: np.random.Generator, rho: np.ndarray, dim: int):
    """Yield ``(rows, rho[rows, None] * directions)`` block after block.

    The directions come from ``rng`` in row order, as one whole draw would
    take them.
    """
    for start in range(0, rho.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        radii = rho[rows]
        yield rows, radii[:, None] * _unit_directions(rng, radii.shape[0], dim)


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
                     oracle_samples: int = 1_000_000,
                     seed: int = 0) -> CurvatureResult:
    """Shell-stratified antipodal Monte Carlo estimate of the curvature.

    ``oracle_samples`` is the sample budget, split evenly over the shells
    (at least 256 pairs each); the shells reach out to radius 1e5.
    Error accounting: the Monte Carlo standard error lands in
    error_midfield; the unsampled core below the innermost shell is bounded
    by extrapolating the shell magnitudes and goes to error_core; the
    analytic bound for the region beyond the outer radius goes to
    error_tail.
    """
    check_order(n, alpha)
    if oracle_samples < 1:
        raise ValueError(f"oracle_samples must be >= 1, not {oracle_samples!r}")
    point = np.asarray(point, dtype=float)
    d = n + 1
    # the outer shell's volume grows like 1e5^d, past the float range beyond n = 60
    if d * math.log(_OUTER_RADIUS) >= math.log(np.finfo(float).max):
        raise ValueError(f"n = {n} is too large for the direct estimate: its shells out to "
                         f"radius {_OUTER_RADIUS:g} have volumes beyond floating-point range")
    if point.shape != (d,):
        raise InvalidPointError(f"expected a point in R^{d}, got shape {point.shape}")
    _check_on_boundary(body, point)

    r_lo = 1e-3 * max(1.0, float(np.linalg.norm(point)))
    r_hi = _OUTER_RADIUS
    n_shells = max(1, int(math.ceil(math.log(r_hi / r_lo) / math.log(_SHELL_RATIO))))
    edges = r_lo * _SHELL_RATIO ** np.arange(n_shells + 1)
    edges[-1] = r_hi
    pairs_per_shell = max(256, int(oracle_samples) // (2 * n_shells))

    streams = np.random.SeedSequence(seed).spawn(n_shells)
    total = 0.0
    var_sum = 0.0
    shell_means = []
    sphere = sphere_area(n, n)
    for j in range(n_shells):
        a, b = float(edges[j]), float(edges[j + 1])
        rng = np.random.default_rng(streams[j])
        u = rng.random(pairs_per_shell)
        rho = (a ** d + u * (b ** d - a ** d)) ** (1.0 / d)
        sign = np.empty(pairs_per_shell)
        for rows, step in _offset_blocks(rng, rho, d):
            # the pair's sign 0.5 (s+ + s-), with s = -1 inside and +1
            # outside, is (not inside+) - inside-: -1, 0 or 1 exactly
            np.subtract(~body.contains(point + step), body.contains(point - step),
                        out=sign[rows], dtype=float)
        # shell volume over sample count converts the mean into an integral
        vol = sphere / d * (b ** d - a ** d)
        w = sign * rho ** (-(d + alpha)) * vol
        mean = float(np.mean(w))
        var = float(np.var(w, ddof=1)) / pairs_per_shell
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


def _pair_estimate(box: Box, n: int, alpha: float, samples: int, seed: int,
                   indicator) -> EnergyResult:
    """alpha(1-alpha)-weighted kernel integral of ``indicator(x, y)``.

    The base point x runs uniformly over ``box``; the offset y - x is drawn
    from the kernel-weighted radial law between the near and far cuts, both
    tied to the box diameter so rescaled inputs rescale the estimate exactly.
    Offsets outside the cut annulus are left out of the estimate.
    """
    check_order(n, alpha)
    d = n + 1
    if box.dim != d:
        raise ValueError(f"window must live in R^{d}")
    if samples < 2:
        # the error is a sample standard deviation: one pair has none
        raise ValueError(f"samples must be >= 2, not {samples!r}")
    with np.errstate(over="ignore"):
        volume = box.volume
    if not np.finfo(float).tiny <= volume < math.inf:
        raise ValueError(f"n = {n} and this window give a sampled box in R^{d} of volume "
                         f"{volume!r}, beyond floating-point range")
    rng_x, rng_d = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    near = 1e-4 * box.diameter
    far = 4.0 * box.diameter
    # kernel mass of the offset annulus, exact: |S^n| (near^-a - far^-a)/a
    mass = sphere_area(n, n) * (near ** (-alpha) - far ** (-alpha)) / alpha
    # inverse CDF of rho^(-1-alpha) restricted to [near, far], from uniforms
    # formed in place: a - u c is a + u (-c) bit for bit
    rho = rng_d.random(samples)
    rho *= -(near ** (-alpha) - far ** (-alpha))
    rho += near ** (-alpha)
    rho **= -1.0 / alpha
    hits = 0
    for _, step in _offset_blocks(rng_d, rho, d):
        xs = box.sample(rng_x, step.shape[0])
        hits += int(np.count_nonzero(indicator(xs, xs + step)))
    scale = alpha * (1.0 - alpha) * volume * mass
    mean = hits / samples
    value = scale * mean
    # three standard errors, same one-sided reading as everywhere else; the
    # sample variance of k ones among N draws is (k / N) (N - k) / (N - 1),
    # with k held in [1, N - 1] so that no hit (or no miss) still reports
    # the error of one, 3 scale / N, rather than 0
    k = min(max(hits, 1), samples - 1)
    err = 3.0 * scale * math.sqrt(k / samples * (samples - k) / (samples - 1)) / math.sqrt(samples)
    return EnergyResult(value=value, error=err, near_cut=near, far_cut=far)


def interaction_energy(first: Body, second: Body, window: Box, n: int, alpha: float,
                       samples: int = 400_000, seed: int = 0) -> EnergyResult:
    """alpha(1-alpha)-weighted kernel energy between two disjoint bodies,
    over base points x in ``first`` inside ``window`` and y in ``second``."""
    def hit(xs, ys):
        in_first = first.contains(xs)
        if (in_first & second.contains(xs)).any():
            raise DisjointnessError("regions overlap inside the sampling window")
        return in_first & second.contains(ys)

    return _pair_estimate(window, n, alpha, samples, seed, hit)


def relative_perimeter(body: Body, window: Box, n: int, alpha: float,
                       samples: int = 400_000, seed: int = 0) -> EnergyResult:
    """Fractional perimeter of the body E relative to the window box W.

    Per(E, W) = L(E & W, ~E & W) + L(E & W, ~E - W) + L(E - W, ~E & W): under
    one sampling law the three integrands add up, pair by pair, to the
    indicator of x in E, y not in E and x or y in W.  The base points run
    over W padded by half its diameter, to cover the part of E - W near W.
    """
    pad = 0.5 * window.diameter
    box = Box(tuple(v - pad for v in window.lo), tuple(v + pad for v in window.hi))

    def crossing(xs, ys):
        return (body.contains(xs) & ~body.contains(ys)
                & (window.contains(xs) | window.contains(ys)))

    return _pair_estimate(box, n, alpha, samples, seed, crossing)
