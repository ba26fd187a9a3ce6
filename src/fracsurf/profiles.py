"""Radial height profiles with cancellation-free divided differences.

The curvature quadrature needs, besides plain values and derivatives, the
first and second divided differences of a profile taken with an *exact* step:

    chord(r, h) = (v(r + h) - v(r)) / h
    bend(r, h)  = (chord(r, h) - v'(r)) / h

Forming these naively from rounded endpoint values loses all significant
digits once h is small against r, and the principal-value integrand amplifies
that noise by h^(-1).  Piecewise-polynomial profiles therefore evaluate both
quantities through expanded product sums that never subtract nearly equal
numbers; the square-root profile has its own closed forms.  Sampled profiles
fall back to a Taylor guard below a step threshold.

All profiles are even in r (the two-leaf bodies they describe are symmetric
under x' -> -x'); negative arguments are folded through that symmetry.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from .errors import InvalidEnvelopeError


def _poly_divided(coeffs, a, b):
    # chord (P(b) - P(a)) / (b - a) and bend (chord - P'(a)) / (b - a) as
    # sums over the monomials x^k: the chord of x^k is P_k = sum_{i+j=k-1}
    # a^i b^j and its bend is Q_k = sum_{i<k} a^i P_(k-1-i); both recur
    # through sums of products that share one sign when a, b >= 0, so
    # nothing cancels inside a monomial.  ``coeffs`` lists the coefficients
    # of x^1, x^2, ... (a constant has neither); a and b may be arrays, with
    # one coefficient array per power.
    chord = bend = q = 0.0 * a
    p = ak = 1.0
    for k, c in enumerate(coeffs):
        if k:
            q = a * q + p
            ak = ak * a
            p = b * p + ak
        chord = chord + c * p
        bend = bend + c * q
    return chord, bend


class RadialProfile:
    """Base class: an even height profile r >= 0 -> height.

    Each family implements five one-sided array accessors: ``_values``,
    ``_slopes`` and ``_curves`` for r >= 0, and ``_chords`` and ``_bends``
    for r >= 0, r + h >= 0, h != 0.  They take arrays of one shape, or
    plain floats, and run the same numpy code on both.  The public scalar
    accessors below fold negative arguments and mixed-sign steps through
    evenness and call them; ``profile_values``, ``profile_slopes`` and
    ``profile_bends`` are the array entry points.
    """

    kind = "abstract"

    def value(self, r: float) -> float:
        return float(self._values(abs(r)))

    def first_derivative(self, r: float) -> float:
        g = float(self._slopes(abs(r)))
        return g if r >= 0 else -g

    def second_derivative(self, r: float) -> float:
        return float(self._curves(abs(r)))

    def chord(self, r: float, h: float) -> float:
        if h == 0.0:
            return self.first_derivative(r)
        b = r + h
        if r >= 0.0 and b >= 0.0:
            return float(self._chords(abs(r), h))
        if r <= 0.0 and b <= 0.0:
            return -float(self._chords(abs(r), -h))
        return (self.value(b) - self.value(r)) / h

    def bend(self, r: float, h: float) -> float:
        if h == 0.0:
            return 0.5 * self.second_derivative(r)
        b = r + h
        if r >= 0.0 and b >= 0.0:
            return float(self._bends(abs(r), h))
        if r <= 0.0 and b <= 0.0:
            return float(self._bends(abs(r), -h))
        return (self.chord(r, h) - self.first_derivative(r)) / h

    def smooth_at(self, r: float) -> bool:
        return True


class PiecewisePolyProfile(RadialProfile):
    """Profile assembled from polynomial pieces on [0, inf).

    ``pieces`` is a list of (anchor, coeffs); piece i covers
    [knots[i-1], knots[i]) with knots[-1] implicitly 0 and the final piece
    unbounded.  Chords and bends inside one piece use the exact product-sum
    forms; a step across knots sums each piece's exact chord over its share
    of the step, weighted by that share's length.
    """

    def __init__(self, knots: Sequence[float], pieces: Sequence[tuple]):
        assert len(pieces) == len(knots) + 1
        self.knots = tuple(float(k) for k in knots)
        self.pieces = [(float(a), tuple(float(c) for c in cs)) for a, cs in pieces]
        # row k of _coef holds the x^k coefficient of every piece, zero-padded
        # to the highest degree; the derivative rows k c_k and k (k - 1) c_k
        # keep at least one (zero) row
        self._knot_arr = np.array(self.knots)
        self._anchors = np.array([a for a, _ in self.pieces])
        degree = max(len(cs) for _, cs in self.pieces)
        coef = np.array([[cs[k] if k < len(cs) else 0.0 for _, cs in self.pieces]
                         for k in range(degree)])
        k = np.arange(degree)[:, None]
        zero = np.zeros((1, len(self.pieces)))
        self._coef = tuple(coef)
        self._slope_coef = tuple((k * coef)[1:] if degree > 1 else zero)
        self._curve_coef = tuple((k * (k - 1) * coef)[2:] if degree > 2 else zero)

    def _horner(self, rows, r):
        # one gathered coefficient row per step, so temporaries stay the size
        # of r; leading zero rows leave a piece's value exact
        idx = self._knot_arr.searchsorted(r, side="right")
        acc = rows[-1][idx]
        if len(rows) > 1:
            t = r - self._anchors[idx]
            for row in rows[-2::-1]:
                acc *= t
                acc += row[idx]
        return acc

    def _values(self, r):
        return self._horner(self._coef, r)

    def _slopes(self, r):
        return self._horner(self._slope_coef, r)

    def _curves(self, r):
        return self._horner(self._curve_coef, r)

    def _divided(self, r, h):
        # a step that ends on a knot stays in the closed piece through its
        # midpoint; one with a knot strictly inside is split at the knots
        b = r + h
        lo = np.minimum(r, b)
        hi = np.maximum(r, b)
        knots = self._knot_arr
        idx = knots.searchsorted(0.5 * (lo + hi), side="right")
        a = r - self._anchors[idx]
        chord, bend = _poly_divided((row[idx] for row in self._coef[1:]), a, a + h)
        crossing = knots.searchsorted(hi, side="left") > knots.searchsorted(lo, side="right")
        if crossing.any():
            # shares are measured as offsets from r, so they add up to the
            # exact step h, never to the rounded endpoint r + h
            lo, hi = np.minimum(h, 0.0), np.maximum(h, 0.0)
            total = 0.0
            for (anchor, cs), left, right in zip(self.pieces, (-np.inf,) + self.knots,
                                                 self.knots + (np.inf,)):
                u0 = np.clip(left - r, lo, hi)
                u1 = np.clip(right - r, lo, hi)
                t = r - anchor
                total = total + _poly_divided(cs[1:], t + u0, t + u1)[0] * (u1 - u0)
            across = total / np.abs(h)
            chord = np.where(crossing, across, chord)
            bend = np.where(crossing, (across - self._slopes(r)) / h, bend)
        return chord, bend

    def _chords(self, r, h):
        return self._divided(r, h)[0]

    def _bends(self, r, h):
        return self._divided(r, h)[1]


class ConstantProfile(PiecewisePolyProfile):
    kind = "constant"

    def __init__(self, level: float):
        super().__init__((), ((0.0, (float(level),)),))
        self.level = float(level)


class LinearProfile(PiecewisePolyProfile):
    """v(r) = slope * r for r >= 0; even extension has a corner at 0."""

    kind = "linear"

    def __init__(self, gradient: float):
        super().__init__((), ((0.0, (0.0, float(gradient))),))
        self.gradient = float(gradient)

    def smooth_at(self, r):
        return r != 0.0


class SqrtProfile(RadialProfile):
    """v(r) = scale * sqrt(r); chord and bend have exact algebraic forms.

    At the cusp r = 0 the slope is inf and the curvature and bends -inf
    (for a positive scale), without a floating-point warning.
    """

    kind = "sqrt"

    def __init__(self, scale: float = 1.0):
        self.scale = float(scale)

    def _values(self, r):
        return self.scale * np.sqrt(r)

    def _slopes(self, r):
        with np.errstate(divide="ignore"):
            return 0.5 * self.scale / np.sqrt(r)

    def _curves(self, r):
        # a plain float would raise at 0 ** -1.5; as np.float64 it takes inf
        with np.errstate(divide="ignore"):
            return -0.25 * self.scale * np.float64(r) ** -1.5

    def _chords(self, r, h):
        # (sqrt(r+h) - sqrt(r))/h = 1/(sqrt(r) + sqrt(r+h))
        return self.scale / (np.sqrt(r) + np.sqrt(r + h))

    def _bends(self, r, h):
        sa = np.sqrt(r)
        with np.errstate(divide="ignore"):
            return -self.scale / (2.0 * sa * (sa + np.sqrt(r + h)) ** 2)

    def smooth_at(self, r):
        return r != 0.0


class BumpProfile(PiecewisePolyProfile):
    """amplitude * (1 - (r/width)^2)^3 on [0, width], zero beyond.

    C^2 across the support edge (triple zero) and even in r.
    """

    kind = "bump"

    def __init__(self, amplitude: float = 1.0, width: float = 1.0):
        a = float(amplitude)
        w = float(width)
        coeffs = (a, 0.0, -3.0 * a / w ** 2, 0.0, 3.0 * a / w ** 4, 0.0, -a / w ** 6)
        super().__init__((w,), ((0.0, coeffs), (0.0, (0.0,))))
        self.amplitude = a
        self.width = w


class RampBumpProfile(PiecewisePolyProfile):
    """amplitude-scaled (r/w)^2 (1 - (r/w)^2)^3, peaking at r = width/2.

    The scaling is chosen so the peak height equals ``amplitude`` exactly;
    the profile vanishes to second order at 0 and third order at width.
    """

    kind = "rampbump"

    def __init__(self, amplitude: float = 1.0, width: float = 1.0):
        w = float(width)
        # raw x^2(1-x^2)^3 peaks at x = 1/2 with value (1/4)(3/4)^3 = 27/256
        a = float(amplitude) * 256.0 / 27.0
        coeffs = (0.0, 0.0, a / w ** 2, 0.0, -3.0 * a / w ** 4, 0.0,
                  3.0 * a / w ** 6, 0.0, -a / w ** 8)
        super().__init__((w,), ((0.0, coeffs), (0.0, (0.0,))))
        self.amplitude = float(amplitude)
        self.width = w
        self.peak_radius = 0.5 * w


class BarrierProfile(PiecewisePolyProfile):
    """Flat cap of height eps blended into the cone eps*r.

    u(r) = 1 on [0,1], 1 + 10t^4 - 15t^5 + 6t^6 with t = r-1 on [1,2],
    r beyond; the profile is eps*u(r).  The blend polynomial has
    P(1) = 1, P'(1) = 1, P''(0) = P''(1) = 0, so the profile is C^2
    everywhere including both knots.
    """

    kind = "barrier"

    def __init__(self, epsilon: float):
        e = float(epsilon)
        blend = (e, 0.0, 0.0, 0.0, 10.0 * e, -15.0 * e, 6.0 * e)
        super().__init__((1.0, 2.0),
                         ((0.0, (e,)), (1.0, blend), (0.0, (0.0, e))))
        self.epsilon = e


class SampledProfile(RadialProfile):
    """Monotone-cubic interpolant through (r, value) samples.

    Derivatives come from the interpolant.  Beyond the last node the profile
    continues linearly with the terminal slope.  Divided differences use a
    Taylor guard below a relative step threshold because the interpolant
    cannot be differenced exactly.
    """

    kind = "sampled"

    def __init__(self, radii, values):
        r = np.asarray(radii, dtype=float)
        v = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise ValueError("need matching 1-d radius and value arrays, length >= 2")
        if not np.all(np.diff(r) > 0):
            raise ValueError("radii must be strictly increasing")
        if r[0] != 0.0:
            # evenness pins the slope at the axis
            r = np.concatenate(([0.0], r))
            v = np.concatenate(([v[0]], v))
        self._interp = PchipInterpolator(r, v, extrapolate=False)
        self._d1 = self._interp.derivative(1)
        self._d2 = self._interp.derivative(2)
        self.r_max = float(r[-1])
        self._end_val = float(v[-1])
        self._end_slope = float(self._d1(self.r_max))
        self.nodes = r
        self.node_values = v

    def _values(self, r):
        return np.where(r > self.r_max, self._end_val + self._end_slope * (r - self.r_max),
                        self._interp(np.minimum(r, self.r_max)))

    def _slopes(self, r):
        return np.where(r > self.r_max, self._end_slope, self._d1(np.minimum(r, self.r_max)))

    def _curves(self, r):
        return np.where(r > self.r_max, 0.0, self._d2(np.minimum(r, self.r_max)))

    def _taylor_guard(self, r, h):
        return np.abs(h) < 1e-7 * np.maximum(1.0, r)

    def _chords(self, r, h):
        return np.where(self._taylor_guard(r, h), self._slopes(r) + 0.5 * h * self._curves(r),
                        (self._values(r + h) - self._values(r)) / h)

    def _bends(self, r, h):
        return np.where(self._taylor_guard(r, h), 0.5 * self._curves(r + 0.5 * h),
                        (self._chords(r, h) - self._slopes(r)) / h)


class VerticalShiftProfile(RadialProfile):
    """inner(r) - shift; differences and derivatives pass through."""

    kind = "shifted"

    def __init__(self, inner: RadialProfile, shift: float):
        self.inner = inner
        self.shift = float(shift)

    def _values(self, r):
        return self.inner._values(r) - self.shift

    def _slopes(self, r):
        return self.inner._slopes(r)

    def _curves(self, r):
        return self.inner._curves(r)

    def _chords(self, r, h):
        return self.inner._chords(r, h)

    def _bends(self, r, h):
        return self.inner._bends(r, h)

    def smooth_at(self, r):
        return self.inner.smooth_at(r)


class DilatedGraphProfile(RadialProfile):
    """Graph rescaling u_R(r) = u(R r) / R.

    Chords transport exactly: the divided difference of u_R over step h
    equals the divided difference of u over step R h, so no accuracy is
    lost in the rescaled evaluations.
    """

    kind = "dilated"

    def __init__(self, inner: RadialProfile, factor: float):
        if not factor > 0:
            raise ValueError("dilation factor must be positive")
        self.inner = inner
        self.factor = float(factor)

    def _values(self, r):
        return self.inner._values(self.factor * r) / self.factor

    def _slopes(self, r):
        return self.inner._slopes(self.factor * r)

    def _curves(self, r):
        return self.factor * self.inner._curves(self.factor * r)

    def _chords(self, r, h):
        return self.inner._chords(self.factor * r, self.factor * h)

    def _bends(self, r, h):
        return self.factor * self.inner._bends(self.factor * r, self.factor * h)

    def smooth_at(self, r):
        return self.inner.smooth_at(self.factor * r)


def profile_values(profile: RadialProfile, radii) -> np.ndarray:
    """Profile heights on an array of radii, each family on its own array path.

    Membership tests and the curvature quadrature both classify large point
    batches through this one entry point.
    """
    return profile._values(np.abs(np.asarray(radii, dtype=float)))


def profile_slopes(profile: RadialProfile, radii) -> np.ndarray:
    """Array ``first_derivative``: the slope of an even profile is odd in r."""
    r = np.asarray(radii, dtype=float)
    g = profile._slopes(np.abs(r))
    return np.where(r < 0.0, -g, g)


def profile_bends(profile: RadialProfile, radius, steps) -> np.ndarray:
    """Array ``bend``: the second divided difference at each (radius, step).

    Steps on one side of the axis fold through evenness onto the family's
    ``_bends``; zero steps and steps through the axis take the same forms
    as the scalar ``bend``.
    """
    r, h = np.broadcast_arrays(np.asarray(radius, dtype=float),
                               np.asarray(steps, dtype=float))
    r = r.ravel()
    h = h.ravel()
    b = r + h
    right = (r >= 0.0) & (b >= 0.0)
    if right.all() and h.all():
        return profile._bends(np.abs(r), h)
    left = ~right & (r <= 0.0) & (b <= 0.0)
    through = ~(right | left)
    flat = h == 0.0
    one_sided = ~(through | flat)
    out = np.empty(r.shape)
    if one_sided.any():
        out[one_sided] = profile._bends(np.abs(r[one_sided]),
                                        np.where(left, -h, h)[one_sided])
    if flat.any():
        out[flat] = 0.5 * profile._curves(np.abs(r[flat]))
    if through.any():
        r, h, b = r[through], h[through], b[through]
        chord = (profile._values(np.abs(b)) - profile._values(np.abs(r))) / h
        out[through] = (chord - profile_slopes(profile, r)) / h
    return out


PROFILE_CSV_HEADER = "r,value"


def profile_from_csv(path) -> SampledProfile:
    with open(path, "r", newline="") as fh:
        text = fh.read()
    return profile_from_csv_text(text)


def profile_from_csv_text(text: str) -> SampledProfile:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or [c.strip() for c in rows[0]] != ["r", "value"]:
        raise ValueError('profile CSV must start with header "r,value"')
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return SampledProfile(data[:, 0], data[:, 1])


def profile_to_csv(profile: RadialProfile, radii) -> str:
    lines = [PROFILE_CSV_HEADER]
    for r in radii:
        lines.append(f"{float(r)!r},{profile.value(float(r))!r}")
    return "\n".join(lines) + "\n"


def profile_from_config(options: dict) -> RadialProfile:
    """Build a profile from flat config options (kind plus parameters)."""
    kind = options.get("kind", "").strip().lower()
    if kind == "constant":
        return ConstantProfile(float(options.get("level", 1.0)))
    if kind == "linear":
        return LinearProfile(float(options.get("slope", 0.1)))
    if kind == "sqrt":
        return SqrtProfile(float(options.get("scale", 1.0)))
    if kind == "bump":
        return BumpProfile(float(options.get("amplitude", 1.0)),
                           float(options.get("width", 1.0)))
    if kind == "rampbump":
        return RampBumpProfile(float(options.get("amplitude", 1.0)),
                               float(options.get("width", 1.0)))
    if kind == "barrier":
        return BarrierProfile(float(options["epsilon"]))
    if kind == "csv":
        return profile_from_csv(options["path"])
    raise ValueError(f"unknown profile kind {kind!r}")


@dataclass(frozen=True)
class SublinearEnvelope:
    """A claimed growth bound phi for candidate set heights.

    ``phi`` maps radius to the bound; ``label`` is free-form provenance for
    reports.  Whether phi actually grows sublinearly is *tested*, not
    trusted; see sublinearity_modulus.
    """

    phi: Callable[[float], float]
    label: str = "envelope"


@dataclass(frozen=True)
class ModulusReport:
    constant: float
    location: float
    delta: float
    r_max: float
    sublinear: bool


MODULUS_FLOOR = 1e-9


def sublinearity_modulus(envelope: SublinearEnvelope, delta: float,
                         r_max: float = 100.0) -> ModulusReport:
    """Smallest grid-verified C with phi(r) <= C + delta*r on [0, r_max].

    Evaluates max(phi(r) - delta*r) on a 0.25-spaced grid, clamped below at
    a positive floor.  If the maximum sits at the grid edge and the
    difference is still strictly climbing there, the envelope fails the
    sublinearity test and the report says so (the constant is still the
    honest grid value).  phi must be positive at every positive grid radius.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    grid = np.arange(0.0, r_max + 1e-9, 0.25)
    vals = np.array([float(envelope.phi(float(r))) for r in grid])
    if np.any(vals[1:] <= 0.0):
        bad = grid[1:][vals[1:] <= 0.0][0]
        raise InvalidEnvelopeError(
            f"envelope {envelope.label!r} is non-positive at r = {bad}")
    diff = vals - delta * grid
    i = int(np.argmax(diff))
    constant = float(diff[i])
    location = float(grid[i])
    if 0 < i < len(grid) - 1:
        # the grid undershoots an interior peak; polish it against the
        # callable so downstream rescalings built on C stay containing
        opt = minimize_scalar(
            lambda r: delta * r - float(envelope.phi(float(r))),
            bounds=(float(grid[i - 1]), float(grid[i + 1])), method="bounded",
            options={"xatol": 1e-10})
        if -float(opt.fun) > constant:
            constant = -float(opt.fun)
            location = float(opt.x)
    constant = max(constant, MODULUS_FLOOR)
    sublinear = True
    if i == len(grid) - 1 and len(grid) >= 2:
        climb = diff[-1] - diff[-2]
        if climb > 0.0:
            sublinear = False
    return ModulusReport(constant=constant, location=location,
                         delta=float(delta), r_max=float(r_max),
                         sublinear=sublinear)
