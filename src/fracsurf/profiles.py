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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from .errors import InvalidEnvelopeError


def _poly_val(coeffs, t):
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def _poly_deriv(coeffs, t):
    out = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        out = out * t + k * coeffs[k]
    return out


def _poly_deriv2(coeffs, t):
    out = 0.0
    for k in range(len(coeffs) - 1, 1, -1):
        out = out * t + k * (k - 1) * coeffs[k]
    return out


def _poly_chord(coeffs, a, b):
    # (P(b) - P(a)) / (b - a) via sum_{i+j=k-1} a^i b^j, exact in the step
    out = 0.0
    for k in range(1, len(coeffs)):
        c = coeffs[k]
        if c == 0.0:
            continue
        s = 0.0
        for j in range(k):
            s += a ** j * b ** (k - 1 - j)
        out += c * s
    return out


def _poly_bend(coeffs, a, b):
    # ((P(b) - P(a))/(b - a) - P'(a)) / (b - a) as sum_k c_k Q_k, where for
    # x^k the chord is P_k = sum_{i+j=k-1} a^i b^j and the bend is
    # Q_k = sum_{i<k} a^i P_(k-1-i); both recur through sums of products
    # that share one sign when a, b >= 0, so nothing cancels inside a
    # monomial.  a and b may be arrays, with one coefficient array per power.
    out = p = q = 0.0 * a
    ak = 1.0
    for c in coeffs:
        out = out + c * q
        q = a * q + p
        p = b * p + ak
        ak = ak * a
    return out


class RadialProfile:
    """Base class: an even height profile r >= 0 -> height.

    Subclasses implement the one-sided accessors ``_val``, ``_slope``,
    ``_curve``, ``_chord``, ``_bend`` on the closed half-line; this class
    folds negative arguments and mixed-sign steps through evenness.  The
    array counterparts ``_values`` and ``_bends`` default to loops over the
    scalar accessors, which stay the reference; ``profile_values`` and
    ``profile_bends`` are the array entry points.
    """

    kind = "abstract"

    def _val(self, r: float) -> float:
        raise NotImplementedError

    def _slope(self, r: float) -> float:
        raise NotImplementedError

    def _curve(self, r: float) -> float:
        raise NotImplementedError

    def _chord(self, r: float, h: float) -> float:
        raise NotImplementedError

    def _bend(self, r: float, h: float) -> float:
        raise NotImplementedError

    def value(self, r: float) -> float:
        return self._val(abs(r))

    def first_derivative(self, r: float) -> float:
        if r >= 0:
            return self._slope(r)
        return -self._slope(-r)

    def second_derivative(self, r: float) -> float:
        return self._curve(abs(r))

    def chord(self, r: float, h: float) -> float:
        if h == 0.0:
            return self.first_derivative(r)
        b = r + h
        if r >= 0.0 and b >= 0.0:
            return self._chord(r, h)
        if r <= 0.0 and b <= 0.0:
            return -self._chord(-r, -h)
        return (self.value(b) - self.value(r)) / h

    def bend(self, r: float, h: float) -> float:
        if h == 0.0:
            return 0.5 * self.second_derivative(r)
        b = r + h
        if r >= 0.0 and b >= 0.0:
            return self._bend(r, h)
        if r <= 0.0 and b <= 0.0:
            return self._bend(-r, -h)
        return (self.chord(r, h) - self.first_derivative(r)) / h

    def smooth_at(self, r: float) -> bool:
        return True

    def _values(self, r: np.ndarray) -> np.ndarray:
        return np.array([self._val(float(x)) for x in r.flat]).reshape(r.shape)

    def _bends(self, r: np.ndarray, h: np.ndarray) -> np.ndarray:
        # one-sided like _bend: r >= 0, r + h >= 0, h != 0
        return np.array([self._bend(float(x), float(y)) for x, y in zip(r.flat, h.flat)])


class PiecewisePolyProfile(RadialProfile):
    """Profile assembled from polynomial pieces on [0, inf).

    ``pieces`` is a list of (anchor, coeffs); piece i covers
    [knots[i-1], knots[i]) with knots[-1] implicitly 0 and the final piece
    unbounded.  Chords and bends inside one piece use the exact product-sum
    forms; steps crossing knots accumulate piece chords with the remainder
    carried in the step itself, never recomputed from rounded endpoints.
    """

    def __init__(self, knots: Sequence[float], pieces: Sequence[tuple]):
        assert len(pieces) == len(knots) + 1
        self.knots = tuple(float(k) for k in knots)
        self.pieces = [(float(a), tuple(float(c) for c in cs)) for a, cs in pieces]
        # array forms: row k of _coef holds the x^k coefficient of every
        # piece, zero-padded to the highest degree
        self._knot_arr = np.array(self.knots)
        self._anchors = np.array([a for a, _ in self.pieces])
        degree = max(len(cs) for _, cs in self.pieces)
        self._coef = np.array([[cs[k] if k < len(cs) else 0.0 for _, cs in self.pieces]
                               for k in range(degree)])

    def _idx(self, r: float) -> int:
        for i, k in enumerate(self.knots):
            if r < k:
                return i
        return len(self.knots)

    def _val(self, r):
        a, cs = self.pieces[self._idx(r)]
        return _poly_val(cs, r - a)

    def _slope(self, r):
        a, cs = self.pieces[self._idx(r)]
        return _poly_deriv(cs, r - a)

    def _curve(self, r):
        a, cs = self.pieces[self._idx(r)]
        return _poly_deriv2(cs, r - a)

    def _piece_chord(self, r, h, idx):
        a, cs = self.pieces[idx]
        return _poly_chord(cs, r - a, r - a + h)

    def _piece_bend(self, r, h, idx):
        a, cs = self.pieces[idx]
        return _poly_bend(cs, r - a, r - a + h)

    def _inner_knots(self, lo, hi):
        return [k for k in self.knots if lo < k < hi]

    def _chord(self, r, h):
        b = r + h
        lo, hi = (r, b) if h > 0 else (b, r)
        ia, ib = self._idx(lo), self._idx(hi)
        if ia == ib:
            return self._piece_chord(r, h, ia)
        inner = self._inner_knots(lo, hi)
        if not inner:
            # endpoints straddle a knot boundary but the open interval does
            # not contain it; the closed piece through the midpoint applies
            return self._piece_chord(r, h, self._idx(0.5 * (lo + hi)))
        du = 0.0
        cur = lo
        used = 0.0
        for k in inner:
            seg = k - cur
            du += self._piece_chord(cur, seg, self._idx(0.5 * (cur + k))) * seg
            used += seg
            cur = k
        last = abs(h) - used
        if last < 0.0:
            last = 0.0
        du += self._piece_chord(cur, last, self._idx(0.5 * (cur + hi))) * last
        return du / abs(h)

    def _bend(self, r, h):
        b = r + h
        lo, hi = (r, b) if h > 0 else (b, r)
        ia, ib = self._idx(lo), self._idx(hi)
        if ia == ib:
            return self._piece_bend(r, h, ia)
        if not self._inner_knots(lo, hi):
            return self._piece_bend(r, h, self._idx(0.5 * (lo + hi)))
        return (self._chord(r, h) - _poly_deriv(self.pieces[self._idx(r)][1],
                                                r - self.pieces[self._idx(r)][0])) / h

    def _values(self, r):
        # Horner with one gathered coefficient row per step, so temporaries
        # stay the size of r; leading zero rows leave a piece's value exact
        idx = np.searchsorted(self._knot_arr, r, side="right")
        t = r - self._anchors[idx]
        acc = self._coef[-1][idx]
        for row in self._coef[-2::-1]:
            acc *= t
            acc += row[idx]
        return acc

    def _bends(self, r, h):
        # the same piece choice as _bend; steps with a knot strictly inside
        # fall back to it element by element
        lo = np.minimum(r, r + h)
        hi = np.maximum(r, r + h)
        knots = self._knot_arr
        idx = np.searchsorted(knots, 0.5 * (lo + hi), side="right")
        a = r - self._anchors[idx]
        out = _poly_bend((row[idx] for row in self._coef), a, a + h)
        crossing = np.searchsorted(knots, hi, side="left") > np.searchsorted(knots, lo, side="right")
        for i in np.flatnonzero(crossing):
            out[i] = self._bend(float(r[i]), float(h[i]))
        return out


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
    """v(r) = scale * sqrt(r); chord and bend have exact algebraic forms."""

    kind = "sqrt"

    def __init__(self, scale: float = 1.0):
        self.scale = float(scale)

    def _val(self, r):
        return self.scale * np.sqrt(r)

    def _slope(self, r):
        if r == 0.0:
            return np.inf
        return 0.5 * self.scale / np.sqrt(r)

    def _curve(self, r):
        if r == 0.0:
            return -np.inf
        return -0.25 * self.scale * r ** -1.5

    def _chord(self, r, h):
        # (sqrt(r+h) - sqrt(r))/h = 1/(sqrt(r) + sqrt(r+h))
        return self.scale / (np.sqrt(r) + np.sqrt(r + h))

    def _bend(self, r, h):
        sa = np.sqrt(r)
        sb = np.sqrt(r + h)
        if sa == 0.0:
            return (self._chord(r, h) - self._slope(r)) / h
        return -self.scale / (2.0 * sa * (sa + sb) ** 2)

    def _values(self, r):
        return self.scale * np.sqrt(r)

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

    def _val(self, r):
        if r > self.r_max:
            return self._end_val + self._end_slope * (r - self.r_max)
        return float(self._interp(r))

    def _slope(self, r):
        if r > self.r_max:
            return self._end_slope
        return float(self._d1(r))

    def _curve(self, r):
        if r > self.r_max:
            return 0.0
        return float(self._d2(r))

    def _chord(self, r, h):
        if abs(h) < 1e-7 * max(1.0, abs(r)):
            return self._slope(r) + 0.5 * h * self._curve(r)
        return (self._val(r + h) - self._val(r)) / h

    def _bend(self, r, h):
        if abs(h) < 1e-7 * max(1.0, abs(r)):
            return 0.5 * self._curve(r + 0.5 * h)
        return (self._chord(r, h) - self._slope(r)) / h

    def _values(self, r):
        out = np.asarray(self._interp(np.minimum(r, self.r_max)), dtype=float)
        beyond = r > self.r_max
        if beyond.any():
            out[beyond] = self._end_val + self._end_slope * (r[beyond] - self.r_max)
        return out


class VerticalShiftProfile(RadialProfile):
    """inner(r) - shift; differences and derivatives pass through."""

    kind = "shifted"

    def __init__(self, inner: RadialProfile, shift: float):
        self.inner = inner
        self.shift = float(shift)

    def _val(self, r):
        return self.inner._val(r) - self.shift

    def _slope(self, r):
        return self.inner._slope(r)

    def _curve(self, r):
        return self.inner._curve(r)

    def _chord(self, r, h):
        return self.inner._chord(r, h)

    def _bend(self, r, h):
        return self.inner._bend(r, h)

    def _values(self, r):
        return self.inner._values(r) - self.shift

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

    def _val(self, r):
        return self.inner._val(self.factor * r) / self.factor

    def _slope(self, r):
        return self.inner._slope(self.factor * r)

    def _curve(self, r):
        return self.factor * self.inner._curve(self.factor * r)

    def _chord(self, r, h):
        return self.inner._chord(self.factor * r, self.factor * h)

    def _bend(self, r, h):
        return self.factor * self.inner._bend(self.factor * r, self.factor * h)

    def _values(self, r):
        return self.inner._values(self.factor * r) / self.factor

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


def profile_bends(profile: RadialProfile, radius, steps) -> np.ndarray:
    """Array ``bend``: the second divided difference at each (radius, step).

    One-sided steps (r >= 0, r + h >= 0, h != 0) take the family's array
    path; any other element goes through the scalar ``bend`` and its
    evenness folding.
    """
    r, h = np.broadcast_arrays(np.asarray(radius, dtype=float),
                               np.asarray(steps, dtype=float))
    r = r.ravel()
    h = h.ravel()
    one_sided = (h != 0.0) & (r >= 0.0) & (r + h >= 0.0)
    if one_sided.all():
        return profile._bends(r, h)
    out = np.empty(r.shape)
    if one_sided.any():
        out[one_sided] = profile._bends(r[one_sided], h[one_sided])
    for i in np.flatnonzero(~one_sided):
        out[i] = profile.bend(float(r[i]), float(h[i]))
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
