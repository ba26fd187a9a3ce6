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
are piecewise polynomials too: the pieces of their monotone cubic
interpolant.

Every radial function in the package is a profile: candidate sets, their
growth envelopes, barriers, straight cones and half-spaces.

All profiles are even in r (the two-leaf bodies they describe are symmetric
under x' -> -x'); negative arguments are folded through that symmetry.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import InvalidEnvelopeError, NotSublinearError


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

    Each family is closed under ``shifted(h)``, the graph lowered by h, and
    ``dilated(f)``, the rescaled graph v(f r) / f.  Each is also, piece by
    piece, a polynomial in x = r ** (1 / root): ``pieces`` lists (anchor,
    coeffs), the coefficients of t^0, t^1, ... in t = x - anchor, and piece
    i covers [knots[i-1], knots[i]).
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


class PiecewisePolyProfile(RadialProfile):
    """Profile assembled from polynomial pieces on [0, inf).

    ``pieces`` is a list of (anchor, coeffs); piece i covers
    [knots[i-1], knots[i]) with knots[-1] implicitly 0 and the final piece
    unbounded.  Chords and bends inside one piece use the exact product-sum
    forms; a step across knots sums each piece's exact chord over its share
    of the step, weighted by that share's length.
    """

    kind = "piecewise"
    root = 1

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
            # only the pieces that some crossing step reaches; shares are
            # measured as offsets from r, so they add up to the exact step h,
            # never to the rounded endpoint r + h
            first = knots.searchsorted(np.min(np.where(crossing, lo, np.inf)), side="right")
            last = knots.searchsorted(np.max(np.where(crossing, hi, -np.inf)), side="left")
            edges = (-np.inf,) + self.knots + (np.inf,)
            lo, hi = np.minimum(h, 0.0), np.maximum(h, 0.0)
            total = 0.0
            for i in range(first, last + 1):
                anchor, cs = self.pieces[i]
                u0 = np.clip(edges[i] - r, lo, hi)
                u1 = np.clip(edges[i + 1] - r, lo, hi)
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

    def smooth_at(self, r):
        # the even extension has a corner at the axis unless the slope is 0
        return bool(r != 0.0 or self._slopes(0.0) == 0.0)

    def shifted(self, height: float) -> "PiecewisePolyProfile":
        return PiecewisePolyProfile(self.knots, [(a, (cs[0] - height,) + cs[1:])
                                                 for a, cs in self.pieces])

    def dilated(self, factor: float) -> "PiecewisePolyProfile":
        # v(f r) / f: in the piece-local t = r - a / f the t^k coefficient
        # gains f^(k - 1); a power-of-two factor rescales exactly
        f = float(factor)
        return PiecewisePolyProfile(
            [k / f for k in self.knots],
            [(a / f, tuple(c * f ** (k - 1) for k, c in enumerate(cs)))
             for a, cs in self.pieces])


class ConstantProfile(PiecewisePolyProfile):
    kind = "constant"

    def __init__(self, level: float):
        super().__init__((), ((0.0, (float(level),)),))


class LinearProfile(PiecewisePolyProfile):
    """v(r) = slope * r for r >= 0; even extension has a corner at 0."""

    kind = "linear"

    def __init__(self, gradient: float):
        super().__init__((), ((0.0, (0.0, float(gradient))),))


class SqrtProfile(RadialProfile):
    """v(r) = scale * sqrt(r) + offset; chord and bend have exact algebraic
    forms, in which the offset cancels.

    At the cusp r = 0 the slope is inf and the curvature and bends -inf
    (for a positive scale), without a floating-point warning.
    """

    kind = "sqrt"
    root = 2
    knots = ()

    def __init__(self, scale: float = 1.0, offset: float = 0.0):
        self.scale = float(scale)
        self.offset = float(offset)
        self.pieces = [(0.0, (self.offset, self.scale))]

    def _values(self, r):
        return self.scale * np.sqrt(r) + self.offset

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

    def shifted(self, height: float) -> "SqrtProfile":
        return SqrtProfile(self.scale, self.offset - height)

    def dilated(self, factor: float) -> "SqrtProfile":
        f = float(factor)
        return SqrtProfile(self.scale / math.sqrt(f), self.offset / f)


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


class SampledProfile(PiecewisePolyProfile):
    """Monotone-cubic interpolant through (r, value) samples.

    The pieces are those of scipy's PCHIP interpolant, each anchored at its
    left node; beyond the last node the profile continues linearly with the
    terminal slope.  Chords and bends are the exact piecewise forms.
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
        interp = PchipInterpolator(r, v)
        # scipy stores piece i highest power first, in powers of x - r[i]
        cubics = list(zip(r[:-1], interp.c[::-1].T))
        super().__init__(r[1:], cubics + [(r[-1], (v[-1], interp(r[-1], 1)))])
        self.nodes = r
        self.node_values = v


def VerticalShiftProfile(profile: RadialProfile, shift: float) -> RadialProfile:
    """profile(r) - shift, a profile of the same family."""
    return profile.shifted(float(shift))


def DilatedGraphProfile(profile: RadialProfile, factor: float) -> RadialProfile:
    """The graph rescaling u_R(r) = u(R r) / R, a profile of the same family."""
    if not factor > 0:
        raise ValueError("dilation factor must be positive")
    return profile.dilated(float(factor))


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


def _piece_poly(profile: RadialProfile, lo: float, root: int) -> np.ndarray:
    # the piece covering [lo, next knot) as coefficients, highest power first,
    # in s = x - x(lo), x = r ** (1 / root): expanded at the interval's left end;
    # a leading zero keeps its derivative a nonempty array
    anchor, coeffs = profile.pieces[bisect.bisect_right(profile.knots, lo)]
    b = lo ** (1.0 / root)
    inner = [1.0, b - anchor] if root == profile.root else [1.0, 2.0 * b, b * b - anchor]
    out = np.array([0.0, coeffs[-1]])
    for c in coeffs[-2::-1]:
        out = np.convolve(out, inner)
        out[-1] += c
    return out


def profile_extremes(profile: RadialProfile, hi: float = math.inf, tilt: float = 0.0,
                     over: RadialProfile | None = None):
    """Radii in [0, hi] holding the max and min of (v(r) - tilt r) / over(r),
    and its limit as r -> inf (+-inf, a ratio of leading coefficients, or 0).

    The radii are 0, a finite hi, the knots, and the real parts of the roots
    of G'U - GU' between knots (G the piece of v - tilt r, U that of
    ``over``, default 1, positive).  Complex roots count too, so a double
    root that rounding splits into a complex pair keeps its radius.  Read
    heights with ``profile_values``.
    """
    over = ConstantProfile(1.0) if over is None else over
    root = max(profile.root, over.root)
    line = LinearProfile(tilt)

    def pair(lo):
        g = np.polysub(_piece_poly(profile, lo, root), _piece_poly(line, lo, root))
        return g, _piece_poly(over, lo, root)

    knots = sorted(set(profile.knots) | set(over.knots))
    edges = [0.0] + [k for k in knots if 0.0 < k < hi] + [hi]
    radii = edges[:] if math.isfinite(hi) else edges[:-1]
    for lo, up in zip(edges, edges[1:]):
        g, u = pair(lo)
        s = np.roots(np.polysub(np.convolve(np.polyder(g), u), np.convolve(g, np.polyder(u)))).real
        r = (lo ** (1.0 / root) + s[s > 0.0]) ** root
        radii.extend(r[r < up])
    g, u = (np.trim_zeros(p, "f") for p in pair(max([0.0] + knots)))
    growth = len(g) - len(u)
    limit = 0.0 if growth < 0 or not len(g) else g[0] / u[0] * (math.inf if growth else 1.0)
    return np.unique(radii), float(limit)


PROFILE_CSV_HEADER = "r,value"


def profile_from_csv(path) -> SampledProfile:
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["r", "value"]:
        raise ValueError('profile CSV must start with header "r,value"')
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return SampledProfile(data[:, 0], data[:, 1])


def profile_to_csv(profile: RadialProfile, radii) -> str:
    lines = [PROFILE_CSV_HEADER]
    for r in radii:
        lines.append(f"{float(r)!r},{profile.value(float(r))!r}")
    return "\n".join(lines) + "\n"


def profile_from_config(options: dict, prefix: str = "") -> RadialProfile:
    """Build a profile from flat config options (kind plus parameters, each
    key read as ``prefix + key``)."""
    def num(key, default):
        return float(options.get(prefix + key, default))

    kind = options.get(prefix + "kind", "").strip().lower()
    if kind == "constant":
        return ConstantProfile(num("level", 1.0))
    if kind == "linear":
        return LinearProfile(num("slope", 0.1))
    if kind == "affine":
        return PiecewisePolyProfile((), ((0.0, (num("offset", 1.0), num("slope", 1.0))),))
    if kind == "sqrt":
        return SqrtProfile(num("scale", 1.0))
    if kind == "bump":
        return BumpProfile(num("amplitude", 1.0), num("width", 1.0))
    if kind == "rampbump":
        return RampBumpProfile(num("amplitude", 1.0), num("width", 1.0))
    if kind == "barrier":
        return BarrierProfile(float(options[prefix + "epsilon"]))
    if kind == "csv":
        return profile_from_csv(options[prefix + "path"])
    raise ValueError(f"unknown profile kind {kind!r}")


@dataclass(frozen=True)
class ModulusReport:
    constant: float
    location: float
    delta: float


MODULUS_FLOOR = 1e-9


def sublinearity_modulus(envelope: RadialProfile, delta: float) -> ModulusReport:
    """Smallest C with phi(r) <= C + delta*r for every r >= 0.

    ``envelope`` is the profile phi claimed to bound candidate set heights;
    whether it actually grows sublinearly is *tested*, not trusted.  C is
    the exact maximum of phi(r) - delta*r, clamped below at a positive
    floor; phi must be positive for r > 0.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    radii, limit = profile_extremes(envelope)
    vals = profile_values(envelope, radii)
    bad = radii[np.where(radii > 0.0, vals <= 0.0, vals < 0.0)]
    if len(bad) or limit < 0.0:
        raise InvalidEnvelopeError(f"envelope {envelope.kind!r} is non-positive at "
                                   f"r = {bad[0] if len(bad) else np.inf}")
    radii, limit = profile_extremes(envelope, tilt=delta)
    diff = profile_values(envelope, radii) - delta * radii
    i = int(np.argmax(diff))
    if limit > diff[i]:
        raise NotSublinearError(
            f"envelope {envelope.kind!r} minus {delta!r} r grows without bound; "
            "no constant C bounds it")
    return ModulusReport(constant=max(float(diff[i]), MODULUS_FLOOR),
                         location=float(radii[i]), delta=float(delta))
