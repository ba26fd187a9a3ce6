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
growth envelopes, barriers, straight cones and half-spaces.  Exact extremes
and zero crossings expand and solve all of a profile's pieces at once.

All profiles are even in r (the two-leaf bodies they describe are symmetric
under x' -> -x'); negative arguments are folded through that symmetry.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from .config import parse_float
from .errors import InvalidEnvelopeError, NotSublinearError, positive_finite


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


def _rescaled(name, value, unit, build):
    """``build(value)``, the shape ``unit`` that ``build(1.0)`` gives, rescaled;
    refused when a knot or anchor becomes infinite or a normal coefficient
    of ``unit`` leaves the normal range: a zero or subnormal one would
    silently change the graph."""
    x = positive_finite(name, value)
    try:
        out = build(x)
    except (OverflowError, ZeroDivisionError):  # a power of x overflows or underflows to 0
        out = None
    tiny = np.finfo(float).tiny
    normal = lambda coef: (np.abs(coef) >= tiny) & (np.abs(coef) < math.inf)
    if out is None or (normal(unit._coef) & ~normal(out._coef)).any() \
            or not np.isfinite(np.append(out._knot_arr, out._anchors)).all():
        raise ValueError(f"{name} must keep every knot and coefficient in "
                         f"floating-point range, not {value!r}")
    return out


class RadialProfile:
    """Base class: an even height profile r >= 0 -> height.

    Two families: ``PiecewisePolyProfile`` and ``SqrtProfile``.  The named
    shapes (constant, linear, bump, ramp bump, barrier, sampled) are functions
    returning a piecewise polynomial whose ``kind`` names the shape.

    Each family implements three one-sided array accessors: ``_values``
    and ``_slopes`` for r >= 0, and ``_divided(r, h)``, the pair (chord,
    bend) for r >= 0, r + h >= 0, which at h = 0 is its limit (v', v''/2).
    They take arrays of one shape, or plain floats, and run the same numpy
    code on both.  ``_bends`` is the second of the pair, and
    ``second_derivative`` twice the bend of a zero step.  The public scalar
    accessors below fold negative arguments and mixed-sign steps through
    evenness and call them; ``profile_values`` and ``profile_slopes`` are
    the array entry points.  The curvature core steps only from r >= 0 to
    r + h >= 0 and calls ``_bends`` directly.

    Each family is closed under ``shifted(h)``, the graph lowered by h, and
    ``dilated(f)``, the rescaled graph v(f r) / f.  Each is also, piece by
    piece, a polynomial in x = r ** (1 / root): ``pieces`` lists (anchor,
    coeffs), the coefficients of t^0, t^1, ... in t = x - anchor, and piece
    i covers [knots[i-1], knots[i]).  As arrays: ``_knot_arr``, ``_anchors``
    and ``_coef``, whose row k holds every piece's t^k coefficient.
    """

    @functools.cached_property
    def zeros(self) -> np.ndarray:
        """``profile_zeros`` of this profile, solved on first use and kept,
        read-only: a profile never changes after it is built."""
        radii = profile_zeros(self)
        radii.flags.writeable = False
        return radii

    def value(self, r: float) -> float:
        return float(self._values(abs(r)))

    def first_derivative(self, r: float) -> float:
        g = float(self._slopes(abs(r)))
        return g if r >= 0 else -g

    def second_derivative(self, r: float) -> float:
        return 2.0 * float(self._bends(abs(r), 0.0))

    def chord(self, r: float, h: float) -> float:
        if h == 0.0:
            return self.first_derivative(r)
        b = r + h
        if r >= 0.0 and b >= 0.0:
            return float(self._divided(abs(r), h)[0])
        if r <= 0.0 and b <= 0.0:
            return -float(self._divided(abs(r), -h)[0])
        return (self.value(b) - self.value(r)) / h

    def bend(self, r: float, h: float) -> float:
        b = r + h
        if r >= 0.0 and b >= 0.0:
            return float(self._bends(abs(r), h))
        if r <= 0.0 and b <= 0.0:
            return float(self._bends(abs(r), -h))
        return (self.chord(r, h) - self.first_derivative(r)) / h

    def _bends(self, r, h):
        return self._divided(r, h)[1]


class PiecewisePolyProfile(RadialProfile):
    """Profile assembled from polynomial pieces on [0, inf).

    ``pieces`` is a list of (anchor, coeffs); piece i covers
    [knots[i-1], knots[i]) with knots[-1] implicitly 0 and the final piece
    unbounded.  Chords and bends inside one piece use the exact product-sum
    forms; a step across knots sums each piece's exact chord over its share
    of the step, weighted by that share's length.
    """

    root = 1

    def __init__(self, knots: Sequence[float], pieces: Sequence[tuple],
                 kind: str = "piecewise"):
        assert len(pieces) == len(knots) + 1
        self.kind = kind
        self.knots = tuple(float(k) for k in knots)
        self.pieces = [(float(a), tuple(float(c) for c in cs)) for a, cs in pieces]
        # padded with zeros to the highest degree; the slope rows k c_k keep
        # at least one (zero) row
        self._knot_arr = np.array(self.knots)
        self._anchors = np.array([a for a, _ in self.pieces])
        degree = max(len(cs) for _, cs in self.pieces)
        coef = np.array([[cs[k] if k < len(cs) else 0.0 for _, cs in self.pieces]
                         for k in range(degree)])
        k = np.arange(degree)[:, None]
        zero = np.zeros((1, len(self.pieces)))
        self._coef = tuple(coef)
        self._slope_coef = tuple((k * coef)[1:] if degree > 1 else zero)

    def _horner(self, rows, r):
        # one gathered coefficient row per step, so temporaries stay the size
        # of r; leading zero rows leave a piece's value exact.  Without knots
        # every radius is in piece 0, and searchsorted would only say so
        if self._knot_arr.size:
            idx = self._knot_arr.searchsorted(r, side="right")
        else:
            idx = np.zeros(np.shape(r), dtype=np.intp)
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
            # a zero step crosses no knot; dividing it by 1 keeps it finite
            step = np.where(crossing, h, 1.0)
            across = total / np.abs(step)
            chord = np.where(crossing, across, chord)
            bend = np.where(crossing, (across - self._slopes(r)) / step, bend)
        return chord, bend

    def smooth_at(self, r):
        # the even extension has a corner at the axis unless the slope is 0
        return bool(r != 0.0 or self._slopes(0.0) == 0.0)

    def shifted(self, height: float) -> "PiecewisePolyProfile":
        return PiecewisePolyProfile(self.knots, [(a, (cs[0] - height,) + cs[1:])
                                                 for a, cs in self.pieces])

    def dilated(self, factor: float) -> "PiecewisePolyProfile":
        # v(f r) / f: in the piece-local t = r - a / f the t^k coefficient
        # gains f^(k - 1); a power-of-two factor rescales exactly, and a zero
        # coefficient stays zero without its power
        return _rescaled("dilation factor", factor, self, lambda f: PiecewisePolyProfile(
            [k / f for k in self.knots],
            [(a / f, tuple(c and c * f ** (k - 1) for k, c in enumerate(cs)))
             for a, cs in self.pieces]))


class SqrtProfile(RadialProfile):
    """v(r) = scale * sqrt(r) + offset; chord and bend have exact algebraic
    forms, in which the offset cancels.

    At the cusp r = 0 the slope is inf and the curvature and bends -inf
    (for a positive scale), without a floating-point warning.
    """

    kind = "sqrt"
    root = 2
    knots = ()
    _knot_arr = np.empty(0)

    def __init__(self, scale: float = 1.0, offset: float = 0.0):
        self.scale = float(scale)
        self.offset = float(offset)
        self.pieces = [(0.0, (self.offset, self.scale))]
        self._anchors = np.zeros(1)
        self._coef = (np.array([self.offset]), np.array([self.scale]))

    def _values(self, r):
        return self.scale * np.sqrt(r) + self.offset

    def _slopes(self, r):
        with np.errstate(divide="ignore"):
            return 0.5 * self.scale / np.sqrt(r)

    def _divided(self, r, h):
        # (sqrt(r+h) - sqrt(r))/h = 1/(sqrt(r) + sqrt(r+h)); at the cusp
        # with h = 0 the sum is 0 and both quotients are infinite
        sa = np.sqrt(r)
        total = sa + np.sqrt(r + h)
        with np.errstate(divide="ignore"):
            return self.scale / total, -self.scale / (2.0 * sa * total ** 2)

    def smooth_at(self, r):
        return r != 0.0

    def shifted(self, height: float) -> "SqrtProfile":
        return SqrtProfile(self.scale, self.offset - height)

    def dilated(self, factor: float) -> "SqrtProfile":
        return _rescaled("dilation factor", factor, self,
                         lambda f: SqrtProfile(self.scale / math.sqrt(f), self.offset / f))


def ConstantProfile(level: float) -> PiecewisePolyProfile:
    return PiecewisePolyProfile((), ((0.0, (float(level),)),), "constant")


def LinearProfile(gradient: float) -> PiecewisePolyProfile:
    """v(r) = slope * r for r >= 0; even extension has a corner at 0."""
    return PiecewisePolyProfile((), ((0.0, (0.0, float(gradient))),), "linear")


def BumpProfile(amplitude: float = 1.0, width: float = 1.0) -> PiecewisePolyProfile:
    """amplitude * (1 - (r/width)^2)^3 on [0, width], zero beyond.

    C^2 across the support edge (triple zero) and even in r.
    """
    a = float(amplitude)

    def build(w):
        coeffs = (a, 0.0, -3.0 * a / w ** 2, 0.0, 3.0 * a / w ** 4, 0.0, -a / w ** 6)
        return PiecewisePolyProfile((w,), ((0.0, coeffs), (0.0, (0.0,))), "bump")
    return _rescaled("width", width, build(1.0), build)


def RampBumpProfile(amplitude: float = 1.0, width: float = 1.0) -> PiecewisePolyProfile:
    """amplitude-scaled (r/w)^2 (1 - (r/w)^2)^3, peaking at r = width/2.

    The scaling is chosen so the peak height equals ``amplitude`` exactly;
    the profile vanishes to second order at 0 and third order at width.
    """
    # raw x^2(1-x^2)^3 peaks at x = 1/2 with value (1/4)(3/4)^3 = 27/256
    a = float(amplitude) * 256.0 / 27.0

    def build(w):
        coeffs = (0.0, 0.0, a / w ** 2, 0.0, -3.0 * a / w ** 4, 0.0,
                  3.0 * a / w ** 6, 0.0, -a / w ** 8)
        return PiecewisePolyProfile((w,), ((0.0, coeffs), (0.0, (0.0,))), "rampbump")
    return _rescaled("width", width, build(1.0), build)


def BarrierProfile(epsilon: float) -> PiecewisePolyProfile:
    """Flat cap of height eps blended into the cone eps*r.

    u(r) = 1 on [0,1], 1 + 10t^4 - 15t^5 + 6t^6 with t = r-1 on [1,2],
    r beyond; the profile is eps*u(r).  The blend polynomial has
    P(1) = 1, P'(1) = 1, P''(0) = P''(1) = 0, so the profile is C^2
    everywhere including both knots.
    """
    e = positive_finite("epsilon", epsilon)
    blend = (e, 0.0, 0.0, 0.0, 10.0 * e, -15.0 * e, 6.0 * e)
    return PiecewisePolyProfile((1.0, 2.0), ((0.0, (e,)), (1.0, blend), (0.0, (0.0, e))),
                                "barrier")


def SampledProfile(radii, values) -> PiecewisePolyProfile:
    """Monotone-cubic interpolant through (r, value) samples.

    The pieces are those of scipy's PCHIP interpolant, each anchored at its
    left node; beyond the last node the profile continues linearly with the
    terminal slope.  Chords and bends are the exact piecewise forms.
    """
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
    return PiecewisePolyProfile(r[1:], cubics + [(r[-1], (v[-1], interp(r[-1], 1)))],
                                "sampled")


def DilatedGraphProfile(profile: RadialProfile, factor: float) -> RadialProfile:
    """The graph rescaling u_R(r) = u(R r) / R, a profile of the same family."""
    return profile.dilated(factor)


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


def _times(a, b):
    # the product of coefficient rows, summed over the shorter factor's rows in
    # ascending power: the order in which np.convolve sums a full overlap
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    out = np.zeros((len(a) + len(b) - 1, a.shape[1]))
    for k, row in enumerate(b):
        out[k:k + len(a)] += row * a
    return out


def _expanded(profile: RadialProfile, lo: np.ndarray, root: int) -> np.ndarray:
    # the pieces at the radii lo as rows in s = x - x(lo), x = r ** (1 / root),
    # by Horner in s + c, or s^2 + 2bs + c for a piece in r read in sqrt(r); a
    # leading zero row keeps a derivative nonempty, and the line r fits
    idx = profile._knot_arr.searchsorted(lo, side="right")
    b, anchor = lo ** (1.0 / root), profile._anchors[idx]
    inner = (b - anchor,) if root == profile.root else (b * b - anchor, 2.0 * b)
    acc = np.zeros((root * max(len(profile._coef) - 1, 1) + 2, len(lo)))
    acc[0] = profile._coef[-1][idx]
    for row in profile._coef[-2::-1]:
        new = inner[0] * acc
        for k, w in enumerate(inner[1:], 1):
            new[k:] += w * acc[:-k]
        new[len(inner):] += acc[:-len(inner)]
        new[0] += row[idx]
        acc = new
    return acc


def _poly_roots(coef):
    """The roots of each column (row k the s^k coefficient) and their columns,
    ``np.roots`` bit for bit: zeros trimmed at both ends, a zero root per
    trailing zero, and one ``eigvals`` call per degree on stacked companions."""
    nz = coef != 0.0
    low = nz.argmax(axis=0)
    # the count of nonzero rows peaks first at the last; 0 for a zero column
    degree = nz.cumsum(axis=0).argmax(axis=0) - low
    owner, roots = [np.arange(coef.shape[1]).repeat(low)], [np.zeros(low.sum())]
    for deg in sorted(set(degree.tolist()) - {0}):
        at = (degree == deg).nonzero()[0]
        lead = coef[low[at] + np.arange(deg, -1, -1)[:, None], at]
        comp = np.zeros((len(at), deg, deg))
        comp[:, 0] = (-lead[1:] / lead[0]).T
        comp.reshape(len(at), -1)[:, deg::deg + 1] = 1.0
        owner.append(at.repeat(deg))
        roots.append(np.linalg.eigvals(comp).reshape(-1))
    return np.concatenate(owner), np.concatenate(roots)


def profile_extremes(profile: RadialProfile, hi: float = math.inf, tilt: float = 0.0,
                     over: RadialProfile | None = None):
    """Radii in [0, hi] holding the max and min of (v(r) - tilt r) / over(r),
    and its limit as r -> inf (+-inf, a ratio of leading coefficients, or 0).

    The radii are 0, a finite hi, the knots, and the real parts of the roots
    of G'U - GU' between knots (G the piece of v - tilt r, U that of
    ``over``, default 1, positive), every interval's piece expanded at once.
    Complex roots count too, so a double root that rounding splits into a
    complex pair keeps its radius.  Read heights with ``profile_values``.
    """
    over = ConstantProfile(1.0) if over is None else over
    root = max(profile.root, over.root)
    knots = np.union1d(profile._knot_arr, over._knot_arr)
    edges = np.concatenate(([0.0], knots[(0.0 < knots) & (knots < hi)], [hi]))
    # one more column: the last piece, whose leading terms give the limit
    lo = np.append(edges[:-1], knots.max(initial=0.0))
    g = _expanded(profile, lo, root)
    g[:root + 2] -= _expanded(LinearProfile(tilt), lo, root)
    u = _expanded(over, lo, root)
    dg, du = (p[1:] * np.arange(1.0, len(p))[:, None] for p in (g, u))
    which, s = _poly_roots((_times(dg, u) - _times(g, du))[:, :-1])
    which, s = which[s.real > 0.0], s.real[s.real > 0.0]
    r = (lo[which] ** (1.0 / root) + s) ** root
    radii = np.concatenate((edges[np.isfinite(edges)], r[r < edges[which + 1]]))
    kg, ku = g[:, -1].nonzero()[0], u[:, -1].nonzero()[0]
    growth = kg[-1] - ku[-1] if len(kg) else -1
    limit = 0.0 if growth < 0 else g[kg[-1], -1] / u[ku[-1], -1] * (math.inf if growth else 1.0)
    return np.unique(radii), float(limit)


def profile_zeros(profile: RadialProfile) -> np.ndarray:
    """Radii r >= 0 where v(r) = 0: the real roots of every piece at once, each
    on its own interval between knots.  A double root gives a radius where v
    only touches 0; a complex pair from rounding gives none."""
    edges = np.concatenate(([0.0], profile._knot_arr[profile._knot_arr > 0.0], [math.inf]))
    which, s = _poly_roots(_expanded(profile, edges[:-1], profile.root))
    real = (s.imag == 0.0) & (s.real >= 0.0)
    which, s = which[real], s.real[real]
    r = (edges[which] ** (1.0 / profile.root) + s) ** profile.root
    return np.unique(r[r < edges[which + 1]])


def profile_from_csv(path) -> PiecewisePolyProfile:
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["r", "value"]:
        raise ValueError('profile CSV must start with header "r,value"')
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return SampledProfile(data[:, 0], data[:, 1])


def profile_from_config(options: dict, prefix: str = "") -> RadialProfile:
    """Build a profile from flat config options (kind plus parameters, each
    key read as ``prefix + key``); a parameter that is not finite, or a
    barrier's epsilon or a bump's width that is not positive, is an error
    naming its key."""
    def num(key, default, positive=False):
        value = parse_float(options, prefix + key, default)
        if positive:
            return positive_finite(prefix + key, value)
        if not math.isfinite(value):
            raise ValueError(f"{prefix + key} must be finite, not {value!r}")
        return value

    kind = options.get(prefix + "kind", "").strip().lower()
    if kind == "constant":
        return ConstantProfile(num("level", 1.0))
    if kind == "linear":
        return LinearProfile(num("slope", 0.1))
    if kind == "affine":
        return PiecewisePolyProfile((), ((0.0, (num("offset", 1.0), num("slope", 1.0))),))
    if kind == "sqrt":
        return SqrtProfile(num("scale", 1.0))
    if kind in ("bump", "rampbump"):
        amplitude, width = num("amplitude", 1.0), num("width", 1.0, positive=True)
        try:
            return (BumpProfile if kind == "bump" else RampBumpProfile)(amplitude, width)
        except ValueError as exc:
            raise ValueError(f"{prefix}width = {width!r}: {exc}") from None
    if kind == "barrier":
        return BarrierProfile(num("epsilon", None, positive=True))
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
    positive_finite("delta", delta)
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
