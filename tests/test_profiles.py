import bisect
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from fracsurf import (BarrierProfile, BumpProfile, ConstantProfile,
                      DilatedGraphProfile, InvalidEnvelopeError, LinearProfile,
                      NotSublinearError, PiecewisePolyProfile, RampBumpProfile, SampledProfile,
                      SqrtProfile, profile_from_config, profile_from_csv,
                      profile_values, sublinearity_modulus)
from fracsurf.profiles import (_expanded, _poly_roots, _times, profile_extremes,
                               profile_slopes, profile_zeros)

ALL_SMOOTH = [
    ConstantProfile(0.7),
    LinearProfile(0.3),
    SqrtProfile(1.2),
    BumpProfile(0.5, 3.0),
    RampBumpProfile(0.4, 2.0),
    BarrierProfile(0.2),
]


def naive_chord(profile, r, h):
    return (profile.value(r + h) - profile.value(r)) / h


def naive_bend(profile, r, h):
    return (profile.value(r + h) - profile.value(r)
            - h * profile.first_derivative(r)) / (h * h)


@pytest.mark.parametrize("profile", ALL_SMOOTH, ids=lambda p: p.kind)
def test_chord_matches_naive_quotient(profile):
    rng = np.random.default_rng(11)
    for _ in range(40):
        r = float(rng.uniform(0.05, 8.0))
        h = float(rng.uniform(-0.5, 0.5))
        if abs(h) < 1e-3 or (profile.kind == "sqrt" and r + h <= 0):
            continue
        assert profile.chord(r, h) == pytest.approx(naive_chord(profile, r, h),
                                                    rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("profile", ALL_SMOOTH, ids=lambda p: p.kind)
def test_bend_matches_naive_quotient(profile):
    rng = np.random.default_rng(12)
    for _ in range(40):
        r = float(rng.uniform(0.3, 6.0))
        h = float(rng.uniform(-0.25, 0.25))
        if abs(h) < 5e-2 or (profile.kind == "sqrt" and r + h <= 0.05):
            continue
        assert profile.bend(r, h) == pytest.approx(naive_bend(profile, r, h),
                                                   rel=1e-7, abs=1e-9)


def test_chord_bend_stay_bounded_at_tiny_offsets():
    """The whole point of the exact divided differences: no blowup where the
    naive quotient loses every significant digit."""
    prof = BarrierProfile(0.3)
    for r in (0.5, 2.0 - 1e-13, 2.0 + 1e-13, 5.0):
        for h in (1e-12, -1e-12, 1e-7, -1e-7):
            c = prof.chord(r, h)
            b = prof.bend(r, h)
            assert math.isfinite(c) and abs(c) < 10.0
            assert math.isfinite(b) and abs(b) < 10.0
    assert prof.chord(1.0, 1e-12) == pytest.approx(prof.first_derivative(1.0),
                                                   abs=1e-9)
    assert prof.bend(3.0, 1e-12) == pytest.approx(
        0.5 * prof.second_derivative(3.0), abs=1e-9)


def test_chord_across_knots():
    prof = BarrierProfile(0.25)
    for r, h in [(0.9, 0.3), (1.9, 0.2), (0.5, 2.0), (2.5, -1.0), (3.0, -2.7)]:
        assert prof.chord(r, h) == pytest.approx(naive_chord(prof, r, h),
                                                 rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("kind", ["constant", "linear", "sqrt", "bump", "barrier", "sampled",
                                  "dilated1", "shifted-sqrt"])
def test_steps_on_the_negative_side_fold_through_evenness(kind):
    """Both ends at or below 0: the chord is odd and the bend even in (r, h),
    bit for bit, down to a step of 1e-9 where the naive quotient of rounded
    heights keeps few digits."""
    prof = ARRAY_FAMILIES[kind]
    for r, h in [(1.3, 1e-9), (1.3, -1e-9), (2.5, -1.2), (0.5, -0.5), (0.0, 0.7)]:
        assert prof.chord(-r, -h) == -prof.chord(r, h)
        assert prof.bend(-r, -h) == prof.bend(r, h)


def test_barrier_height_envelope():
    """Plateau at the cusp height, cone far out, controlled in between."""
    eps = 0.15
    prof = BarrierProfile(eps)
    rs = np.linspace(0.0, 12.0, 1201)
    vals = profile_values(prof, rs)
    inner = rs <= 1.0
    outer = rs >= 2.0
    mid = ~inner & ~outer
    assert np.allclose(vals[inner], eps)
    assert np.allclose(vals[outer], eps * rs[outer])
    assert np.all(vals[mid] >= eps - 1e-12)
    assert np.all(vals[mid] <= eps * rs[mid] + 1e-12)
    # uniform cone-from-below bound used by the sliding step
    assert np.all(vals >= 0.25 * eps * (1.0 + rs) - 1e-12)


def test_barrier_family_monotone_in_epsilon():
    rs = np.linspace(0.0, 10.0, 501)
    lo = profile_values(BarrierProfile(0.1), rs)
    hi = profile_values(BarrierProfile(0.2), rs)
    assert np.all(lo <= hi + 1e-15)


def test_even_reflection():
    for prof in ALL_SMOOTH:
        assert prof.value(-2.0) == prof.value(2.0)
        assert prof.first_derivative(-2.0) == -prof.first_derivative(2.0)


def test_rampbump_peak_location_and_height():
    prof = RampBumpProfile(0.8, 3.0)
    assert prof.value(1.5) == pytest.approx(0.8, rel=1e-12)
    assert prof.first_derivative(1.5) == pytest.approx(0.0, abs=1e-12)
    assert prof.value(0.0) == 0.0
    assert prof.value(3.0) == 0.0
    assert prof.value(4.0) == 0.0


def test_sqrt_profile_exact_derivatives():
    prof = SqrtProfile(2.0)
    r = 1.7
    assert prof.value(r) == pytest.approx(2.0 * math.sqrt(r))
    assert prof.first_derivative(r) == pytest.approx(1.0 / math.sqrt(r))
    assert prof.second_derivative(r) == pytest.approx(-0.5 * r ** -1.5)
    assert prof.chord(r, 0.3) == pytest.approx(naive_chord(prof, r, 0.3), rel=1e-12)


def test_piecewise_poly_c2_smoothness_query():
    # r^2 windowed by (1 - (r/4)^2)^3, expanded; C2 at the knot r = 4
    coeffs = (0.0, 0.0, 1.0, 0.0, -3.0 / 16.0, 0.0, 3.0 / 256.0, 0.0, -1.0 / 4096.0)
    prof = PiecewisePolyProfile((4.0,), [(0.0, coeffs), (4.0, (0.0,))])
    assert prof.value(4.0) == pytest.approx(0.0, abs=1e-14)
    assert prof.first_derivative(4.0 - 1e-8) == pytest.approx(0.0, abs=1e-6)
    assert prof.value(2.0) == pytest.approx(4.0 * (1 - 0.25) ** 3)
    assert prof.chord(3.8, 0.5) == pytest.approx(naive_chord(prof, 3.8, 0.5),
                                                 rel=1e-9, abs=1e-12)


STEPS = [(0.5, 0.3), (1.3, -0.2), (4.0, 1e-3), (0.9, 1.6)]


def test_dilated_profile_is_scaling():
    """u(f r) / f, of the input's own family: values, slopes, chords and
    bends transported through the dilation.  Dilating by a power of two
    rescales every coefficient exactly; f = 3 rounds them, and so does
    dilating by 4 and then by 2.5, which composes to f = 10."""
    for base, f in itertools.product(ARRAY_FAMILIES.values(), (0.5, 3.0, 10.0)):
        prof = base.dilated(4.0).dilated(2.5) if f == 10.0 else DilatedGraphProfile(base, f)
        assert type(prof) in (PiecewisePolyProfile, SqrtProfile)
        assert isinstance(base, type(prof))
        rel = 1e-14 if f == 0.5 else 1e-13
        for r, h in STEPS:
            assert prof.value(r) == pytest.approx(base.value(f * r) / f, rel=rel, abs=0.0)
            assert prof.first_derivative(r) == pytest.approx(
                base.first_derivative(f * r), rel=rel, abs=0.0)
            assert prof.chord(r, h) == pytest.approx(base.chord(f * r, f * h),
                                                     rel=rel, abs=0.0)
            assert prof.bend(r, h) == pytest.approx(f * base.bend(f * r, f * h),
                                                    rel=rel, abs=0.0)
    with pytest.raises(ValueError):
        DilatedGraphProfile(BarrierProfile(0.2), 0.0)


@pytest.mark.parametrize("profile, factor", [
    (BarrierProfile(0.2), 1e-80),  # the blend's t^5 and t^6 coefficients underflow
    (BarrierProfile(0.2), 1e300),  # f^5 overflows
    (BumpProfile(1.0, 2.0), 1e-160),  # the t^4 and t^6 coefficients underflow
    (PiecewisePolyProfile((1e300,), ((0.0, (1.0,)), (0.0, (2.0,)))), 1e-10),  # the knot
    (PiecewisePolyProfile((), ((1e300, (1.0, 1.0)),)), 1e-10),  # the anchor overflows
    (ConstantProfile(0.3), 1e-309),  # the level overflows
    (SqrtProfile(1.0, 1.0), 1e-310),  # the offset overflows
    (SqrtProfile(1e-300), 1e20),  # the scale underflows
])
def test_dilation_refuses_a_factor_it_cannot_represent(profile, factor):
    """Before, 1e-80 gave the barrier 2.3125e79 at r = 1.5e80 for 2.5e79,
    and 1e300 raised a raw OverflowError."""
    with pytest.raises(ValueError, match=re.escape(
            f"dilation factor must keep every knot and coefficient in floating-point range, "
            f"not {factor!r}")):
        profile.dilated(factor)


def test_dilation_keeps_what_it_can_represent():
    """A zero coefficient stays zero however far its power overflows, and a
    factor short of the underflow keeps the barrier's values."""
    assert LinearProfile(0.1).dilated(1e-310).pieces == [(0.0, (0.0, 0.1))]
    assert BarrierProfile(0.2).dilated(1e-40).value(1.5e40) == pytest.approx(2.5e39, rel=1e-15)


@pytest.mark.parametrize("shape", [BumpProfile, RampBumpProfile])
@pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
def test_bump_width_that_is_not_positive_and_finite_is_refused(shape, width):
    with pytest.raises(ValueError, match=f"width must be positive and finite, not {width!r}"):
        shape(1.0, width)


@pytest.mark.parametrize("shape, width", [
    (BumpProfile, 1e-60),  # w^6 underflows to 0: a raw ZeroDivisionError before
    (BumpProfile, 1e60),  # w^6 overflows: a raw OverflowError before
    (RampBumpProfile, 1e-40),  # a / w^8 is inf: the value at 5e-41 read -inf for 1.0
    (RampBumpProfile, 1e-60),
    (RampBumpProfile, 1e60),
])
def test_bump_width_it_cannot_represent_is_refused(shape, width):
    with pytest.raises(ValueError, match=re.escape(
            "width must keep every knot and coefficient in floating-point range, "
            f"not {width!r}")):
        shape(1.0, width)


def test_bump_keeps_the_widths_it_can_represent():
    """Every coefficient is c * a / w ** k, as written; a narrow width keeps
    the shape, and a zero amplitude stays zero where a nonzero one overflows."""
    a, w = 0.7, 3.0
    assert BumpProfile(a, w).pieces[0][1] == (
        a, 0.0, -3.0 * a / w ** 2, 0.0, 3.0 * a / w ** 4, 0.0, -a / w ** 6)
    r = a * 256.0 / 27.0
    assert RampBumpProfile(a, w).pieces[0][1] == (
        0.0, 0.0, r / w ** 2, 0.0, -3.0 * r / w ** 4, 0.0, 3.0 * r / w ** 6, 0.0, -r / w ** 8)
    assert BumpProfile(1.0, 1e-40).value(5e-41) == pytest.approx(0.421875, rel=1e-15)
    assert RampBumpProfile(1.0, 1e-30).value(5e-31) == 1.0000000000000004
    assert RampBumpProfile(0.0, 1e-40).value(5e-41) == 0.0


def test_vertical_shift_passthrough():
    """v - 0.4, of the input's own family: values drop by the shift, and
    slopes, chords and bends stay bit for bit."""
    for base in ARRAY_FAMILIES.values():
        prof = base.shifted(0.4)
        assert isinstance(base, type(prof))
        for r, h in STEPS:
            assert prof.value(r) == pytest.approx(base.value(r) - 0.4, rel=1e-15, abs=1e-15)
            assert prof.first_derivative(r) == base.first_derivative(r)
            assert prof.chord(r, h) == base.chord(r, h)
            assert prof.bend(r, h) == base.bend(r, h)
    assert SqrtProfile(1.0).shifted(0.4).value(4.0) == 2.0 - 0.4


def test_sampled_profile_interpolates_and_extrapolates():
    r = np.linspace(0.0, 5.0, 201)
    prof = SampledProfile(r, np.sqrt(1.0 + r))
    assert prof.value(2.0) == pytest.approx(math.sqrt(3.0), rel=1e-6)
    d = prof.first_derivative(2.0)
    assert d == pytest.approx(0.5 / math.sqrt(3.0), rel=1e-4)
    # beyond the last node the continuation is linear
    end_slope = prof.first_derivative(5.0)
    assert prof.value(7.0) == pytest.approx(prof.value(5.0) + 2.0 * end_slope,
                                            rel=1e-12)


@pytest.mark.parametrize("radii, values, message", [
    ([0.0, 1.0, 2.0], [1.0, 2.0], "matching"),
    ([0.0], [1.0], "matching"),
    ([[0.0, 1.0]], [[1.0, 2.0]], "matching"),
    ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0.0, math.nan, 2.0], [1.0, 2.0, 3.0], "strictly increasing"),
])
def test_sampled_profile_refuses_bad_samples(radii, values, message):
    with pytest.raises(ValueError, match=message):
        SampledProfile(radii, values)


def test_sampled_pieces_match_pchip():
    """Values, slopes and curvatures against scipy's PchipInterpolator
    called directly, within 4 ulps of the sizes of its power-sum terms."""
    r = np.linspace(0.0, 4.0, 17)
    v = 1.0 + np.sqrt(1.0 + r ** 2)
    prof = SampledProfile(r, v)
    f = PchipInterpolator(r, v)
    x = np.concatenate([np.random.default_rng(24).uniform(0.0, 4.0, 400), r[:-1]])
    i = np.searchsorted(r, x, side="right") - 1
    t = x - r[i]
    coeffs = np.abs(f.c[::-1, i])  # rows in ascending powers
    got = (profile_values(prof, x), profile_slopes(prof, x),
           [prof.second_derivative(float(y)) for y in x])
    for deriv in range(3):
        factor = np.array([[math.perm(k, deriv)] for k in range(4)])
        terms = factor * coeffs * t ** np.maximum(np.arange(4)[:, None] - deriv, 0)
        assert_within_ulps(got[deriv], f(x, deriv), size=4 * terms.sum(axis=0))


def test_sampled_bend_keeps_its_digits_at_small_steps():
    # differencing rounded values lost most digits at these steps
    r = np.linspace(0.0, 4.0, 17)
    prof = SampledProfile(r, 1.0 + r ** 2 / 8.0)
    for h in (1.31e-7, 1.5e-7):
        assert abs(prof.bend(1.3, h) - 0.5 * prof.second_derivative(1.3)) <= 1e-6


def test_piecewise_smoothness_at_the_axis():
    """The even extension is smooth at 0 only where the slope there is 0."""
    r = np.linspace(0.0, 20.0, 41)
    assert SampledProfile(r, 0.3 + 0.05 * np.sqrt(1.0 + r ** 2)).smooth_at(0.0) is False
    assert SampledProfile(r[1:], 0.3 + 0.05 * np.sqrt(1.0 + r[1:] ** 2)).smooth_at(0.0) is True
    assert LinearProfile(0.3).smooth_at(0.0) is False
    assert LinearProfile(0.3).smooth_at(1.0) is True
    for prof in (ConstantProfile(0.7), BumpProfile(0.5, 3.0), BarrierProfile(0.2)):
        assert prof.smooth_at(0.0) is True


def test_sampled_profile_reproduces_lines_exactly():
    r = np.linspace(0.0, 3.0, 31)
    prof = SampledProfile(r, 0.25 * r + 1.0)
    for x in (0.17, 1.5, 2.99):
        assert prof.value(x) == pytest.approx(0.25 * x + 1.0, abs=1e-12)
        assert prof.first_derivative(x) == pytest.approx(0.25, abs=1e-10)


ARRAY_FAMILIES = {p.kind: p for p in ALL_SMOOTH} | {
    "sampled": SampledProfile(np.linspace(0.0, 4.0, 17),
                              1.0 + np.linspace(0.0, 4.0, 17) ** 2 / 8.0),
    "shifted": BarrierProfile(0.3).shifted(0.1),
    "dilated0": BarrierProfile(0.2).dilated(0.5),
    "dilated1": RampBumpProfile(0.4, 2.0).dilated(3.0),
    "shifted-sqrt": SqrtProfile(1.0).shifted(0.4),
    "dilated-sqrt": SqrtProfile(2.0).dilated(3.0),
}


def assert_within_ulps(got, ref, ulps=4, size=None):
    """got lies within ``ulps`` spacings of ref, taken at ``size`` where that
    is larger: the magnitude a computation's rounding error scales with."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    scale = np.abs(ref) if size is None else np.maximum(np.abs(ref), size)
    same = (got == ref) | (np.isnan(got) & np.isnan(ref))
    with np.errstate(invalid="ignore"):  # inf - inf where both are infinite
        close = np.abs(got - ref) <= ulps * np.spacing(scale)
    assert np.all(same | close), (got[~(same | close)], ref[~(same | close)])


def seeded_steps(profile, rng, count=400):
    """Radii and steps: smooth, tiny, knot-crossing, sign-crossing, zero."""
    r = rng.uniform(0.0, 6.0, count)
    h = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.uniform(-12.0, 0.5, count)
    knots = getattr(profile, "knots", None) or (1.0, 2.0)
    k = rng.choice(knots, count // 4)
    # steps from just below a knot to just above it, and back
    r = np.concatenate([r, k - 1e-3 * rng.uniform(0.0, 1.0, k.size),
                        k + 1e-9 * rng.uniform(0.0, 1.0, k.size)])
    h = np.concatenate([h, 2e-3 * rng.uniform(0.5, 1.0, k.size),
                        -1e-3 * rng.uniform(0.5, 1.0, k.size)])
    # steps through zero, from negative radii, and of length zero
    r = np.concatenate([r, [0.3, 0.05, -0.2, -0.4, -1.5, 0.0, 1.5, -2.5]])
    h = np.concatenate([h, [-0.5, -0.2, 0.5, 0.1, -0.3, 0.7, 0.0, 0.0]])
    return r, h


# Independent references, one element at a time.  ``point(r)`` gives the
# value and slope at r >= 0, ``step(r, h)`` the chord and bend of a step
# with r >= 0, r + h >= 0, h != 0.  Each entry is (reference, size): the
# profile's rounding error stays within 4 ulps of size (which covers the
# error bounds of Horner's rule and of the product-sum recurrence), or of
# the reference itself where size is 0.

def exact_piece(profile, x):
    """Anchor and rational coefficients of the piece that holds x."""
    anchor, coeffs = profile.pieces[bisect.bisect_right(profile.knots, x)]
    return anchor, [Fraction(c) for c in coeffs]


def exact_poly(coeffs, t, deriv=0):
    """The deriv-th derivative of sum c_k t^k at rational t, with the
    coefficient count times the sum of its terms' sizes."""
    terms = [c * math.perm(k, deriv) * t ** (k - deriv)
             for k, c in enumerate(coeffs) if k >= deriv]
    return sum(terms, Fraction(0)), len(coeffs) * sum(map(abs, terms), Fraction(0))


def exact_divided(coeffs, a, b):
    """Chord and bend of one polynomial between rationals a != b; their
    sizes are the same forms on |coeffs|, whose product sums have no
    negative term when a, b >= 0."""
    def forms(cs):
        if a == b:  # a step below half an ulp of a
            return exact_poly(cs, a, 1)[0], exact_poly(cs, a, 2)[0] / 2
        chord = (exact_poly(cs, b)[0] - exact_poly(cs, a)[0]) / (b - a)
        return chord, (chord - exact_poly(cs, a, 1)[0]) / (b - a)

    (chord, bend), sizes = forms(coeffs), forms([abs(c) for c in coeffs])
    return (chord, len(coeffs) * sizes[0]), (bend, len(coeffs) * sizes[1])


class PiecewiseReference:
    """Fraction arithmetic on each piece's own float coefficients."""

    def __init__(self, profile):
        self.profile = profile

    def point(self, r):
        anchor, coeffs = exact_piece(self.profile, r)
        t = Fraction(r - anchor)  # the piece-local radius as the profile forms it
        return exact_poly(coeffs, t), exact_poly(coeffs, t, 1)

    def curve(self, r):
        anchor, coeffs = exact_piece(self.profile, r)
        return exact_poly(coeffs, Fraction(r - anchor), 2)

    def step(self, r, h):
        lo, hi = min(r, r + h), max(r, r + h)
        if any(lo < k < hi for k in self.profile.knots):
            return self.across(r, h)
        # a step that ends on a knot belongs to the piece through its midpoint
        anchor, coeffs = exact_piece(self.profile, 0.5 * (lo + hi))
        a = r - anchor
        return exact_divided(coeffs, Fraction(a), Fraction(a + h))

    def across(self, r, h):
        """Each piece's exact increment over its share of the exact step,
        over h: the slope integrated across the knots, so a jump where two
        pieces' float coefficients fail to meet does not count."""
        R, H = Fraction(r), Fraction(h)
        lo, hi = sorted((R, R + H))
        ends = [lo] + [Fraction(k) for k in self.profile.knots if lo < k < hi] + [hi]
        first = bisect.bisect_right(self.profile.knots, lo)
        chord = size = Fraction(0)
        for (anchor, coeffs), x0, x1 in zip(self.profile.pieces[first:], ends, ends[1:]):
            a = Fraction(anchor)
            (share, share_size), _ = exact_divided([Fraction(c) for c in coeffs], x0 - a, x1 - a)
            chord += share * (x1 - x0) / abs(H)
            size += share_size * (x1 - x0) / abs(H)
        # the far end r + h rounds once in its piece's coordinate, as the
        # end of a step within one piece does; the slope carries that over h
        far_anchor = exact_piece(self.profile, r + h)[0]
        far_slope = self.point(r + h)[1][0]
        size += abs(far_slope) * abs(Fraction(r + h) - Fraction(far_anchor)) / abs(H)
        slope, slope_size = self.point(r)[1]
        return (chord, size), ((chord - slope) / H, (size + slope_size) / abs(H))


class SqrtReference:
    """The closed forms, with math.sqrt."""

    def __init__(self, profile):
        self.scale = profile.scale
        self.offset = profile.offset

    def point(self, r):
        s = self.scale
        return ((s * math.sqrt(r) + self.offset, 0),
                (0.5 * s / math.sqrt(r) if r else math.inf, 0))

    def curve(self, r):
        return (-0.25 * self.scale * r ** -1.5 if r else -math.inf), 0

    def step(self, r, h):
        sa, sb = math.sqrt(r), math.sqrt(r + h)
        bend = -self.scale / (2.0 * sa * (sa + sb) ** 2) if sa else -math.inf
        return (self.scale / (sa + sb), 0), (bend, 0)


def reference_for(profile):
    if isinstance(profile, SqrtProfile):
        return SqrtReference(profile)
    return PiecewiseReference(profile)


def as_floats(pairs):
    """(references, sizes) as two float arrays."""
    return tuple(np.array([float(x) for x in column]) for column in zip(*pairs))


def reference_points(profile, radii):
    """Values and slopes at any radii: evenness folds the sign."""
    points = [reference_for(profile).point(abs(float(x))) for x in radii]
    values = as_floats(p[0] for p in points)
    slopes, slope_sizes = as_floats(p[1] for p in points)
    return values, (np.where(np.asarray(radii) < 0.0, -slopes, slopes), slope_sizes)


def reference_bends(profile, radii, steps):
    """Bends at any (radius, step): a zero step gives half the curvature,
    one-sided steps fold onto r >= 0, and a step through the axis is
    (chord - slope) / h with the chord between the folded ends, its error
    amplified by 1/h twice."""
    ref = reference_for(profile)
    out = []
    for r, h in zip(radii, steps):
        r, h = float(r), float(h)
        b = r + h
        if h == 0.0:
            curve, size = ref.curve(abs(r))
            out.append((curve / 2, size / 2))
        elif r >= 0.0 and b >= 0.0:
            out.append(ref.step(r, h)[1])
        elif r <= 0.0 and b <= 0.0:
            out.append(ref.step(-r, -h)[1])
        else:
            (vb, vb_size), _ = ref.point(abs(b))
            (vr, vr_size), (slope, slope_size) = ref.point(abs(r))
            slope = slope if r >= 0.0 else -slope
            chord = (Fraction(vb) - Fraction(vr)) / Fraction(h)
            size = ((max(vb_size, abs(vb)) + max(vr_size, abs(vr))) / h ** 2
                    + max(slope_size, abs(slope)) / abs(h))
            out.append(((chord - Fraction(slope)) / Fraction(h), size))
    return as_floats(out)


def test_barrier_is_c2_at_the_cutoff_knots():
    """Value, slope and curvature of the pieces on either side of each knot,
    in exact arithmetic on each piece's own stored coefficients: equal where
    10 eps, 15 eps and 6 eps are binary-exact, and within a few ulps of the
    terms' sizes where they are rounded."""
    for eps in (1.0, 0.25, 0.2):
        prof = BarrierProfile(eps)
        for knot in prof.knots:
            sides = [exact_piece(prof, x) for x in (knot - 0.5, knot)]
            for deriv in range(3):
                (left, left_size), (right, right_size) = [
                    exact_poly(coeffs, Fraction(knot) - Fraction(anchor), deriv)
                    for anchor, coeffs in sides]
                if eps == 0.2:
                    size = float(max(left_size, right_size))
                    assert abs(left - right) <= 4 * np.spacing(size), (eps, knot, deriv)
                else:
                    assert left == right, (eps, knot, deriv)


@pytest.mark.parametrize("profile", ARRAY_FAMILIES.values(), ids=list(ARRAY_FAMILIES))
def test_array_values_match_scalar_reference(profile):
    """Array values and slopes against references formed one radius at a
    time."""
    rng = np.random.default_rng(21)
    rs = np.concatenate([rng.uniform(-8.0, 8.0, 500), [0.0, 1.0, 2.0, 3.0, 4.0, 1e6]])
    if isinstance(profile, PiecewisePolyProfile):
        rs = np.concatenate([rs, np.nextafter(profile.knots, 0.0), profile.knots])
    values, slopes = profile_values(profile, rs), profile_slopes(profile, rs)
    (v, v_size), (g, g_size) = reference_points(profile, rs)
    assert_within_ulps(values, v, size=v_size)
    assert_within_ulps(slopes, g, size=g_size)
    grid = rs[:100].reshape(10, 10)
    assert profile_values(profile, grid).shape == (10, 10)
    assert profile_slopes(profile, grid).shape == (10, 10)


@pytest.mark.parametrize("profile", ARRAY_FAMILIES.values(), ids=list(ARRAY_FAMILIES))
def test_array_bends_match_scalar_reference(profile):
    """One-sided array chords and bends (a zero step gives the bend's limit,
    half the curvature), and the folded scalar bend on every step, against
    references formed one step at a time (within-piece steps to a few ulps;
    steps across a knot to their error bound, which the cancellation of a
    bend there makes loose)."""
    rng = np.random.default_rng(22)
    r, h = seeded_steps(profile, rng)
    right = (r >= 0.0) & (r + h >= 0.0)
    ra, ha = r[right & (h != 0.0)], h[right & (h != 0.0)]
    chords = profile._divided(ra, ha)[0]
    reference = reference_for(profile)
    ref, size = as_floats(reference.step(float(a), float(b))[0] for a, b in zip(ra, ha))
    assert_within_ulps(chords, ref, size=size)
    ref, size = reference_bends(profile, r[right], h[right])
    assert_within_ulps(profile._bends(r[right], h[right]), ref, size=size)
    ref, size = reference_bends(profile, r, h)
    assert_within_ulps([profile.bend(float(a), float(b)) for a, b in zip(r, h)], ref, size=size)
    # one base radius against many steps, the shape the curvature core uses
    steps = h[:48][2.5 + h[:48] >= 0.0]
    ref, size = reference_bends(profile, np.full(steps.shape, 2.5), steps)
    assert_within_ulps(profile._bends(2.5, steps), ref, size=size)


@pytest.mark.parametrize("profile", ARRAY_FAMILIES.values(), ids=list(ARRAY_FAMILIES))
def test_zero_step_limits(profile):
    """At h = 0 the divided pair is (v', v''/2): second_derivative is twice
    the reference bend of a zero step and even in r, and chord(r, 0) is
    first_derivative bit for bit, on either side of the axis."""
    rs = np.concatenate([np.random.default_rng(25).uniform(0.05, 8.0, 200),
                         [1.0, 2.0, 3.0, 1e6], getattr(profile, "knots", ())])
    ref, size = reference_bends(profile, rs, np.zeros_like(rs))
    curves = [profile.second_derivative(float(x)) for x in rs]
    assert_within_ulps(curves, 2.0 * ref, size=2.0 * size)
    assert [profile.second_derivative(-float(x)) for x in rs] == curves
    for x in np.concatenate([rs, -rs, [0.0, -0.0]]).tolist():
        assert (np.float64(profile.chord(x, 0.0)).tobytes()
                == np.float64(profile.first_derivative(x)).tobytes())


def test_sqrt_cusp_is_infinite_without_a_warning():
    """v' = +inf and v'' = -inf at the cusp, through every accessor."""
    for profile in (SqrtProfile(1.2), SqrtProfile(2.0).dilated(3.0),
                    SqrtProfile(1.0).shifted(0.4)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert profile.first_derivative(0.0) == math.inf
            assert profile.chord(0.0, 0.0) == math.inf
            assert profile_slopes(profile, [0.0]).tolist() == [math.inf]
            assert profile.second_derivative(0.0) == -math.inf
            assert profile.bend(0.0, 0.0) == -math.inf
            assert profile._divided(np.zeros(2), np.zeros(2))[0].tolist() == [math.inf] * 2
            assert profile._bends(np.zeros(2), np.zeros(2)).tolist() == [-math.inf] * 2


def test_profile_values_matches_scalar_loop():
    """The public scalar accessors, one radius at a time, against the same
    references as the array paths."""
    rs = np.linspace(0.0, 9.0, 97)
    for prof in ALL_SMOOTH:
        (v, v_size), (g, g_size) = reference_points(prof, rs)
        assert_within_ulps([prof.value(float(x)) for x in rs], v, size=v_size)
        assert_within_ulps([prof.first_derivative(float(x)) for x in rs], g, size=g_size)
        assert_within_ulps([prof.first_derivative(-float(x)) for x in rs[1:]],
                           -g[1:], size=g_size[1:])


def test_within_piece_bend_is_exact_to_rounding():
    """The scalar bend against rational arithmetic, on the blend."""
    rng = np.random.default_rng(23)
    prof = BarrierProfile(0.2)
    anchor, coeffs = prof.pieces[1]
    poly = [Fraction(c) for c in coeffs]

    def val(x):
        return sum(c * x ** k for k, c in enumerate(poly))

    for _ in range(200):
        r = float(rng.uniform(1.05, 1.95))
        h = float(rng.uniform(-0.05, 0.05)) * 10.0 ** float(rng.uniform(-10.0, 0.0))
        # the piece-local endpoints exactly as the profile forms them
        a = Fraction(r - anchor)
        b = Fraction(r - anchor + h)
        slope = sum(k * c * a ** (k - 1) for k, c in enumerate(poly) if k)
        ref = float(((val(b) - val(a)) / (b - a) - slope) / (b - a))
        # relative to the bend's own size, or to the blend's curvature
        # scale where the bend passes through zero
        assert abs(prof.bend(r, h) - ref) <= 1e-12 * max(abs(ref), 0.2)


def csv_text(profile, radii):
    return "r,value\n" + "".join(f"{float(r)!r},{profile.value(float(r))!r}\n"
                                 for r in radii)


def test_csv_round_trip(tmp_path):
    prof = BarrierProfile(0.3)
    path = tmp_path / "prof.csv"
    radii = np.linspace(0.0, 6.0, 121)
    path.write_text(csv_text(prof, radii))
    back = profile_from_csv(path)
    for r in (0.4, 1.7, 3.3, 5.9):
        assert back.value(r) == pytest.approx(prof.value(r), rel=1e-6)
    # float reprs read back bit for bit
    path.write_text(csv_text(SqrtProfile(1.0), radii))
    assert profile_values(profile_from_csv(path), radii).tolist() == np.sqrt(radii).tolist()


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("radius,height\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError):
        profile_from_csv(path)


def test_profile_from_config():
    assert profile_from_config({"kind": "constant", "level": "0.4"}).value(3.0) == 0.4
    assert profile_from_config({"kind": "linear", "slope": "0.2"}).value(5.0) == 1.0
    assert profile_from_config({"kind": "sqrt", "scale": "2.0"}).value(4.0) == 4.0
    affine = profile_from_config({"kind": "affine", "offset": "0.5", "slope": "0.25"})
    assert affine.kind == "piecewise"
    assert affine.value(4.0) == 1.5 and affine.first_derivative(2.0) == 0.25
    assert profile_from_config({"kind": "affine"}).value(3.0) == 4.0
    barrier = profile_from_config({"kind": "barrier", "epsilon": "0.1"})
    assert barrier.value(0.5) == 0.1
    with pytest.raises(ValueError):
        profile_from_config({"kind": "dodecahedron"})


@pytest.mark.parametrize("kind, params, shape", [
    ("constant", {"level": "0.4"}, ConstantProfile(0.4)),
    ("linear", {"slope": "0.2"}, LinearProfile(0.2)),
    ("bump", {"amplitude": "0.5", "width": "3.0"}, BumpProfile(0.5, 3.0)),
    ("rampbump", {"amplitude": "0.4", "width": "2.0"}, RampBumpProfile(0.4, 2.0)),
    ("rampbump", {}, RampBumpProfile()),
    ("barrier", {"epsilon": "0.1"}, BarrierProfile(0.1)),
])
def test_named_shapes_from_config_are_labelled_piecewise_polynomials(kind, params, shape):
    """Each named shape is a piecewise polynomial that carries its kind; the
    config builds the same pieces from prefixed keys."""
    got = profile_from_config({"cand_kind": kind} | {"cand_" + k: v for k, v in params.items()},
                              "cand_")
    assert type(shape) is type(got) is PiecewisePolyProfile
    assert shape.kind == got.kind == kind
    assert (got.knots, got.pieces) == (shape.knots, shape.pieces)
    # a rescaled shape is a plain piecewise polynomial
    assert got.shifted(0.1).kind == got.dilated(2.0).kind == "piecewise"


def test_csv_profile_is_a_sampled_piecewise_polynomial(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text(csv_text(SqrtProfile(1.0), np.linspace(0.0, 6.0, 13)))
    got = profile_from_config({"kind": "csv", "path": str(path)})
    assert type(got) is PiecewisePolyProfile and got.kind == "sampled"


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan])
def test_modulus_refuses_a_slack_that_is_not_positive(delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        sublinearity_modulus(ConstantProfile(1.0), delta)


def test_modulus_constant_envelope():
    env = ConstantProfile(1.0)
    rep = sublinearity_modulus(env, 0.00625)
    assert rep.constant == pytest.approx(1.0)


def test_modulus_sqrt_envelope():
    env = SqrtProfile(1.0)
    rep = sublinearity_modulus(env, 0.5)
    # max of sqrt(r) - r/2 sits at r = 1 with value 1/2
    assert rep.constant == pytest.approx(0.5, abs=1e-6)
    assert rep.location == pytest.approx(1.0, rel=1e-9)


def test_modulus_finds_a_peak_at_any_radius():
    env = SqrtProfile(1.0)
    rep = sublinearity_modulus(env, 0.05)
    # sqrt(r) - r/20 peaks at r = 100 with value 5; no window cuts it off
    assert rep.constant == pytest.approx(5.0, rel=1e-12)
    assert rep.location == pytest.approx(100.0, rel=1e-12)


def test_modulus_flags_linear_growth():
    env = PiecewisePolyProfile((), [(0.0, (1.0, 1.0))])
    with pytest.raises(NotSublinearError):
        sublinearity_modulus(env, 0.5)


def test_modulus_nonincreasing_in_delta():
    env = SqrtProfile(1.0)
    deltas = [0.05, 0.1, 0.25, 0.5, 1.0]
    consts = [sublinearity_modulus(env, d).constant for d in deltas]
    assert all(a >= b - 1e-12 for a, b in zip(consts, consts[1:]))


def test_modulus_rejects_nonpositive_envelope():
    env = ConstantProfile(-1.0)
    with pytest.raises(InvalidEnvelopeError):
        sublinearity_modulus(env, 0.5)
    # 1 - 80 t + 800 t^2 on [0.1, 0.2] reaches -1 at r = 0.15, between the knots
    dip = PiecewisePolyProfile((0.1, 0.2), [(0.0, (1.0,)), (0.1, (1.0, -80.0, 800.0)),
                                            (0.2, (1.0,))])
    assert dip.value(0.15) == pytest.approx(-1.0)
    with pytest.raises(InvalidEnvelopeError, match="0.15"):
        sublinearity_modulus(dip, 0.5)



EXTREME_CASES = [
    (RampBumpProfile(0.7, 1.3), 0.0, None),
    (BarrierProfile(0.3), 0.1, None),
    (SqrtProfile(2.0, -0.5), 0.3, None),
    (SampledProfile(np.linspace(0.0, 6.0, 13), np.cos(np.linspace(0.0, 6.0, 13))), 0.05, None),
    (SqrtProfile(0.12), 0.0, BarrierProfile(1.0)),
    (BumpProfile(0.4, 2.5).dilated(0.7), 0.0, BarrierProfile(1.0)),
    (PiecewisePolyProfile((0.1, 0.2), [(0.0, (1.0,)), (0.1, (1.0, -80.0, 800.0)),
                                       (0.2, (1.0,))]), 0.02, BarrierProfile(1.0)),
]


@pytest.mark.parametrize("profile,tilt,over", EXTREME_CASES,
                         ids=["rampbump", "tilted-barrier", "tilted-sqrt", "tilted-sampled",
                              "sqrt-over-barrier", "dilated-bump-over-barrier",
                              "dip-over-barrier"])
def test_extremes_bound_a_dense_sampling(profile, tilt, over):
    """Max and min over the returned radii match 2e6 samples of [0, 12]."""
    radii, _ = profile_extremes(profile, 12.0, tilt, over)
    assert radii[0] == 0.0 and radii[-1] == 12.0

    def expr(r):
        den = 1.0 if over is None else profile_values(over, r)
        return (profile_values(profile, r) - tilt * r) / den

    dense = expr(np.linspace(0.0, 12.0, 2_000_001))
    at = expr(radii)
    scale = np.max(np.abs(dense))
    # the dense maximum can only sit below the exact one, by O(spacing^2)
    assert at.max() >= dense.max() - 1e-12 * scale
    assert at.min() <= dense.min() + 1e-12 * scale
    assert at.max() <= dense.max() + 1e-8 * scale
    assert at.min() >= dense.min() - 1e-8 * scale


@pytest.mark.parametrize("profile,tilt,over,limit", [
    (SqrtProfile(1.0), 0.05, None, -math.inf),
    (PiecewisePolyProfile((), [(0.0, (1.0, 1.0))]), 0.5, None, math.inf),
    (PiecewisePolyProfile((), [(0.0, (1.0, 1.0))]), 1.0, None, 1.0),
    (LinearProfile(0.3), 0.0, BarrierProfile(1.0), 0.3),
    (ConstantProfile(2.0), 0.0, BarrierProfile(1.0), 0.0),
    (SqrtProfile(1.0), 0.0, BarrierProfile(1.0), 0.0),
    (PiecewisePolyProfile((), [(0.0, (0.0, 0.0, -1.0))]), 0.0, BarrierProfile(1.0), -math.inf),
], ids=["sqrt-tilted", "affine-outgrows-tilt", "affine-matches-tilt", "linear-over-barrier",
        "constant-over-barrier", "sqrt-over-barrier", "quadratic-over-barrier"])
def test_extremes_limit_from_the_last_pieces(profile, tilt, over, limit):
    assert profile_extremes(profile, tilt=tilt, over=over)[1] == limit


def _runaway():
    r = np.linspace(0.0, 120.0, 2401)
    return SampledProfile(r, np.maximum(0.0, 0.02 * r - 0.1 * np.sqrt(r)))


def _exact_expansion(coeffs, inner):
    """sum c_k inner(s)^k by Horner on rationals, lowest power first."""
    out = [coeffs[-1]]
    for c in coeffs[-2::-1]:
        prod = [Fraction(0)] * (len(out) + len(inner) - 1)
        for i, a in enumerate(out):
            for j, w in enumerate(inner):
                prod[i + j] += a * w
        prod[0] += c
        out = prod
    return out


@pytest.mark.parametrize("profile,root", [
    (BarrierProfile(0.3), 1), (BarrierProfile(0.3), 2), (RampBumpProfile(0.7, 1.3).dilated(0.6), 2),
    (SampledProfile(np.linspace(0.0, 6.0, 13), np.cos(np.linspace(0.0, 6.0, 13))), 1),
    (SampledProfile(np.linspace(0.0, 6.0, 13), np.cos(np.linspace(0.0, 6.0, 13))), 2),
    (SqrtProfile(2.0, -0.5), 2), (ConstantProfile(0.7), 2), (LinearProfile(0.3), 2),
    (_runaway(), 1)],
    ids=["barrier", "barrier-in-sqrt", "dilated-rampbump-in-sqrt", "sampled",
         "sampled-in-sqrt", "sqrt", "constant-in-sqrt", "linear-in-sqrt", "runaway"])
def test_expanded_rows_are_the_exact_shift_or_composition(profile, root):
    """Each column of _expanded is its piece re-expanded in s = x - x(lo),
    x = r ** (1 / root): P(s + b - a) when the piece is in x, P(s^2 + 2bs +
    b^2 - a) when a piece in r is read in x = sqrt(r), with b = x(lo) as
    rounded and everything after it exact.  Every row stays within 4 ulps
    of the same expansion on the terms' sizes, times the term counts."""
    lo = np.concatenate(([0.0, 0.37, 1.5, 7.3], profile._knot_arr))
    rows = _expanded(profile, lo, root)
    assert rows.shape[0] >= root + 2 and not rows[-1].any()
    same = root == profile.root
    for j, (x, b) in enumerate(zip(lo.tolist(), (lo ** (1.0 / root)).tolist())):
        anchor, coeffs = exact_piece(profile, x)
        b, a = Fraction(b), Fraction(anchor)
        inner = [b - a, 1] if same else [b * b - a, 2 * b, 1]
        # the rounding of b - a or b * b - a scales with its terms, not with it
        inner_size = [b + abs(a), 1] if same else [b * b + abs(a), 2 * b, 1]
        exact = _exact_expansion(coeffs, inner)
        size = _exact_expansion([abs(c) for c in coeffs], inner_size)
        assert not rows[len(exact):, j].any()
        assert_within_ulps(rows[:len(exact), j], [float(e) for e in exact],
                           size=len(coeffs) * len(inner) * np.array([float(z) for z in size]))


def _extreme_rows(profile, tilt, over):
    # G'U - GU' and the piece itself on each interval between knots, as
    # profile_extremes and profile_zeros build them
    over = ConstantProfile(1.0) if over is None else over
    root = max(profile.root, over.root)
    knots = np.union1d(profile._knot_arr, over._knot_arr)
    lo = np.concatenate(([0.0], knots[knots > 0.0]))
    g = _expanded(profile, lo, root)
    g[:root + 2] -= _expanded(LinearProfile(tilt), lo, root)
    u = _expanded(over, lo, root)
    dg, du = (p[1:] * np.arange(1.0, len(p))[:, None] for p in (g, u))
    return [_times(dg, u) - _times(g, du), _expanded(profile, lo, profile.root)]


@pytest.mark.parametrize("profile,tilt,over",
                         EXTREME_CASES + [(_runaway(), 0.0, BarrierProfile(1.0))],
                         ids=["rampbump", "tilted-barrier", "tilted-sqrt", "tilted-sampled",
                              "sqrt-over-barrier", "dilated-bump-over-barrier",
                              "dip-over-barrier", "runaway-over-barrier"])
def test_batched_roots_are_those_of_np_roots(profile, tilt, over):
    """Each column's roots are np.roots of that column, highest power first,
    bit for bit: also for zeros at either end and an all-zero column."""
    extra = np.zeros((5, 3))
    extra[2:, 1] = [-1.0, 2.0, 0.0]  # 2 s^3 - s^2
    extra[0, 2] = 3.0
    for rows in _extreme_rows(profile, tilt, over) + [extra]:
        which, roots = _poly_roots(rows)
        for j in range(rows.shape[1]):
            want = np.roots(rows[::-1, j])
            got = roots[which == j]
            assert got.shape == want.shape
            got, want = (z[np.lexsort((z.imag, z.real))] for z in (got, want))
            assert np.array_equal(got.real, want.real) and np.array_equal(got.imag, want.imag)


def test_zero_crossing_of_the_neck():
    # brentq on the blend piece at xtol 1e-15
    zeros = profile_zeros(BarrierProfile(0.5).shifted(0.6))
    assert zeros.shape == (1,)
    assert zeros[0] == pytest.approx(1.4633902492654618, rel=1e-12, abs=0.0)


def test_zero_crossing_of_a_shifted_sqrt_is_exact():
    assert profile_zeros(SqrtProfile(1.0).shifted(0.5)).tolist() == [0.25]


@pytest.mark.parametrize("profile", [BarrierProfile(0.2), BarrierProfile(1.0).dilated(0.5),
                                     ConstantProfile(0.7), ConstantProfile(-0.7)])
def test_positive_and_constant_profiles_have_no_crossings(profile):
    assert profile_zeros(profile).tolist() == []


def test_dip_between_knots_gives_both_crossings():
    # 1 - 80 t + 800 t^2 on [0.1, 0.2], t = r - 0.1, is zero at t = (80 -+ sqrt(3200)) / 1600
    dip = PiecewisePolyProfile((0.1, 0.2), [(0.0, (1.0,)), (0.1, (1.0, -80.0, 800.0)),
                                            (0.2, (1.0,))])
    expected = [0.1 + (80.0 - math.sqrt(3200.0)) / 1600.0,
                0.1 + (80.0 + math.sqrt(3200.0)) / 1600.0]
    zeros = profile_zeros(dip)
    assert zeros == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert np.all(profile_values(dip, [0.1, 0.15, 0.2]) * [1, -1, 1] > 0.0)
