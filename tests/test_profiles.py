import bisect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from fracsurf import (BarrierProfile, BumpProfile, ConstantProfile,
                      DilatedGraphProfile, InvalidEnvelopeError, LinearProfile,
                      NotSublinearError, PiecewisePolyProfile, RampBumpProfile, SampledProfile,
                      SqrtProfile, VerticalShiftProfile,
                      profile_from_config, profile_from_csv, profile_to_csv,
                      profile_values, sublinearity_modulus)
from fracsurf.profiles import profile_bends, profile_extremes, profile_slopes

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


def test_barrier_is_c2_at_the_cutoff_knots():
    eps = 0.2
    prof = BarrierProfile(eps)
    h = 1e-6
    for knot in (1.0, 2.0):
        left_d = prof.first_derivative(knot - h)
        right_d = prof.first_derivative(knot + h)
        assert abs(left_d - right_d) < 1e-4 * max(1.0, eps)
        left_s = prof.second_derivative(knot - h)
        right_s = prof.second_derivative(knot + h)
        assert abs(left_s - right_s) < 1e-2


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
    rescales every coefficient exactly; f = 3 rounds them."""
    for base, f in itertools.product(ARRAY_FAMILIES.values(), (0.5, 3.0)):
        prof = DilatedGraphProfile(base, f)
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


def test_vertical_shift_passthrough():
    """v - 0.4, of the input's own family: values drop by the shift, and
    slopes, chords and bends stay bit for bit."""
    for base in ARRAY_FAMILIES.values():
        prof = VerticalShiftProfile(base, 0.4)
        assert isinstance(base, type(prof))
        for r, h in STEPS:
            assert prof.value(r) == pytest.approx(base.value(r) - 0.4, rel=1e-15, abs=1e-15)
            assert prof.first_derivative(r) == base.first_derivative(r)
            assert prof.chord(r, h) == base.chord(r, h)
            assert prof.bend(r, h) == base.bend(r, h)
    assert VerticalShiftProfile(SqrtProfile(1.0), 0.4).value(4.0) == 2.0 - 0.4


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


def test_sampled_pieces_match_pchip():
    """Values, slopes and curvatures against scipy's PchipInterpolator
    called directly, within 4 ulps of the sizes of its power-sum terms."""
    r = np.linspace(0.0, 4.0, 17)
    prof = SampledProfile(r, 1.0 + np.sqrt(1.0 + r ** 2))
    f = PchipInterpolator(prof.nodes, prof.node_values)
    x = np.concatenate([np.random.default_rng(24).uniform(0.0, 4.0, 400), prof.nodes[:-1]])
    i = np.searchsorted(prof.nodes, x, side="right") - 1
    t = x - prof.nodes[i]
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
    """Array chords and bends against references formed one step at a time
    (within-piece steps to a few ulps; steps across a knot to their error
    bound, which the cancellation of a bend there makes loose)."""
    rng = np.random.default_rng(22)
    r, h = seeded_steps(profile, rng)
    right = (r >= 0.0) & (r + h >= 0.0) & (h != 0.0)
    ra, ha = r[right], h[right]
    chords = profile._chords(ra, ha)
    reference = reference_for(profile)
    ref, size = as_floats(reference.step(float(a), float(b))[0] for a, b in zip(ra, ha))
    assert_within_ulps(chords, ref, size=size)
    ref, size = reference_bends(profile, r, h)
    assert_within_ulps(profile_bends(profile, r, h), ref, size=size)
    # one base radius against many steps, the shape the curvature core uses
    steps = h[:48]
    ref, size = reference_bends(profile, np.full(steps.shape, 2.5), steps)
    assert_within_ulps(profile_bends(profile, 2.5, steps), ref, size=size)


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


def test_csv_round_trip(tmp_path):
    prof = BarrierProfile(0.3)
    path = tmp_path / "prof.csv"
    radii = np.linspace(0.0, 6.0, 121)
    text = profile_to_csv(prof, radii)
    path.write_text(text)
    assert text.splitlines()[0] == "r,value"
    back = profile_from_csv(path)
    for r in (0.4, 1.7, 3.3, 5.9):
        assert back.value(r) == pytest.approx(prof.value(r), rel=1e-6)
    # sqrt heights come from numpy; the CSV must hold plain float reprs
    path.write_text(profile_to_csv(SqrtProfile(1.0), radii))
    assert profile_from_csv(path).node_values.tolist() == np.sqrt(radii).tolist()


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
