import math

import numpy as np
import pytest

from fracsurf import (BarrierProfile, BumpProfile, ConstantProfile,
                      DilatedGraphProfile, InvalidEnvelopeError, LinearProfile,
                      PiecewisePolyProfile, RampBumpProfile, SampledProfile,
                      SqrtProfile, SublinearEnvelope, VerticalShiftProfile,
                      profile_from_config, profile_from_csv, profile_to_csv,
                      profile_values, sublinearity_modulus)
from fracsurf.profiles import profile_bends

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


def test_dilated_profile_is_scaling():
    base = BarrierProfile(0.2)
    lam = 2.0
    prof = DilatedGraphProfile(base, 1.0 / lam)
    for r in (0.5, 1.3, 4.0):
        assert prof.value(r) == pytest.approx(lam * base.value(r / lam), rel=1e-14)
        assert prof.first_derivative(r) == pytest.approx(
            base.first_derivative(r / lam), rel=1e-14)


def test_vertical_shift_passthrough():
    prof = VerticalShiftProfile(SqrtProfile(1.0), 0.4)
    assert prof.value(4.0) == pytest.approx(2.0 - 0.4)
    assert prof.first_derivative(4.0) == pytest.approx(0.25)
    assert prof.bend(4.0, 0.1) == pytest.approx(SqrtProfile(1.0).bend(4.0, 0.1))


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


def test_sampled_profile_reproduces_lines_exactly():
    r = np.linspace(0.0, 3.0, 31)
    prof = SampledProfile(r, 0.25 * r + 1.0)
    for x in (0.17, 1.5, 2.99):
        assert prof.value(x) == pytest.approx(0.25 * x + 1.0, abs=1e-12)
        assert prof.first_derivative(x) == pytest.approx(0.25, abs=1e-10)


def test_profile_values_matches_scalar_loop():
    rs = np.linspace(0.0, 9.0, 97)
    for prof in ALL_SMOOTH:
        vec = profile_values(prof, rs)
        loop = np.array([prof.value(float(x)) for x in rs])
        np.testing.assert_allclose(vec, loop, rtol=1e-13, atol=1e-15)


ARRAY_FAMILIES = ALL_SMOOTH + [
    SampledProfile(np.linspace(0.0, 4.0, 17), 1.0 + np.linspace(0.0, 4.0, 17) ** 2 / 8.0),
    VerticalShiftProfile(BarrierProfile(0.3), 0.1),
    DilatedGraphProfile(BarrierProfile(0.2), 0.5),
    DilatedGraphProfile(RampBumpProfile(0.4, 2.0), 3.0),
]


def assert_within_ulps(got, ref, ulps=4):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    same = (got == ref) | (np.isnan(got) & np.isnan(ref))
    with np.errstate(invalid="ignore"):  # inf - inf where both are infinite
        close = np.abs(got - ref) <= ulps * np.spacing(np.abs(ref))
    assert np.all(same | close), (got[~(same | close)], ref[~(same | close)])


def seeded_steps(profile, rng, count=400):
    """Radii and steps: smooth, tiny, knot-crossing and sign-crossing."""
    r = rng.uniform(0.0, 6.0, count)
    h = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.uniform(-12.0, 0.5, count)
    knots = getattr(profile, "knots", None) or (1.0, 2.0)
    k = rng.choice(knots, count // 4)
    # steps from just below a knot to just above it, and back
    r = np.concatenate([r, k - 1e-3 * rng.uniform(0.0, 1.0, k.size),
                        k + 1e-9 * rng.uniform(0.0, 1.0, k.size)])
    h = np.concatenate([h, 2e-3 * rng.uniform(0.5, 1.0, k.size),
                        -1e-3 * rng.uniform(0.5, 1.0, k.size)])
    # steps through zero, and from negative radii
    r = np.concatenate([r, [0.3, 0.05, -0.4, -1.5, 0.0]])
    h = np.concatenate([h, [-0.5, -0.2, 0.1, -0.3, 0.7]])
    return r, h


@pytest.mark.parametrize("profile", ARRAY_FAMILIES, ids=lambda p: p.kind)
def test_array_values_match_scalar_reference(profile):
    rng = np.random.default_rng(21)
    rs = np.concatenate([rng.uniform(-8.0, 8.0, 500), [0.0, 1.0, 2.0, 3.0, 4.0, 1e6]])
    if isinstance(profile, PiecewisePolyProfile):
        rs = np.concatenate([rs, np.nextafter(profile.knots, 0.0), profile.knots])
    assert_within_ulps(profile_values(profile, rs),
                       [profile.value(float(x)) for x in rs])
    grid = rs[:100].reshape(10, 10)
    assert profile_values(profile, grid).shape == (10, 10)


@pytest.mark.parametrize("profile", ARRAY_FAMILIES, ids=lambda p: p.kind)
def test_array_bends_match_scalar_reference(profile):
    rng = np.random.default_rng(22)
    r, h = seeded_steps(profile, rng)
    assert_within_ulps(profile_bends(profile, r, h),
                       [profile.bend(float(a), float(b)) for a, b in zip(r, h)])
    # one base radius against many steps, the shape the curvature core uses
    steps = h[:48]
    assert_within_ulps(profile_bends(profile, 2.5, steps),
                       [profile.bend(2.5, float(b)) for b in steps])


def test_within_piece_bend_is_exact_to_rounding():
    """The scalar reference itself against rational arithmetic, on the blend."""
    from fractions import Fraction

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


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("radius,height\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError):
        profile_from_csv(path)


def test_profile_from_config():
    assert profile_from_config({"kind": "constant", "level": "0.4"}).value(3.0) == 0.4
    assert profile_from_config({"kind": "linear", "slope": "0.2"}).value(5.0) == 1.0
    assert profile_from_config({"kind": "sqrt", "scale": "2.0"}).value(4.0) == 4.0
    barrier = profile_from_config({"kind": "barrier", "epsilon": "0.1"})
    assert barrier.value(0.5) == 0.1
    with pytest.raises(ValueError):
        profile_from_config({"kind": "dodecahedron"})


def test_modulus_constant_envelope():
    env = SublinearEnvelope(lambda r: 1.0, label="one")
    rep = sublinearity_modulus(env, 0.00625)
    assert rep.constant == pytest.approx(1.0)
    assert rep.sublinear


def test_modulus_sqrt_envelope():
    env = SublinearEnvelope(lambda r: math.sqrt(r) if r > 0 else 0.0, label="sqrt")
    rep = sublinearity_modulus(env, 0.5)
    # max of sqrt(r) - r/2 sits at r = 1 with value 1/2
    assert rep.constant == pytest.approx(0.5, abs=1e-6)
    assert rep.location == pytest.approx(1.0, abs=0.25)
    assert rep.sublinear


def test_modulus_edge_peak_is_flagged_conservatively():
    env = SublinearEnvelope(lambda r: math.sqrt(r) if r > 0 else 0.0, label="sqrt")
    rep = sublinearity_modulus(env, 0.05)
    # peak of sqrt(r) - r/20 sits exactly at the window edge r = 100; the
    # grid cannot certify anything beyond the window, so the check must
    # refuse rather than extrapolate
    assert rep.constant == pytest.approx(5.0, abs=1e-6)
    assert rep.location == pytest.approx(100.0)
    assert not rep.sublinear


def test_modulus_flags_linear_growth():
    env = SublinearEnvelope(lambda r: 1.0 + r, label="affine")
    rep = sublinearity_modulus(env, 0.5)
    assert rep.constant == pytest.approx(51.0)
    assert rep.location == pytest.approx(100.0)
    assert not rep.sublinear


def test_modulus_nonincreasing_in_delta():
    env = SublinearEnvelope(lambda r: math.sqrt(r) if r > 0 else 0.0, label="sqrt")
    deltas = [0.05, 0.1, 0.25, 0.5, 1.0]
    consts = [sublinearity_modulus(env, d).constant for d in deltas]
    assert all(a >= b - 1e-12 for a, b in zip(consts, consts[1:]))


def test_modulus_rejects_nonpositive_envelope():
    env = SublinearEnvelope(lambda r: -1.0, label="negative")
    with pytest.raises(InvalidEnvelopeError):
        sublinearity_modulus(env, 0.5)
