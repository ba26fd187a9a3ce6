import math

import numpy as np
import pytest

from fracsurf import (Ball, BumpProfile, ConstantProfile, InvalidEpsilonError,
                      InvalidExponentError, LinearProfile,
                      PiecewisePolyProfile, RampBumpProfile, SqrtProfile, Subgraph,
                      VerticalShiftProfile,
                      blowdown_rescale, flatness_certificate,
                      holder_rescaling_check, rescaled_profile)

SQRT_ENV = SqrtProfile(1.0)


def test_blowdown_translates_then_shrinks():
    body = Subgraph(VerticalShiftProfile(SqrtProfile(1.0), -1.0))  # sqrt(r) + 1
    bd = blowdown_rescale(body, 10.0)
    # after dropping the apex height 1 the boundary is sqrt; at the reduced
    # scale the point (0.4, h) is inside iff 10 h < sqrt(10 * 0.4) = 2
    pts = np.array([[0.4, 0.19], [0.4, 0.21]])
    np.testing.assert_array_equal(bd.contains(pts), [True, False])


def test_blowdown_identity_keeps_the_translated_graph():
    body = Subgraph(VerticalShiftProfile(SqrtProfile(1.0), -1.0))
    ident = blowdown_rescale(body, 1.0)
    pts = np.array([[4.0, 1.9], [4.0, 2.1]])
    np.testing.assert_array_equal(ident.contains(pts), [True, False])


def test_blowdown_fixes_half_spaces():
    hs = Subgraph(ConstantProfile(5.0))
    pts = np.array([[3.0, -0.01], [3.0, 0.01], [-7.0, -2.0]])
    for R in (1.0, 7.0, 120.0):
        np.testing.assert_array_equal(blowdown_rescale(hs, R).contains(pts),
                                      [True, False, True])


def test_rescaled_profiles_compose():
    base = VerticalShiftProfile(SqrtProfile(1.0), -1.0)
    twice = rescaled_profile(rescaled_profile(base, 4.0), 2.5)
    once = rescaled_profile(base, 10.0)
    rs = np.linspace(0.0, 5.0, 21)
    for r in rs:
        assert twice.value(float(r)) == pytest.approx(once.value(float(r)),
                                                      rel=1e-12, abs=1e-15)


def test_blowdown_requires_a_subgraph():
    with pytest.raises(TypeError):
        blowdown_rescale(Ball(1.0), 2.0)


def test_flatness_sqrt_fails_below_the_predicted_radius():
    rep = flatness_certificate(SqrtProfile(1.0), SQRT_ENV, 0.1, 50.0)
    assert not rep.passed
    assert rep.sup == pytest.approx(math.sqrt(50.0) / 50.0)
    assert rep.violator == pytest.approx(1.0)
    assert rep.R_eps_predicted == pytest.approx(100.0, rel=1e-9)


def test_flatness_sqrt_passes_at_the_predicted_radius():
    rep = flatness_certificate(SqrtProfile(1.0), SQRT_ENV, 0.1, 100.0)
    assert rep.passed
    # the sup lands exactly on the tolerance; the comparison is inclusive
    assert rep.sup == pytest.approx(0.1)
    assert rep.violator is None
    assert rep.inf == 0.0


def test_flatness_improves_with_the_viewing_distance():
    sups = [flatness_certificate(SqrtProfile(1.0), SQRT_ENV, 0.1, R).sup
            for R in (25.0, 50.0, 100.0, 200.0, 400.0)]
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_flatness_zero_profile_always_passes():
    rep = flatness_certificate(ConstantProfile(0.0), SQRT_ENV, 0.1, 3.0)
    assert rep.passed
    assert rep.sup == 0.0
    assert rep.inf == 0.0


def test_flatness_apex_height_counts_against_the_certificate():
    """The raw rescaling keeps the apex height u(0)/R; it must show up in
    the sup rather than being translated away."""
    prof = VerticalShiftProfile(ConstantProfile(0.0), -1.0)  # u = 1
    rep = flatness_certificate(prof, SQRT_ENV, 0.1, 5.0)
    assert not rep.passed
    assert rep.sup == pytest.approx(0.2)
    rep2 = flatness_certificate(prof, SQRT_ENV, 0.1, 20.0)
    assert rep2.passed
    assert rep2.sup == pytest.approx(0.05)


def test_flatness_linear_growth_never_passes():
    prof = VerticalShiftProfile(LinearProfile(1.0), -1.0)  # u = 1 + r
    for R in (10.0, 1000.0):
        rep = flatness_certificate(prof, SQRT_ENV, 0.1, R)
        assert not rep.passed
        assert rep.sup == pytest.approx((1.0 + R) / R)
        assert rep.violator == pytest.approx(1.0)


def test_flatness_sees_a_bump_between_sample_radii():
    # height 50 at r = 0.02, so 0.5 at the rescaled radius 2e-4, then 0
    rep = flatness_certificate(RampBumpProfile(50.0, 0.04), SQRT_ENV, 0.1, 100.0)
    assert not rep.passed
    assert rep.sup == pytest.approx(0.5, rel=1e-12)
    assert rep.violator == pytest.approx(2e-4, rel=1e-12)
    assert rep.inf == pytest.approx(0.0, abs=1e-15)


def test_flatness_epsilon_window():
    for bad in (0.0, 0.25, 0.4, -0.1):
        with pytest.raises(InvalidEpsilonError):
            flatness_certificate(SqrtProfile(1.0), SQRT_ENV, bad, 10.0)
    with pytest.raises(ValueError):
        flatness_certificate(SqrtProfile(1.0), SQRT_ENV, 0.1, 0.0)


HOLDER_POLY = PiecewisePolyProfile(
    (4.0,),
    [(0.0, (0.0, 0.0, 1.0, 0.0, -3.0 / 16.0, 0.0, 3.0 / 256.0, 0.0,
            -1.0 / 4096.0)),
     (4.0, (0.0,))])


@pytest.mark.parametrize("profile,R", [
    (SqrtProfile(1.0), 10.0),
    (HOLDER_POLY, 10.0),
    (BumpProfile(0.5, 3.0), 8.0),
], ids=["sqrt", "windowed-square", "bump"])
def test_holder_identity_within_interpolation_error(profile, R):
    rep = holder_rescaling_check(profile, R)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-2)
    assert rep.R == R
    assert rep.beta == 0.5


def test_holder_seminorm_decays_with_scale_for_sqrt():
    reps = [holder_rescaling_check(SqrtProfile(1.0), R) for R in (5.0, 10.0, 20.0)]
    lhs = [r.lhs for r in reps]
    assert lhs[0] > lhs[1] > lhs[2]
    assert lhs[0] == pytest.approx(7.172603777344429, rel=1e-9)
    # halving behavior: the sqrt slope seminorm scales like R^(-1)
    assert lhs[0] == pytest.approx(2.0 * lhs[1], rel=1e-9)


def test_holder_flat_slopes_give_zero_on_both_sides():
    rep = holder_rescaling_check(LinearProfile(0.5), 10.0)
    assert rep.lhs == 0.0
    assert abs(rep.rhs) <= 1e-9


def test_holder_exponent_window():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InvalidExponentError):
            holder_rescaling_check(SqrtProfile(1.0), 10.0, beta=bad)
