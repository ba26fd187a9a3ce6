import math

import numpy as np
import pytest

from fracsurf import (BumpProfile, ConstantProfile, LinearProfile, PiecewisePolyProfile,
                      RampBumpProfile, SqrtProfile, Subgraph, flatness_certificate,
                      holder_rescaling_check)

SQRT_ENV = SqrtProfile(1.0)


def blowdown(body, R):
    """The subgraph translated through the origin, then shrunk by R."""
    p = body.profile
    return Subgraph(p.shifted(p.value(0.0)).dilated(R))


def test_blowdown_translates_then_shrinks():
    body = Subgraph(SqrtProfile(1.0).shifted(-1.0))  # sqrt(r) + 1
    bd = blowdown(body, 10.0)
    # after dropping the apex height 1 the boundary is sqrt; at the reduced
    # scale the point (0.4, h) is inside iff 10 h < sqrt(10 * 0.4) = 2
    pts = np.array([[0.4, 0.19], [0.4, 0.21]])
    np.testing.assert_array_equal(bd.contains(pts), [True, False])


def test_blowdown_identity_keeps_the_translated_graph():
    body = Subgraph(SqrtProfile(1.0).shifted(-1.0))
    ident = blowdown(body, 1.0)
    pts = np.array([[4.0, 1.9], [4.0, 2.1]])
    np.testing.assert_array_equal(ident.contains(pts), [True, False])


def test_blowdown_fixes_half_spaces():
    hs = Subgraph(ConstantProfile(5.0))
    pts = np.array([[3.0, -0.01], [3.0, 0.01], [-7.0, -2.0]])
    for R in (1.0, 7.0, 120.0):
        np.testing.assert_array_equal(blowdown(hs, R).contains(pts),
                                      [True, False, True])


def test_rescaled_profiles_compose():
    base = SqrtProfile(1.0).shifted(-1.0)
    twice = base.dilated(4.0).dilated(2.5)
    once = base.dilated(10.0)
    rs = np.linspace(0.0, 5.0, 21)
    for r in rs:
        assert twice.value(float(r)) == pytest.approx(once.value(float(r)),
                                                      rel=1e-12, abs=1e-15)


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
    prof = ConstantProfile(0.0).shifted(-1.0)  # u = 1
    rep = flatness_certificate(prof, SQRT_ENV, 0.1, 5.0)
    assert not rep.passed
    assert rep.sup == pytest.approx(0.2)
    rep2 = flatness_certificate(prof, SQRT_ENV, 0.1, 20.0)
    assert rep2.passed
    assert rep2.sup == pytest.approx(0.05)


def test_flatness_linear_growth_never_passes():
    prof = LinearProfile(1.0).shifted(-1.0)  # u = 1 + r
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
        with pytest.raises(ValueError,
                           match=rf"flatness tolerance must lie in \(0, 1/4\), got {bad}"):
            flatness_certificate(SqrtProfile(1.0), SQRT_ENV, bad, 10.0)
    with pytest.raises(ValueError):
        flatness_certificate(SqrtProfile(1.0), SQRT_ENV, 0.1, 0.0)


@pytest.mark.parametrize("R", [math.inf, math.nan, 0.0, -5.0])
def test_flatness_radius_that_is_not_finite_and_positive_is_rejected_by_name(R):
    """An infinite R would pass vacuously: u(R r)/R reads 0 or nan everywhere."""
    with pytest.raises(ValueError, match=f"rescaling radius R must be positive and finite, "
                                         f"not {R!r}"):
        flatness_certificate(SqrtProfile(1.0), SQRT_ENV, 0.1, R)


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
        with pytest.raises(ValueError, match=rf"Holder exponent must lie in \(0, 1\), got {bad}"):
            holder_rescaling_check(SqrtProfile(1.0), 10.0, beta=bad)


@pytest.mark.parametrize("R", [-5.0, 0.0, math.inf, math.nan])
def test_holder_radius_that_is_not_finite_and_positive_is_rejected_by_name(R):
    with pytest.raises(ValueError, match=f"Holder rescaling radius R must be positive and "
                                         f"finite, not {R!r}"):
        holder_rescaling_check(SqrtProfile(1.0), R)


def _loop_seminorm(points, values, beta):
    # reference: max over i < j at least one spacing apart, row by row
    spacing = float(points[1] - points[0]) if len(points) > 1 else 0.0
    best = 0.0
    for i in range(len(points)):
        dr = np.abs(points[i + 1:] - points[i])
        keep = dr >= spacing * (1.0 - 1e-12)
        if keep.any():
            best = max(best, float(np.max(np.abs(values[i + 1:][keep] - values[i])
                                          / dr[keep] ** beta)))
    return best


def test_seminorm_matches_the_pairwise_loop():
    from fracsurf.blowdown import _seminorm
    rng = np.random.default_rng(20)
    for trial in range(200):
        m = int(rng.integers(0, 70))
        R = float(rng.uniform(0.1, 50.0))
        points = ((0.25 * R) * (np.arange(m) + 1.0) / 60 if trial % 2
                  else np.sort(rng.uniform(0.0, R, m)))
        values = rng.standard_normal(m) * 10.0 ** rng.uniform(-5.0, 5.0)
        beta = 0.5 if trial % 3 == 0 else float(rng.uniform(0.01, 0.99))
        assert _seminorm(points, values, beta) == _loop_seminorm(points, values, beta)
