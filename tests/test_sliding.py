import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from fracsurf import (ConstantProfile, InitialInclusionError, InvalidEnvelopeError,
                      LinearProfile, NotSublinearError, PiecewisePolyProfile,
                      RampBumpProfile, SampledProfile, SqrtProfile,
                      rescale_for_slide, slide)

CONSTANT_ENV = ConstantProfile(1.0)
SQRT_ENV = SqrtProfile(1.0)


def test_plan_for_constant_envelope():
    plan = rescale_for_slide(CONSTANT_ENV, 0.05)
    assert plan.modulus_constant == pytest.approx(1.0)
    assert plan.lam == pytest.approx(0.00625)
    assert plan.eps0 == 0.05


def test_plan_for_sqrt_envelope_hits_the_tangency_exactly():
    plan = rescale_for_slide(SQRT_ENV, 0.48)
    # sup of sqrt(t) - (0.48/8) t is 25/6 at t = (1/0.12)^2
    assert plan.modulus_constant == pytest.approx(25.0 / 6.0, rel=1e-9)
    assert plan.modulus_location == pytest.approx((1.0 / 0.12) ** 2, rel=1e-6)
    assert plan.lam == pytest.approx(0.48 / (8.0 * 25.0 / 6.0), rel=1e-9)


def test_plan_rejects_linear_growth():
    with pytest.raises(NotSublinearError):
        rescale_for_slide(PiecewisePolyProfile((), [(0.0, (1.0, 1.0))]), 0.05)


def test_plan_rejects_an_envelope_that_dips_between_knots():
    # 1 - 80 t + 800 t^2 on [0.1, 0.2] reaches -1 at r = 0.15, between the knots
    env = PiecewisePolyProfile((0.1, 0.2), [(0.0, (1.0,)), (0.1, (1.0, -80.0, 800.0)),
                                            (0.2, (1.0,))])
    assert env.value(0.15) == pytest.approx(-1.0)
    with pytest.raises(InvalidEnvelopeError, match="0.15"):
        rescale_for_slide(env, 0.05)


def test_plan_rejects_nonpositive_eps0():
    with pytest.raises(ValueError):
        rescale_for_slide(CONSTANT_ENV, 0.0)


def test_zero_candidate_slides_to_the_floor():
    out = slide(ConstantProfile(0.0), 0.00625, 0.05, 1, 0.5)
    assert out.verdict == "RIGIDITY_MECHANISM_CONFIRMED"
    assert out.eps_star == out.floor
    assert out.touch_radius is None
    assert out.touch_point is None
    assert out.curvature_at_touch is None


def test_flat_candidate_touches_at_the_cusp():
    out = slide(ConstantProfile(0.01), 1.0, 0.05, 1, 0.5)
    assert out.verdict == "TOUCH_FOUND"
    assert out.eps_star == pytest.approx(0.01, rel=1e-6)
    assert out.touch_radius == 0.0
    assert out.touch_point[0] == 0.0
    assert out.touch_point[1] == pytest.approx(0.01, rel=1e-6)
    assert out.curvature_at_touch > 0.0


def test_pipeline_touch_through_the_plan():
    plan = rescale_for_slide(CONSTANT_ENV, 0.05)
    out = slide(ConstantProfile(0.1), plan.lam, plan.eps0, 1, 0.5)
    assert out.verdict == "TOUCH_FOUND"
    assert out.eps_star == pytest.approx(0.000625, rel=1e-6)
    assert out.touch_point[1] == pytest.approx(0.1 * plan.lam, rel=1e-6)
    assert out.curvature_at_touch == pytest.approx(271.07156344927694, rel=1e-6)
    assert out.curvature_error < 0.1


def test_sqrt_candidate_touches_in_the_blend():
    plan = rescale_for_slide(SQRT_ENV, 0.48)
    out = slide(SqrtProfile(1.0), plan.lam, plan.eps0, 1, 0.5)
    assert out.verdict == "TOUCH_FOUND"
    # sup of 0.12 sqrt(r) / u(r) over the blend, from a bounded
    # minimize_scalar on [1, 2] at xatol 1e-12 and a 2e6-point evaluation
    assert out.eps_star == pytest.approx(0.1308112969215282, rel=1e-12)
    assert out.touch_radius == pytest.approx(1.261445, abs=1e-6)
    assert out.curvature_at_touch > 0.0


def test_escaping_candidate_is_reported_unbounded():
    r = np.linspace(0.0, 120.0, 2401)
    u = np.maximum(0.0, 0.02 * r - 0.1 * np.sqrt(r))
    out = slide(SampledProfile(r, u), 1.0, 0.05, 1, 0.5)
    assert out.verdict == "UNBOUNDED_TOUCH_SEQUENCE"
    # past its last node the candidate continues with the terminal slope,
    # which its ratio to the cone r approaches from below
    assert out.eps_star == pytest.approx(PchipInterpolator(r, u)(120.0, 1), rel=1e-12)
    assert out.touch_radius is None
    assert out.curvature_at_touch is None


def test_bump_between_old_grid_nodes_is_not_contained():
    # peaks at 1.0 at r = 0.01, where the half-height barrier is 0.25
    with pytest.raises(InitialInclusionError):
        slide(RampBumpProfile(1.0, 0.02), 1.0, 0.5, 1, 0.5)


def test_bump_touches_exactly_at_its_peak():
    # the unit barrier is 1 on [0, 1], so the first contact is the bump's
    # peak: height 0.01 at half its width
    out = slide(RampBumpProfile(0.01, 0.33), 1.0, 0.05, 1, 0.5)
    assert out.verdict == "TOUCH_FOUND"
    assert out.eps_star == pytest.approx(0.01, rel=1e-12)
    assert out.touch_radius == pytest.approx(0.165, rel=1e-12)
    assert out.touch_point[1] == pytest.approx(0.01, rel=1e-12)


def test_eps_star_never_exceeds_half_the_start():
    outcomes = [
        slide(ConstantProfile(0.0), 0.00625, 0.05, 1, 0.5),
        slide(ConstantProfile(0.01), 1.0, 0.05, 1, 0.5),
        slide(ConstantProfile(0.1), 0.00625, 0.05, 1, 0.5),
    ]
    for out in outcomes:
        assert out.eps_star <= 0.05 / 2.0


def test_slide_commutes_with_prescaling_the_candidate():
    direct = slide(ConstantProfile(0.1), 0.00625, 0.05, 1, 0.5)
    prescaled = slide(ConstantProfile(0.1 * 0.00625), 1.0, 0.05, 1, 0.5)
    assert direct.eps_star == prescaled.eps_star
    assert direct.verdict == prescaled.verdict


def test_initial_inclusion_is_enforced():
    with pytest.raises(InitialInclusionError):
        slide(LinearProfile(0.0225), 1.0, 0.025, 1, 0.5)
    with pytest.raises(InitialInclusionError):
        slide(ConstantProfile(1.0), 1.0, 0.05, 1, 0.5)


def test_slide_parameter_validation():
    with pytest.raises(ValueError):
        slide(ConstantProfile(0.0), 0.0, 0.05, 1, 0.5)
    with pytest.raises(ValueError):
        slide(ConstantProfile(0.0), -1.0, 0.05, 1, 0.5)
    with pytest.raises(ValueError):
        slide(ConstantProfile(0.0), 1.0, 0.0, 1, 0.5)


def test_floor_is_respected():
    out = slide(ConstantProfile(0.0), 1.0, 0.05, 1, 0.5, floor=0.002)
    assert out.verdict == "RIGIDITY_MECHANISM_CONFIRMED"
    assert out.eps_star == 0.002


def test_outcome_carries_the_inputs():
    out = slide(ConstantProfile(0.0), 0.00625, 0.05, 1, 0.5)
    assert out.lam == 0.00625
    assert out.floor == 0.0001
    assert "flat limit" in out.interpretation
