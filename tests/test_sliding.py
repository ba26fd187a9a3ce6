import numpy as np
import pytest

from fracsurf import (ConstantProfile, InitialInclusionError, LinearProfile,
                      NotSublinearError, PiecewisePolyProfile, SampledProfile,
                      SqrtProfile, rescale_for_slide, slide)

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
    assert out.eps_star == pytest.approx(0.13077964455680918, rel=1e-6)
    assert 1.0 < out.touch_radius < 2.0
    assert out.curvature_at_touch > 0.0


def test_escaping_candidate_is_reported_unbounded():
    r = np.linspace(0.0, 120.0, 2401)
    u = np.maximum(0.0, 0.02 * r - 0.1 * np.sqrt(r))
    out = slide(SampledProfile(r, u), 1.0, 0.05, 1, 0.5, r_max=100.0)
    assert out.verdict == "UNBOUNDED_TOUCH_SEQUENCE"
    assert out.touch_radius == pytest.approx(100.0)
    assert out.eps_star == pytest.approx(0.010215624999999999, rel=1e-9)
    assert out.curvature_at_touch is None


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
