import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from fracsurf import profiles
from fracsurf import (BarrierProfile, ConstantProfile, CurvatureResult, DilatedGraphProfile,
                      LinearProfile, NonSmoothPointError, PiecewisePolyProfile,
                      QuadratureConfig, RampBumpProfile, SampledProfile, SqrtProfile,
                      TwoLeaf, angular_rule, direct_curvature, graph_curvature,
                      subgraph_curvature, two_leaf_curvature)
from fracsurf.cli import _quadrature_from
from fracsurf.config import Section
from fracsurf.curvature import ESCALATION_CAP_RADIUS, TAIL_SHARE, TARGET_TOLERANCE


def sphere_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def slab_exact(n, alpha, c):
    """Closed form for the symmetric slab of half-width c.

    Integrating the kernel over the complement of { |x_last| < c } at a
    boundary-symmetric evaluation point reduces to a one-dimensional beta
    integral; the constant below is that integral evaluated exactly.
    """
    return (sphere_area(n) * (2.0 * c) ** (-alpha)
            * special.beta((1.0 + alpha) / 2.0, n / 2.0) / alpha)


SLAB_CASES = [(1, 0.2, 0.5), (1, 0.5, 0.5), (1, 0.8, 0.5),
              (2, 0.5, 1.0), (3, 0.35, 0.3)]


@pytest.mark.parametrize("n,alpha,c", SLAB_CASES)
def test_slab_matches_closed_form(n, alpha, c):
    res = two_leaf_curvature(ConstantProfile(c), 2.0, n, alpha)
    exact = slab_exact(n, alpha, c)
    dev = abs(res.value - exact)
    assert dev <= res.total_error * (1.0 + 1e-6)
    assert res.value == pytest.approx(exact, rel=5e-3)


# the slab's value out to its outer radius R = 1e12, in closed form:
# 2 |S^(n-1)| (2c)^-a int_{2c/R}^inf t^(a-1) gap(t) dt by mpmath at 30 digits,
# with the program's angular mass.  (n, reference)
@pytest.mark.parametrize("n,ref", [(2, 57.756010154925725), (3, 87.38455219254044)])
def test_slab_radial_error_covers_its_truncated_closed_form(n, ref):
    """gap's rounding at small t, eps / (4t) relative, put the value 2.9e-9
    off at n = 2 and 5.8e-9 at n = 3 against a reported 2.8e-11 and 7e-11."""
    res = two_leaf_curvature(ConstantProfile(0.3), 2.0, n, 0.2)
    assert res.outer_radius == 1e12
    assert abs(res.value - ref) <= res.error_core + res.error_midfield


def test_slab_value_is_independent_of_evaluation_radius():
    a = two_leaf_curvature(ConstantProfile(0.5), 0.5, 1, 0.5)
    b = two_leaf_curvature(ConstantProfile(0.5), 7.0, 1, 0.5)
    assert a.value == pytest.approx(b.value, rel=1e-9)


@pytest.mark.parametrize("n,tol", [(1, 1e-3), (2, 1e-2)])
def test_sublinear_graph_flattens_into_a_slab_and_outgrows_every_cone(n, tol):
    """The paper's dichotomy along the sublinear graph y = sqrt(r): far out
    the two-leaf body looks like the slab of half-width sqrt(r), so H over
    that slab's closed form rises toward 1, while |x|^alpha H, which a cone
    keeps constant, grows; each step by more than the combined errors."""
    alpha = 0.5
    ratios, scaled = [], []
    for r in (10.0, 100.0, 1000.0):
        res = two_leaf_curvature(SqrtProfile(1.0), r, n, alpha)
        slab = slab_exact(n, alpha, math.sqrt(r))
        norm = math.hypot(r, math.sqrt(r)) ** alpha
        ratios.append((res.value / slab, res.total_error / slab))
        scaled.append((norm * res.value, norm * res.total_error))
    for seq in (ratios, scaled):
        for (a, err_a), (b, err_b) in zip(seq, seq[1:]):
            assert b - a > err_a + err_b
    assert abs(1.0 - ratios[-1][0]) <= tol


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, 2])
def test_square_root_growth_sets_the_exponent_of_its_curvature(n, alpha):
    """The paper's dichotomy as one exponent: far out the graph y = sqrt(r)
    is the slab of half-width sqrt(r), whose H is a constant times
    r^(-alpha/2), so r^alpha H rises by alpha/2 per decade, where a cone
    would keep it constant.  Each rise is larger than the two points'
    scaled errors; only at alpha = 0.2 may the tail bound miss its target."""
    scaled = []
    for r in (1e4, 1e5, 1e6):
        res = two_leaf_curvature(SqrtProfile(1.0), r, n, alpha)
        assert set(res.warnings) <= ({"tail-above-target"} if alpha < 0.5 else set())
        scaled.append((r ** alpha * res.value, r ** alpha * res.total_error))
    for (a, err_a), (b, err_b) in zip(scaled, scaled[1:]):
        assert abs(math.log10(b / a) - alpha / 2) <= 0.01
        assert b - a > err_a + err_b


CATENOID_NODES = np.geomspace(1.0, 1e12, 41)
# a catenoid end, v(r) = arccosh r, sampled from its neck at r = 1 out to
# 1e12; inside the neck the body is empty, and the two samples there turn
# the neck's vertical tangent into a finite slope, a compact change
CATENOID_END = SampledProfile(np.concatenate(([0.0, 0.5], CATENOID_NODES)),
                              np.concatenate(([-1.0, -0.5], np.arccosh(CATENOID_NODES))))


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, 2])
def test_a_catenoid_end_grows_too_slowly_to_be_stationary(n, alpha):
    """The paper's title claim in numbers: an end growing like log r looks
    ever more like the slab of its height, so H stays positive and r^alpha H
    grows without bound, each step by more than the combined errors, where a
    stationary set would need H = 0.  From r = 1e3 on H is within 1e-3 of
    the slab (nearer the neck it is not a slab: 3 % off at n = 2, r = 10).
    At alpha = 0.2 the tail bound misses its target at every point, so
    there only the combined errors are allowed."""
    scaled = []
    for r in (10.0, 1e2, 1e3, 1e4, 1e5):
        res = two_leaf_curvature(CATENOID_END, r, n, alpha)
        slab = two_leaf_curvature(ConstantProfile(CATENOID_END.value(r)), r, n, alpha)
        if alpha == 0.2:
            assert "tail-above-target" in res.warnings
        else:
            assert res.warnings == () and slab.warnings == ()
        tol = 0.0 if alpha == 0.2 else 1e-3 * slab.value
        if r >= 1e3:
            assert abs(res.value - slab.value) <= tol + res.total_error + slab.total_error
        scaled.append((r ** alpha * res.value, r ** alpha * res.total_error))
    for (a, err_a), (b, err_b) in zip(scaled, scaled[1:]):
        assert b - a > err_a + err_b


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("h", [1e-8, 1e-10, 1e-12])
def test_thin_slab_matches_the_slab_law(h, n, alpha):
    """A two-leaf core ends below half the height, so it resolves a slab
    however thin.  With the core out to 0.1 the n = 1 slab of half-height
    1e-8 read -9.6e-6 +- 9.6e-6 at alpha = 0.5, against 67 777."""
    res = two_leaf_curvature(ConstantProfile(h), 1.0, n, alpha)
    assert abs(res.value - slab_exact(n, alpha, h)) <= res.total_error
    assert res.warnings == ()


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_thin_cone_matches_the_slab_of_its_height(eps, n, alpha):
    """At |x| = 5 the cone of slope eps differs from the slab of its height
    by 1e-4 relative at most.  The value also leaves out the field beyond its
    outer radius, which its total error bounds: 1.6e-4 of the slab at
    alpha = 0.2."""
    r = 5.0 / math.sqrt(1.0 + eps * eps)
    res = two_leaf_curvature(LinearProfile(eps), r, n, alpha)
    slab = slab_exact(n, alpha, eps * r)
    assert abs(res.value - slab) <= 1e-4 * slab + res.total_error
    assert res.warnings == ()


def test_quadpack_reports_other_than_the_subdivision_limit_warn(monkeypatch):
    """A spent subdivision budget keeps QUADPACK's error estimate and adds
    nothing; any other report warns.  The n = 1 mirror core once reported
    divergence on a thin cone and returned -15.155 +- 4.3e-11 unflagged."""
    from fracsurf import curvature

    quad = curvature.integrate.quad
    plain = two_leaf_curvature(ConstantProfile(0.5), 2.0, 1, 0.5)
    for report, warnings in (("The maximum number of subdivisions (200) has been achieved.", ()),
                             ("The integral is probably divergent, or slowly convergent.",
                              ("quadrature-failed",))):
        monkeypatch.setattr(curvature.integrate, "quad",
                            lambda *args, report=report, **kw: quad(*args, **kw)[:3] + (report,))
        res = two_leaf_curvature(ConstantProfile(0.5), 2.0, 1, 0.5)
        assert res.warnings == warnings
        assert dataclasses.replace(res, warnings=()) == plain


def _cone_constant(eps, alpha=0.5):
    """C(eps) = |x|^alpha H on the two-leaf cone |y| < eps |x'| at n = 1,
    taken at |x| = 5, with its error and warnings."""
    res = two_leaf_curvature(LinearProfile(eps), 5.0 / math.sqrt(1.0 + eps * eps), 1, alpha)
    return 5.0 ** alpha * res.value, 5.0 ** alpha * res.total_error, res.warnings


WEDGE_ALPHAS = (0.2, 0.5, 0.8)


def test_right_angle_cone_has_zero_cone_constant():
    """At eps = 1 the cone's complement is the cone turned by a right angle,
    and H changes sign with the complement, so C(1) = 0 at every alpha."""
    for alpha in WEDGE_ALPHAS:
        value, error, warnings = _cone_constant(1.0, alpha)
        assert abs(value) <= error, alpha
        assert set(warnings) <= {"tail-above-target"}


@pytest.mark.parametrize("eps", [0.2, 0.5])
def test_cone_constants_of_complementary_cones_cancel(eps):
    """The complement of the eps-cone is the 1/eps-cone turned by a right
    angle, so C(eps) + C(1/eps) = 0 at every alpha."""
    for alpha in WEDGE_ALPHAS:
        value, error, _ = _cone_constant(eps, alpha)
        twin, twin_error, _ = _cone_constant(1.0 / eps, alpha)
        assert abs(value + twin) <= error + twin_error, alpha


def test_half_space_is_exactly_flat():
    res = subgraph_curvature(ConstantProfile(3.0), 1.5, 2, 0.5)
    assert res.value == 0.0
    assert res.total_error == 0.0
    assert res.warnings == ()


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_half_space_flat_across_orders(alpha):
    res = subgraph_curvature(ConstantProfile(0.7), 4.0, 1, alpha)
    assert abs(res.value) <= 1e-6
    assert res.total_error <= 1e-6


def test_scaling_law_on_barrier():
    """Dilating the body by lambda scales curvature by lambda^(-alpha)."""
    eps, n, alpha = 0.2, 2, 0.5
    base = BarrierProfile(eps)
    for lam in (0.5, 2.0):
        scaled = DilatedGraphProfile(base, 1.0 / lam)
        for r in (0.7, 2.5):
            h1 = two_leaf_curvature(base, r, n, alpha)
            h2 = two_leaf_curvature(scaled, lam * r, n, alpha)
            assert h2.value == pytest.approx(lam ** (-alpha) * h1.value,
                                             rel=1e-3)
            dev = abs(h2.value - lam ** (-alpha) * h1.value)
            assert dev <= h2.total_error + lam ** (-alpha) * h1.total_error


def test_subgraph_entry_point_is_the_one_leaf_case():
    a = subgraph_curvature(SqrtProfile(1.0), 4.0, 1, 0.5)
    b = graph_curvature(SqrtProfile(1.0), 4.0, 1, 0.5, two_leaf=False)
    assert a.value == b.value


def test_barrier_regression_value():
    res = two_leaf_curvature(BarrierProfile(0.2), 2.5, 1, 0.5)
    assert res.value == pytest.approx(8.348177726760493, rel=1e-9)
    assert res.total_error < 2e-3
    assert res.warnings == ()


@pytest.mark.parametrize("n,expected", [(2, 11.57676617831453), (3, 13.016402362796219)])
def test_barrier_regression_value_higher_dimensions(n, expected):
    res = two_leaf_curvature(BarrierProfile(0.2), 2.5, n, 0.5)
    assert res.value == pytest.approx(expected, rel=1e-9)
    assert res.warnings == ()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_apex_is_finite_and_continuous(n, alpha):
    """r = 0 with n >= 2: finite, next to r = 1e-6, and dilation-consistent."""
    base = BarrierProfile(0.2)
    apex = two_leaf_curvature(base, 0.0, n, alpha)
    assert math.isfinite(apex.value) and math.isfinite(apex.total_error)
    assert math.isfinite(apex.error_core)
    near = two_leaf_curvature(base, 1e-6, n, alpha)
    assert abs(apex.value - near.value) <= apex.total_error + near.total_error
    twin = two_leaf_curvature(DilatedGraphProfile(base, 0.5), 0.0, n, alpha)
    dev = abs(twin.value - 2.0 ** (-alpha) * apex.value)
    assert dev <= twin.total_error + 2.0 ** (-alpha) * apex.total_error


def test_results_are_python_floats():
    res = two_leaf_curvature(BarrierProfile(0.2), 2.5, 1, 0.5)
    for name in ("value", "error_core", "error_midfield", "error_tail", "outer_radius"):
        assert type(getattr(res, name)) is float
    assert type(res.total_error) is float


def test_knot_radii_are_smooth_enough_to_evaluate():
    res = two_leaf_curvature(BarrierProfile(0.2), 1.0, 1, 0.5)
    assert math.isfinite(res.value)
    res2 = two_leaf_curvature(BarrierProfile(0.2), 2.0, 1, 0.5)
    assert math.isfinite(res2.value)


def test_low_order_tail_escalates_and_warns():
    res = two_leaf_curvature(ConstantProfile(0.5), 2.0, 1, 0.2)
    assert "tail-above-target" in res.warnings
    assert res.outer_radius > 1e11
    # the reported tail bound must still cover the closed-form deviation
    exact = slab_exact(1, 0.2, 0.5)
    assert abs(res.value - exact) <= res.total_error * (1.0 + 1e-6)


def test_escalation_stops_early_when_tail_is_cheap():
    res = two_leaf_curvature(BarrierProfile(0.2), 2.5, 1, 0.5)
    assert res.outer_radius < 1e9
    assert res.error_tail < 2e-3


def test_starved_budget_inflates_errors_honestly():
    cfg = QuadratureConfig(max_subdivisions=2)
    res = two_leaf_curvature(BarrierProfile(0.2), 2.5, 1, 0.5, cfg)
    assert "quadrature-above-target" in res.warnings
    ref = two_leaf_curvature(BarrierProfile(0.2), 2.5, 1, 0.5)
    assert abs(res.value - ref.value) <= res.total_error


def test_total_error_is_the_sum_of_parts():
    res = two_leaf_curvature(BarrierProfile(0.3), 1.7, 2, 0.5)
    assert res.total_error == pytest.approx(
        res.error_core + res.error_midfield + res.error_tail)
    assert res.error_core >= 0.0
    assert res.error_midfield >= 0.0
    assert res.error_tail >= 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_angular_rule_mass_and_symmetry(n):
    t, w = angular_rule(n, 16)
    assert float(np.sum(w)) == pytest.approx(sphere_area(n), rel=1e-12)
    assert float(np.sum(w * t)) == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.abs(t) <= 1.0)
    assert np.all(w > 0.0)


def test_angular_rule_n1_is_the_two_direction_rule():
    t, w = angular_rule(1, 48)
    assert sorted(t.tolist()) == [-1.0, 1.0]
    assert w.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_angular_rule_is_solved_once_and_read_only(n):
    nodes, weights = angular_rule(n, 16)
    assert angular_rule(n, 16)[0] is nodes
    for array in (nodes, weights):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_profile_zeros_are_solved_once_per_profile(monkeypatch):
    """Two-leaf points share their profile's zero crossings, a shifted or
    dilated profile solves its own, and a subgraph point solves none."""
    solved = []
    solve = profiles.profile_zeros
    monkeypatch.setattr(profiles, "profile_zeros", lambda p: solved.append(p) or solve(p))
    config = QuadratureConfig()
    neck = BarrierProfile(0.5).shifted(0.6)
    first = two_leaf_curvature(neck, 2.5, 2, 0.5, config)
    assert two_leaf_curvature(neck, 3.0, 2, 0.5, config).value != first.value
    assert solved == [neck]
    assert neck.zeros.tolist() == solve(neck).tolist() != []
    with pytest.raises(ValueError):
        neck.zeros[0] = 0.0
    lower, wider = neck.shifted(0.01), neck.dilated(2.0)
    for profile in (lower, wider):
        two_leaf_curvature(profile, 2.5, 2, 0.5, config)
    assert solved == [neck, lower, wider]
    assert wider.zeros == pytest.approx([0.5 * neck.zeros[0]], rel=1e-13, abs=0.0)
    subgraph_curvature(BarrierProfile(0.5), 2.5, 2, 0.5, config)
    assert solved == [neck, lower, wider]


def test_formula_refuses_a_dimension_beyond_the_float_range():
    """The angular rule's sphere area |S^(n - 2)| divides by Gamma((n - 1) / 2),
    which raised a raw OverflowError at n = 345."""
    assert math.isfinite(two_leaf_curvature(ConstantProfile(0.3), 0.5, 344, 0.5).value)
    with pytest.raises(ValueError, match="n = 345 is too large"):
        two_leaf_curvature(ConstantProfile(0.3), 0.5, 345, 0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(pv_inner_radius=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(pv_inner_radius=10.0, truncation_radius=5.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


@pytest.mark.parametrize("key, value, message", [
    ("truncation_radius", math.inf, "truncation_radius must be positive and finite, not inf"),
    ("truncation_radius", math.nan, "truncation_radius must be positive and finite, not nan"),
])
def test_config_rejects_a_radius_or_tolerance_that_is_not_finite(key, value, message):
    with pytest.raises(ValueError, match=message):
        QuadratureConfig(**{key: value})


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_a_radius_that_is_not_finite_is_rejected(radius):
    with pytest.raises(ValueError, match=f"radius must be finite, not {radius!r}"):
        two_leaf_curvature(ConstantProfile(0.5), radius, 1, 0.5)
    with pytest.raises(ValueError, match="radius must be finite"):
        subgraph_curvature(BarrierProfile(0.2), radius, 2, 0.5)


def test_config_pivot_tracks_barrier_height():
    """A two-leaf point pivots at half its height below pv_inner_radius: on
    the cap of the barrier 0.1 that is 0.05, on its blend at r = 1.5 it is
    0.0625.  A subgraph point pivots at pv_inner_radius."""
    prof = BarrierProfile(0.1)
    for r in (0.5, 1.5):
        half = QuadratureConfig(pv_inner_radius=0.5 * prof.value(r))
        assert two_leaf_curvature(prof, r, 1, 0.5) == two_leaf_curvature(prof, r, 1, 0.5, half)
    assert QuadratureConfig().pv_inner_radius == 0.1
    # a pivot the INI sets is the largest pivot, and wins over half the height
    forced = _quadrature_from(Section({}, {"pv_inner_radius": "0.02"}))
    assert forced.pv_inner_radius == 0.02
    assert two_leaf_curvature(prof, 0.5, 1, 0.5, forced) != two_leaf_curvature(prof, 0.5, 1, 0.5)


def test_nonsmooth_points_are_rejected():
    with pytest.raises(NonSmoothPointError):
        two_leaf_curvature(RampBumpProfile(0.4, 2.0), 3.0, 1, 0.5)
    with pytest.raises(NonSmoothPointError):
        two_leaf_curvature(LinearProfile(0.3), 0.0, 1, 0.5)
    with pytest.raises(NonSmoothPointError):
        subgraph_curvature(SqrtProfile(1.0), 0.0, 1, 0.5)


def test_sampled_corner_at_the_axis_is_rejected():
    # nodes from r = 0 let PCHIP pick a nonzero one-sided slope there, so the
    # even extension has a corner on the axis; it once read as smooth and
    # returned a value of order -1e266
    r = np.linspace(0.0, 20.0, 41)
    v = 0.3 + 0.05 * np.sqrt(1.0 + r ** 2)
    with pytest.raises(NonSmoothPointError):
        two_leaf_curvature(SampledProfile(r, v), 0.0, 1, 0.5)
    # without the axis node the prepended flat node keeps the axis smooth
    res = two_leaf_curvature(SampledProfile(r[1:], v[1:]), 0.0, 1, 0.5)
    assert res.warnings == ()
    assert res.value == pytest.approx(10.7787, abs=res.total_error)


def test_bump_peak_sign_matches_the_ball_convention():
    """The ball carries positive curvature under this sign convention, and
    the top of a localized bump bends the boundary the same way, so the
    value there must be positive; a flat run far outside the bump support
    must sit near zero instead."""
    peak = subgraph_curvature(RampBumpProfile(0.4, 2.0), 1.0, 1, 0.5)
    assert peak.value > 0.0
    far = subgraph_curvature(RampBumpProfile(0.4, 2.0), 50.0, 1, 0.5)
    assert abs(far.value) < abs(peak.value) / 10.0


def test_two_leaf_neck_reads_negative_heights_as_empty_slices():
    """The barrier lowered by 0.6 is negative on [0, ~1.463], where the
    two-leaf body {|x_last| < max(v, 0)} has empty slices.  Reading those
    heights as reversed intervals gave 4.65409 +- 6.5e-4 at n = 1 and r = 3;
    the Monte Carlo oracle, which classifies points by membership, disagrees
    with that beyond both error bars.  At r = 1.5 the core, which read
    28.9708 there when it held the crossing, ends at half the height 0.025,
    before the crossing.  The neck five times as tall crosses zero at the
    same radius with slope 3.23 > 2, so there the crossing lies inside the
    core, which ends at half the height 0.125."""
    prof = BarrierProfile(0.5).shifted(0.6)
    assert prof.value(0.0) < 0.0 < prof.value(3.0)
    flat = two_leaf_curvature(prof, 3.0, 1, 0.5)
    assert abs(flat.value - 4.572957444124378) <= flat.total_error
    spatial = two_leaf_curvature(prof, 3.0, 2, 0.5)
    assert abs(spatial.value - 2.065469406540798) <= spatial.total_error
    mc = direct_curvature(TwoLeaf(prof), np.array([3.0, prof.value(3.0)]), 1, 0.5,
                          oracle_samples=4_000_000, seed=11)
    assert abs(mc.value - flat.value) <= mc.total_error + flat.total_error
    assert 1.5 - 1.463 > 0.5 * prof.value(1.5)
    near = two_leaf_curvature(prof, 1.5, 1, 0.5)
    assert abs(near.value - 27.68773523644817) <= near.total_error
    mc = direct_curvature(TwoLeaf(prof), np.array([1.5, prof.value(1.5)]), 1, 0.5,
                          oracle_samples=4_000_000, seed=11)
    assert abs(mc.value - near.value) <= mc.total_error + near.total_error
    steep = BarrierProfile(2.5).shifted(3.0)
    assert 1.5 - 1.4634 < 0.5 * steep.value(1.5) < 0.1
    assert steep.first_derivative(1.4634) > 2.0
    near = two_leaf_curvature(steep, 1.5, 1, 0.5)
    assert near.warnings == ()
    mc = direct_curvature(TwoLeaf(steep), np.array([1.5, steep.value(1.5)]), 1, 0.5,
                          oracle_samples=4_000_000, seed=11)
    assert abs(mc.value - near.value) <= mc.total_error + near.total_error


# n = 1 values before the midfield and tail bands were split at the radii
# where the integrand bends: (profile, radius, value, core + midfield error)
_BASE = BarrierProfile(0.2)
_TWIN = DilatedGraphProfile(_BASE, 0.5)
_NECK = BarrierProfile(0.5).shifted(0.6)
UNSPLIT_N1 = {
    "barrier-r0": (_BASE, 0.0, 13.170276431506522, 2.781146029783777e-12),
    "barrier-r0.5": (_BASE, 0.5, 13.033290930350187, 1.1924404123090497e-12),
    "barrier-r1.5": (_BASE, 1.5, 9.117624660608332, 7.406371239544058e-12),
    "barrier-r3": (_BASE, 3.0, 7.604470272237073, 3.161866823263314e-12),
    "barrier-r50": (_BASE, 50.0, 1.8672437999666258, 1.4555048212372602e-12),
    "twin-r0": (_TWIN, 0.0, 9.312603237745908, 2.3608315604339797e-12),
    "twin-r1": (_TWIN, 1.0, 9.215739860949663, 4.557894979526541e-12),
    "twin-r3": (_TWIN, 3.0, 6.446945688754896, 1.3570266364749772e-12),
    "twin-r6": (_TWIN, 6.0, 5.3774241079339085, 3.6284930340440416e-12),
    "twin-r100": (_TWIN, 100.0, 1.3203218993774153, 7.744179828394492e-13),
    "slab": (ConstantProfile(0.5), 2.0, 9.58416336569958, 3.8358827943556534e-13),
    "cone": (LinearProfile(0.5), 1.0, 5.253301791672312, 4.330695164843239e-12),
    "sqrt": (SqrtProfile(1.0), 4.0, 4.595444381151187, 3.908098048798333e-12),
    "neck-r3": (_NECK, 3.0, 4.572957444124378, 4.217182430296655e-12),
    "neck-r1.5": (_NECK, 1.5, 27.68773523644817, 1.6806995200231774e-11),
}


@pytest.mark.parametrize("profile,r,value,err", UNSPLIT_N1.values(), ids=UNSPLIT_N1.keys())
def test_n1_split_stays_within_the_unsplit_errors(profile, r, value, err):
    res = two_leaf_curvature(profile, r, 1, 0.5)
    assert res.warnings == ()
    assert abs(res.value - value) <= err + res.error_core + res.error_midfield


@pytest.mark.parametrize("profile,r,unsplit_calls", [
    (BarrierProfile(0.2), 1.5, 987),
    # split at the knots alone, the neck still takes 1491 calls
    (_NECK, 3.0, 1890),
], ids=["barrier", "neck"])
def test_n1_split_halves_the_slice_integral_calls(monkeypatch, profile, r, unsplit_calls):
    # unsplit_calls: SliceIntegral.gap calls with every band integrated whole
    from fracsurf.kernelfn import SliceIntegral
    calls = []
    gap = SliceIntegral.gap
    monkeypatch.setattr(SliceIntegral, "gap", lambda self, x: calls.append(1) or gap(self, x))
    res = two_leaf_curvature(profile, r, 1, 0.5)
    assert res.warnings == ()
    assert 0 < len(calls) < unsplit_calls / 2


# the unsplit results at r = 2.5, whose five bend radii 0.5, 1.5, 2.5, 3.5
# and 4.5 need a budget of at least 6 intervals; from a budget of 2 on, the
# tail decades are one band
ABOVE_BOTH = ("tail-above-target", "quadrature-above-target")
UNSPLIT_STARVED = {
    # budget: (value, error_midfield, error_tail, outer_radius, warnings)
    1: (8.285681292356248, 2.355028720057699, 0.1499510108856172, 1e4, ABOVE_BOTH),
    2: (8.32969611013155, 2.3550287200577, 0.047418673184325265, 1e5, ABOVE_BOTH),
    3: (8.342352568325575, 0.7358998507321401, 0.014995101088561719, 1e6, ABOVE_BOTH),
    4: (8.346762052934105, 0.025529224919679145, 0.004741867318432527, 1e7, ABOVE_BOTH),
    5: (8.348155905770966, 0.02479282870690639, 0.0014995101088561718, 1e8,
        ("quadrature-above-target",)),
}


@pytest.mark.parametrize("budget", range(1, 9))
def test_breakpoints_count_against_the_subdivision_budget(budget):
    res = two_leaf_curvature(BarrierProfile(0.2), 2.5, 1, 0.5,
                             QuadratureConfig(max_subdivisions=budget))
    if budget in UNSPLIT_STARVED:
        value, mid, tail, outer, warnings = UNSPLIT_STARVED[budget]
        assert repr(res) == repr(CurvatureResult(value, 2.9561005043764606e-15, mid, tail,
                                                 outer, warnings))
    else:
        # against the default budget's unsplit value and its core + midfield error
        assert res.warnings == ()
        assert abs(res.value - 8.348177726760493) <= (
            2.9561005043764606e-15 + 7.577862528406239e-12 + res.error_core + res.error_midfield)


# references from tests/make_n2_references.py: every radial integral of the
# point re-done by quad_vec at tolerance 1e-15, so |value - ref| is the
# radial quadrature error alone.  (profile, radius, n, reference)
N2_NECK = {
    "neck-r3-n2": (_NECK, 3.0, 2, 2.065469526591361),
    "neck-r2-n2": (_NECK, 2.0, 2, 7.122025718222709),
    "neck-r3-n3": (_NECK, 3.0, 3, -3.812770478308831),
}


@pytest.mark.parametrize("profile,r,n,ref", N2_NECK.values(), ids=N2_NECK.keys())
def test_n2_neck_matches_its_reference(profile, r, n, ref):
    """QUADPACK, with the bands whole, was off by 1.2e-7 at r = 3, n = 2
    (2.065469406540798 +- 4.9e-6) and by 1.8e-6 at r = 2."""
    res = two_leaf_curvature(profile, r, n, 0.5)
    assert res.warnings == ()
    assert abs(res.value - ref) <= res.error_core + res.error_midfield


@pytest.mark.parametrize("n,ref", [(2, 14.156676534033055), (3, 17.92660894164705)])
def test_n2_radial_error_covers_the_knotted_twin(n, ref):
    """At r = 1 the twin's knots at 2 and 4 bend A(rho) at a radius for each
    angular node.  QUADPACK gave 17.92660894215923 at n = 3, 5.1e-10 off
    against a reported 1.47e-11, and 1.8e-10 off at n = 2 (references from
    tests/make_n2_references.py)."""
    res = two_leaf_curvature(BarrierProfile(0.2).dilated(0.5), 1.0, n, 0.5)
    assert res.warnings == ()
    assert abs(res.value - ref) <= res.error_core + res.error_midfield


_KNOTTED_R = np.linspace(0.0, 4.0, 81)
_KNOTTED = SampledProfile(_KNOTTED_R, 1.0 + _KNOTTED_R ** 2 / 8.0)


# references from tests/make_n1_references.py: every QUADPACK call of the
# point re-done by quad_vec at tolerance 1e-15, split at every bend.
# (profile, radius, alpha, reference)
N1_BENDS_IN_CORE = {
    "knotted-1.0001": (_KNOTTED, 1.0001, 0.5, -0.62191523798791),
    "knotted-0.97": (_KNOTTED, 0.97, 0.2, 0.20986072290725882),
    "knotted-2.02": (_KNOTTED, 2.02, 0.8, -1.9009856287251283),
    "barrier-0.99": (_BASE, 0.99, 0.5, 12.302430380831685),
    "barrier-2.01": (_BASE, 2.01, 0.5, 9.673060567980379),
}


@pytest.mark.parametrize("profile,r,alpha,ref", N1_BENDS_IN_CORE.values(),
                         ids=N1_BENDS_IN_CORE.keys())
def test_n1_radial_error_covers_bends_inside_the_core(profile, r, alpha, ref):
    """Bends of the offset radius lie inside the core (0, delta).  With the
    core's weighted rule run whole over them, the three knotted points were
    4.5e-11, 1.5e-11 and 2.3e-11 off, 24, 7 and 7 times their core plus
    midfield errors."""
    res = two_leaf_curvature(profile, r, 1, alpha)
    assert "quadrature-above-target" not in res.warnings
    assert abs(res.value - ref) <= res.error_core + res.error_midfield


@pytest.mark.parametrize("r,n,alpha,ref", [
    (0.5793650965138123, 2, 0.2, 42.21933478809285),
    (0.5, 3, 0.8, 18.400563003162077),
], ids=["r0.58-n2", "r0.5-n3"])
def test_n2_radial_error_covers_the_barrier_inside_its_knots(r, n, alpha, ref):
    """Inside the barrier's knots each angular node's offset meets them at
    its own rho.  Integrated node-summed on shared panels, the point was
    3.19e-10 off at r = 0.579 against a reported 3.27e-11, and 4.83e-11 off
    at r = 0.5 against 1.76e-11 (references from
    tests/make_n2_references.py)."""
    res = two_leaf_curvature(_BASE, r, n, alpha)
    assert "quadrature-above-target" not in res.warnings
    assert abs(res.value - ref) <= res.error_core + res.error_midfield


@pytest.mark.parametrize("profile,r,n,ref", [
    (_BASE, 2.5, 2, 5.455066118376555),
    (_BASE, 2.5, 3, 4.25510467668921),
    (_NECK, 3.0, 2, -0.7726124457829308),
], ids=["barrier-n2", "barrier-n3", "neck-n2"])
def test_total_error_covers_the_angular_rule(profile, r, n, ref):
    """The references take 768 angular nodes.  The default 48 are 8.3e-7,
    1.8e-6 and 2.1e-5 off them at alpha = 0.8, against core plus midfield
    errors near 1e-12: no part of the error estimates the angular rule, and
    only the tail bound (3.7e-4, 6.6e-4 and 8.1e-5) covers the gap."""
    res = two_leaf_curvature(profile, r, n, 0.8)
    assert abs(res.value - ref) <= res.total_error


@pytest.mark.parametrize("profile,r,alpha,shared_elems", [
    (ConstantProfile(0.3), 2.0, 0.2, 1_004_017),
    (_BASE, 1.5, 0.5, 174_289),
], ids=["slab", "barrier"])
def test_n2_node_panels_cut_the_slice_integral_elements(monkeypatch, profile, r, alpha,
                                                        shared_elems):
    # shared_elems: F.value elements with the node-summed integrand on panels
    # shared by all nodes, where the slab's tail bisected gap's rounding noise
    from fracsurf.kernelfn import SliceIntegral
    elems = []
    value = SliceIntegral.value
    monkeypatch.setattr(SliceIntegral, "value",
                        lambda self, x: elems.append(np.size(x)) or value(self, x))
    res = two_leaf_curvature(profile, r, 2, alpha)
    assert "quadrature-above-target" not in res.warnings
    assert 0 < sum(elems) < shared_elems / 8


def test_starved_budget_inflates_errors_honestly_at_n2():
    res = two_leaf_curvature(BarrierProfile(0.2), 2.5, 2, 0.5,
                             QuadratureConfig(max_subdivisions=2))
    assert "quadrature-above-target" in res.warnings
    ref = two_leaf_curvature(BarrierProfile(0.2), 2.5, 2, 0.5)
    assert abs(res.value - ref.value) <= res.total_error


def test_n2_zero_crossing_edges_beyond_the_budget_start_the_band_whole(monkeypatch):
    """At r = 3, n = 2 the offsets of 8 angular nodes cross the neck's zero
    at 1.463 twice each inside the midfield, 5 of them also both knots 1 and
    2: 7 and 5 panels.  3 more cross the knot at 2 twice: 3 panels.  A node
    starts on its own edges only while they take at most half its budget.
    The midfield is the band from log 0.1 to log 1e3."""
    from fracsurf import curvature
    starts = []
    band = curvature._gk21_band
    monkeypatch.setattr(curvature, "_gk21_band", lambda f, a, b, term, limit: starts.append(
        (a.min(), b.max(), np.bincount(term).tolist())) or band(f, a, b, term, limit))
    for limit, panels in [(200, [7] * 5 + [5] * 3 + [3] * 3), (13, [1] * 5 + [5] * 3 + [3] * 3),
                          (9, [1] * 8 + [3] * 3), (5, [])]:
        starts.clear()
        res = two_leaf_curvature(_NECK, 3.0, 2, 0.5, QuadratureConfig(max_subdivisions=limit))
        midfield = [count for lo, hi, count in starts
                    if (lo, hi) == (math.log(0.1), math.log(1e3))]
        assert midfield == [panels + [1] * (48 - len(panels))]
        assert abs(res.value - N2_NECK["neck-r3-n2"][-1]) <= res.total_error


@pytest.mark.parametrize("limit", range(17, 34))
def test_n2_edges_leave_room_to_bisect(limit):
    """With the nodes' edges taking at most half of each node's budget, the
    rest is room to bisect.  Starting the node-summed band on all 16 of the
    neck's zero-crossing edges at a budget of 17 panels left none: 2.8e-5
    off the reference, with quadrature-above-target."""
    res = two_leaf_curvature(_NECK, 3.0, 2, 0.5, QuadratureConfig(max_subdivisions=limit))
    assert res.warnings == ()
    assert abs(res.value - N2_NECK["neck-r3-n2"][-1]) <= res.error_core + res.error_midfield
    assert res.error_core + res.error_midfield <= 1.1e-5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_core_steps_stay_on_one_side_of_the_axis(monkeypatch, n):
    """The core asks the profile's bends only for steps from s >= 0 to the
    offset radius t >= 0, at the apex, at a knot, on the neck, and at
    n = 1 on the square root."""
    calls = []
    bends = PiecewisePolyProfile._bends

    def checked(self, r, h):
        assert np.all(r >= 0.0) and np.all(r + h >= 0.0)
        calls.append(1)
        return bends(self, r, h)

    monkeypatch.setattr(PiecewisePolyProfile, "_bends", checked)
    points = [(BarrierProfile(0.2), 0.0), (BarrierProfile(0.2), 1.0), (_NECK, 1.5)]
    if n == 1:
        points.append((SqrtProfile(1.0), 4.0))
    for profile, r in points:
        count = len(calls)
        assert math.isfinite(two_leaf_curvature(profile, r, n, 0.5).value)
        assert len(calls) > count


def test_zero_step_beside_a_knot_crossing_step():
    """At s = 0.025 the core's quadrature evaluates rho = 2s, where the
    c = -1 step to the offset radius is exactly 0 while the c = +1 step
    crosses the knot at 0.05.  The zero step takes half the curvature, with
    no 0 / 0 in the crossing branch; the value is pinned."""
    r = np.linspace(0.0, 4.0, 81)
    profile = SampledProfile(r, 1.0 + r ** 2 / 8.0)
    zero_steps = []
    # only rho = 2s gives the c = -1 node a step of exactly 0
    profile._bends = lambda s, h: zero_steps.append(0.0 in h) or \
        PiecewisePolyProfile._bends(profile, s, h)
    res = two_leaf_curvature(profile, 0.025, 1, 0.5)
    assert any(zero_steps)
    assert repr(res) == (
        "CurvatureResult(value=-0.5147538836057814, error_core=5.782227213322758e-15, "
        "error_midfield=1.7442083930201706e-13, error_tail=6.796990480876434e-05, "
        "outer_radius=100000000000.0, warnings=())")


# the barrier's plateau, blend and cone, the neck and a slab: (profile, radius)
TAIL_POINTS = {"plateau": (_BASE, 0.5), "blend": (_BASE, 1.5), "cone": (_BASE, 3.0),
               "neck": (_NECK, 3.0), "slab": (ConstantProfile(0.3), 2.0)}


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("profile,r", TAIL_POINTS.values(), ids=TAIL_POINTS.keys())
def test_tail_bound_covers_the_decades_it_leaves_out(profile, r, n, alpha):
    """Integrated in one band out to 1e12, the point may differ from the
    escalated one by no more than the two total errors."""
    res = two_leaf_curvature(profile, r, n, alpha)
    far = two_leaf_curvature(profile, r, n, alpha, QuadratureConfig(truncation_radius=1e12))
    assert abs(res.value - far.value) <= res.total_error + far.total_error


@pytest.mark.parametrize("budget", [1, 2, 3, 200])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("profile,r", TAIL_POINTS.values(), ids=TAIL_POINTS.keys())
def test_escalation_stops_where_the_bound_meets_its_goal(profile, r, n, alpha, budget):
    """The tail bound is tail_coeff R^-a.  The loop stops at most one decade
    past the first decade where it meets the goal at the final value, since
    each step takes every decade that the value before it needs; it warns
    exactly when the cap or the escalation budget stopped it short."""
    cfg = QuadratureConfig(max_subdivisions=budget)
    res = two_leaf_curvature(profile, r, n, alpha, cfg)
    coeff = res.error_tail * res.outer_radius ** alpha
    goal = max(TARGET_TOLERANCE, TAIL_SHARE * abs(res.value))
    first = cfg.truncation_radius
    while coeff * first ** -alpha > goal:
        first *= 10.0
    assert cfg.truncation_radius <= res.outer_radius <= 10.0 * first
    decades = round(math.log10(res.outer_radius / cfg.truncation_radius))
    stopped = res.error_tail > goal
    assert ("tail-above-target" in res.warnings) == stopped
    if stopped:
        assert res.outer_radius == ESCALATION_CAP_RADIUS or decades == budget


# the 2401-node sampled candidate of test_sliding.py at r = 60.025, alpha = 0.5:
# every zero crossing of its pieces is solved in one batch; (n, result)
RUNAWAY_POINTS = {
    1: "CurvatureResult(value=10.361297433560607, error_core=3.7592817459682616e-15, "
       "error_midfield=9.377924704289972e-12, error_tail=0.0009832067692772813, "
       "outer_radius=100000000.0, warnings=())",
    2: "CurvatureResult(value=18.059493961355113, error_core=4.1001971539674877e-16, "
       "error_midfield=1.9239113114703696e-11, error_tail=0.0022742270356211703, "
       "outer_radius=100000000.0, warnings=())",
}


@pytest.mark.parametrize("n", RUNAWAY_POINTS)
def test_runaway_candidate_points_keep_their_values(n):
    r = np.linspace(0.0, 120.0, 2401)
    profile = SampledProfile(r, np.maximum(0.0, 0.02 * r - 0.1 * np.sqrt(r)))
    assert repr(two_leaf_curvature(profile, 60.025, n, 0.5)) == RUNAWAY_POINTS[n]
