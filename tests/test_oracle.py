import math
import re

import numpy as np
import pytest
from scipy import special

from fracsurf import (Ball, Box, Complement, Cone, ConstantProfile, HalfSpace,
                      InvalidPointError, TwoLeaf, cone_constant,
                      direct_curvature, interaction_energy, oracle, relative_perimeter)


def test_half_space_is_exact_zero():
    res = direct_curvature(HalfSpace(0.5), [1.0, 0.5], 1, 0.5, seed=3)
    assert res.value == 0.0


def test_slab_estimate_covers_closed_form():
    n, alpha, c = 1, 0.35, 0.5
    exact = (2.0 * (2.0 * c) ** (-alpha)
             * special.beta((1.0 + alpha) / 2.0, n / 2.0) / alpha)
    res = direct_curvature(TwoLeaf(ConstantProfile(c)), [2.0, 0.5], n, alpha,
                           seed=7)
    assert abs(res.value - exact) <= res.total_error
    assert res.value == pytest.approx(14.330952212386848, rel=1e-12)


def test_complement_flips_the_sign_exactly():
    """With the same seed the paired samples classify oppositely, so the two
    estimates are exact negatives, not merely statistically close."""
    p = [0.0, 0.0, 1.0]
    a = direct_curvature(Ball(1.0), p, 2, 0.5, seed=11)
    b = direct_curvature(Complement(Ball(1.0)), p, 2, 0.5, seed=11)
    assert a.value == -b.value
    assert a.total_error == b.total_error


def test_seeded_runs_are_bitwise_reproducible():
    p = [0.0, 0.0, 1.0]
    a = direct_curvature(Ball(1.0), p, 2, 0.5, seed=11)
    b = direct_curvature(Ball(1.0), p, 2, 0.5, seed=11)
    assert a.value == b.value
    assert a.total_error == b.total_error
    c = direct_curvature(Ball(1.0), p, 2, 0.5, seed=12)
    assert c.value != a.value


def test_ball_curvature_is_constant_over_the_sphere():
    vals = []
    errs = []
    for k in range(8):
        th = 2.0 * math.pi * k / 8.0
        p = [math.cos(th), math.sin(th)]
        r = direct_curvature(Ball(1.0), p, 1, 0.5, seed=100 + k)
        vals.append(r.value)
        errs.append(r.total_error)
    vals = np.array(vals)
    assert vals.std() / vals.mean() <= 0.01
    spread = vals.max() - vals.min()
    assert spread <= max(errs) + min(errs)


def test_points_off_the_boundary_are_rejected():
    with pytest.raises(InvalidPointError):
        direct_curvature(Ball(1.0), [0.0, 1.001], 1, 0.5)
    with pytest.raises(InvalidPointError):
        direct_curvature(Ball(1.0), [0.0, 0.9], 1, 0.5)
    with pytest.raises(InvalidPointError):
        direct_curvature(Ball(1.0), [0.0, 1.0, 0.0], 1, 0.5)


def test_boundary_tolerance_is_relative():
    R = 1000.0
    p = [0.0, R * (1.0 + 1e-9)]
    res = direct_curvature(Ball(R), p, 1, 0.5, seed=1,
                           oracle_samples=10000)
    assert math.isfinite(res.value)


def test_sample_budget_controls_noise():
    p = [0.0, 1.0]
    small = direct_curvature(Ball(1.0), p, 1, 0.5, seed=2,
                             oracle_samples=10000)
    big = direct_curvature(Ball(1.0), p, 1, 0.5, seed=2)
    assert big.total_error < small.total_error
    assert abs(big.value - small.value) <= big.total_error + small.total_error


@pytest.mark.parametrize("budget", [0, -1, -1_000_000])
def test_direct_curvature_rejects_an_oracle_budget_below_one(budget):
    slab = TwoLeaf(ConstantProfile(0.3))
    with pytest.raises(ValueError, match=f"oracle_samples must be >= 1, not {budget}"):
        direct_curvature(slab, [0.7, 0.3], 1, 0.5, budget)
    with pytest.raises(ValueError, match=f"oracle_samples must be >= 1, not {budget}"):
        cone_constant(0.4, 1, 0.5, budget)
    assert math.isfinite(direct_curvature(slab, [0.7, 0.3], 1, 0.5, 1).value)


def test_error_fields_are_populated_on_a_curved_body():
    res = direct_curvature(Ball(1.0), [0.0, 1.0], 1, 0.5, seed=9)
    assert res.error_core > 0.0
    assert res.error_midfield > 0.0
    assert res.error_tail > 0.0
    assert res.total_error == pytest.approx(
        res.error_core + res.error_midfield + res.error_tail)


def test_flat_boundary_has_zero_near_field_bound():
    """At a slab boundary point the paired near shells cancel exactly, so
    the inferred local-curvature coefficient and its bound must vanish."""
    res = direct_curvature(TwoLeaf(ConstantProfile(0.5)), [2.0, 0.5], 1, 0.5,
                           seed=9)
    assert res.error_core == 0.0
    assert res.error_midfield > 0.0
    assert res.error_tail > 0.0


# repr pins recorded while membership tests still reduced along rows and
# shell signs came from np.where: working column by column moves no bit
_PIN_SAMPLES = 100_000
_DIRECT_PINS = {
    "slab n=1": (TwoLeaf(ConstantProfile(0.3)), [0.7, 0.3], 1, 0.5, 5,
        'CurvatureResult(value=12.185205881983608, error_core=0.0, '
        'error_midfield=0.20926795942670806, error_tail=0.039738353063184406, '
        'outer_radius=100000.0, warnings=())'),
    "slab n=2": (TwoLeaf(ConstantProfile(0.3)), [0.7, 0.0, 0.3], 2, 0.35, 6,
        'CurvatureResult(value=30.87126184430215, error_core=0.0, '
        'error_midfield=0.4704741205506823, error_tail=0.6384719463552312, '
        'outer_radius=100000.0, warnings=())'),
    "slab n=3": (TwoLeaf(ConstantProfile(0.3)), [0.7, 0.0, 0.0, 0.3], 3, 0.65, 7,
        'CurvatureResult(value=22.699215744642295, error_core=0.0, '
        'error_midfield=0.6277850161197758, error_tail=0.017077188978501814, '
        'outer_radius=100000.0, warnings=())'),
    "half-space": (HalfSpace(0.25), [1.5, 0.0, 0.25], 2, 0.5, 8,
        'CurvatureResult(value=0.0, error_core=0.0, error_midfield=0.0, '
        'error_tail=0.07947670612636881, outer_radius=100000.0, warnings=())'),
    "ball": (Ball(1.0), [0.6, 0.8], 1, 0.5, 9,
        'CurvatureResult(value=14.581999742410376, error_core=0.4359619250468803, '
        'error_midfield=0.5330487776464199, error_tail=0.039738353063184406, '
        'outer_radius=100000.0, warnings=())'),
    "cone": (Cone(0.4), [2.0, 0.8], 1, 0.5, 10,
        'CurvatureResult(value=4.883886774385714, error_core=0.0, '
        'error_midfield=0.1947945758525369, error_tail=0.039738353063184406, '
        'outer_radius=100000.0, warnings=())'),
}


@pytest.mark.parametrize("case", sorted(_DIRECT_PINS))
def test_direct_curvature_is_pinned_bit_for_bit(case):
    body, point, n, alpha, seed, pinned = _DIRECT_PINS[case]
    assert repr(direct_curvature(body, point, n, alpha, _PIN_SAMPLES, seed=seed)) == pinned


def test_cone_constant_is_pinned_bit_for_bit():
    assert repr(cone_constant(0.4, 1, 0.5, _PIN_SAMPLES, seed=11)) == (
        'ConeConstantReport(epsilon=0.4, value=7.292889937754098, '
        'error=0.4002971497808883, entries=((2.0, 7.241015477808101, 0.34473328632208544), '
        '(5.0, 7.372613047427964, 0.3632497738156494), (10.0, 7.265041288026231, '
        '0.4002971497808883)), warnings=())')


def test_relative_perimeter_is_pinned_bit_for_bit():
    window = Box((-2.0, -2.0), (2.0, 2.0))
    got = relative_perimeter(TwoLeaf(ConstantProfile(0.3)), window, 1, 0.5,
                             samples=50_000, seed=12)
    assert repr(got) == (
        'EnergyResult(value=13.409663840584226, error=4.35977986482047, '
        'near_cut=0.001365685424949238, far_cut=54.62741699796952)')
    cube = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    got = relative_perimeter(Ball(0.8), cube, 2, 0.5, samples=50_000, seed=13)
    # the 0/1 closed form of the error moved it by 1 ulp (from ...325)
    assert repr(got) == (
        'EnergyResult(value=30.5005296410065, error=13.485100746049326, '
        'near_cut=0.0009464101615137756, far_cut=37.85640646055102)')


def test_direct_estimate_refuses_a_dimension_beyond_the_float_range():
    """The outer shell's volume grows like 1e5^(n + 1), which raised a raw
    OverflowError at n = 61."""
    slab = TwoLeaf(ConstantProfile(0.3))
    res = direct_curvature(slab, [0.5] + [0.0] * 59 + [0.3], 60, 0.5, oracle_samples=1000)
    assert math.isfinite(res.value) and math.isfinite(res.total_error)
    with pytest.raises(ValueError, match="n = 61 is too large for the direct estimate"):
        direct_curvature(slab, [0.5] + [0.0] * 60 + [0.3], 61, 0.5, oracle_samples=1000)


@pytest.mark.parametrize("n, half_width", [(174, 2.0), (342, 0.1)])
def test_pair_estimate_refuses_a_dimension_beyond_the_float_range(n, half_width):
    """One dimension more overflows the padded box's volume, which gave nan
    at n = 175, or the sphere area's Gamma factor, a raw OverflowError at
    n = 343; the dimension below still estimates."""
    slab = TwoLeaf(ConstantProfile(0.3))
    for d, ok in ((n + 1, True), (n + 2, False)):
        window = Box((-half_width,) * d, (half_width,) * d)
        if ok:
            res = relative_perimeter(slab, window, d - 1, 0.5, samples=2000)
            assert math.isfinite(res.value) and math.isfinite(res.error)
        else:
            with pytest.raises(ValueError, match=f"n = {d - 1} .*floating-point range"):
                relative_perimeter(slab, window, d - 1, 0.5, samples=2000)


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_pair_estimates_need_two_samples(samples):
    window = Box((-2.0, -2.0), (2.0, 2.0))
    with pytest.raises(ValueError, match=f"samples must be >= 2, not {samples}"):
        relative_perimeter(HalfSpace(0.0), window, 1, 0.5, samples=samples)
    with pytest.raises(ValueError, match=f"samples must be >= 2, not {samples}"):
        interaction_energy(Ball(0.5), ~Ball(1.0), window, 1, 0.5, samples=samples)
    assert relative_perimeter(HalfSpace(0.0), window, 1, 0.5, samples=2).error >= 0.0


def test_a_perimeter_with_no_hits_reports_the_error_of_one():
    """The ball lies outside the padded window, so no pair crosses; the
    error read exactly 0, as perimeter at n = 174 wrote 1.0,0.0,0.0."""
    window = Box((10.0, 10.0), (11.0, 11.0))
    res = relative_perimeter(Ball(0.5), window, 1, 0.5, samples=2000)
    assert res.value == 0.0
    volume = (1.0 + math.sqrt(2.0)) ** 2  # the window padded by half its diameter
    scale = 0.25 * volume * 2.0 * math.pi * (res.near_cut ** -0.5 - res.far_cut ** -0.5) / 0.5
    assert res.error == pytest.approx(3.0 * scale / 2000, rel=1e-12)


# each shell holds about 2800 pairs; repr results of the whole-shell sampler,
# from tests/make_oracle_references.py
_BLOCK_SAMPLES = 300_000
DIRECT_BLOCK_CASES = {
    "slab n=1": (TwoLeaf(ConstantProfile(0.3)), [0.7, 0.3], 1, 0.5, 34),
    "cone n=1": (Cone(0.4), [2.0, 0.8], 1, 0.65, 35),
}
DIRECT_BLOCK_PINS = {
    "slab n=1": (
        'CurvatureResult(value=12.333673591939915, error_core=0.0,'
        ' error_midfield=0.12305238183944257, error_tail=0.039738353063184406,'
        ' outer_radius=100000.0, warnings=())'),
    "cone n=1": (
        'CurvatureResult(value=3.5746038866092156, error_core=0.0,'
        ' error_midfield=0.0881174546635385, error_tail=0.005435838080085998,'
        ' outer_radius=100000.0, warnings=())'),
}


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("case", sorted(DIRECT_BLOCK_PINS))
def test_direct_curvature_does_not_depend_on_the_block_size(case, block, monkeypatch):
    monkeypatch.setattr(oracle, "_BLOCK", block)
    body, point, n, alpha, seed = DIRECT_BLOCK_CASES[case]
    got = direct_curvature(body, point, n, alpha, _BLOCK_SAMPLES, seed=seed)
    assert repr(got) == DIRECT_BLOCK_PINS[case]


@pytest.mark.parametrize("n, alpha, message", [
    (1, 0.0, "order must lie strictly inside (0, 1), not 0.0"),
    (1, 1.0, "order must lie strictly inside (0, 1), not 1.0"),
    (1, 1.5, "order must lie strictly inside (0, 1), not 1.5"),
    (0, 0.5, "ambient graph dimension must be >= 1, not 0"),
])
def test_oracle_rejects_an_order_or_dimension_out_of_range(n, alpha, message):
    body = TwoLeaf(ConstantProfile(0.3))
    window = Box((-2.0,) * (n + 1), (2.0,) * (n + 1))
    with pytest.raises(ValueError, match=re.escape(message)):
        direct_curvature(body, [0.0] * n + [0.3], n, alpha)
    with pytest.raises(ValueError, match=re.escape(message)):
        relative_perimeter(body, window, n, alpha, samples=1000)
    with pytest.raises(ValueError, match=re.escape(message)):
        interaction_energy(Ball(0.5), ~Ball(1.0), window, n, alpha, samples=1000)
