import tracemalloc

import numpy as np
import pytest

from fracsurf import (Ball, Body, Box, Complement, ConstantProfile, DisjointnessError,
                      HalfSpace, Scaled, TwoLeaf, interaction_energy, oracle,
                      relative_perimeter)

WINDOW = Box((-2.0, -2.0), (2.0, 2.0))
# the window padded by half its diameter: relative_perimeter's base-point box
PAD = 0.5 * WINDOW.diameter
PADDED = Box((-2.0 - PAD,) * 2, (2.0 + PAD,) * 2)

# boxes are closed, but their boundaries have measure zero: no sample lands there
UPPER = Box((-1.5, 0.1), (1.5, 1.5))
LOWER = Box((-1.5, -1.5), (1.5, -0.1))
TOP_HALF = Box((-2.0, 0.0), (2.0, 2.0))


def test_energy_is_symmetric_for_windowed_regions():
    ab = interaction_energy(UPPER, LOWER, WINDOW, 1, 0.5,
                            samples=400000, seed=1)
    ba = interaction_energy(LOWER, UPPER, WINDOW, 1, 0.5,
                            samples=400000, seed=2)
    assert abs(ab.value - ba.value) <= ab.error + ba.error
    assert ab.value == pytest.approx(ba.value, rel=0.15)


def test_energy_decays_with_separation():
    near = interaction_energy(UPPER, LOWER, WINDOW, 1, 0.5,
                              samples=400000, seed=1)
    far_bar = Box((-1.5, -1.5), (1.5, -0.6))
    far = interaction_energy(UPPER, far_bar, WINDOW, 1, 0.5,
                             samples=400000, seed=3)
    assert near.value - near.error > far.value + far.error


def test_overlapping_regions_are_rejected():
    with pytest.raises(DisjointnessError):
        interaction_energy(Ball(1.0), HalfSpace(0.0),
                           WINDOW, 1, 0.5, samples=1000, seed=0)


def test_cut_radii_track_the_window():
    res = interaction_energy(UPPER, LOWER, WINDOW, 1, 0.5,
                             samples=1000, seed=0)
    diam = WINDOW.diameter
    assert res.near_cut == pytest.approx(1e-4 * diam)
    assert res.far_cut == pytest.approx(4.0 * diam)


def test_window_dimension_must_match():
    with pytest.raises(ValueError):
        interaction_energy(UPPER, LOWER, Box((-1.0,), (1.0,)), 1, 0.5)


def test_body_algebra():
    pts = np.array([[0.0, 0.5], [0.0, -0.5], [0.0, 1.8]])
    both = UPPER & TOP_HALF
    np.testing.assert_array_equal(both.contains(pts), [True, False, False])
    neg = ~UPPER
    assert neg == Complement(UPPER)
    np.testing.assert_array_equal(neg.contains(pts), [False, True, True])
    diff = TOP_HALF - UPPER
    np.testing.assert_array_equal(diff.contains(pts), [False, False, True])
    for combined in (both, neg, diff, Ball(1.0) & WINDOW, WINDOW - Ball(1.0)):
        assert isinstance(combined, Body)


def test_perimeter_scaling_within_budget():
    n, alpha, lam = 1, 0.5, 2.0
    base = relative_perimeter(Ball(1.0), WINDOW, n, alpha,
                              samples=400000, seed=5)
    scaled = relative_perimeter(Scaled(Ball(1.0), lam), WINDOW.scaled(lam),
                                n, alpha, samples=400000, seed=6)
    pred = lam ** (n + 1 - alpha) * base.value
    assert abs(scaled.value - pred) <= scaled.error + lam ** (n + 1 - alpha) * base.error
    assert scaled.value == pytest.approx(pred, rel=0.25)


def test_perimeter_same_seed_scaling_is_exact():
    """The sampler is scale equivariant by construction, so reusing the seed
    reproduces the power law to machine precision (which is also why the
    statistical scaling test above must use distinct seeds)."""
    n, alpha, lam = 1, 0.5, 2.0
    base = relative_perimeter(Ball(1.0), WINDOW, n, alpha,
                              samples=100000, seed=5)
    scaled = relative_perimeter(Scaled(Ball(1.0), lam), WINDOW.scaled(lam),
                                n, alpha, samples=100000, seed=5)
    assert scaled.value == pytest.approx(lam ** (n + 1 - alpha) * base.value,
                                         rel=1e-12)


def test_perimeter_of_contained_body_has_no_outer_part():
    """Ball(1) lies inside the window, so E - W is empty and the window never
    binds: on one seed the perimeter is exactly the energy between the ball
    and its complement over the window padded by half its diameter."""
    res = relative_perimeter(Ball(1.0), WINDOW, 1, 0.5,
                             samples=100000, seed=5)
    inner = interaction_energy(Ball(1.0), ~Ball(1.0), PADDED, 1, 0.5,
                               samples=100000, seed=5)
    assert res.value > 0.0
    assert res == inner


def test_perimeter_is_the_sum_of_its_three_energies():
    """Per(E, W) = L(E & W, ~E & W) + L(E & W, ~E - W) + L(E - W, ~E & W),
    each term over the padded window on its own seed."""
    body = TwoLeaf(ConstantProfile(0.3))
    res = relative_perimeter(body, WINDOW, 1, 0.5, samples=400000, seed=21)
    terms = [interaction_energy(first, second, PADDED, 1, 0.5, samples=400000, seed=s)
             for s, (first, second) in enumerate([(body & WINDOW, ~body & WINDOW),
                                                  (body & WINDOW, ~body - WINDOW),
                                                  (body - WINDOW, ~body & WINDOW)])]
    assert abs(res.value - sum(t.value for t in terms)) <= res.error + sum(t.error for t in terms)
    assert res.error < sum(t.error for t in terms)


def test_perimeter_keeps_only_the_radii_whole():
    """Holding all 400 000 pairs peaked at 42e6 bytes, and keeping radii and
    indicator whole at 9.8e6; the radii alone are 3.2e6, and counting each
    block's hits peaks at 6.1e6."""
    tracemalloc.start()
    try:
        relative_perimeter(TwoLeaf(ConstantProfile(0.3)), Box((-2, -2), (2, 2)), 1, 0.5,
                           samples=400_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


# repr results of the whole-array sampler, from tests/make_oracle_references.py;
# the 0/1 closed form of the error moved the energy's by 1 ulp (from
# 2.818431458830922)
ENERGY_BLOCK_CASES = {
    "perimeter n=1": lambda: relative_perimeter(TwoLeaf(ConstantProfile(0.3)), WINDOW, 1, 0.5,
                                                samples=5003, seed=31),
    "perimeter n=2": lambda: relative_perimeter(Ball(0.8), Box((-1.0,) * 3, (1.0,) * 3), 2,
                                                0.35, samples=5003, seed=32),
    "energy": lambda: interaction_energy(UPPER, LOWER, WINDOW, 1, 0.5, samples=5003, seed=33),
}
ENERGY_BLOCK_PINS = {
    "perimeter n=1": (
        'EnergyResult(value=20.496599678733343, error=17.033732652256823,'
        ' near_cut=0.001365685424949238, far_cut=54.62741699796952)'),
    "perimeter n=2": (
        'EnergyResult(value=20.803849763693975, error=23.575196142436244,'
        ' near_cut=0.0009464101615137756, far_cut=37.85640646055102)'),
    "energy": (
        'EnergyResult(value=2.101575239326889, error=2.8184314588309216,'
        ' near_cut=0.000565685424949238, far_cut=22.627416997969522)'),
}


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("case", sorted(ENERGY_BLOCK_PINS))
def test_pair_estimates_do_not_depend_on_the_block_size(case, block, monkeypatch):
    monkeypatch.setattr(oracle, "_BLOCK", block)
    assert repr(ENERGY_BLOCK_CASES[case]()) == ENERGY_BLOCK_PINS[case]
