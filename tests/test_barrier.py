import dataclasses
import math

import numpy as np
import pytest

import fracsurf.barrier as barrier_mod
from fracsurf import (BarrierProfile, CurvatureResult, HomogeneityViolationError,
                      LinearProfile, NonSmoothPointError, QuadratureConfig,
                      cone_constant, derived_seed, sweep_cone_constant,
                      two_leaf_curvature, verify_barrier)


def test_barrier_profile_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        BarrierProfile(0.0)


def test_barrier_profile_rejects_infinite_epsilon():
    with pytest.raises(ValueError, match="finite"):
        BarrierProfile(math.inf)


def test_cone_constant_regression_and_ray_agreement():
    rep = cone_constant(0.2, 1, 0.5, seed=0)
    assert rep.value == pytest.approx(13.261142775177033, rel=1e-12)
    assert rep.error == pytest.approx(0.21856071236567814, rel=1e-12)
    assert len(rep.entries) == 3
    for i in range(len(rep.entries)):
        for j in range(i + 1, len(rep.entries)):
            gap = abs(rep.entries[i][1] - rep.entries[j][1])
            assert gap <= 3.0 * (rep.entries[i][2] + rep.entries[j][2])


def test_cone_constant_grows_as_the_slope_shrinks():
    wide = cone_constant(0.4, 1, 0.5, seed=0)
    narrow = cone_constant(0.2, 1, 0.5, seed=0)
    assert narrow.value - narrow.error > wide.value + wide.error


def test_homogeneity_guard_fires_on_inconsistent_samples(monkeypatch):
    real = barrier_mod.direct_curvature

    def skewed(body, point, n, alpha, config=None, seed=0):
        res = real(body, point, n, alpha, config, seed=seed)
        bump = 100.0 if float(np.linalg.norm(point)) > 6.0 else 0.0
        return CurvatureResult(value=res.value + bump,
                               error_core=res.error_core,
                               error_midfield=res.error_midfield,
                               error_tail=res.error_tail,
                               outer_radius=res.outer_radius,
                               warnings=res.warnings)

    monkeypatch.setattr(barrier_mod, "direct_curvature", skewed)
    with pytest.raises(HomogeneityViolationError):
        cone_constant(0.2, 1, 0.5, seed=0)


@pytest.mark.parametrize("n", [1, 2])
def test_sweep_entries_are_the_quadrature_rays(n):
    """Each entry is |x|^alpha times the quadrature cone curvature on the
    rays |x| = 2, 5, 10: their mean, their largest error, their warnings."""
    sweep = sweep_cone_constant([0.4, 0.2], n, 0.5)
    for entry, eps in zip(sweep.entries, (0.4, 0.2)):
        rays = []
        for m in (2.0, 5.0, 10.0):
            res = two_leaf_curvature(LinearProfile(eps), m / math.sqrt(1.0 + eps * eps), n, 0.5)
            rays.append((m, m ** 0.5 * res.value, m ** 0.5 * res.total_error))
            assert res.warnings == ()
        assert entry.epsilon == eps
        assert entry.entries == tuple(rays)
        assert entry.value == float(np.mean([ray[1] for ray in rays]))
        assert entry.error == max(ray[2] for ray in rays)
        assert entry.warnings == ()
    assert sweep.blow_up_trend
    assert sweep.monotone


def test_sweep_entries_carry_their_rays_warnings(monkeypatch):
    real = barrier_mod.two_leaf_curvature

    def warn_far(profile, radius, n, alpha):
        res = real(profile, radius, n, alpha)
        extra = ("far-ray",) if radius > 4.0 else ()
        return dataclasses.replace(res, warnings=res.warnings + extra + ("every-ray",))

    monkeypatch.setattr(barrier_mod, "two_leaf_curvature", warn_far)
    sweep = sweep_cone_constant([0.4, 0.2], 1, 0.5)
    assert [e.warnings for e in sweep.entries] == [("every-ray", "far-ray")] * 2


@pytest.mark.parametrize("constants, blow_up, monotone", [
    ((1.0, 2.0, 3.0), True, True),
    ((1.0, 1.005, 3.0), False, True),  # a rise inside the error bars
    ((1.0, 0.995, 3.0), False, False),
    ((1.0, 2.0, 1.5), False, False),
])
def test_sweep_flags_read_each_step_of_the_trend(constants, blow_up, monotone, monkeypatch):
    """Each cone constant is set per slope, with error bars of 0.01 on every
    ray: the blow-up flag needs every step to rise beyond both bars, the
    monotone flag only that no step falls."""
    table = dict(zip((0.4, 0.2, 0.1), constants))

    def cone(profile, radius, n, alpha, config=None):
        eps = profile.first_derivative(1.0)
        norm = radius * math.sqrt(1.0 + eps * eps)
        return CurvatureResult(value=table[eps] / norm ** alpha, error_core=0.01 / norm ** alpha,
                               error_midfield=0.0, error_tail=0.0)

    monkeypatch.setattr(barrier_mod, "two_leaf_curvature", cone)
    sweep = sweep_cone_constant([0.4, 0.2, 0.1], 1, 0.5)
    assert [e.value for e in sweep.entries] == pytest.approx(constants, rel=1e-12)
    assert (sweep.blow_up_trend, sweep.monotone) == (blow_up, monotone)


def _no_cone_evaluation(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a cone constant was evaluated before the grid check")

    monkeypatch.setattr(barrier_mod, "two_leaf_curvature", unreachable)


def test_sweep_rejects_unsorted_grids(monkeypatch):
    """The grid is checked before any cone constant is evaluated."""
    _no_cone_evaluation(monkeypatch)
    with pytest.raises(ValueError):
        sweep_cone_constant([0.2, 0.4], 1, 0.5)
    with pytest.raises(ValueError):
        sweep_cone_constant([0.2, 0.2], 1, 0.5)


@pytest.mark.parametrize("grid", [[0.2], []])
def test_sweep_rejects_fewer_than_two_slopes(grid, monkeypatch):
    """A trend read off one point or none is no trend."""
    _no_cone_evaluation(monkeypatch)
    with pytest.raises(ValueError, match="two or more slopes"):
        sweep_cone_constant(grid, 1, 0.5)


@pytest.mark.parametrize("grid, bad", [([math.inf, 0.2], "inf"), ([0.4, -0.2], "-0.2"),
                                       ([0.4, 0.0], "0.0"), ([0.4, math.nan], "nan")])
def test_sweep_rejects_slopes_that_are_not_finite_and_positive(grid, bad, monkeypatch):
    """Each slope is checked before any cone constant is evaluated."""
    _no_cone_evaluation(monkeypatch)
    with pytest.raises(ValueError, match=f"epsilons must be positive and finite, not {bad}"):
        sweep_cone_constant(grid, 1, 0.5)


def test_derived_seed_is_deterministic_and_tag_sensitive():
    assert derived_seed(0, "x", 0.5, 3) == derived_seed(0, "x", 0.5, 3)
    assert derived_seed(0, "x", 0.5, 3) != derived_seed(0, "x", 0.5, 4)
    assert derived_seed(0, "x", 0.5, 3) != derived_seed(1, "x", 0.5, 3)
    assert derived_seed(0, "y", 0.5, 3) != derived_seed(0, "x", 0.5, 3)
    assert derived_seed(0, "x", 0.5, 3) >= 0


@pytest.mark.parametrize("count, grid, ray", [(16, 16, 8), (200, 163, 25), (1000, 863, 125)])
def test_sample_radii_pin_the_grid_the_knot_offsets_and_the_ray(count, grid, ray):
    radii = barrier_mod._sample_radii(count)
    offsets = [k + d for k in (1.0, 2.0) for d in (-0.2, -0.05, -0.01, 0.01, 0.05, 0.2)]
    np.testing.assert_array_equal(radii, np.unique(np.concatenate(
        [np.linspace(0.0, 4.0, grid), offsets, np.geomspace(4.5, 50.0, ray)])))
    assert radii[0] == 0.0 and radii[-1] == 50.0
    assert len(radii[radii > 4.0]) == ray
    assert set(offsets) <= set(radii)
    # the grid over [0, 4] at 16 radii meets the offset 0.8 of the first knot
    assert len(radii) == {16: 35, 200: 200, 1000: 1000}[count]


@pytest.mark.parametrize("n", [1, 3])
def test_samples_sit_on_the_upper_leaf(n, monkeypatch):
    monkeypatch.setattr(barrier_mod, "two_leaf_curvature",
                        lambda *args: CurvatureResult(1.0, 0.0, 0.0, 0.0))
    notes = []
    pts, failed = barrier_mod._evaluate_boundary(0.1, n, 0.5, None, 16, notes)
    assert not failed and notes == []
    assert [point[0] for point, _ in pts] == list(barrier_mod._sample_radii(16))
    profile = BarrierProfile(0.1)
    for point, res in pts:
        assert point == (point[0],) + (0.0,) * (n - 1) + (profile.value(point[0]),)
        assert res == CurvatureResult(1.0, 0.0, 0.0, 0.0)
    heights = {point[0]: point[-1] for point, _ in pts}
    assert heights[0.0] == 0.1
    assert heights[2.01] == pytest.approx(0.201, rel=1e-15)
    assert heights[50.0] == pytest.approx(5.0, rel=1e-15)


def test_verify_barrier_positive_on_a_small_budget():
    rep = verify_barrier(0.05, 1, 0.5, min_samples=32,
                         bisect_eps0=False, check_shrink=False)
    assert rep.verdict == "POSITIVE"
    assert rep.min_margin > 0.0
    assert rep.notes == ()
    assert rep.far_agrees
    assert len(rep.samples) >= 32
    radii = [point[0] for point, _ in rep.samples]
    assert min(radii) == 0.0
    assert max(radii) == pytest.approx(50.0)
    # knot refinement shows up as sample radii straddling both knots
    assert any(abs(r - 0.99) < 1e-9 for r in radii)
    assert any(abs(r - 2.01) < 1e-9 for r in radii)


@pytest.mark.parametrize("count", [0, -3])
def test_verify_barrier_rejects_fewer_than_one_sample_by_name(count):
    """No silent fallback to the minimum grid of the sample radii."""
    with pytest.raises(ValueError, match=f"samples must be >= 1, not {count}"):
        verify_barrier(0.05, 1, 0.5, min_samples=count)


def test_verify_barrier_margin_is_worst_case():
    rep = verify_barrier(0.05, 1, 0.5, min_samples=32,
                         bisect_eps0=False, check_shrink=False)
    assert rep.min_margin == pytest.approx(
        min(res.value - res.total_error for _, res in rep.samples))


def test_verify_barrier_goes_inconclusive_when_quadrature_is_starved():
    cfg = QuadratureConfig(max_subdivisions=2)
    rep = verify_barrier(0.05, 1, 0.5, config=cfg, min_samples=24,
                         bisect_eps0=False, check_shrink=False)
    assert rep.verdict == "INCONCLUSIVE"
    assert any("error target" in note for note in rep.notes)
    # each sample names its own misses, so the report shows which radii failed
    assert any("quadrature-above-target" in res.warnings for _, res in rep.samples)
    assert all(res.outer_radius >= cfg.truncation_radius for _, res in rep.samples)


def non_smooth_below(height):
    """two_leaf_curvature that raises the package's error on barriers lower
    than ``height``, as at a non-smooth point, and evaluates all else."""
    def curvature(profile, *args):
        if profile.kind == "barrier" and profile.value(0.0) < height:
            raise NonSmoothPointError("profile is not smooth here")
        return two_leaf_curvature(profile, *args)
    return curvature


def broken(*args, **kwargs):
    raise RuntimeError("fault in the evaluation")


def test_positivity_probe_reads_invalid_barriers_as_not_positive(monkeypatch):
    monkeypatch.setattr(barrier_mod, "two_leaf_curvature", non_smooth_below(math.inf))
    notes = []
    assert barrier_mod._positivity_probe(0.2, 1, 0.5, None, 16, notes) is False
    assert notes == ["evaluation at epsilon = 0.2 failed: profile is not smooth here"]

    # through verify_barrier: only the probe at half the height fails, and
    # its failure leaves its height and reason in the report
    monkeypatch.setattr(barrier_mod, "two_leaf_curvature", non_smooth_below(0.2))
    rep = verify_barrier(0.2, 1, 0.5, min_samples=16, bisect_eps0=False)
    assert rep.samples and rep.shrink_consistent is False
    assert "evaluation at epsilon = 0.1 failed: profile is not smooth here" in rep.notes


def test_positivity_probe_lets_faults_propagate(monkeypatch):
    """A bug must not silently read as 'not positive' and lower eps0."""
    monkeypatch.setattr(barrier_mod, "two_leaf_curvature", broken)
    with pytest.raises(RuntimeError, match="fault in the evaluation"):
        barrier_mod._positivity_probe(0.2, 1, 0.5, None, 16, [])


def test_verify_barrier_reads_invalid_barriers_as_inconclusive(monkeypatch):
    monkeypatch.setattr(barrier_mod, "two_leaf_curvature", non_smooth_below(math.inf))
    rep = verify_barrier(0.2, 1, 0.5, min_samples=16, bisect_eps0=False,
                         check_shrink=False)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.samples == ()
    assert rep.notes == ("evaluation at epsilon = 0.2 failed: profile is not smooth here",)


def test_verify_barrier_lets_faults_propagate(monkeypatch):
    """A bug must surface, not hide behind an INCONCLUSIVE report."""
    monkeypatch.setattr(barrier_mod, "two_leaf_curvature", broken)
    with pytest.raises(RuntimeError, match="fault in the evaluation"):
        verify_barrier(0.2, 1, 0.5, min_samples=16, bisect_eps0=False,
                       check_shrink=False)


def test_verify_barrier_report_holds_python_types():
    rep = verify_barrier(0.05, 1, 0.5, min_samples=16, bisect_eps0=False)
    assert type(rep.shrink_consistent) is bool
    assert type(rep.far_agrees) is bool
    assert type(rep.min_margin) is float
    assert all(type(res.value) is float and type(res.total_error) is float
               for _, res in rep.samples)


def test_far_field_off_the_cone_is_noted(monkeypatch):
    real = barrier_mod.two_leaf_curvature

    def shifted(profile, radius, n, alpha, config=None):
        res = real(profile, radius, n, alpha, config)
        if profile.kind == "linear":
            return dataclasses.replace(res, value=res.value + 10.0 * res.total_error)
        return res

    monkeypatch.setattr(barrier_mod, "two_leaf_curvature", shifted)
    rep = verify_barrier(0.05, 1, 0.5, min_samples=32, bisect_eps0=False,
                         check_shrink=False)
    assert rep.verdict == "POSITIVE"
    assert rep.far_agrees is False
    assert rep.notes == ("far field disagrees with the cone; cone warnings: []",)


def test_far_field_check_fails_when_the_cone_point_warns():
    cfg = QuadratureConfig(max_subdivisions=2)
    rep = verify_barrier(0.05, 1, 0.5, config=cfg, min_samples=24,
                         bisect_eps0=False, check_shrink=False)
    assert rep.far_agrees is False
    cone_notes = [note for note in rep.notes if note.startswith("far field")]
    assert len(cone_notes) == 1 and "tail-above-target" in cone_notes[0]


def test_cone_value_is_the_scaled_cone_point_at_the_far_radius():
    rep = verify_barrier(0.05, 1, 0.5, min_samples=32, bisect_eps0=False,
                         check_shrink=False)
    far_point, far = max(rep.samples, key=lambda s: s[0][0])
    cone = two_leaf_curvature(LinearProfile(0.05), far_point[0], 1, 0.5)
    scale = float(np.linalg.norm(far_point)) ** 0.5
    assert rep.cone_value == pytest.approx(scale * cone.value, rel=1e-13)
    assert rep.cone_error == pytest.approx(scale * cone.total_error, rel=1e-13)
    assert rep.far_scaled == pytest.approx(scale * far.value, rel=1e-13)
