import math

import numpy as np
import pytest

import fracsurf.barrier as barrier_mod
from fracsurf import (BarrierProfile, CurvatureResult, HomogeneityViolationError,
                      InvalidCutoffError, QuadratureConfig, build_barrier,
                      cone_constant, derived_seed, sweep_cone_constant,
                      verify_barrier)


def test_build_barrier_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        build_barrier(0.0)


def test_broken_blend_is_caught(monkeypatch):
    """The C^2 gate passes the true blend and fires on a slope jump."""
    assert build_barrier(0.2).epsilon == 0.2

    class KinkedProfile(BarrierProfile):
        def first_derivative(self, r):
            base = BarrierProfile.first_derivative(self, r)
            return base + (0.01 if r > 1.0 else 0.0)

    monkeypatch.setattr(barrier_mod, "BarrierProfile", KinkedProfile)
    with pytest.raises(InvalidCutoffError):
        build_barrier(0.2)


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


def test_sweep_reuses_the_per_epsilon_seeds():
    sweep = sweep_cone_constant([0.4, 0.2], 1, 0.5, seed=0)
    assert sweep.entries[0].value == cone_constant(0.4, 1, 0.5, seed=0).value
    assert sweep.entries[1].value == cone_constant(0.2, 1, 0.5, seed=0).value
    assert sweep.blow_up_trend
    assert sweep.monotone


def test_sweep_rejects_unsorted_grids():
    with pytest.raises(ValueError):
        sweep_cone_constant([0.2, 0.4], 1, 0.5)
    with pytest.raises(ValueError):
        sweep_cone_constant([0.2, 0.2], 1, 0.5)


def test_derived_seed_is_deterministic_and_tag_sensitive():
    assert derived_seed(0, "x", 0.5, 3) == derived_seed(0, "x", 0.5, 3)
    assert derived_seed(0, "x", 0.5, 3) != derived_seed(0, "x", 0.5, 4)
    assert derived_seed(0, "x", 0.5, 3) != derived_seed(1, "x", 0.5, 3)
    assert derived_seed(0, "y", 0.5, 3) != derived_seed(0, "x", 0.5, 3)
    assert derived_seed(0, "x", 0.5, 3) >= 0


def test_verify_barrier_positive_on_a_small_budget():
    rep = verify_barrier(0.05, 1, 0.5, min_samples=32,
                         bisect_eps0=False, check_shrink=False)
    assert rep.verdict == "POSITIVE"
    assert rep.min_margin > 0.0
    assert rep.notes == ()
    assert rep.far_agrees
    assert len(rep.samples) >= 32
    radii = [p.radius for p in rep.samples]
    assert min(radii) == 0.0
    assert max(radii) == pytest.approx(50.0)
    # knot refinement shows up as sample radii straddling both knots
    assert any(abs(r - 0.99) < 1e-9 for r in radii)
    assert any(abs(r - 2.01) < 1e-9 for r in radii)


def test_verify_barrier_margin_is_worst_case():
    rep = verify_barrier(0.05, 1, 0.5, min_samples=32,
                         bisect_eps0=False, check_shrink=False)
    assert rep.min_margin == pytest.approx(
        min(p.value - p.error for p in rep.samples))


def test_verify_barrier_goes_inconclusive_when_quadrature_is_starved():
    cfg = QuadratureConfig(max_subdivisions=2)
    rep = verify_barrier(0.05, 1, 0.5, config=cfg, min_samples=24,
                         bisect_eps0=False, check_shrink=False)
    assert rep.verdict == "INCONCLUSIVE"
    assert any("error target" in note for note in rep.notes)
    # each sample names its own misses, so the report shows which radii failed
    assert any("quadrature-above-target" in p.warnings for p in rep.samples)
    assert all(p.outer_radius >= cfg.truncation_radius for p in rep.samples)


def test_positivity_probe_reads_invalid_barriers_as_not_positive(monkeypatch):
    def invalid(*args, **kwargs):
        raise InvalidCutoffError("blend fails its C^2 check")

    evaluate = barrier_mod._evaluate_boundary
    monkeypatch.setattr(barrier_mod, "_evaluate_boundary", invalid)
    notes = []
    assert barrier_mod._positivity_probe(0.2, 1, 0.5, None, 16, notes) == (None, True)
    assert notes == ["positivity probe at epsilon = 0.2 failed: blend fails its C^2 check"]

    # through verify_barrier: only the probes at other heights fail, and
    # each failure leaves its height and reason in the report
    def invalid_below(epsilon, *args):
        if epsilon < 0.2:
            invalid()
        return evaluate(epsilon, *args)

    monkeypatch.setattr(barrier_mod, "_evaluate_boundary", invalid_below)
    rep = verify_barrier(0.2, 1, 0.5, min_samples=16, bisect_eps0=False)
    assert rep.shrink_consistent is False
    assert "positivity probe at epsilon = 0.1 failed: blend fails its C^2 check" in rep.notes


def test_positivity_probe_lets_faults_propagate(monkeypatch):
    """A bug must not silently read as 'not positive' and lower eps0."""
    def broken(*args, **kwargs):
        raise RuntimeError("fault in the evaluation")

    monkeypatch.setattr(barrier_mod, "_evaluate_boundary", broken)
    with pytest.raises(RuntimeError, match="fault in the evaluation"):
        barrier_mod._positivity_probe(0.2, 1, 0.5, None, 16, [])


def test_verify_barrier_reads_invalid_barriers_as_inconclusive(monkeypatch):
    def invalid(*args, **kwargs):
        raise InvalidCutoffError("blend fails its C^2 check")

    monkeypatch.setattr(barrier_mod, "_evaluate_boundary", invalid)
    rep = verify_barrier(0.2, 1, 0.5, min_samples=16, bisect_eps0=False,
                         check_shrink=False)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.samples == ()
    assert any(note.startswith("evaluation failed") for note in rep.notes)


def test_verify_barrier_lets_faults_propagate(monkeypatch):
    """A bug must surface, not hide behind an INCONCLUSIVE report."""
    def broken(*args, **kwargs):
        raise RuntimeError("fault in the evaluation")

    monkeypatch.setattr(barrier_mod, "_evaluate_boundary", broken)
    with pytest.raises(RuntimeError, match="fault in the evaluation"):
        verify_barrier(0.2, 1, 0.5, min_samples=16, bisect_eps0=False,
                       check_shrink=False)


def test_verify_barrier_report_holds_python_types():
    rep = verify_barrier(0.05, 1, 0.5, min_samples=16, bisect_eps0=False)
    assert type(rep.shrink_consistent) is bool
    assert type(rep.far_agrees) is bool
    assert type(rep.min_margin) is float
    assert all(type(p.value) is float and type(p.error) is float for p in rep.samples)
