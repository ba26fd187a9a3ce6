"""Tests of the benchmark's own checks: each must reject a wrong input.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from scipy import integrate

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import fracsurf  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import (barrier_report_ok, blowdown_report_ok, derived_seed,  # noqa: E402
                    exactly_zero, geometric_mean, nearest_rank, rays_agree,
                    scales_as, slab_curvature, slide_outcome_ok,
                    sqrt_envelope_radius, within_error)
from tracer import Tracer  # noqa: E402
from workloads import CliRun, Verdict  # noqa: E402

NAN = float("nan")


def result(value, error):
    return fracsurf.CurvatureResult(value=value, error_core=0.0, error_midfield=0.0,
                                    error_tail=error, outer_radius=1e3)


def test_slab_closed_form_matches_kernel_mass_integral():
    # n = 1: twice the kernel mass of {y_2 > 2h}; in polar coordinates the
    # radial part is (2h / sin theta)^-a / a, leaving one angular integral
    h, alpha = 0.3, 0.5
    mass, _ = integrate.quad(lambda th: (2.0 * h / math.sin(th)) ** -alpha / alpha,
                             0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
    assert slab_curvature(1, alpha, h) == pytest.approx(2.0 * mass, rel=1e-10)


def test_within_error_rejects_shift_by_twice_the_error_and_nan():
    ref, err = slab_curvature(2, 0.5, 0.3), 0.01
    assert within_error(ref - 0.5 * err, err, ref)
    assert not within_error(ref - 2.0 * err, err, ref)
    assert not within_error(NAN, err, ref)
    assert not within_error(ref, NAN, ref)


def test_half_space_must_be_exactly_zero():
    assert exactly_zero(0.0)
    assert not exactly_zero(1e-300)
    assert not exactly_zero(NAN)


def test_scales_as_rejects_wrong_power_and_nan():
    value, err, alpha = 20.0, 0.01, 0.5
    assert scales_as(value, err, 2 ** -alpha * value, err, 2 ** -alpha)
    assert not scales_as(value, err, 2 ** -0.2 * value, err, 2 ** -alpha)
    assert not scales_as(NAN, err, 1.0, err, 2 ** -alpha)
    # slack widens the budget, as for the perimeter law
    assert scales_as(1.0, 0.1, 2.5, 0.1, 2.0, slack=3.0)
    assert not scales_as(1.0, 0.1, 2.5, 0.1, 2.0)


def test_rays_agree_fails_every_ray_in_a_disagreeing_pair():
    assert rays_agree([(13.333, 0.002), (13.334, 0.002), (13.332, 0.002)]) == [True] * 3
    assert rays_agree([(13.333, 0.002), (13.40, 0.002), (13.332, 0.002)]) == [False] * 3
    assert rays_agree([(13.333, 0.002), (13.336, 0.002), (13.338, 0.002)]) == [False, True, False]
    assert rays_agree([(NAN, 0.1), (1.0, 0.1), (1.0, 0.1)])[0] is False


def report(**changes):
    rep = {"verdict": "POSITIVE", "samples": [{"H": 5.0, "err": 0.1}, {"H": 3.0, "err": 0.2}],
           "min_margin": 2.8, "cone_value": 13.3, "cone_error": 0.2}
    rep.update(changes)
    return rep


def test_barrier_report_checks():
    assert barrier_report_ok(report(), 13.3333, 0.002)[0]
    assert not barrier_report_ok(report(verdict="NOT_POSITIVE"), 13.3333, 0.002)[0]
    assert not barrier_report_ok(report(min_margin=2.9), 13.3333, 0.002)[0]
    assert not barrier_report_ok(report(cone_value=12.9), 13.3333, 0.002)[0]
    assert not barrier_report_ok(report(cone_value=NAN), 13.3333, 0.002)[0]


def test_slide_and_blowdown_checks():
    assert slide_outcome_ok({"verdict": "TOUCH_FOUND", "H_at_touch": 2.0, "err": 0.1})[0]
    assert not slide_outcome_ok({"verdict": "TOUCH_FOUND", "H_at_touch": 0.1, "err": 0.2})[0]
    assert not slide_outcome_ok({"verdict": "RIGIDITY_MECHANISM_CONFIRMED"})[0]
    good = {"passed": True, "R": 100.0, "R_eps_predicted": 100.0}
    assert sqrt_envelope_radius(0.1) == pytest.approx(100.0, rel=1e-12)
    assert blowdown_report_ok(good, 0.1, 100.0)[0]
    assert not blowdown_report_ok(dict(good, R_eps_predicted=101.0), 0.1, 100.0)[0]
    assert not blowdown_report_ok(dict(good, passed=False), 0.1, 100.0)[0]


def test_statistics_helpers():
    assert geometric_mean([1e-2, 1e-4]) == pytest.approx(1e-3)
    assert nearest_rank(range(1, 11), 0.8) == 8
    assert nearest_rank([3.0, 1.0, 2.0], 0.8) == 3.0


def test_seed_derivation_matches_the_program():
    assert derived_seed(7, "quad-grid") == fracsurf.derived_seed(7, "quad-grid")


def fake_quad_outputs(work):
    out = {}
    for key, m in work.meta.items():
        if m["kind"] == "slab":
            ref = slab_curvature(m["n"], m["alpha"], m["h"])
            out[key] = result(ref - 0.9 * 0.01, 0.01)
        elif m["kind"] == "barrier":
            out[key] = result(10.0, 0.01)
        elif m["kind"] == "twin":
            out[key] = result(2.0 ** -m["alpha"] * 10.0, 0.01)
        elif m["kind"] == "cone":
            out[key] = result(13.3333 / m["norm"] ** 0.5, 1e-4)
        else:
            out[key] = result(0.0, 1e-9)
    return out


def test_quad_grid_judge(tmp_path):
    work = workloads.quad_grid(3, tmp_path)
    out = fake_quad_outputs(work)
    assert all(v.ok for v in work.judge(out).values())
    assert set(work.judge(out)) == set(out)

    slab = "slab n=2 a=0.5"
    m = work.meta[slab]
    out[slab] = result(slab_curvature(2, 0.5, m["h"]) - 0.02, 0.01)
    apex = "barrier n=2 a=0.8 apex"
    out[apex] = fracsurf.CurvatureResult(NAN, NAN, 0.0, 0.1, 1e3, ("tail-above-target",))
    plateau = "barrier n=1 a=0.5 plateau"
    out[plateau] = result(NAN, 0.01)
    twin = "twin of barrier n=3 a=0.2 blend"
    out[twin] = result(2.0 ** -0.5 * 10.0, 0.01)
    out["half-space"] = result(1e-12, 1e-9)
    verdicts = work.judge(out)
    failed = {k for k, v in verdicts.items() if not v.ok}
    assert failed == {slab, apex, f"twin of {apex}", plateau, f"twin of {plateau}",
                      twin, "barrier n=3 a=0.2 blend", "half-space"}
    assert verdicts[apex].known_fault
    assert not verdicts[plateau].known_fault
    assert not verdicts[slab].known_fault
    assert work.fault_ops == {f"{p}barrier n={n} a={a} apex" for p in ("", "twin of ")
                              for n in (2, 3) for a in (0.2, 0.5, 0.8)}


def test_oracle_judge_rejects_wrong_scaling(tmp_path):
    work = workloads.oracle_mc(3, tmp_path)
    ref, _ = workloads.cone_reference(0.2, 1, 0.5)
    out = {}
    for key, m in work.meta.items():
        if m["kind"] == "half-space":
            out[key] = result(0.0, 0.1)
        elif m["kind"] == "cone":
            out[key] = SimpleNamespace(value=ref - 0.05, error=0.2, entries=())
        elif m["kind"] == "perimeter":
            out[key] = SimpleNamespace(value=10.0 * m["lam"] ** 1.5, error=0.01)
        else:
            out[key] = result(5.0 * m["lam"] ** m["power"], 0.01)
    assert all(v.ok for v in work.judge(out).values())
    out["perimeter x2"] = SimpleNamespace(value=10.0 * 2.0 ** 2.0, error=0.01)
    out["slab n=1 a=0.2 x2"] = result(5.0 * 2.0 ** -0.5, 0.01)
    out["cone constant"] = SimpleNamespace(value=ref - 0.5, error=0.2, entries=())
    failed = {k for k, v in work.judge(out).items() if not v.ok}
    assert failed == {"perimeter x1", "perimeter x2", "slab n=1 a=0.2 x1",
                      "slab n=1 a=0.2 x2", "cone constant"}


def test_barrier_audit_judge(tmp_path):
    work = workloads.barrier_audit(3, tmp_path / "audit")
    slide = b'{"verdict": "TOUCH_FOUND", "H_at_touch": 271.0, "err": 0.03}'
    blow = b'{"passed": true, "R": 100.0, "R_eps_predicted": 100.0}'
    out = {"barrier-verify": CliRun(1, "error: Object of type bool is not JSON serializable", {}),
           "slide": CliRun(0, "", {"outcome.json": slide}),
           "blowdown": CliRun(0, "", {"report.json": blow})}
    verdicts = work.judge(out)
    assert not verdicts["barrier-verify"].ok and verdicts["barrier-verify"].known_fault
    assert verdicts["slide"].ok and verdicts["blowdown"].ok
    out["barrier-verify"] = CliRun(2, "", {})
    out["slide"] = CliRun(0, "", {"outcome.json": slide.replace(b"271.0", b"0.01")})
    verdicts = work.judge(out)
    assert not verdicts["barrier-verify"].known_fault
    assert not verdicts["slide"].ok
    work.cleanup()
    assert not (tmp_path / "audit").exists()


def test_rounds_that_differ_fail():
    work = SimpleNamespace(judge=lambda out: {k: Verdict(True) for k in out},
                           fingerprint=repr)
    rounds = [[("a", 0.1, 1.0), ("b", 0.1, 2.0)], [("a", 0.1, 1.0), ("b", 0.1, 2.5)]]
    verdicts = run.judge_rounds(work, rounds)
    assert [(i, k) for i, k, v in verdicts if not v.ok] == [(1, "b")]


def test_tracer_self_time_and_counters():
    tracer = Tracer()
    import time

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer.wrap("config.inner", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    tracer.wrap("cli.outer", outer)()
    self_s = tracer.self_seconds()
    assert 0.009 < self_s["cli"] < 0.018
    assert 0.019 < self_s["config"] < 0.03
    assert tracer.span_count() == 2


def test_tracer_wraps_and_restores_the_program():
    original = fracsurf.two_leaf_curvature
    value = fracsurf.kernelfn.SliceIntegral.value
    tracer = Tracer().install()
    try:
        assert fracsurf.curvature.graph_curvature is not original
        res = fracsurf.two_leaf_curvature(fracsurf.ConstantProfile(0.3), 0.5, 1, 0.5)
    finally:
        tracer.uninstall()
    assert fracsurf.two_leaf_curvature is original
    assert fracsurf.kernelfn.SliceIntegral.value is value
    c = tracer.counters
    assert c["curvature.points"] == 1
    assert c["kernelfn.calls"] > 100
    assert c["kernelfn.calls"] < c["kernelfn.elems"] <= 2 * c["kernelfn.calls"]
    assert c["profiles.array_calls"] > 0 and c["profiles.scalar_calls"] > 2000
    assert c["barrier.points_evaluated"] == 0
    self_s = tracer.self_seconds()
    assert self_s["kernelfn"] > 0.0 and self_s["curvature"] > 0.0
    assert res.value > 0.0


def test_calibration_handler_leaves_interrupted_quadrature_unchanged():
    from calibrate import Calibrator

    def integrand(t):
        return math.exp(-t) * math.sin(50.0 * t)

    expected = integrate.quad(integrand, 0.0, 40.0, limit=500, epsabs=0.0, epsrel=1e-10)
    with Calibrator(period=0.001) as cal:
        start = cal.clock()
        got = [integrate.quad(integrand, 0.0, 40.0, limit=500, epsabs=0.0, epsrel=1e-10)
               for _ in range(20)]
        elapsed = cal.clock() - start
    assert len(cal.samples) > 0
    assert all(g == expected for g in got)
    assert elapsed > 0.0
