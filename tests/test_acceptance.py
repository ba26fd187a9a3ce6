"""End-to-end acceptance gate.

One test per criterion, each printing a single [PASS]/[FAIL] line with its
wall time so a full run reads as a checklist.  Tolerances are asserted
exactly as stated; runtime ceilings are asserted where one is stated.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate

from fracsurf import (Ball, ConstantProfile, DilatedGraphProfile,
                      HalfSpace, NotSublinearError, PiecewisePolyProfile,
                      SliceIntegral, SqrtProfile, TwoLeaf, Box,
                      derived_seed, direct_curvature, flatness_certificate,
                      holder_rescaling_check, relative_perimeter,
                      rescale_for_slide, slide, subgraph_curvature,
                      sweep_cone_constant, two_leaf_curvature, verify_barrier,
                      BarrierProfile, Scaled)
from fracsurf.cli import main as cli_main


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    elapsed = time.monotonic() - t0
    print(f"[PASS] criterion {num}: {label} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} ran {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_slice_integral_suite():
    with criterion(1, "slice integral: odd, 1-Lipschitz, limit vs quadrature",
                   budget=1.0):
        rng = np.random.default_rng(42)
        for n, alpha in [(1, 0.5), (1, 0.2), (1, 0.8), (2, 0.5), (3, 0.35)]:
            F = SliceIntegral(n, alpha)
            for t in (0.1, 1.0, 10.0):
                assert abs(F.value(t) + F.value(-t)) <= 1e-12
            pairs = rng.uniform(-30.0, 30.0, size=(100, 2))
            for t1, t2 in pairs:
                assert (abs(F.value(float(t1)) - F.value(float(t2)))
                        <= abs(t1 - t2) + 1e-10)
            power = 0.5 * (n + 1 + alpha)
            # u = sinh(xi) makes the integrand smooth with exponential decay,
            # so the quadrature error estimate drops to machine precision
            oracle, err = integrate.quad(
                lambda xi: math.cosh(xi) ** (1.0 - 2.0 * power), 0.0, 40.0,
                epsabs=1e-13, epsrel=1e-13)
            assert err < 1e-12
            assert F.limit == pytest.approx(oracle, abs=1e-10)


def test_criterion_2_half_space_zero():
    with criterion(2, "half space flat on both evaluation paths", budget=10.0):
        for alpha in (0.2, 0.5, 0.8):
            res = subgraph_curvature(ConstantProfile(0.7), 1.5, 1, alpha)
            assert abs(res.value) <= 1e-6
            direct = direct_curvature(HalfSpace(0.7), [1.5, 0.7], 1, alpha,
                                      seed=derived_seed(0, "hs", alpha))
            assert abs(direct.value) <= 1e-6


def test_criterion_3_scaling_law():
    with criterion(3, "dilation scales curvature by the fractional power"):
        n, alpha = 1, 0.5
        barrier = BarrierProfile(0.2)
        for lam in (0.5, 2.0):
            scaled = DilatedGraphProfile(barrier, 1.0 / lam)
            for r in (0.7, 2.5):
                h1 = two_leaf_curvature(barrier, r, n, alpha)
                h2 = two_leaf_curvature(scaled, lam * r, n, alpha)
                rel = abs(h2.value - lam ** (-alpha) * h1.value) / abs(h1.value)
                assert rel <= 1e-3
        base_pt = [0.0, 1.0]
        h1 = direct_curvature(Ball(1.0), base_pt, n, alpha,
                              seed=derived_seed(0, "ball", 1.0))
        for lam in (0.5, 2.0):
            h2 = direct_curvature(Ball(lam), [0.0, lam], n, alpha,
                                  seed=derived_seed(0, "ball", lam))
            dev = abs(h2.value - lam ** (-alpha) * h1.value)
            budget = 2.0 * (h2.total_error + lam ** (-alpha) * h1.total_error)
            assert dev <= budget


def test_criterion_4_formula_oracle_equivalence():
    with criterion(4, "deterministic formula matches sampling oracle on the "
                      "barrier boundary", budget=300.0):
        eps = 0.2
        profile = BarrierProfile(eps)
        body = TwoLeaf(profile)
        radii = (0.0, 0.5, 1.5, 2.5, 10.0)
        for alpha in (0.2, 0.5, 0.8):
            for i, r in enumerate(radii):
                form = two_leaf_curvature(profile, r, 1, alpha)
                point = [r, profile.value(r)]
                orac = direct_curvature(body, point, 1, alpha,
                                        seed=derived_seed(0, "x", alpha, i))
                dev = abs(form.value - orac.value)
                budget = form.total_error + orac.total_error
                assert dev <= budget, (
                    f"alpha={alpha} r={r}: gap {dev} above {budget}")


def test_criterion_5_cone_homogeneity_and_blow_up():
    with criterion(5, "cone constant is ray independent and grows as the "
                      "opening flattens", budget=300.0):
        sweep = sweep_cone_constant([0.4, 0.2, 0.1, 0.05], 1, 0.5)
        for rep in sweep.entries:
            for i in range(len(rep.entries)):
                for j in range(i + 1, len(rep.entries)):
                    gap = abs(rep.entries[i][1] - rep.entries[j][1])
                    assert gap <= 3.0 * (rep.entries[i][2] + rep.entries[j][2])
        values = [rep.value for rep in sweep.entries]
        errors = [rep.error for rep in sweep.entries]
        for k in range(len(values) - 1):
            assert values[k + 1] - values[k] > errors[k + 1] + errors[k]
        assert sweep.blow_up_trend


def test_criterion_6_barrier_positivity_at_bisected_height():
    with criterion(6, "curvature stays positive over the barrier boundary at "
                      "the bisected starting height", budget=600.0):
        probe = verify_barrier(0.2, 1, 0.5, min_samples=200,
                               bisect_eps0=True, check_shrink=False)
        eps0 = probe.empirical_eps0
        assert eps0 > 0.0
        report = verify_barrier(eps0, 1, 0.5, min_samples=200,
                                bisect_eps0=False, check_shrink=False)
        assert report.verdict == "POSITIVE"
        assert report.min_margin > 0.0
        assert len(report.samples) >= 200


def test_criterion_7_sliding_mechanism():
    with criterion(7, "sliding confirms rigidity, reports interior touch, "
                      "and rejects linear growth"):
        env = ConstantProfile(1.0)
        plan = rescale_for_slide(env, 0.05)
        empty = slide(ConstantProfile(0.0), plan.lam, plan.eps0, 1, 0.5)
        assert empty.verdict == "RIGIDITY_MECHANISM_CONFIRMED"
        slab = slide(ConstantProfile(0.1), plan.lam, plan.eps0, 1, 0.5)
        assert slab.verdict == "TOUCH_FOUND"
        assert slab.curvature.value > 0.0
        with pytest.raises(NotSublinearError):
            rescale_for_slide(PiecewisePolyProfile((), [(0.0, (1.0, 1.0))]), 0.05)


def test_criterion_8_perimeter_scaling():
    with criterion(8, "relative perimeter follows the dilation power law"):
        n, alpha, lam = 1, 0.5, 2.0
        body = TwoLeaf(ConstantProfile(0.3))
        window = Box((-2.0, -2.0), (2.0, 2.0))
        base = relative_perimeter(body, window, n, alpha,
                                  samples=400000, seed=21)
        scaled = relative_perimeter(Scaled(body, lam), window.scaled(lam),
                                    n, alpha, samples=400000, seed=22)
        pred = lam ** (n + 1 - alpha) * base.value
        dev = abs(scaled.value - pred)
        budget = 3.0 * (scaled.error + lam ** (n + 1 - alpha) * base.error)
        assert dev <= budget


def test_criterion_9_blowdown_certificates():
    with criterion(9, "flatness passes exactly from the predicted radius and "
                      "the rescaled seminorm identity holds"):
        env = SqrtProfile(1.0)
        passing = flatness_certificate(SqrtProfile(1.0), env, 0.1, 100.0)
        assert passing.passed
        assert passing.R_eps_predicted == pytest.approx(100.0, rel=1e-9)
        failing = flatness_certificate(SqrtProfile(1.0), env, 0.1, 50.0)
        assert not failing.passed
        assert failing.sup - failing.epsilon > 1e-3

        from fracsurf import BumpProfile, PiecewisePolyProfile
        fixtures = [
            (SqrtProfile(1.0), 10.0),
            (PiecewisePolyProfile(
                (4.0,),
                [(0.0, (0.0, 0.0, 1.0, 0.0, -3.0 / 16.0, 0.0, 3.0 / 256.0,
                        0.0, -1.0 / 4096.0)),
                 (4.0, (0.0,))]), 10.0),
            (BumpProfile(0.5, 3.0), 8.0),
        ]
        for profile, R in fixtures:
            rep = holder_rescaling_check(profile, R)
            assert rep.lhs == pytest.approx(rep.rhs, rel=1e-2)


ACCEPT_INI = """\
[run]
n = 1
alpha = 0.5
seed = 3

[curvature]
geometry = twoleaf
kind = barrier
epsilon = 0.2
method = formula
points = 0.5,2.5,10.0

[barrier-verify]
epsilon = 0.2
samples = 16
bisect = false
check_shrink = false

[cone-sweep]
epsilons = 0.4,0.2

[slide]
eps0 = 0.05
envelope_kind = constant
envelope_level = 1.0
candidate_kind = constant
candidate_level = 0.1

[blowdown]
kind = sqrt
scale = 1.0
epsilon = 0.1
R = 100.0
holder_R = 5.0,10.0,20.0
envelope_kind = sqrt
envelope_scale = 1.0

[perimeter]
kind = constant
level = 0.3
window = 2.0
scales = 1.0,2.0
samples = 100000
"""


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every command writes byte-identical outputs on rerun"):
        cfg = tmp_path / "accept.ini"
        cfg.write_text(ACCEPT_INI)
        for command in ("curvature", "barrier-verify", "cone-sweep", "slide",
                        "blowdown", "perimeter"):
            out1 = tmp_path / "one" / command
            out2 = tmp_path / "two" / command
            code1 = cli_main([command, "--config", str(cfg), "--out", str(out1)])
            code2 = cli_main([command, "--config", str(cfg), "--out", str(out2)])
            assert code1 == code2 == 0, command
            names = sorted(p.name for p in out1.iterdir())
            assert names == sorted(p.name for p in out2.iterdir())
            for name in names:
                assert ((out1 / name).read_bytes()
                        == (out2 / name).read_bytes()), f"{command}/{name}"
