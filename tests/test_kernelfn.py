import time

import numpy as np
import pytest
from scipy import integrate

from fracsurf import SliceIntegral

# Reference values computed once with mpmath at 50 digits and frozen here.
# Keyed by (n, alpha): F(0.3), F(1.0), saturation limit.
FROZEN = {
    (1, 0.5): (0.28938912733757097, 0.74430307976049287, 1.1981402347355922),
    (1, 0.2): (0.2906265305581142, 0.76846151616921793, 1.3872509592420277),
    (1, 0.8): (0.28816123711965026, 0.72154700523783287, 1.067379859797442),
    (2, 0.5): (0.28533266699956926, 0.67336777706121951, 0.87401918476403994),
    (3, 0.35): (0.28196540247715895, 0.62287427522479124, 0.73706870252792161),
}


@pytest.mark.parametrize("n,alpha", sorted(FROZEN))
def test_frozen_values(n, alpha):
    f = SliceIntegral(n, alpha)
    v03, v10, vinf = FROZEN[(n, alpha)]
    assert f.value(0.3) == pytest.approx(v03, abs=1e-10)
    assert f.value(1.0) == pytest.approx(v10, abs=1e-10)
    assert f.limit == pytest.approx(vinf, abs=1e-10)


def test_oddness():
    f = SliceIntegral(1, 0.5)
    for t in (0.1, 1.0, 10.0):
        assert abs(f.value(t) + f.value(-t)) <= 1e-12


def test_lipschitz_on_random_pairs():
    f = SliceIntegral(1, 0.5)
    rng = np.random.default_rng(42)
    t1 = rng.uniform(-30.0, 30.0, 100)
    t2 = rng.uniform(-30.0, 30.0, 100)
    gaps = np.abs(f.value(t1) - f.value(t2))
    assert np.all(gaps <= np.abs(t1 - t2) + 1e-10)


def test_limit_against_quadrature():
    for n, alpha in sorted(FROZEN):
        f = SliceIntegral(n, alpha)
        power = 0.5 * (n + 1 + alpha)
        ref, err = integrate.quad(lambda u, p=power: (1.0 + u * u) ** (-p),
                                  0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-11
        assert f.limit == pytest.approx(ref, abs=1e-10)


def test_suite_runtime_budget():
    start = time.time()
    f = SliceIntegral(1, 0.5)
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-20, 20, (100, 2))
    assert np.all(np.abs(f.value(pairs[:, 0]) - f.value(pairs[:, 1]))
                  <= np.abs(pairs[:, 0] - pairs[:, 1]) + 1e-10)
    for t in (0.1, 1.0, 10.0):
        assert abs(f.value(t) + f.value(-t)) <= 1e-12
    ref, _ = integrate.quad(lambda u: (1.0 + u * u) ** (-1.25), 0.0, np.inf)
    assert f.limit == pytest.approx(ref, abs=1e-10)
    assert time.time() - start < 1.0


def test_monotone_and_bounded():
    f = SliceIntegral(2, 0.5)
    ts = np.linspace(-50.0, 50.0, 501)
    vals = f.value(ts)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(np.abs(vals) < f.limit)


def test_saturation_and_infinities():
    f = SliceIntegral(1, 0.5)
    assert f.value(np.inf) == f.limit
    assert f.value(-np.inf) == -f.limit
    assert f.value(1e200) == pytest.approx(f.limit, abs=1e-15)
    assert f.value(0.0) == 0.0


@pytest.mark.parametrize("n,alpha", [(1, 0.5), (2, 0.2), (3, 0.8)])
def test_saturation_is_exact_beyond_the_clamp(n, alpha):
    """From |t| = 1e150 on, where t^2 would overflow, F is exactly its limit."""
    f = SliceIntegral(n, alpha)
    big = np.array([1e150, np.nextafter(1e150, np.inf), 1.3e154, 1.4e154, 1e200, np.inf])
    for t in big:
        assert f.value(t) == f.limit and f.value(-t) == -f.limit
    assert np.all(f.value(big) == f.limit) and np.all(f.value(-big) == -f.limit)


@pytest.mark.parametrize("alpha", [0.2, 0.5])
def test_gap_keeps_its_digits_past_the_square_overflow(alpha):
    """gap(t) = t^-(1+a)/(1+a) + O(t^-(3+a)) at n = 1, on both sides of 1e150
    (at n >= 2 that reference underflows)."""
    f = SliceIntegral(1, alpha)
    ts = np.array([1e149, 1e150, 1e151, 1e153])
    ref = ts ** (-(1.0 + alpha)) / (1.0 + alpha)
    assert f.gap(ts) == pytest.approx(ref, rel=1e-12)
    for t, r in zip(ts, ref):
        assert f.gap(t) == pytest.approx(r, rel=1e-12)
        assert f.gap(-t) == pytest.approx(r, rel=1e-12)
    # the clamp at 1e300 holds the tail where it has already underflowed
    assert np.all(f.gap(np.array([1e300, 1e308, np.inf])) == 0.0)


def test_scalars_give_floats_and_sequences_give_arrays():
    f = SliceIntegral(2, 0.5)
    for t in (0.7, np.float64(0.7), np.asarray(0.7), 1e200, np.asarray(np.inf)):
        assert type(f.value(t)) is float
        assert type(f.gap(t)) is float
    assert f.value(np.asarray(0.7)) == f.value(0.7) == f.value([0.7])[0]
    assert f.gap(np.asarray(1e200)) == f.gap(1e200) == f.gap([1e200, 1.0])[0]
    for method in (f.value, f.gap):
        out = method([0.7, 1e200])
        assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_derivative_matches_difference_quotient():
    f = SliceIntegral(1, 0.5)
    for t in (-2.0, -0.3, 0.0, 0.7, 4.0):
        h = 1e-6
        fd = (f.value(t + h) - f.value(t - h)) / (2 * h)
        assert f.deriv(t) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_gap_is_complement_and_stable():
    f = SliceIntegral(1, 0.5)
    for t in (0.0, 0.5, 3.0, 50.0):
        assert f.gap(t) == pytest.approx(f.limit - f.value(t), abs=1e-14)
    # far out the naive difference cancels to zero; gap must not
    t = 1e100
    assert f.gap(t) > 0.0
    assert f.gap(t) == pytest.approx(t ** (-1.5) / 1.5, rel=1e-10)


# limit - F(t) from mpmath.betainc at 50 digits, frozen here.
# Keyed by (n, alpha): gap at t = 1e-3, 0.3, 1, 3 and 1e3.
GAP_TS = (1e-3, 0.3, 1.0, 3.0, 1e3)
FROZEN_GAP = {
    (1, 0.5): (1.1971402351522586, 0.9087511073980212, 0.45383715497509935,
               0.12122156877556409, 2.1081839773948494e-05),
    (2, 0.2): (0.9425905818013124, 0.6570518836168764, 0.2503714658975021,
               0.037102759251131975, 1.1417656028688076e-07),
    (3, 0.8): (0.6851727678126404, 0.4059606990329139, 0.08698928449274884,
               0.003427975245410487, 1.0476488014870587e-12),
}


@pytest.mark.parametrize("n,alpha", sorted(FROZEN_GAP))
def test_gap_keeps_its_digits_at_small_t(n, alpha):
    """Below t = 1e-4, gap = limit - (t - p t^3 / 3) to rounding; forming
    u = 1 / (1 + t^2) cost eps / (4t) relative there, 1e-9 at t = 1e-9."""
    f = SliceIntegral(n, alpha)
    ts = np.logspace(-12, -4, 17)
    taylor = f.limit - (ts - f.power * ts ** 3 / 3.0)
    assert f.gap(ts) == pytest.approx(taylor, rel=4e-16, abs=0.0)
    assert f.gap(GAP_TS) == pytest.approx(FROZEN_GAP[(n, alpha)], rel=3e-15, abs=0.0)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SliceIntegral(0, 0.5)
    with pytest.raises(ValueError):
        SliceIntegral(1, 0.0)
    with pytest.raises(ValueError):
        SliceIntegral(1, 1.0)
