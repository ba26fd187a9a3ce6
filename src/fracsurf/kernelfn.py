"""Vertical-slice antiderivative of the fractional interaction kernel.

For ambient graph dimension n and order a in (0, 1) the kernel restricted to
a vertical line integrates against the substitution tau = (height)/(horizontal
distance) to

    F(t) = integral_0^t (1 + tau^2)^(-(n + 1 + a)/2) dtau.

F is odd, strictly increasing, 1-Lipschitz, and saturates at a finite limit
F(inf) = B(1/2, (n+a)/2) / 2.  Everything downstream (curvature assembly,
truncation bounds, Monte Carlo cross-checks) is phrased through F, so this
module carries the only special-function dependency.

For 2 <= n <= 8, F and its gap F(inf) - F come from two series in the
angle.  tau = tan(phi) turns F into an integral of cos^m, m = n - 1 + a,
so with theta = arctan|t| and w = arctan(1/|t|)

    F(t) = sign(t) theta K(theta^2),    gap(t) = w^(n+a) G(w^2),

where K(u) = u^-1/2 int_0^sqrt(u) cos^m and G(u) = u^-(n+a)/2 int_0^sqrt(u)
sin^m are analytic, with nearest singularities at u = (pi/2)^2 and u = pi^2.
Each is one polynomial per (n, a), fitted once at Chebyshev points to
40-point Gauss quadratures of those integrals (``_series``).  Each quantity
takes the series that needs no cancellation where it can: F is theta K
below |t| = 1 and limit - gap beyond; gap is w^(n+a) G from |t| = 0.5 on
and limit - theta K below.  That lower split costs the factor
limit / gap(0.5) to cancellation, 1.8 to 3.2 at n = 2 to 4 and up to 6 at
n = 8; a split at 1 lost up to 2e-14 relative just below t = 1.  Each
element evaluates only the series its split selects, one angle and one
Horner loop, by the same operations in the same order wherever it sits in
its batch.

At n = 1 the curvature quadrature calls the kernel from QUADPACK, two
elements at a time.  There one series costs about five times one call of
``betainc`` and eight to eleven times one of ``stdtr`` (timeit, shared
2-vCPU host), and two elements on both sides of a split pay for both
series; n = 1 keeps those.  So does n > 8: there
cos^m narrows, the fixed degrees leave Chebyshev terms of 1e-10 at n = 20,
and the cancellation factor reaches 30.  The path depends on n alone,
never on the size of the array, and every path forms |F| first and then
takes t's sign bit, so F(t) does not depend on the batch t arrives in, to
the sign of a zero or a nan.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special

from .errors import check_order

# Gauss nodes behind each fitting reference.  At the fitting nodes K's sums
# match mpmath to 2.2e-16; G's to 1.3e-15 up to n = 4 and 3.3e-15 at n = 8,
# the rounding of sinc raised to the power m
_REFERENCE_NODES = 40


def _chebyshev_monomials(f, degree, top):
    """Powers of u, highest first, of the polynomial of ``degree`` that
    interpolates ``f`` at the Chebyshev points of [0, top].

    The cosine sum reduces each angle pi k (2j + 1) / (2 degree + 2) modulo
    2 pi in integers: unreduced, the angle reaches pi degree and its
    rounding alone moves the coefficients by 1e-14.
    """
    j = np.arange(degree + 1)
    values = f(0.5 * top * (1.0 + np.cos(np.pi * (2 * j + 1) / (2 * degree + 2))))
    turns = j[:, None] * (2 * j + 1) % (4 * degree + 4)
    cheb = np.cos(np.pi * turns / (2 * degree + 2)) @ values * (2.0 / (degree + 1))
    cheb[0] *= 0.5
    series = np.polynomial.Chebyshev(cheb, domain=[0.0, top])
    return series.convert(kind=np.polynomial.Polynomial).coef[::-1]


def _angle_integrals(n: int, alpha: float):
    """The fitting references K(u) and G(u) on arrays of u, by Gauss-Legendre
    and, for G = int_0^1 s^m (sin(ws)/(ws))^m ds, Gauss-Jacobi sums."""
    m = n - 1 + alpha
    x, wx = special.roots_legendre(_REFERENCE_NODES)
    y, wy = special.roots_jacobi(_REFERENCE_NODES, 0.0, m)
    half_x, half_y, wy = 0.5 * (1.0 + x), 0.5 * (1.0 + y), wy * 0.5 ** (m + 1.0)

    def K(u):
        return np.cos(np.sqrt(u)[:, None] * half_x) ** m @ (0.5 * wx)

    def G(u):
        return np.sinc(np.sqrt(u)[:, None] * half_y / np.pi) ** m @ wy

    return K, G


@functools.cache
def _series(n: int, alpha: float):
    """Horner coefficients of K on [0, (pi/4)^2] and of G on [0, arctan(2)^2].

    Degrees 13 and 12 leave the dropped Chebyshev coefficients below 3e-16
    up to n = 8.
    """
    K, G = _angle_integrals(n, alpha)
    return (_chebyshev_monomials(K, 13, (np.pi / 4) ** 2),
            _chebyshev_monomials(G, 12, np.arctan(2.0) ** 2))


def _horner(coeffs, u):
    out = coeffs[0] * u
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= u
        out += c
    return out


def _split(t, at, below, above):
    """below(|t|) where |t| < at or is nan, above(|t|) from at on, each
    function on its own elements only; flat, in the order of t."""
    a = np.abs(t.ravel())
    far = a >= at
    # a batch on one side, as most are, skips the masks and the other
    # series' calls on no elements
    if far.all():
        return above(a)
    near = ~far
    if near.all():
        return below(a)
    out = np.empty_like(a)
    out[near] = below(a[near])
    out[far] = above(a[far])
    return out


class SliceIntegral:
    """Evaluator for F and its derivative at fixed (n, alpha).

    For 2 <= n <= 8, F and gap come from the angle series of the module
    docstring, each element from the one series its split selects.  At
    n = 1 and n > 8 the closed form uses the regularized incomplete beta
    function,

        F(t) = sign(t) * B(1/2, (n+a)/2) * I_x(1/2, (n+a)/2) / 2,
        x = t^2 / (1 + t^2),

    and gap a Student t tail.  There |t| is clamped at 1e150, beyond which
    t^2 would overflow.  That changes no bit: from 1e150 on 1 + t^2 rounds
    to t^2, so x is exactly 1 and every larger |t|, infinity included, maps
    to the saturation value.
    """

    def __init__(self, n: int, alpha: float):
        check_order(n, alpha)
        self.n = int(n)
        self.alpha = float(alpha)
        self.power = 0.5 * (n + 1 + alpha)
        self._b = 0.5 * (n + alpha)
        self.limit = float(0.5 * special.beta(0.5, self._b))
        # gap's Student t tail: n + a degrees of freedom at -sqrt(n + a) |t|
        self._dof = float(n + alpha)
        self._tail_scale = -np.sqrt(self._dof)
        self._coeffs = _series(self.n, self.alpha) if 2 <= self.n <= 8 else None

    def _near(self, a):
        """theta K(theta^2), theta = arctan(a)."""
        angle = np.arctan(a)
        out = _horner(self._coeffs[0], angle * angle)
        out *= angle
        return out

    def _tail(self, a):
        """w^(n+a) G(w^2), w = arctan(1/a), as w^a u^(n//2) w^(n%2) with
        u = w^2, which keeps n + a from rounding."""
        angle = np.arctan2(1.0, a)
        u = angle * angle
        out = _horner(self._coeffs[1], u)
        out *= angle ** self.alpha
        for _ in range(self.n // 2):
            out *= u
        if self.n % 2:
            out *= angle
        return out

    def value(self, t):
        t = np.asarray(t, dtype=float)
        # the magnitude, then t's sign bit: -0 and -nan keep theirs in any batch
        if self._coeffs is None:
            a = np.minimum(np.abs(t), 1e150)
            out = self.limit * special.betainc(0.5, self._b, a * a / (1.0 + a * a))
        else:
            out = _split(t, 1.0, self._near, lambda a: self.limit - self._tail(a)).reshape(t.shape)
        out = np.copysign(out, t)
        return float(out) if t.ndim == 0 else out

    __call__ = value

    def gap(self, t):
        """limit - F(|t|), computed without cancellation at small or large t.

        Off the series, with nu = n + a, tau = s / sqrt(nu) turns the kernel into
        the Student t density of nu degrees of freedom, so the gap is
        2 * limit times its lower tail stdtr(nu, -sqrt(nu) |t|), which the
        special function evaluates directly.  |t| is clamped at 1e300, where
        that tail has already underflowed to 0.
        """
        t = np.asarray(t, dtype=float)
        if self._coeffs is None:
            tail = special.stdtr(self._dof, self._tail_scale * np.minimum(np.abs(t), 1e300))
            out = 2.0 * self.limit * tail
        else:
            out = _split(t, 0.5, lambda a: self.limit - self._near(a),
                         self._tail).reshape(t.shape)
        return float(out) if t.ndim == 0 else out

    def deriv(self, t):
        """(1 + t^2)^-p.  From |t| = 1e150 on, where t^2 would overflow, the
        kernel is below 1e-300 and taken as 0: such |t| become infinity,
        whose square is infinity without an overflow warning."""
        a = np.abs(np.asarray(t, dtype=float))
        a = np.where(a >= 1e150, np.inf, a)
        return (1.0 + a * a) ** (-self.power)
