"""Vertical-slice antiderivative of the fractional interaction kernel.

For ambient graph dimension n and order a in (0, 1) the kernel restricted to
a vertical line integrates against the substitution tau = (height)/(horizontal
distance) to

    F(t) = integral_0^t (1 + tau^2)^(-(n + 1 + a)/2) dtau.

F is odd, strictly increasing, 1-Lipschitz, and saturates at a finite limit
F(inf) = B(1/2, (n+a)/2) / 2.  Everything downstream (curvature assembly,
truncation bounds, Monte Carlo cross-checks) is phrased through F, so this
module carries the only special-function dependency.
"""

from __future__ import annotations

import numpy as np
from scipy import special


class SliceIntegral:
    """Evaluator for F and its derivative at fixed (n, alpha).

    The closed form uses the regularized incomplete beta function:

        F(t) = sign(t) * B(1/2, (n+a)/2) * I_x(1/2, (n+a)/2) / 2,
        x = t^2 / (1 + t^2).

    |t| is clamped at 1e150, beyond which t^2 would overflow.  That changes
    no bit: from 1e150 on 1 + t^2 rounds to t^2, so x is exactly 1 and every
    larger |t|, infinity included, maps to the saturation value.
    """

    def __init__(self, n: int, alpha: float):
        if n < 1:
            raise ValueError("ambient graph dimension must be >= 1")
        if not 0.0 < alpha < 1.0:
            raise ValueError("order must lie strictly inside (0, 1)")
        self.n = int(n)
        self.alpha = float(alpha)
        self.power = 0.5 * (n + 1 + alpha)
        self._b = 0.5 * (n + alpha)
        self.limit = float(0.5 * special.beta(0.5, self._b))
        # gap's Student t tail: n + a degrees of freedom at -sqrt(n + a) |t|
        self._dof = float(n + alpha)
        self._tail_scale = -np.sqrt(self._dof)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        a = np.minimum(np.abs(t), 1e150)
        out = np.sign(t) * self.limit * special.betainc(0.5, self._b, a * a / (1.0 + a * a))
        return float(out) if t.ndim == 0 else out

    __call__ = value

    def gap(self, t):
        """limit - F(|t|), computed without cancellation at small or large t.

        With nu = n + a, tau = s / sqrt(nu) turns the kernel into the Student
        t density of nu degrees of freedom, so the gap is 2 * limit times its
        lower tail stdtr(nu, -sqrt(nu) |t|), which the special function
        evaluates directly.  |t| is clamped at 1e300, where that tail has
        already underflowed to 0.
        """
        t = np.asarray(t, dtype=float)
        tail = special.stdtr(self._dof, self._tail_scale * np.minimum(np.abs(t), 1e300))
        out = 2.0 * self.limit * tail
        return float(out) if t.ndim == 0 else out

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t * t) ** (-self.power)
