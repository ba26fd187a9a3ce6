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

    def value(self, t):
        t = np.asarray(t, dtype=float)
        a = np.minimum(np.abs(t), 1e150)
        out = np.sign(t) * self.limit * special.betainc(0.5, self._b, a * a / (1.0 + a * a))
        return float(out) if t.ndim == 0 else out

    __call__ = value

    def gap(self, t):
        """limit - F(|t|), computed without cancellation.

        Uses I_x(a, b) = 1 - I_{1-x}(b, a) with 1 - x = 1/(1 + t^2), which
        stays accurate where x itself would round to 1.
        """
        t = np.abs(np.asarray(t, dtype=float))
        big = t > 1e150
        if big.any():
            # t^2 would overflow there; (1/t)^2 underflows silently, to 0 at inf
            r = 1.0 / np.maximum(t, 1e150)
            u = np.where(big, r * r, 1.0 / (1.0 + np.minimum(t, 1e150) ** 2))
        else:
            u = 1.0 / (1.0 + t * t)
        out = self.limit * special.betainc(self._b, 0.5, u)
        return float(out) if t.ndim == 0 else out

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t * t) ** (-self.power)
