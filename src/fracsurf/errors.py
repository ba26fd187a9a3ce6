"""Exception types raised by the public operations.

One that reaches the command line makes it exit 1, as any bad input does;
exit 2 comes only from a verdict, when the computation ran but its outcome
is negative or not conclusive.  An input out of range is a ``ValueError``;
the two checks at the end refuse the common ranges in one wording each.
"""

import math


class FracsurfError(Exception):
    """Base class for all package-specific errors."""


class InvalidEnvelopeError(FracsurfError):
    """Growth envelope is non-positive somewhere on r > 0."""


class NotSublinearError(FracsurfError):
    """Growth envelope outgrows every line C + delta*r: not sublinear."""


class InitialInclusionError(FracsurfError):
    """Rescaled candidate is not contained in the starting barrier."""


class InvalidPointError(FracsurfError):
    """Evaluation point is not on the boundary of the body."""


class DisjointnessError(FracsurfError):
    """Two sets handed to the interaction energy overlap inside the box."""


class NonSmoothPointError(FracsurfError):
    """Curvature requested at a point where the profile is not C^2."""


class HomogeneityViolationError(FracsurfError):
    """Cone curvature samples do not scale like a homogeneous function."""


def positive_finite(name: str, value) -> float:
    """``float(value)``, refusing a value that is not positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {value!r}")
    return float(value)


def check_order(n: int, alpha: float) -> None:
    """Refuse a graph dimension n < 1 or an order alpha outside (0, 1)."""
    if n < 1:
        raise ValueError(f"ambient graph dimension must be >= 1, not {n!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must lie strictly inside (0, 1), not {alpha!r}")
