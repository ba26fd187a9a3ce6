"""Exception types raised by the public operations.

Every error that a command-line run can hit maps onto one of these, so the
CLI can distinguish "the input was bad" (exit 1) from "the computation ran
but the outcome is not conclusive" (exit 2).
"""


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


class InvalidCutoffError(FracsurfError):
    """Barrier blend region failed its smoothness verification."""


class NonSmoothPointError(FracsurfError):
    """Curvature requested at a point where the profile is not C^2."""


class HomogeneityViolationError(FracsurfError):
    """Cone curvature samples do not scale like a homogeneous function."""


class InvalidEpsilonError(FracsurfError):
    """Flatness tolerance outside the admissible open interval."""


class InvalidExponentError(FracsurfError):
    """Holder exponent outside (0, 1)."""
