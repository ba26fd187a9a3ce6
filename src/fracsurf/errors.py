"""Exception types raised by the public operations.

One that reaches the command line makes it exit 1, as any bad input does;
exit 2 comes only from a verdict, when the computation ran but its outcome
is negative or not conclusive.
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


class NonSmoothPointError(FracsurfError):
    """Curvature requested at a point where the profile is not C^2."""


class HomogeneityViolationError(FracsurfError):
    """Cone curvature samples do not scale like a homogeneous function."""


class InvalidEpsilonError(FracsurfError):
    """Flatness tolerance outside the admissible open interval."""


class InvalidExponentError(FracsurfError):
    """Holder exponent outside (0, 1)."""
