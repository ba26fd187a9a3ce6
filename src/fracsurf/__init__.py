"""Numerics for nonlocal minimal-surface geometry.

The package evaluates the fractional mean curvature of graph-like and
rotationally symmetric bodies, verifies positivity of a compactly
perturbed cone barrier, runs the sliding argument that turns that
positivity into a rigidity statement, and checks the flatness/rescaling
estimates used in the blow-down analysis.
"""

from .barrier import (BarrierReport, ConeConstantReport, ConeSweepReport,
                      cone_constant, sweep_cone_constant, verify_barrier)
from .blowdown import (FlatnessReport, HolderReport, flatness_certificate,
                       holder_rescaling_check)
from .config import derived_seed
from .curvature import (CurvatureResult, QuadratureConfig, angular_rule,
                        graph_curvature, subgraph_curvature,
                        two_leaf_curvature)
from .errors import (DisjointnessError, FracsurfError, HomogeneityViolationError,
                     InitialInclusionError, InvalidEnvelopeError, InvalidPointError,
                     NonSmoothPointError, NotSublinearError)
from .geometry import (Ball, Body, Box, Complement, Cone, HalfSpace, Scaled,
                       Subgraph, TwoLeaf)
from .kernelfn import SliceIntegral
from .oracle import (EnergyResult, direct_curvature, interaction_energy,
                     relative_perimeter)
from .profiles import (BarrierProfile, BumpProfile, ConstantProfile,
                       DilatedGraphProfile, LinearProfile, ModulusReport,
                       PiecewisePolyProfile, RadialProfile, RampBumpProfile,
                       SampledProfile, SqrtProfile, profile_from_config,
                       profile_from_csv, profile_values, sublinearity_modulus)
from .sliding import (RescalePlan, SlideOutcome, VERDICT_CONFIRMED,
                      VERDICT_TOUCH, VERDICT_UNBOUNDED, VERDICT_UNCERTIFIED,
                      rescale_for_slide, slide)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BarrierProfile",
    "BarrierReport",
    "Body",
    "Box",
    "BumpProfile",
    "Complement",
    "Cone",
    "ConeConstantReport",
    "ConeSweepReport",
    "ConstantProfile",
    "CurvatureResult",
    "DilatedGraphProfile",
    "DisjointnessError",
    "EnergyResult",
    "FlatnessReport",
    "FracsurfError",
    "HalfSpace",
    "HolderReport",
    "HomogeneityViolationError",
    "InitialInclusionError",
    "InvalidEnvelopeError",
    "InvalidPointError",
    "LinearProfile",
    "ModulusReport",
    "NonSmoothPointError",
    "NotSublinearError",
    "PiecewisePolyProfile",
    "QuadratureConfig",
    "RadialProfile",
    "RampBumpProfile",
    "RescalePlan",
    "SampledProfile",
    "Scaled",
    "SliceIntegral",
    "SlideOutcome",
    "SqrtProfile",
    "Subgraph",
    "TwoLeaf",
    "VERDICT_CONFIRMED",
    "VERDICT_TOUCH",
    "VERDICT_UNBOUNDED",
    "VERDICT_UNCERTIFIED",
    "angular_rule",
    "cone_constant",
    "derived_seed",
    "direct_curvature",
    "flatness_certificate",
    "graph_curvature",
    "holder_rescaling_check",
    "interaction_energy",
    "profile_from_config",
    "profile_from_csv",
    "profile_values",
    "relative_perimeter",
    "rescale_for_slide",
    "slide",
    "subgraph_curvature",
    "sublinearity_modulus",
    "sweep_cone_constant",
    "two_leaf_curvature",
    "verify_barrier",
]
