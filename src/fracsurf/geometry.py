"""Bodies in R^(n+1), exact membership tests, and boundary sampling.

A body is one of a small closed list of variants.  Membership is evaluated
from the defining inequality directly (vectorized over sample batches), never
from an interpolation grid, because the Monte Carlo oracle classifies points
out to radii ~1e5 where any cached grid would clip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedGeometryError
from .profiles import ConstantProfile, LinearProfile, RadialProfile, profile_values


class Body:
    """Base variant; subclasses implement the membership test.

    Bodies combine as point sets: ``a & b`` is the intersection, ``~a`` the
    complement and ``a - b`` the difference ``a & ~b``.  ``scaled(factor)``
    gives the body factor * a as a variant of the same kind.
    """

    def contains(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __and__(self, other: "Body") -> "Body":
        return Intersection(self, other)

    def __invert__(self) -> "Body":
        return Complement(self)

    def __sub__(self, other: "Body") -> "Body":
        return self & ~other


@dataclass(frozen=True)
class TwoLeaf(Body):
    """{ |x_last| < v(|x'|) } for a positive radial height profile v."""

    profile: RadialProfile

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        rad = np.linalg.norm(p[..., :-1], axis=-1)
        return np.abs(p[..., -1]) < profile_values(self.profile, rad)

    def scaled(self, factor: float) -> "TwoLeaf":
        return TwoLeaf(self.profile.dilated(1.0 / factor))


@dataclass(frozen=True)
class Subgraph(Body):
    """{ x_last < u(|x'|) }: the region below a radial graph."""

    profile: RadialProfile

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        rad = np.linalg.norm(p[..., :-1], axis=-1)
        return p[..., -1] < profile_values(self.profile, rad)

    def scaled(self, factor: float) -> "Subgraph":
        return Subgraph(self.profile.dilated(1.0 / factor))


def Cone(epsilon: float) -> TwoLeaf:
    """{ |x_last| < eps * |x'| }: the symmetric open double cone."""
    return TwoLeaf(LinearProfile(epsilon))


def HalfSpace(height: float) -> Subgraph:
    """{ x_last < height }."""
    return Subgraph(ConstantProfile(height))


@dataclass(frozen=True)
class Ball(Body):
    radius: float

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        return np.linalg.norm(p, axis=-1) < self.radius

    def scaled(self, factor: float) -> "Ball":
        return Ball(factor * self.radius)


@dataclass(frozen=True)
class Complement(Body):
    inner: Body

    def contains(self, points):
        return ~self.inner.contains(points)

    def scaled(self, factor: float) -> "Complement":
        return Complement(self.inner.scaled(factor))


@dataclass(frozen=True)
class Intersection(Body):
    first: Body
    second: Body

    def contains(self, points):
        return self.first.contains(points) & self.second.contains(points)

    def scaled(self, factor: float) -> "Intersection":
        return Intersection(self.first.scaled(factor), self.second.scaled(factor))


def Scaled(body: Body, factor: float) -> Body:
    """factor * body: x is a member iff x / factor is a member of body."""
    if not factor > 0:
        raise ValueError("scale factor must be positive")
    return body.scaled(float(factor))


@dataclass(frozen=True)
class Box(Body):
    """Axis-aligned box given by inclusive lower/upper corner arrays."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("box corners must satisfy lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.array(self.hi) - np.array(self.lo)))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(np.array(self.hi) - np.array(self.lo)))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        return lo + rng.random((count, self.dim)) * (hi - lo)

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        return np.all((p >= lo) & (p <= hi), axis=-1)

    def scaled(self, factor: float) -> "Box":
        return Box(tuple(v * factor for v in self.lo),
                   tuple(v * factor for v in self.hi))


@dataclass(frozen=True)
class SampleSpec:
    """How to lay out boundary sample points for graph-type bodies."""

    count: int = 64
    r_max: float = 10.0
    refine_near: tuple = ()
    ray_radii: tuple = ()


@dataclass(frozen=True)
class BoundarySample:
    point: np.ndarray
    normal: np.ndarray
    radius: float


def _graph_radii(spec: SampleSpec) -> np.ndarray:
    base = np.linspace(0.0, spec.r_max, spec.count)
    extra = []
    for r0 in spec.refine_near:
        extra.append(r0 + np.array([-0.2, -0.05, -0.01, 0.01, 0.05, 0.2]))
    if spec.ray_radii:
        extra.append(np.asarray(spec.ray_radii, dtype=float))
    radii = np.concatenate([base] + extra) if extra else base
    radii = radii[radii >= 0.0]
    return np.unique(radii)


def boundary_sample(body: Body, n: int, spec: SampleSpec = SampleSpec()):
    """Points on the boundary of the body with outward unit normals.

    Supported variants: TwoLeaf and Subgraph (upper leaf along the first
    horizontal axis, radii where the profile is not smooth excluded, such as
    the apex of a cone) and Ball.  Complements, intersections and boxes have
    no canonical parametrization here.
    """
    d = n + 1
    out = []
    if isinstance(body, (TwoLeaf, Subgraph)):
        profile = body.profile
        for r in _graph_radii(spec):
            if not profile.smooth_at(r):
                continue
            x = np.zeros(d)
            x[0] = r
            x[-1] = profile.value(r)
            nv = np.zeros(d)
            nv[0] = -profile.first_derivative(r)
            nv[-1] = 1.0
            nv /= np.linalg.norm(nv)
            out.append(BoundarySample(point=x, normal=nv, radius=float(r)))
    elif isinstance(body, Ball):
        R = body.radius
        angles = np.linspace(0.0, 2.0 * np.pi, spec.count, endpoint=False)
        for th in angles:
            x = np.zeros(d)
            x[0] = R * np.cos(th)
            x[-1] = R * np.sin(th)
            nv = x / R
            out.append(BoundarySample(point=x, normal=nv,
                                      radius=float(abs(R * np.cos(th)))))
    else:
        raise UnsupportedGeometryError(f"cannot sample boundary of {type(body).__name__}")
    return out
