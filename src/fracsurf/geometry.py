"""Bodies in R^(n+1) and exact membership tests.

A body is one of a small closed list of variants.  Membership is evaluated
from the defining inequality directly (vectorized over sample batches), never
from an interpolation grid, because the Monte Carlo oracle classifies points
out to radii ~1e5 where any cached grid would clip.

Membership tests work column by column.  A batch is an (N, n + 1) array
only a few columns wide, and a reduction along its short rows
(``np.linalg.norm(..., axis=-1)``, ``np.all(..., axis=-1)``) runs numpy's
strided inner loop once per point, while one elementwise pass per column
runs it once per column.  ``row_norms`` keeps the order of addition of
``np.linalg.norm``, so every classification stays the same to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import positive_finite
from .profiles import ConstantProfile, LinearProfile, RadialProfile, profile_values


def row_norms(points) -> np.ndarray:
    """Euclidean norms over the last axis: squares summed column by column.

    Up to 7 columns this adds in the order ``np.linalg.norm(points,
    axis=-1)`` does and equals it bit for bit.  From 8 columns on numpy's
    8-way unrolled sum adds in another order: each sum of d squares then
    lies within (d - 1) roundoffs of the exact one, so the two norms agree
    within d ulps (2 measured at 8 columns).
    """
    p = np.asarray(points, dtype=float)
    acc = p[..., 0] * p[..., 0]
    for k in range(1, p.shape[-1]):
        acc += p[..., k] * p[..., k]
    return np.sqrt(acc)


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
        rad = row_norms(p[..., :-1])
        return np.abs(p[..., -1]) < profile_values(self.profile, rad)

    def scaled(self, factor: float) -> "TwoLeaf":
        return TwoLeaf(self.profile.dilated(1.0 / factor))


@dataclass(frozen=True)
class Subgraph(Body):
    """{ x_last < u(|x'|) }: the region below a radial graph."""

    profile: RadialProfile

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        rad = row_norms(p[..., :-1])
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

    def __post_init__(self):
        positive_finite("radius", self.radius)

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        return row_norms(p) < self.radius

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
    return body.scaled(positive_finite("scale factor", factor))


@dataclass(frozen=True)
class Box(Body):
    """Axis-aligned box given by inclusive lower/upper corner arrays."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or any(not l < h or not math.isfinite(l) or not math.isfinite(h)
                                     for l, h in zip(lo, hi)):
            raise ValueError("box corners must be finite and satisfy lo < hi componentwise")
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
        inside = (p[..., 0] >= self.lo[0]) & (p[..., 0] <= self.hi[0])
        for k in range(1, self.dim):
            inside &= (p[..., k] >= self.lo[k]) & (p[..., k] <= self.hi[k])
        return inside

    def scaled(self, factor: float) -> "Box":
        return Box(tuple(v * factor for v in self.lo),
                   tuple(v * factor for v in self.hi))
