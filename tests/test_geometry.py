import numpy as np
import pytest

from fracsurf import (Ball, BarrierProfile, Box, Complement, Cone,
                      ConstantProfile, HalfSpace, SampleSpec, Scaled,
                      SqrtProfile, Subgraph, TwoLeaf, UnsupportedGeometryError,
                      boundary_sample)

from fracsurf import BumpProfile

BODIES = [
    TwoLeaf(BarrierProfile(0.1)),
    Subgraph(BumpProfile(0.5, 3.0)),
    Cone(0.3),
    Ball(2.0),
    HalfSpace(0.5),
]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("body", BODIES, ids=lambda b: type(b).__name__)
def test_membership_flips_across_boundary(body, n):
    for s in boundary_sample(body, n, SampleSpec(count=24, r_max=6.0)):
        inside = s.point - 1e-6 * s.normal
        outside = s.point + 1e-6 * s.normal
        assert body.contains_one(inside), f"inside probe failed at r={s.radius}"
        assert not body.contains_one(outside), f"outside probe failed at r={s.radius}"


def test_two_leaf_membership_values():
    body = TwoLeaf(ConstantProfile(0.2))
    pts = np.array([
        [0.0, 0.0],
        [3.0, 0.19],
        [3.0, -0.19],
        [3.0, 0.21],
        [3.0, -0.21],
    ])
    np.testing.assert_array_equal(body.contains(pts),
                                  [True, True, True, False, False])


def test_two_leaf_boundary_heights_match_profile():
    eps = 0.1
    prof = BarrierProfile(eps)
    samples = boundary_sample(TwoLeaf(prof), 1,
                              SampleSpec(count=4, r_max=3.0))
    got = {round(s.radius, 6): s.point[-1] for s in samples}
    assert got[0.0] == pytest.approx(0.1)
    assert got[1.0] == pytest.approx(0.1)
    assert got[2.0] == pytest.approx(0.2)
    assert got[3.0] == pytest.approx(0.3)


def test_boundary_normals_are_unit_and_outward():
    for body in BODIES:
        for s in boundary_sample(body, 2, SampleSpec(count=16, r_max=4.0)):
            assert np.linalg.norm(s.normal) == pytest.approx(1.0, abs=1e-12)


def test_subgraph_vs_two_leaf_lower_half():
    prof = ConstantProfile(0.5)
    sub = Subgraph(prof)
    two = TwoLeaf(prof)
    pts = np.array([[1.0, -2.0], [1.0, 0.0], [1.0, 0.4], [1.0, 0.6]])
    np.testing.assert_array_equal(sub.contains(pts), [True, True, True, False])
    np.testing.assert_array_equal(two.contains(pts), [False, True, True, False])


def test_cone_apex_excluded_from_samples():
    samples = boundary_sample(Cone(0.2), 1, SampleSpec(count=16, r_max=4.0))
    assert all(s.radius > 0.0 for s in samples)


def test_graph_cusp_excluded_from_samples():
    # sqrt has an infinite slope at r = 0, where no unit normal exists
    samples = boundary_sample(Subgraph(SqrtProfile(1.0)), 1, SampleSpec(count=5, r_max=4.0))
    assert [s.radius for s in samples] == [1.0, 2.0, 3.0, 4.0]
    assert all(np.all(np.isfinite(s.normal)) for s in samples)


def test_scaled_membership_is_exact():
    base = TwoLeaf(BarrierProfile(0.2))
    pts = np.array([[0.5, 0.15], [3.0, 0.55], [3.0, 0.65], [0.5, 0.25]])
    for lam in (0.5, 1.0, 2.0):
        scaled = Scaled(base, lam)
        np.testing.assert_array_equal(scaled.contains(lam * pts),
                                      base.contains(pts))


def test_complement_negates():
    body = Ball(1.0)
    comp = Complement(body)
    pts = np.array([[0.5, 0.0], [2.0, 0.0]])
    np.testing.assert_array_equal(comp.contains(pts), ~body.contains(pts))


def test_wrapper_bodies_refuse_boundary_sampling():
    with pytest.raises(UnsupportedGeometryError):
        boundary_sample(Complement(Ball(1.0)), 1)
    with pytest.raises(UnsupportedGeometryError):
        boundary_sample(Scaled(Ball(1.0), 2.0), 1)
    with pytest.raises(UnsupportedGeometryError):
        boundary_sample(Ball(1.0) & HalfSpace(0.0), 1)
    with pytest.raises(UnsupportedGeometryError):
        boundary_sample(Box((-1.0, -1.0), (1.0, 1.0)), 1)


def test_sample_spec_refinement_and_rays():
    spec = SampleSpec(count=8, r_max=4.0, refine_near=(1.0,), ray_radii=(2.5,))
    samples = boundary_sample(HalfSpace(0.0), 1, spec)
    radii = {s.radius for s in samples}
    assert 2.5 in radii
    assert any(abs(r - 0.99) < 1e-9 for r in radii)
    assert any(abs(r - 1.01) < 1e-9 for r in radii)


def test_membership_far_from_origin():
    """The oracle classifies points out to huge radii; no grid clipping."""
    body = Subgraph(SqrtProfile(1.0))
    r = 1.0e8
    h = float(np.sqrt(r))
    pts = np.array([[r, h - 1.0], [r, h + 1.0]])
    np.testing.assert_array_equal(body.contains(pts), [True, False])
