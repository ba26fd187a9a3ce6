import itertools

import numpy as np
import pytest

from fracsurf import (Ball, BarrierProfile, Box, Complement, Cone,
                      ConstantProfile, HalfSpace, LinearProfile, SampleSpec,
                      Scaled, SqrtProfile, Subgraph, TwoLeaf,
                      UnsupportedGeometryError, boundary_sample)

from fracsurf import BumpProfile

BODIES = {
    "TwoLeaf": TwoLeaf(BarrierProfile(0.1)),
    "Subgraph": Subgraph(BumpProfile(0.5, 3.0)),
    "Cone": Cone(0.3),
    "Ball": Ball(2.0),
    "HalfSpace": HalfSpace(0.5),
    "ScaledTwoLeaf": Scaled(TwoLeaf(BarrierProfile(0.1)), 3.0),
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("body", BODIES.values(), ids=BODIES.keys())
def test_membership_flips_across_boundary(body, n):
    for s in boundary_sample(body, n, SampleSpec(count=24, r_max=6.0)):
        inside = s.point - 1e-6 * s.normal
        outside = s.point + 1e-6 * s.normal
        assert body.contains(inside[None])[0], f"inside probe failed at r={s.radius}"
        assert not body.contains(outside[None])[0], f"outside probe failed at r={s.radius}"


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
    for body in BODIES.values():
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


def seeded_points(rng, n, count=2000):
    """Seeded points in R^(n+1), a third of them on the upper cone and on
    the level 0.5 exactly."""
    p = rng.uniform(-3.0, 3.0, (count, n + 1))
    on_cone = p[: count // 3]
    on_cone[:, -1] = 0.3 * np.linalg.norm(on_cone[:, :-1], axis=-1)
    p[count // 3: 2 * count // 3, -1] = 0.5
    return p


@pytest.mark.parametrize("n", [1, 2])
def test_cone_is_the_two_leaf_body_of_a_linear_profile(n):
    """Same membership as the graph body and as the defining inequality,
    and the same boundary samples as the straight ray: apex excluded,
    normal (-eps, 1) normalised."""
    eps = 0.3
    p = seeded_points(np.random.default_rng(31), n)
    rad = np.linalg.norm(p[:, :-1], axis=-1)
    np.testing.assert_array_equal(Cone(eps).contains(p),
                                  TwoLeaf(LinearProfile(eps)).contains(p))
    np.testing.assert_array_equal(Cone(eps).contains(p), np.abs(p[:, -1]) < eps * rad)
    spec = SampleSpec(count=9, r_max=4.0, refine_near=(2.0,), ray_radii=(2.5,))
    got = boundary_sample(Cone(eps), n, spec)
    graph = boundary_sample(TwoLeaf(LinearProfile(eps)), n, spec)
    assert [s.radius for s in got] == [s.radius for s in graph]
    assert 0.0 not in [s.radius for s in got]
    normal = np.zeros(n + 1)
    normal[0], normal[-1] = -eps, 1.0
    normal /= np.linalg.norm(normal)
    for s, g in zip(got, graph):
        point = np.zeros(n + 1)
        point[0], point[-1] = s.radius, eps * s.radius
        np.testing.assert_array_equal(s.point, g.point)
        np.testing.assert_array_equal(s.point, point)
        np.testing.assert_array_equal(s.normal, g.normal)
        np.testing.assert_array_equal(s.normal, normal)


@pytest.mark.parametrize("n", [1, 2])
def test_half_space_is_the_subgraph_of_a_constant_profile(n):
    """Same membership as the graph body and as x_last < h, and the same
    boundary samples as the flat plane: every radius, normal e_last."""
    h = 0.5
    p = seeded_points(np.random.default_rng(32), n)
    np.testing.assert_array_equal(HalfSpace(h).contains(p),
                                  Subgraph(ConstantProfile(h)).contains(p))
    np.testing.assert_array_equal(HalfSpace(h).contains(p), p[:, -1] < h)
    spec = SampleSpec(count=9, r_max=4.0, refine_near=(2.0,), ray_radii=(2.5,))
    got = boundary_sample(HalfSpace(h), n, spec)
    graph = boundary_sample(Subgraph(ConstantProfile(h)), n, spec)
    assert [s.radius for s in got] == [s.radius for s in graph]
    assert got[0].radius == 0.0
    for s, g in zip(got, graph):
        point = np.zeros(n + 1)
        point[0], point[-1] = s.radius, h
        np.testing.assert_array_equal(s.point, g.point)
        np.testing.assert_array_equal(s.point, point)
        np.testing.assert_array_equal(s.normal, g.normal)
        np.testing.assert_array_equal(s.normal, np.eye(n + 1)[-1])


def test_graph_cusp_excluded_from_samples():
    # sqrt has an infinite slope at r = 0, where no unit normal exists
    samples = boundary_sample(Subgraph(SqrtProfile(1.0)), 1, SampleSpec(count=5, r_max=4.0))
    assert [s.radius for s in samples] == [1.0, 2.0, 3.0, 4.0]
    assert all(np.all(np.isfinite(s.normal)) for s in samples)


SCALABLE = {
    **BODIES,
    "Barrier": TwoLeaf(BarrierProfile(0.2)),
    "SqrtSubgraph": Subgraph(SqrtProfile(1.0, 0.5)),
    "Complement": ~TwoLeaf(BarrierProfile(0.1)),
    "Intersection": Ball(2.0) & HalfSpace(0.5),
    "Box": Box((-1.0, -0.5), (2.0, 0.5)),
}


def test_scaled_membership_is_exact():
    """lam * body, built by the variant itself: x is a member iff x / lam
    is a member of the body, on seeded points off every boundary."""
    pts = np.concatenate([[[0.5, 0.15], [3.0, 0.55], [3.0, 0.65], [0.5, 0.25]],
                          np.random.default_rng(33).uniform(-4.0, 4.0, (4000, 2))])
    for (name, body), lam in itertools.product(SCALABLE.items(), (0.5, 1.0, 2.0, 3.0)):
        scaled = Scaled(body, lam)
        assert type(scaled) is type(body), name
        np.testing.assert_array_equal(scaled.contains(lam * pts), body.contains(pts),
                                      err_msg=f"{name} x{lam}")


def test_scaled_graph_body_is_a_graph_body():
    assert Scaled(Ball(1.0), 2.0) == Ball(2.0)
    base = TwoLeaf(BarrierProfile(0.2))
    got = boundary_sample(Scaled(base, 2.0), 2, SampleSpec(count=9, r_max=8.0))
    want = boundary_sample(base, 2, SampleSpec(count=9, r_max=4.0))
    assert [s.radius for s in got] == [2.0 * s.radius for s in want]
    for s, w in zip(got, want):
        np.testing.assert_allclose(s.point, 2.0 * w.point, rtol=1e-15)
        np.testing.assert_allclose(s.normal, w.normal, rtol=1e-15)
    for bad in (0.0, -2.0, float("nan")):
        with pytest.raises(ValueError):
            Scaled(base, bad)


def test_complement_negates():
    body = Ball(1.0)
    comp = Complement(body)
    pts = np.array([[0.5, 0.0], [2.0, 0.0]])
    np.testing.assert_array_equal(comp.contains(pts), ~body.contains(pts))


def test_wrapper_bodies_refuse_boundary_sampling():
    with pytest.raises(UnsupportedGeometryError):
        boundary_sample(Complement(Ball(1.0)), 1)
    with pytest.raises(UnsupportedGeometryError):
        boundary_sample(Scaled(~Ball(1.0), 2.0), 1)
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
