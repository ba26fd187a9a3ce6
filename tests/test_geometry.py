import itertools

import numpy as np
import pytest

from fracsurf import (Ball, BarrierProfile, Box, Complement, Cone, ConstantProfile,
                      DilatedGraphProfile, HalfSpace, LinearProfile, Scaled,
                      SqrtProfile, Subgraph, TwoLeaf, profile_values)
from fracsurf.geometry import row_norms

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
    """Just below and just above the upper leaf at (r, 0, ..., 0, v(r)), and
    just inside and outside the ball along its radius."""
    step = 1e-6 * np.eye(n + 1)[-1]
    if isinstance(body, Ball):
        angles = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        points = np.zeros((24, n + 1))
        points[:, 0], points[:, -1] = np.cos(angles), np.sin(angles)
        points *= body.radius
        inside, outside = (1.0 - 1e-6) * points, (1.0 + 1e-6) * points
    else:
        radii = np.linspace(0.0, 6.0, 24)
        if isinstance(body, TwoLeaf):  # no inside where the leaves meet, as at the cone's apex
            radii = radii[profile_values(body.profile, radii) > 0.0]
        points = np.zeros((len(radii), n + 1))
        points[:, 0], points[:, -1] = radii, profile_values(body.profile, radii)
        inside, outside = points - step, points + step
    assert body.contains(inside).all(), f"inside probes failed at {points[~body.contains(inside)]}"
    assert not body.contains(outside).any(), \
        f"outside probes failed at {points[body.contains(outside)]}"


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


def test_subgraph_vs_two_leaf_lower_half():
    prof = ConstantProfile(0.5)
    sub = Subgraph(prof)
    two = TwoLeaf(prof)
    pts = np.array([[1.0, -2.0], [1.0, 0.0], [1.0, 0.4], [1.0, 0.6]])
    np.testing.assert_array_equal(sub.contains(pts), [True, True, True, False])
    np.testing.assert_array_equal(two.contains(pts), [False, True, True, False])


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
    """Same membership as the graph body and as the defining inequality."""
    eps = 0.3
    p = seeded_points(np.random.default_rng(31), n)
    rad = np.linalg.norm(p[:, :-1], axis=-1)
    np.testing.assert_array_equal(Cone(eps).contains(p),
                                  TwoLeaf(LinearProfile(eps)).contains(p))
    np.testing.assert_array_equal(Cone(eps).contains(p), np.abs(p[:, -1]) < eps * rad)


@pytest.mark.parametrize("n", [1, 2])
def test_half_space_is_the_subgraph_of_a_constant_profile(n):
    """Same membership as the graph body and as x_last < h."""
    h = 0.5
    p = seeded_points(np.random.default_rng(32), n)
    np.testing.assert_array_equal(HalfSpace(h).contains(p),
                                  Subgraph(ConstantProfile(h)).contains(p))
    np.testing.assert_array_equal(HalfSpace(h).contains(p), p[:, -1] < h)


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
    got = Scaled(base, 2.0)
    assert type(got) is TwoLeaf
    # the boundary point (r, v(r)) goes to (2r, 2v(r))
    radii = np.linspace(0.0, 4.0, 9)
    np.testing.assert_allclose(profile_values(got.profile, 2.0 * radii),
                               2.0 * profile_values(base.profile, radii), rtol=1e-15)
    for bad in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"scale factor must be positive and finite, not {bad}"):
            Scaled(base, bad)
        with pytest.raises(ValueError, match="dilation factor must be positive and finite"):
            DilatedGraphProfile(base.profile, bad)


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
def test_ball_refuses_a_radius_that_is_not_positive_and_finite(radius):
    with pytest.raises(ValueError, match=f"radius must be positive and finite, not {radius}"):
        Ball(radius)


def test_complement_negates():
    body = Ball(1.0)
    comp = Complement(body)
    pts = np.array([[0.5, 0.0], [2.0, 0.0]])
    np.testing.assert_array_equal(comp.contains(pts), ~body.contains(pts))


def test_membership_far_from_origin():
    """The oracle classifies points out to huge radii; no grid clipping."""
    body = Subgraph(SqrtProfile(1.0))
    r = 1.0e8
    h = float(np.sqrt(r))
    pts = np.array([[r, h - 1.0], [r, h + 1.0]])
    np.testing.assert_array_equal(body.contains(pts), [True, False])


def _random_rows(rng, cols):
    # one magnitude per array, from 1e-150 to 1e150, so squares stay normal
    mag = 10.0 ** rng.uniform(-150.0, 150.0)
    return mag * rng.standard_normal((400, cols))


@pytest.mark.parametrize("cols", range(1, 8))
def test_row_norms_equal_numpy_bit_for_bit_up_to_seven_columns(cols):
    rng = np.random.default_rng(cols)
    for _ in range(40):
        x = _random_rows(rng, cols)
        got = row_norms(x)
        want = np.linalg.norm(x, axis=-1)
        assert got.tobytes() == want.tobytes()
        # a single point gives a scalar, as numpy does
        assert row_norms(x[0]) == np.linalg.norm(x[0], axis=-1)
        assert np.shape(row_norms(x[0])) == ()


@pytest.mark.parametrize("cols", [8, 9, 16, 33])
def test_row_norms_agree_within_one_ulp_per_column_from_eight_columns(cols):
    """numpy's 8-way unrolled sum adds in another order from 8 columns on;
    both sums of d squares lie within (d - 1) roundoffs of the exact one."""
    rng = np.random.default_rng(100 + cols)
    for _ in range(40):
        x = _random_rows(rng, cols)
        got = row_norms(x)
        want = np.linalg.norm(x, axis=-1)
        assert np.all(np.abs(got - want) <= cols * np.spacing(want))


def test_box_membership_matches_the_all_form_and_keeps_its_faces():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 4):
        box = Box(tuple(-1.0 - k for k in range(dim)), tuple(0.5 + k for k in range(dim)))
        lo, hi = np.array(box.lo), np.array(box.hi)
        pts = rng.uniform(-3.0, 3.0, size=(2000, dim))
        # put every third point exactly on a lower or an upper face
        face = rng.integers(0, dim, size=2000)
        on = np.arange(2000) % 3 == 0
        pts[on, face[on]] = np.where(rng.random(on.sum()) < 0.5, lo[face[on]], hi[face[on]])
        want = np.all((pts >= lo) & (pts <= hi), axis=-1)
        np.testing.assert_array_equal(box.contains(pts), want)
        assert box.contains(lo) and box.contains(hi)
        assert not box.contains(hi + 1e-12)
        assert box.contains(pts[0]) == want[0]


@pytest.mark.parametrize("lo, hi", [((0.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (1.0, 0.5)),
                                    ((0.0, np.nan), (1.0, 1.0)), ((0.0, 0.0), (np.nan, 1.0)),
                                    ((-np.inf, 0.0), (1.0, 1.0)), ((0.0, 0.0), (1.0, np.inf)),
                                    ((0.0,), (1.0, 1.0))])
def test_box_refuses_corners_that_are_not_finite_and_ordered(lo, hi):
    with pytest.raises(ValueError, match="box corners must be finite"):
        Box(lo, hi)
