"""Deterministic quadrature for the fractional mean curvature of radial graphs.

For a body bounded by radial height profiles the curvature integral over
R^(n+1) collapses, slice by vertical slice, to a radial integral over the
horizontal offset length rho:

    H(x) = 2 * int_0^inf rho^-(1+a) * A(rho) drho,

where A(rho) is an angular average over offset directions of

    F((v(s) - v(t))/rho) - F(dv(s) * cos)          (graph part)
  + F(inf) - F((v(s) + v(t))/rho)                  (mirror leaf, two-leaf only)

with s = |x'|, t the radius of the offset point, cos the angle cosine between
offset and base point, and F the kernel slice integral.  The subtracted
F(dv * cos) term is the principal-value regularizer; its angular average
vanishes identically (F is odd, the angular rule is symmetric), so the
subtraction is free of bias while making the integrand bounded at rho = 0.

Assembly splits at a pivot radius delta, pv_inner_radius or at a two-leaf
point half its height v(s) if smaller: the mirror part switches on near
rho = 2 v(s), so the core ends below the height, however thin the body.

  * core (0, delta): the graph part uses the difference quotient written
    through profile chords and bends so no floating-point cancellation is
    amplified by rho^-1; the mirror part, gap / rho under the same weight
    rho^-a, vanishes like rho^(n-1).  At n = 1 the graph part gets weighted
    quadrature carrying the rho^-a singularity exactly and the mirror part
    plain adaptive quadrature; at n >= 2 their sum goes on the node panels
    below, in x = rho^(1-a), where rho^-a drho = dx / (1 - a).
  * midfield (delta, R): log-substituted adaptive quadrature of the plain
    integrand.
  * tail beyond R: bounded in closed form.  While the bound exceeds a small
    share of the value, every decade it still needs at the current value,
    up to a cap radius and the escalation budget, is integrated as one band.

Node j's term w_j part_j(rho) of A bends where its offset radius
|x' + rho theta_j| meets a kink radius k, at
rho = -s c_j +- sqrt(k^2 - s^2 (1 - c_j^2)): one formula for every n, where
n = 1 is the two nodes c = +-1 and the roots are |k -+ s|.  k runs over the
axis, the knots and the zero crossings of v (two-leaf only: the slice height
is max(v, 0)), which each profile solves once, on first use (``zeros``), as
``angular_rule`` solves each node set once per (n, order).  At n = 1
QUADPACK integrates A with the rho of both nodes inside each band as
breakpoints.  At n >= 2 each node's term is integrated
in u = log rho (the core in x) on its own panels, split at its own bends,
by adaptive Gauss-Kronrod 21/10 that refines the panels of all nodes from
one pool and evaluates every new panel at once.  Edges count against the
panel budget, which at n >= 2 is per node; there a node's edges take at
most half of it, leaving the rest to bisect.  A band, or at n >= 2 a node,
whose edges do not fit starts whole.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .errors import NonSmoothPointError, positive_finite
from .kernelfn import SliceIntegral
from .profiles import RadialProfile, profile_values

# Lipschitz probe grid for the tail bound: dense through the near field,
# decades out to 1e8 to catch slopes that keep growing
_SLOPE_PROBE = np.concatenate([np.linspace(1e-6, 50.0, 2001),
                               10.0 ** np.arange(2, 9)])

TAIL_SHARE = 2.5e-4
# absolute error floor the tail bound must reach when the value is near zero
TARGET_TOLERANCE = 1e-6
# Gauss-Jacobi node count for n >= 2 (even; n = 1 uses the exact two-direction rule)
ANGULAR_ORDER = 48
ESCALATION_CAP_RADIUS = 1e12

# Gauss-Kronrod 21/10 on [-1, 1] (QUADPACK's qk21): the Kronrod nodes from the
# edge inward, mirrored about 0, so the Gauss-10 nodes sit at odd positions
_XGK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                 0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                 0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                 0.14887433898163122, 0.0])
_WGK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                 0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                 0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                 0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
_GK_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_GK_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
_G_WEIGHTS = np.concatenate((_WG, _WG[::-1]))
# panels of each angular node per integrand call, and bisections per node
# per pass: at 48 nodes one call of 16 * 48 panels stays near 16k elements
_PANEL_BATCH = 16


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for the deterministic curvature quadrature.

    The Monte Carlo oracle reads none of them: ``direct_curvature`` takes
    its own sample count and samples out to a fixed radius.

    pv_inner_radius: largest pivot between the stabilized core and the
        midfield; a two-leaf point pivots at half its height below it.
    truncation_radius: initial outer radius R; escalates tenfold as needed.
    max_subdivisions: panel budget per quadrature call (QUADPACK's
        subintervals, or at n >= 2 the Gauss-Kronrod panels of each angular
        node in one band), also the cap on the number of tail decades.
        Breakpoints and panel edges count against it (at n >= 2 a node's
        edges may take half of it, leaving room to bisect): a band, or at
        n >= 2 a node, whose edges do not fit starts whole.
    """

    pv_inner_radius: float = 0.1
    truncation_radius: float = 1e3
    max_subdivisions: int = 200

    def __post_init__(self):
        positive_finite("pv_inner_radius", self.pv_inner_radius)
        positive_finite("truncation_radius", self.truncation_radius)
        if not self.pv_inner_radius < self.truncation_radius:
            raise ValueError("pv_inner_radius must stay below truncation_radius")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class CurvatureResult:
    value: float
    error_core: float
    error_midfield: float
    error_tail: float
    outer_radius: float = 0.0
    warnings: tuple = field(default_factory=tuple)

    @property
    def total_error(self) -> float:
        return self.error_core + self.error_midfield + self.error_tail


def sphere_area(k: int, n: int) -> float:
    """|S^k|, the surface measure of the unit sphere in R^(k+1), for graph
    dimension n; refused, naming n, where Gamma((k + 1) / 2) overflows."""
    try:
        return 2.0 * math.pi ** (0.5 * (k + 1)) / math.gamma(0.5 * (k + 1))
    except OverflowError:
        raise ValueError(f"n = {n} is too large: the area of the unit sphere S^{k} is "
                         "beyond floating-point range") from None


@functools.cache
def angular_rule(n: int, order: int):
    """Nodes (cosines) and weights integrating over offset directions.

    Directions theta on S^(n-1) against a function of cos = theta . x'hat
    reduce to int_-1^1 f(c) (1-c^2)^((n-3)/2) dc times the sphere factor
    |S^(n-2)|.  n = 1 degenerates to the two directions c = +-1.  Each
    (n, order) is solved once; every caller shares its read-only arrays.
    """
    if n == 1:
        nodes, weights = np.array([1.0, -1.0]), np.array([1.0, 1.0])
    else:
        expo = 0.5 * (n - 3)
        nodes, weights = special.roots_jacobi(order, expo, expo)
        weights = sphere_area(n - 2, n) * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _quad(func, lo, hi, warnings, **kw):
    # full_output keeps scipy from emitting IntegrationWarning.  A spent
    # subdivision budget still leaves an honest abserr; any other report
    # (roundoff, bad integrand, divergence) warns
    ret = integrate.quad(func, lo, hi, full_output=1, **kw)
    if len(ret) > 3 and not ret[3].startswith("The maximum number of subdivisions"):
        warnings.append("quadrature-failed")
    return ret[0], ret[1]


def _gk21(f, a, b, term, batch):
    """Kronrod value and error on each panel [a_i, b_i] of f's term term_i:
    |K21 - G10|, floored at 50 eps times the Kronrod integral of |f| as in
    QUADPACK."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES
    fx = np.concatenate([f(x[i:i + batch], term[i:i + batch, None])
                         for i in range(0, len(x), batch)])
    kronrod = half * (fx @ _GK_WEIGHTS)
    gauss = half * (fx[:, 1::2] @ _G_WEIGHTS)
    floor = 50.0 * np.finfo(float).eps * half * (np.abs(fx) @ _GK_WEIGHTS)
    return kronrod, np.maximum(np.abs(kronrod - gauss), floor)


def _gk21_band(f, a, b, term, limit):
    """Adaptive Gauss-Kronrod 21/10 of the sum over j of the vectorized
    terms ``f(u, j)``, from the panels [a_i, b_i] of term term_i, to the
    absolute and relative target 1e-12 on the sum.

    Each pass bisects the fewest worst panels of all terms whose errors cover
    the excess over the target, at most _PANEL_BATCH per term on average and
    never beyond ``limit`` panels of one term, and evaluates all the new
    panels at once, _PANEL_BATCH panels per term in each call of ``f``.
    """
    batch = _PANEL_BATCH * (int(term.max()) + 1)
    val, err = _gk21(f, a, b, term, batch)
    while True:
        # written so that a nan error stops refining
        excess = np.sum(err) - max(1e-12, 1e-12 * abs(np.sum(val)))
        if not excess > 0.0:
            break
        # the panels from the worst down, each term's until its budget is full
        order = np.argsort(err)[::-1]
        j = term[order]
        by_term = np.argsort(j, kind="stable")
        rank = np.empty_like(order)
        rank[by_term] = np.arange(len(j)) - np.searchsorted(j[by_term], j[by_term])
        worst = order[rank < limit - np.bincount(term)[j]][:batch]
        if not len(worst):
            break
        worst = worst[:np.searchsorted(np.cumsum(err[worst]), excess) + 1]
        keep = np.ones(len(a), dtype=bool)
        keep[worst] = False
        mid = 0.5 * (a[worst] + b[worst])
        new_a, new_b = np.concatenate((a[worst], mid)), np.concatenate((mid, b[worst]))
        new_term = np.concatenate((term[worst], term[worst]))
        new_val, new_err = _gk21(f, new_a, new_b, new_term, batch)
        a, b = np.concatenate((a[keep], new_a)), np.concatenate((b[keep], new_b))
        term = np.concatenate((term[keep], new_term))
        val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))
    return float(np.sum(val)), float(np.sum(err))


# max |v'| over _SLOPE_PROBE, per profile instance
_PROBED_SLOPE = weakref.WeakKeyDictionary()


def _slope_bound(profile: RadialProfile, extra: float) -> float:
    worst = _PROBED_SLOPE.get(profile)
    if worst is None:
        worst = 0.0
        for r in _SLOPE_PROBE:
            g = abs(profile.first_derivative(float(r)))
            if math.isfinite(g) and g > worst:
                worst = float(g)
        _PROBED_SLOPE[profile] = worst
    g = abs(profile.first_derivative(abs(extra) + 1e-6))
    return float(g) if math.isfinite(g) and g > worst else worst


def graph_curvature(profile: RadialProfile, radius: float, n: int, alpha: float,
                    config: QuadratureConfig = QuadratureConfig(),
                    two_leaf: bool = True) -> CurvatureResult:
    """Curvature at the boundary point above horizontal radius ``radius``.

    ``two_leaf`` selects the symmetric body {|x_last| < max(v, 0)}, whose
    slices are empty where v < 0; otherwise the subgraph {x_last < v} is
    used and the mirror term is dropped.  The lower leaf of a two-leaf body
    has the same value by symmetry.
    """
    s = abs(float(radius))
    if not math.isfinite(s):
        raise ValueError(f"radius must be finite, not {float(radius)!r}")
    if not profile.smooth_at(s):
        raise NonSmoothPointError(f"profile {profile.kind!r} is not smooth at r = {s}")
    vs = profile.value(s)
    if two_leaf and not vs > 0.0:
        raise NonSmoothPointError(
            f"two-leaf body needs positive height at r = {s}, got {vs}")

    F = SliceIntegral(n, alpha)
    cj, wang = angular_rule(n, ANGULAR_ORDER)
    ang_mass = float(np.sum(wang))
    dvs = profile.first_derivative(s)
    delta = min(config.pv_inner_radius, 0.5 * vs) if two_leaf else config.pv_inner_radius
    # QUADPACK's weighted routine rejects subdivision limits below 2
    limit = max(2, config.max_subdivisions)
    quad_kw = dict(epsabs=1e-12, epsrel=1e-12, limit=limit)

    # everything below that does not depend on rho, once per point
    wl = -cj * dvs
    regularizer = F.value(wl)
    two_s_c = 2.0 * s * cj
    two_s_sin2 = 2.0 * s * (1.0 - cj * cj)

    def offsets(rho, j=slice(None)):
        # at the apex sqrt(rho * rho) is rho exactly while rho^2 stays a
        # normal float, hence the cores' clamp at 1e-150
        a_coef = two_s_c[j] + rho
        t = np.abs(s + cj[j] * rho) if n == 1 else np.sqrt(s * s + rho * a_coef)
        return t, a_coef

    def core_graph(rho, j=slice(None)):
        # the graph terms w_j part_j(rho) below the pivot, as plain takes them
        rho = np.maximum(rho, 1e-150)
        t, a_coef = offsets(rho, j)
        ts = t + s
        q = a_coef / ts
        dt = rho * q
        one_m_cq = (dt + two_s_sin2[j] - cj[j] * rho) / ts
        # dt = t - s, so the step ends at t >= 0; the clip undoes rounding
        ddr = -dvs * one_m_cq / ts - q * q * profile._bends(s, np.maximum(dt, -s))
        dd = ddr * rho
        small = np.abs(dd) < 1e-6
        if small.all():
            part = ddr * F.deriv(wl[j] + 0.5 * dd)
        else:
            part = (F.value(wl[j] + dd) - regularizer[j]) / rho
            if small.any():
                part = np.where(small, ddr * F.deriv(wl[j] + 0.5 * dd), part)
        if two_leaf:
            # wl + dd is (v(s) - v(t)) / rho; an empty slice reads as height 0
            empty = vs - rho * (wl[j] + dd) < 0.0
            if empty.any():
                part = np.where(empty, (F.value(vs / rho) - regularizer[j]) / rho, part)
        return wang[j] * part

    def core_mirror(rho, j=slice(None)):
        # the mirror terms over rho, under the core's weight rho^-a
        rho = np.maximum(rho, 1e-150)
        t, _ = offsets(rho, j)
        heights = vs + np.maximum(profile_values(profile, t), 0.0)
        return wang[j] * F.gap(heights / rho) / rho

    def plain(rho, j=slice(None)):
        # the terms w_j part_j(rho) of A: every node at one radius, or node
        # j[i] at radius rho[i], elementwise
        t, _ = offsets(rho, j)
        vt = profile_values(profile, t)
        if two_leaf:
            vt = np.maximum(vt, 0.0)
            part = F.value((vs - vt) / rho) - regularizer[j] + F.gap((vs + vt) / rho)
        else:
            part = F.value((vs - vt) / rho) - regularizer[j]
        return wang[j] * part

    def node_bends(k):
        # the rho > 0 where a node's offset meets a kink radius k (module
        # docstring); at n = 1, sqrt(k^2) = k gives exactly s, |k - s| and k + s
        disc = k[:, None] ** 2 - s * s * (1.0 - cj * cj)
        real = disc >= 0.0
        node = np.broadcast_to(np.arange(len(cj)), disc.shape)[real]
        mid = np.broadcast_to(-s * cj, disc.shape)[real]
        root = np.sqrt(disc[real])
        radii = np.concatenate((mid - root, mid + root))
        return np.concatenate((node, node))[radii > 0.0], radii[radii > 0.0]

    outer = config.truncation_radius
    bend_node, bend_rho = node_bends(np.concatenate(
        ([0.0], profile.knots, profile.zeros if two_leaf else ())))
    bends = np.log(bend_rho)

    def node_panels(lo, hi, at):
        # each node's panels on (lo, hi), split at its bends `at` in the band's
        # variable; a node whose edges take over half its budget starts whole
        inside = (lo < at) & (at < hi)
        j, u = bend_node[inside], at[inside]
        fits = 2 * (np.bincount(j, minlength=len(cj)) + 1) <= limit
        j, u = j[fits[j]], u[fits[j]]
        every = np.arange(len(cj))
        a, ja = np.concatenate((np.full(len(cj), lo), u)), np.concatenate((every, j))
        b, jb = np.concatenate((u, np.full(len(cj), hi))), np.concatenate((j, every))
        ia, ib = np.lexsort((a, ja)), np.lexsort((b, jb))
        return a[ia], b[ib], ja[ia]

    def log_band(lo, hi):
        lo, hi = math.log(lo), math.log(hi)
        if n == 1:
            # QUADPACK's breakpoint routine needs fewer breakpoints than its budget
            points = np.unique(bends[(lo < bends) & (bends < hi)]).tolist()
            kw = dict(quad_kw, points=points) if 0 < len(points) < limit else quad_kw
            return _quad(lambda u: np.sum(plain(math.exp(u))) * math.exp(-alpha * u),
                         lo, hi, warnings, **kw)
        return _gk21_band(lambda u, j: plain(np.exp(u), j) * np.exp(-alpha * u),
                          *node_panels(lo, hi, bends), limit)

    warnings = []
    if n == 1:
        core_val, core_err = _quad(lambda rho: np.sum(core_graph(rho)), 0.0, delta,
                                   warnings, weight="alg", wvar=(-alpha, 0.0), **quad_kw)
        if two_leaf:
            m_val, m_err = _quad(lambda rho: np.sum(core_mirror(rho)) * rho ** -alpha,
                                 0.0, delta, warnings, **quad_kw)
            core_val += m_val
            core_err += m_err
    else:
        # both core terms on the node panels in x = rho^(1 - a): rho^-a drho = dx / (1 - a)
        e = 1.0 / (1.0 - alpha)
        core_val, core_err = _gk21_band(
            lambda x, j: e * (core_graph(x ** e, j)
                              + (core_mirror(x ** e, j) if two_leaf else 0.0)),
            *node_panels(0.0, delta ** (1.0 - alpha), bend_rho ** (1.0 - alpha)), limit)

    mid_val, mid_err = log_band(delta, outer)

    lips = _slope_bound(profile, s)
    tail_coeff = 2.0 * ang_mass * (2.0 * F.value(lips) + (F.limit if two_leaf else 0.0)) / alpha
    decades = 0
    while True:
        tail = tail_coeff * outer ** (-alpha)
        value = 2.0 * (core_val + mid_val)
        goal = max(TARGET_TOLERANCE, TAIL_SHARE * abs(value))
        if tail <= goal:
            break
        if outer >= ESCALATION_CAP_RADIUS or decades >= config.max_subdivisions:
            warnings.append("tail-above-target")
            break
        # every decade the bound needs at this value, in one band
        top, decades = 10.0 * outer, decades + 1
        while (tail_coeff * top ** (-alpha) > goal and top < ESCALATION_CAP_RADIUS
               and decades < config.max_subdivisions):
            top, decades = 10.0 * top, decades + 1
        band_val, band_err = log_band(outer, top)
        mid_val += band_val
        mid_err += band_err
        outer = top

    # written so that a nan error also warns
    if not 2.0 * (core_err + mid_err) <= goal:
        warnings.append("quadrature-above-target")

    return CurvatureResult(value=float(2.0 * (core_val + mid_val)),
                           error_core=float(2.0 * core_err),
                           error_midfield=float(2.0 * mid_err),
                           error_tail=float(tail),
                           outer_radius=float(outer),
                           warnings=tuple(dict.fromkeys(warnings)))


def two_leaf_curvature(profile, radius, n, alpha, config=QuadratureConfig()):
    return graph_curvature(profile, radius, n, alpha, config, two_leaf=True)


def subgraph_curvature(profile, radius, n, alpha, config=QuadratureConfig()):
    return graph_curvature(profile, radius, n, alpha, config, two_leaf=False)
