"""The benchmark's three workloads: inputs, operations and checks.

A workload is a fixed batch of operations (one round), built from the
workload seed.  The program receives only the generated inputs.  ``judge``
checks one round's outputs against references computed here, apart from the
timed code, and is called only after every round has been timed.

Each workload names one known fault: operations that fail with exactly that
signature are expected failures; any other miss makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fracsurf
import fracsurf.cli
from checks import (barrier_report_ok, blowdown_report_ok, derived_seed,
                    exactly_zero, rays_agree, scales_as, slab_curvature,
                    slide_outcome_ok, within_error)

NS = (1, 2, 3)
ALPHAS = (0.2, 0.5, 0.8)
CONE_EPS = 0.2


@dataclass
class Op:
    key: str
    call: Callable[[], object]  # the timed operation
    collect: Callable[[object], object] | None = None  # untimed: raw return -> output


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    known_fault: bool = False
    rel_error: float | None = None  # total_error / |value| of a passing op


@dataclass
class Workload:
    ops: list
    judge: Callable[[dict], dict]  # key -> output  =>  key -> Verdict
    fingerprint: Callable[[object], str]
    known_fault: str
    meta: dict = field(default_factory=dict)  # key -> the inputs its check needs
    # operations hit by the known fault; kept out of err_rel even once they
    # pass, so mending the fault does not read as a change in accuracy
    fault_ops: frozenset = frozenset()
    cleanup: Callable[[], None] = field(default=lambda: None)


def _curvature_fingerprint(res) -> str:
    return repr((res.value, res.error_core, res.error_midfield, res.error_tail,
                 res.outer_radius, res.warnings))


def _rel_error(value, error):
    return error / abs(value) if value != 0.0 and math.isfinite(value) else None


def _passing(res) -> Verdict:
    return Verdict(True, rel_error=_rel_error(res.value, res.total_error))


@functools.lru_cache(maxsize=None)
def cone_reference(epsilon: float, n: int, alpha: float, norm: float = 5.0) -> tuple:
    """Deterministic cone constant and its error: the |x|^alpha-scaled
    quadrature curvature of the straight cone at |x| = norm."""
    res = fracsurf.two_leaf_curvature(fracsurf.LinearProfile(epsilon),
                                      norm / math.sqrt(1.0 + epsilon ** 2), n, alpha)
    return norm ** alpha * res.value, norm ** alpha * res.total_error


# -- quad-grid ----------------------------------------------------------------

QUAD_REGIONS = {"apex": (0.0, 0.0), "plateau": (0.4, 0.6), "blend": (1.4, 1.6),
                "near-cone": (2.8, 3.2), "far": (50.0, 50.0)}
CONE_NORMS = (2.0, 5.0, 10.0)
CONE_ALPHA = 0.5

APEX_FAULT = ("two_leaf_curvature at r = 0 with n >= 2 returns value = nan and "
              "error_core = nan with no quadrature-above-target warning (core_graph "
              "clamps rho to 1e-300, whose square underflows)")


def quad_grid(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(derived_seed(seed, "quad-grid"))
    barrier = fracsurf.BarrierProfile(0.2)
    twin = fracsurf.DilatedGraphProfile(barrier, 0.5)
    ops, meta = [], {}

    def point(key, fn, profile, radius, n, alpha, **info):
        # looked up at call time, so the traced run sees the wrapped function
        ops.append(Op(key, lambda: getattr(fracsurf, fn)(profile, radius, n, alpha)))
        meta[key] = dict(n=n, alpha=alpha, **info)

    for n in NS:
        for alpha in ALPHAS:
            for region, (lo, hi) in QUAD_REGIONS.items():
                r = float(rng.uniform(lo, hi))
                key = f"barrier n={n} a={alpha} {region}"
                point(key, "two_leaf_curvature", barrier, r, n, alpha,
                      kind="barrier", region=region)
                point(f"twin of {key}", "two_leaf_curvature", twin, 2.0 * r, n, alpha,
                      kind="twin", region=region, base=key)
            h = float(rng.uniform(0.2, 0.5))
            point(f"slab n={n} a={alpha}", "two_leaf_curvature",
                  fracsurf.ConstantProfile(h), float(rng.uniform(0.0, 2.0)), n, alpha,
                  kind="slab", h=h)
        cone = fracsurf.LinearProfile(CONE_EPS)
        for m in CONE_NORMS:
            norm = m * float(rng.uniform(0.9, 1.1))
            point(f"cone n={n} |x|={m}", "two_leaf_curvature", cone,
                  norm / math.sqrt(1.0 + CONE_EPS ** 2), n, CONE_ALPHA, kind="cone", norm=norm)
    point("half-space", "subgraph_curvature",
          fracsurf.ConstantProfile(float(rng.uniform(-1.0, 1.0))),
          float(rng.uniform(0.0, 3.0)), 2, 0.5, kind="half-space")
    ops = [ops[i] for i in rng.permutation(len(ops))]

    def judge(out):
        verdicts = {}
        for key, res in out.items():
            m = meta[key]
            if isinstance(res, Exception):
                if m["kind"] not in ("barrier", "twin"):
                    verdicts[key] = Verdict(False, f"raised {res!r}")
            elif m["kind"] == "slab":
                ref = slab_curvature(m["n"], m["alpha"], m["h"])
                verdicts[key] = (_passing(res) if within_error(res.value, res.total_error, ref)
                                 else Verdict(False, f"{res.value} +- {res.total_error} misses "
                                                     f"closed form {ref}"))
            elif m["kind"] == "half-space":
                verdicts[key] = (Verdict(True) if exactly_zero(res.value)
                                 else Verdict(False, f"half-space value {res.value} != 0"))
        for key, m in meta.items():
            if m["kind"] != "twin":
                continue
            base = m["base"]
            pair = {base: out[base], key: out[key]}
            bad = {k: r for k, r in pair.items()
                   if isinstance(r, Exception) or not (math.isfinite(r.value)
                                                       and math.isfinite(r.total_error))}
            if bad:
                for k, r in pair.items():
                    if k not in bad:
                        verdicts[k] = Verdict(False, "its dilation twin has no finite value")
                    elif isinstance(r, Exception):
                        verdicts[k] = Verdict(False, f"raised {r!r}")
                    else:
                        apex = (meta[k]["region"] == "apex" and m["n"] >= 2
                                and math.isnan(r.error_core)
                                and "quadrature-above-target" not in r.warnings)
                        verdicts[k] = Verdict(False, f"non-finite value {r.value}, error_core "
                                                     f"{r.error_core}, warnings {r.warnings}",
                                              known_fault=apex)
                continue
            res_b, res_t = pair[base], pair[key]
            if scales_as(res_b.value, res_b.total_error, res_t.value, res_t.total_error,
                         2.0 ** (-m["alpha"])):
                verdicts[base], verdicts[key] = _passing(res_b), _passing(res_t)
            else:
                verdicts[base] = verdicts[key] = Verdict(
                    False, f"twin {res_t.value} vs 2^-a x {res_b.value}, beyond "
                           f"{res_t.total_error} + 2^-a x {res_b.total_error}")
        for n in NS:
            keys = [f"cone n={n} |x|={m}" for m in CONE_NORMS]
            res = [out[k] for k in keys]
            if any(isinstance(r, Exception) for r in res):
                continue  # already failed as raised
            scaled = [(meta[k]["norm"] ** CONE_ALPHA * r.value,
                       meta[k]["norm"] ** CONE_ALPHA * r.total_error) for k, r in zip(keys, res)]
            for k, r, ok in zip(keys, res, rays_agree(scaled)):
                verdicts[k] = _passing(r) if ok else Verdict(
                    False, f"scaled cone values {[s for s, _ in scaled]} disagree")
        return verdicts

    apex = frozenset(k for k, m in meta.items() if m.get("region") == "apex" and m["n"] >= 2)
    return Workload(ops, judge, _curvature_fingerprint, APEX_FAULT, meta, fault_ops=apex)


# -- barrier-audit --------------------------------------------------------------

BARRIER_EPS = 0.2
BLOWDOWN_EPS = 0.1
BLOWDOWN_R = 100.0

AUDIT_INI = """\
[run]
n = 1
alpha = 0.5
seed = {seed}
threads = 1

[barrier-verify]
epsilon = {eps!r}
samples = 64
bisect = false

[slide]
eps0 = 0.05
envelope_kind = constant
envelope_level = 1.0
candidate_kind = constant
candidate_level = 0.1

[blowdown]
kind = sqrt
scale = 1.0
epsilon = {blow_eps!r}
R = {blow_r!r}
holder_R = 5.0,10.0,20.0
envelope_kind = sqrt
envelope_scale = 1.0
"""

JSON_FAULT = ("barrier-verify with the default check_shrink = true exits 1 with "
              "'Object of type bool is not JSON serializable' (shrink_consistent "
              "is a numpy.bool_)")

AUDIT_COMMANDS = {"barrier-verify": "report.json", "slide": "outcome.json",
                  "blowdown": "report.json"}


@dataclass
class CliRun:
    code: int
    stderr: str
    files: dict  # name -> bytes


def barrier_audit(seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    ini = workdir / "audit.ini"
    ini.write_text(AUDIT_INI.format(seed=derived_seed(seed, "barrier-audit") % 10 ** 9,
                                    eps=BARRIER_EPS, blow_eps=BLOWDOWN_EPS,
                                    blow_r=BLOWDOWN_R))

    def command(name):
        out_dir = workdir / name

        def call():
            shutil.rmtree(out_dir, ignore_errors=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = fracsurf.cli.main([name, "--config", str(ini), "--out", str(out_dir)])
            return code, err.getvalue()

        def collect(raw):
            files = ({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                     if out_dir.is_dir() else {})
            return CliRun(raw[0], raw[1], files)
        return Op(name, call, collect)

    ops = [command(name) for name in AUDIT_COMMANDS]

    def judge(out):
        verdicts = {}
        for key, run in out.items():
            if isinstance(run, Exception):
                verdicts[key] = Verdict(False, f"raised {run!r}")
                continue
            main_file = AUDIT_COMMANDS[key]
            if run.code != 0 or main_file not in run.files:
                known = (key == "barrier-verify" and run.code == 1
                         and "is not JSON serializable" in run.stderr)
                verdicts[key] = Verdict(False, f"exit {run.code}: {run.stderr.strip()}",
                                        known_fault=known)
                continue
            payload = json.loads(run.files[main_file])
            rel = None
            if key == "barrier-verify":
                ok, reason = barrier_report_ok(payload, *cone_reference(BARRIER_EPS, 1, 0.5))
            elif key == "slide":
                ok, reason = slide_outcome_ok(payload)
                rel = _rel_error(payload["H_at_touch"], payload["err"]) if ok else None
            else:
                ok, reason = blowdown_report_ok(payload, BLOWDOWN_EPS, BLOWDOWN_R)
            verdicts[key] = Verdict(ok, reason, rel_error=rel)
        return verdicts

    def fingerprint(run):
        return repr((run.code, sorted(run.files.items())))

    return Workload(ops, judge, fingerprint, JSON_FAULT,
                    fault_ops=frozenset({"barrier-verify"}),
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


# -- oracle-mc ----------------------------------------------------------------

PERIMETER_LEVEL = 0.3
PERIMETER_WINDOW = 2.0
PERIMETER_SAMPLES = 400_000


def oracle_mc(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(derived_seed(seed, "oracle-mc"))
    ops, meta = [], {}

    def estimate(key, fn, **info):
        ops.append(Op(key, fn))
        meta[key] = info

    def direct(body, point, n, alpha, tag):
        s = derived_seed(seed, "oracle-mc", tag)
        return lambda: fracsurf.direct_curvature(body, np.array(point), n, alpha, seed=s)

    for n in NS:
        for alpha in ALPHAS:
            h = float(rng.uniform(0.2, 0.4))
            r = float(rng.uniform(0.0, 1.0))
            for lam in (1.0, 2.0):
                key = f"slab n={n} a={alpha} x{lam:g}"
                body = fracsurf.TwoLeaf(fracsurf.ConstantProfile(lam * h))
                point = [lam * r] + [0.0] * (n - 1) + [lam * h]
                estimate(key, direct(body, point, n, alpha, key), kind="slab", lam=lam,
                         power=-alpha, pair=f"slab n={n} a={alpha} x1")
    height = float(rng.uniform(-1.0, 1.0))
    estimate("half-space", direct(fracsurf.HalfSpace(height),
                                  [float(rng.uniform(0.0, 3.0)), 0.0, height], 2, 0.5,
                                  "half-space"), kind="half-space")
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    for radius in (1.0, 2.0):
        estimate(f"ball R={radius:g}",
                 direct(fracsurf.Ball(radius), [radius * math.cos(theta), radius * math.sin(theta)],
                        1, 0.5, f"ball {radius}"),
                 kind="ball", lam=radius, power=-0.5, pair="ball R=1")
    cone_seed = derived_seed(seed, "oracle-mc", "cone")
    estimate("cone constant", lambda: fracsurf.cone_constant(CONE_EPS, 1, 0.5, seed=cone_seed),
             kind="cone")
    body = fracsurf.TwoLeaf(fracsurf.ConstantProfile(PERIMETER_LEVEL))
    window = fracsurf.Box((-PERIMETER_WINDOW,) * 2, (PERIMETER_WINDOW,) * 2)
    for lam in (1.0, 2.0):
        scaled = fracsurf.Scaled(body, lam) if lam != 1.0 else body
        s = derived_seed(seed, "oracle-mc", "perimeter", lam)
        estimate(f"perimeter x{lam:g}",
                 lambda scaled=scaled, lam=lam, s=s: fracsurf.relative_perimeter(
                     scaled, window.scaled(lam), 1, 0.5, samples=PERIMETER_SAMPLES, seed=s),
                 kind="perimeter", lam=lam, power=1 + 1 - 0.5, pair="perimeter x1")
    ops = [ops[i] for i in rng.permutation(len(ops))]

    def value_error(res):
        if isinstance(res, Exception):
            return None
        if hasattr(res, "total_error"):
            return res.value, res.total_error
        return res.value, res.error

    def judge(out):
        verdicts = {}
        for key, res in out.items():
            m = meta[key]
            if isinstance(res, Exception):
                verdicts[key] = Verdict(False, f"raised {res!r}")
                continue
            val, err = value_error(res)
            if m["kind"] == "half-space":
                verdicts[key] = (Verdict(True) if exactly_zero(val)
                                 else Verdict(False, f"half-space value {val} != 0"))
            elif m["kind"] == "cone":
                ref, ref_err = cone_reference(CONE_EPS, 1, 0.5)
                verdicts[key] = (Verdict(True, rel_error=_rel_error(val, err))
                                 if within_error(val, err + ref_err, ref)
                                 else Verdict(False, f"cone constant {val} +- {err} misses "
                                                     f"the quadrature constant {ref}"))
            elif m["lam"] != 1.0:
                base = value_error(out[m["pair"]])
                if base is None:
                    verdicts[key] = verdicts[m["pair"]] = Verdict(False, "pair member raised")
                    continue
                # the perimeter law is checked within 3x the combined errors
                slack = 3.0 if m["kind"] == "perimeter" else 1.0
                if scales_as(base[0], base[1], val, err, m["lam"] ** m["power"], slack):
                    verdicts[key] = Verdict(True, rel_error=_rel_error(val, err))
                    verdicts[m["pair"]] = Verdict(True, rel_error=_rel_error(*base))
                else:
                    verdicts[key] = verdicts[m["pair"]] = Verdict(
                        False, f"{key}: {val} +- {err} vs {m['lam']}^{m['power']} x {base[0]} "
                               f"+- {base[1]}")
        return verdicts

    def fingerprint(res):
        return repr(value_error(res)) + repr(getattr(res, "entries", None))

    return Workload(ops, judge, fingerprint,
                    "none: every estimate is expected to pass", meta)


WORKLOADS = {"quad-grid": quad_grid, "barrier-audit": barrier_audit, "oracle-mc": oracle_mc}
