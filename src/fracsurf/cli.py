"""Command-line front end.

Six subcommands: curvature, barrier-verify, cone-sweep, slide, blowdown,
perimeter.  Every run writes its outputs plus the fully resolved
configuration into the output directory; reruns with the same inputs are
byte-identical.  Exit status: 0 when the run completed with a positive or
neutral outcome, 2 when the outcome is inconclusive or the mechanism under
test did not close, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .barrier import sweep_cone_constant, verify_barrier
from .blowdown import flatness_certificate, holder_rescaling_check
from .curvature import QuadratureConfig, graph_curvature
from .errors import FracsurfError
from .geometry import Ball, Box, Cone, HalfSpace, Scaled, Subgraph, TwoLeaf
from .oracle import direct_curvature, relative_perimeter
from .profiles import BarrierProfile, profile_from_config
from .sliding import (VERDICT_UNBOUNDED, rescale_for_slide, slide)


def _prefixed_profile(section: dict, prefix: str):
    """The profile whose keys carry ``prefix_`` (envelope, candidate)."""
    return profile_from_config({k.removeprefix(prefix + "_"): v for k, v in section.items()
                                if k.startswith(prefix + "_")})


def _quadrature_from(section: dict, profile=None) -> QuadratureConfig:
    cfg = QuadratureConfig.for_profile(profile) if profile is not None else QuadratureConfig()
    kwargs = {f.name: type(f.default)(float(section[f.name]))
              for f in fields(QuadratureConfig) if section.get(f.name, "").strip()}
    return replace(cfg, **kwargs) if kwargs else cfg


def _record_quadrature(section: dict, cfg: QuadratureConfig) -> None:
    for f in fields(QuadratureConfig):
        section[f.name] = repr(getattr(cfg, f.name))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_line(*vals) -> str:
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in vals)


def cmd_curvature(sections, out_dir, n, alpha, seed) -> int:
    sec = sections["curvature"]
    geometry = sec["geometry"].strip().lower()
    method = sec["method"].strip().lower()
    points = cfgmod.parse_floats(sec["points"])

    profile = None
    if geometry in ("twoleaf", "subgraph"):
        profile = profile_from_config(sec)
    cfg = _quadrature_from(sec, profile)
    _record_quadrature(sec, cfg)
    digest = cfgmod.config_hash(sections)

    def eval_one(i, r):
        if geometry in ("twoleaf", "subgraph"):
            height = profile.value(r)
            point = [r] + [0.0] * (n - 1) + [height]
            if method == "formula":
                res = graph_curvature(profile, r, n, alpha, cfg,
                                      two_leaf=(geometry == "twoleaf"))
            elif method == "direct":
                body = TwoLeaf(profile) if geometry == "twoleaf" else Subgraph(profile)
                res = direct_curvature(body, np.array(point), n, alpha, cfg,
                                       seed=cfgmod.derived_seed(seed, "curvature", i))
            else:
                raise ValueError(f"unknown method {method!r}")
        else:
            if method != "direct":
                raise ValueError(f"geometry {geometry!r} has no closed quadrature; use method=direct")
            body, point = _direct_body_point(sec, geometry, r, n)
            res = direct_curvature(body, np.array(point), n, alpha, cfg,
                                   seed=cfgmod.derived_seed(seed, "curvature", i))
            height = point[-1]
        return point, height, res

    results = [eval_one(i, r) for i, r in enumerate(points)]

    records = []
    csv_lines = ["r,height,H,err_total"]
    for (point, height, res), r in zip(results, points):
        records.append({
            "point": [float(c) for c in point],
            "value": float(res.value),
            "error_core": float(res.error_core),
            "error_midfield": float(res.error_midfield),
            "error_tail": float(res.error_tail),
            "outer_radius": float(res.outer_radius),
            "warnings": list(res.warnings),
            "config_hash": digest,
        })
        csv_lines.append(_csv_line(float(r), float(height), float(res.value),
                                   float(res.total_error)))
    _write_json(out_dir / "points.json", records)
    (out_dir / "sweep.csv").write_text("\n".join(csv_lines) + "\n")
    cfgmod.write_resolved(sections, out_dir)
    return 0


def _direct_body_point(sec, geometry, r, n):
    d = n + 1
    if geometry == "ball":
        radius = float(sec.get("radius", 1.0))
        body = Ball(radius)
        point = [0.0] * d
        point[0] = radius * math.cos(r)
        point[-1] = radius * math.sin(r)
    elif geometry == "halfspace":
        height = float(sec.get("height", 0.0))
        body = HalfSpace(height)
        point = [0.0] * d
        point[0] = r
        point[-1] = height
    elif geometry == "cone":
        eps = float(sec["epsilon"])
        body = Cone(eps)
        point = [0.0] * d
        point[0] = r
        point[-1] = eps * r
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    if cfgmod.parse_bool(sec.get("complement", "false")):
        body = ~body
    return body, point


def cmd_barrier_verify(sections, out_dir, n, alpha, seed) -> int:
    sec = sections["barrier-verify"]
    eps = float(sec["epsilon"])
    samples = int(float(sec["samples"]))
    cfg = _quadrature_from(sec, BarrierProfile(eps))
    _record_quadrature(sec, cfg)
    report = verify_barrier(eps, n, alpha, config=cfg, seed=seed,
                            min_samples=samples,
                            bisect_eps0=cfgmod.parse_bool(sec["bisect"]),
                            check_shrink=cfgmod.parse_bool(sec["check_shrink"]))
    payload = {
        "epsilon": report.epsilon,
        "n": report.n,
        "alpha": report.alpha,
        "samples": [{"point": list(p.point), "H": p.value, "err": p.error}
                    for p in report.samples],
        "min_margin": report.min_margin,
        "verdict": report.verdict,
        "empirical_eps0": report.empirical_eps0,
        "far_scaled": report.far_scaled,
        "cone_value": report.cone_value,
        "cone_error": report.cone_error,
        "far_agrees": report.far_agrees,
        "shrink_consistent": report.shrink_consistent,
        "notes": list(report.notes),
    }
    _write_json(out_dir / "report.json", payload)
    cfgmod.write_resolved(sections, out_dir)
    return 0 if report.verdict == "POSITIVE" else 2


def cmd_cone_sweep(sections, out_dir, n, alpha, seed) -> int:
    sec = sections["cone-sweep"]
    epsilons = cfgmod.parse_floats(sec["epsilons"])
    report = sweep_cone_constant(epsilons, n, alpha, seed=seed)
    lines = ["epsilon,M,err"]
    for entry in report.entries:
        lines.append(_csv_line(entry.epsilon, entry.value, entry.error))
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    payload = {
        "entries": [{"epsilon": e.epsilon, "M": e.value, "err": e.error,
                     "rays": [list(t) for t in e.entries]} for e in report.entries],
        "blow_up_trend": report.blow_up_trend,
        "monotone": report.monotone,
    }
    _write_json(out_dir / "report.json", payload)
    cfgmod.write_resolved(sections, out_dir)
    return 0


def cmd_slide(sections, out_dir, n, alpha, seed) -> int:
    sec = sections["slide"]
    eps0 = float(sec["eps0"])
    envelope = _prefixed_profile(sec, "envelope")
    candidate = _prefixed_profile(sec, "candidate")
    plan = rescale_for_slide(envelope, eps0)
    outcome = slide(candidate, plan.lam, eps0, n, alpha)
    payload = {
        "lambda": outcome.lam,
        "eps_star": outcome.eps_star,
        "floor": outcome.floor,
        "touch_point": list(outcome.touch_point) if outcome.touch_point else None,
        "H_at_touch": outcome.curvature_at_touch,
        "err": outcome.curvature_error,
        "verdict": outcome.verdict,
        "interpretation": outcome.interpretation,
    }
    _write_json(out_dir / "outcome.json", payload)
    cfgmod.write_resolved(sections, out_dir)
    return 2 if outcome.verdict == VERDICT_UNBOUNDED else 0


def cmd_blowdown(sections, out_dir, n, alpha, seed) -> int:
    sec = sections["blowdown"]
    profile = profile_from_config(sec)
    envelope = _prefixed_profile(sec, "envelope")
    eps = float(sec["epsilon"])
    R = float(sec["R"])
    beta = float(sec["beta"])
    report = flatness_certificate(profile, envelope, eps, R)
    payload = {
        "R": report.R,
        "epsilon": report.epsilon,
        "R_eps_predicted": report.R_eps_predicted,
        "passed": report.passed,
        "violator": report.violator,
    }
    _write_json(out_dir / "report.json", payload)
    lines = ["R,beta,lhs,rhs"]
    for rr in cfgmod.parse_floats(sec["holder_R"]):
        h = holder_rescaling_check(profile, rr, beta)
        lines.append(_csv_line(h.R, h.beta, h.lhs, h.rhs))
    (out_dir / "holder.csv").write_text("\n".join(lines) + "\n")
    cfgmod.write_resolved(sections, out_dir)
    return 0


def cmd_perimeter(sections, out_dir, n, alpha, seed) -> int:
    sec = sections["perimeter"]
    profile = profile_from_config(sec)
    body = TwoLeaf(profile)
    w = float(sec["window"])
    samples = int(float(sec["samples"]))
    lines = ["scale,value,err"]
    rows = []
    for scale in cfgmod.parse_floats(sec["scales"]):
        scaled = Scaled(body, scale)
        window = Box((-w * scale,) * (n + 1), (w * scale,) * (n + 1))
        res = relative_perimeter(scaled, window, n, alpha, samples=samples,
                                 seed=cfgmod.derived_seed(seed, "perimeter", scale))
        lines.append(_csv_line(scale, res.value, res.error))
        rows.append({"scale": float(scale), "value": res.value, "err": res.error})
    (out_dir / "perimeter.csv").write_text("\n".join(lines) + "\n")
    _write_json(out_dir / "report.json", {"rows": rows})
    cfgmod.write_resolved(sections, out_dir)
    return 0


_HANDLERS = {
    "curvature": cmd_curvature,
    "barrier-verify": cmd_barrier_verify,
    "cone-sweep": cmd_cone_sweep,
    "slide": cmd_slide,
    "blowdown": cmd_blowdown,
    "perimeter": cmd_perimeter,
}

# a key its command does not read would reach resolved.ini and config_hash
# without effect: the quadrature keys where a command builds its own
# settings, and the retired grid window of slide
_QUADRATURE_KEYS = tuple(f.name for f in fields(QuadratureConfig))
_UNREAD_KEYS = {"cone-sweep": _QUADRATURE_KEYS, "slide": _QUADRATURE_KEYS + ("r_max",),
                "blowdown": _QUADRATURE_KEYS, "perimeter": _QUADRATURE_KEYS}


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI file with [run] and per-command sections")
    common.add_argument("--out", help="output directory (default runs/<command>)")
    common.add_argument("--seed", type=int, help="base seed for all sampling")
    common.add_argument("--threads", type=int,
                        help="accepted for old scripts; runs are single-threaded")

    parser = argparse.ArgumentParser(
        prog="fracsurf",
        description="curvature, barrier, sliding, and rescaling diagnostics "
                    "for fractional-perimeter geometry")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sub.add_parser(name, parents=[common])
    args = parser.parse_args(argv)

    overrides = {"seed": args.seed, "threads": args.threads}
    try:
        sections = cfgmod.resolve(args.command, args.config, overrides)
        for key in _UNREAD_KEYS.get(args.command, ()):
            if key in sections[args.command]:
                raise ValueError(f"{args.command} does not read the key {key!r}")
        run = sections["run"]
        n = int(run["n"])
        alpha = float(run["alpha"])
        seed = int(run["seed"])
        # destination directory and the ignored worker count change neither
        # values nor bytes, so they stay out of the resolved config and its hash
        run.pop("threads", None)
        out_dir = Path(args.out or run.pop("out", None) or f"runs/{args.command}")
        out_dir.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](sections, out_dir, n, alpha, seed)
    except FracsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
