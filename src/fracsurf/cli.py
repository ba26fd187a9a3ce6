"""Command-line front end.

Six subcommands: curvature, barrier-verify, cone-sweep, slide, blowdown,
perimeter.  Each handler reads its section once and returns its exit status
and its files; ``main`` writes them together with ``resolved.ini``, the
record of every key the run read.  A key the user set that the run never
read is an error, and any error leaves no output directory.  Reruns with
the same inputs are byte-identical.  Exit status: 0 when the run completed
with a positive or neutral outcome, 2 when the outcome is inconclusive or
the mechanism under test did not close, 1 on any error.
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
from .geometry import Ball, Box, Scaled, Subgraph, TwoLeaf
from .oracle import direct_curvature, relative_perimeter
from .profiles import BarrierProfile, profile_from_config
from .sliding import (VERDICT_UNBOUNDED, rescale_for_slide, slide)


def _quadrature_from(section: dict, profile=None) -> QuadratureConfig:
    """The quadrature settings, each read from and recorded in ``section``."""
    kwargs = {f.name: type(f.default)(float(section[f.name]))
              for f in fields(QuadratureConfig) if section.get(f.name, "").strip()}
    cfg = replace(QuadratureConfig.for_profile(profile), **kwargs)
    for f in fields(QuadratureConfig):
        section[f.name] = repr(getattr(cfg, f.name))
    return cfg


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_line(*vals) -> str:
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in vals)


def cmd_curvature(sections, n, alpha, seed):
    sec = sections["curvature"]
    geometry = sec["geometry"].strip().lower()
    method = sec["method"].strip().lower()
    points = cfgmod.parse_floats(sec["points"])
    complement = cfgmod.parse_bool(sec.get("complement", "false"))
    if method not in ("formula", "direct"):
        raise ValueError(f"unknown method {method!r}")
    profile = None
    if geometry == "ball":
        radius = float(sec.get("radius", 1.0))
        body = Ball(radius)
    elif geometry in ("twoleaf", "subgraph"):
        profile = profile_from_config(sec)
        body = TwoLeaf(profile) if geometry == "twoleaf" else Subgraph(profile)
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    if method == "formula" and (profile is None or complement):
        raise ValueError("method = formula covers two-leaf and subgraph bodies only, "
                         "not a ball or a complement; use method = direct")
    if complement:
        body = ~body
    cfg = _quadrature_from(sec, profile)
    digest = cfgmod.config_hash(sections)

    records = []
    csv_lines = ["r,height,H,err_total"]
    for i, r in enumerate(points):
        point = np.zeros(n + 1)
        if profile is None:  # a polar angle on the ball
            point[0], point[-1] = radius * math.cos(r), radius * math.sin(r)
        else:
            point[0], point[-1] = r, profile.value(r)
        if method == "formula":
            res = graph_curvature(profile, r, n, alpha, cfg, two_leaf=(geometry == "twoleaf"))
        else:
            res = direct_curvature(body, point, n, alpha, cfg,
                                   seed=cfgmod.derived_seed(seed, "curvature", i))
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
        csv_lines.append(_csv_line(float(r), float(point[-1]), float(res.value),
                                   float(res.total_error)))
    return 0, {"points.json": _json(records), "sweep.csv": "\n".join(csv_lines) + "\n"}


def cmd_barrier_verify(sections, n, alpha, seed):
    sec = sections["barrier-verify"]
    eps = float(sec["epsilon"])
    samples = int(float(sec["samples"]))
    cfg = _quadrature_from(sec, BarrierProfile(eps))
    report = verify_barrier(eps, n, alpha, config=cfg, seed=seed,
                            min_samples=samples,
                            bisect_eps0=cfgmod.parse_bool(sec["bisect"]),
                            check_shrink=cfgmod.parse_bool(sec["check_shrink"]))
    payload = {
        "epsilon": report.epsilon,
        "n": report.n,
        "alpha": report.alpha,
        "samples": [{"point": list(p.point), "H": p.value, "err": p.error,
                     "outer_radius": p.outer_radius, "warnings": list(p.warnings)}
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
    return 0 if report.verdict == "POSITIVE" else 2, {"report.json": _json(payload)}


def cmd_cone_sweep(sections, n, alpha, seed):
    sec = sections["cone-sweep"]
    epsilons = cfgmod.parse_floats(sec["epsilons"])
    report = sweep_cone_constant(epsilons, n, alpha, seed=seed)
    lines = ["epsilon,M,err"]
    for entry in report.entries:
        lines.append(_csv_line(entry.epsilon, entry.value, entry.error))
    payload = {
        "entries": [{"epsilon": e.epsilon, "M": e.value, "err": e.error,
                     "rays": [list(t) for t in e.entries]} for e in report.entries],
        "blow_up_trend": report.blow_up_trend,
        "monotone": report.monotone,
    }
    return 0, {"sweep.csv": "\n".join(lines) + "\n", "report.json": _json(payload)}


def cmd_slide(sections, n, alpha, seed):
    sec = sections["slide"]
    eps0 = float(sec["eps0"])
    envelope = profile_from_config(sec, "envelope_")
    candidate = profile_from_config(sec, "candidate_")
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
    return 2 if outcome.verdict == VERDICT_UNBOUNDED else 0, {"outcome.json": _json(payload)}


def cmd_blowdown(sections, n, alpha, seed):
    sec = sections["blowdown"]
    profile = profile_from_config(sec)
    envelope = profile_from_config(sec, "envelope_")
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
    lines = ["R,beta,lhs,rhs"]
    for rr in cfgmod.parse_floats(sec["holder_R"]):
        h = holder_rescaling_check(profile, rr, beta)
        lines.append(_csv_line(h.R, h.beta, h.lhs, h.rhs))
    return 0, {"report.json": _json(payload), "holder.csv": "\n".join(lines) + "\n"}


def cmd_perimeter(sections, n, alpha, seed):
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
    return 0, {"perimeter.csv": "\n".join(lines) + "\n", "report.json": _json({"rows": rows})}


_HANDLERS = {
    "curvature": cmd_curvature,
    "barrier-verify": cmd_barrier_verify,
    "cone-sweep": cmd_cone_sweep,
    "slide": cmd_slide,
    "blowdown": cmd_blowdown,
    "perimeter": cmd_perimeter,
}


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

    try:
        sections = cfgmod.resolve(args.command, args.config, {"seed": args.seed})
        run = sections["run"]
        # destination directory and the ignored worker count change neither
        # values nor bytes, so they stay out of the resolved config and its hash
        run.pop("threads", None)
        out = run.pop("out", None)
        code, files = _HANDLERS[run["command"]](sections, int(run["n"]),
                                                 float(run["alpha"]), int(run["seed"]))
        unread = cfgmod.unread(sections)
        if unread:
            raise ValueError(f"{args.command} does not read the key {unread[0]!r}")
        files["resolved.ini"] = cfgmod.canonical_text(cfgmod.record(sections))
        out_dir = Path(args.out or out or f"runs/{args.command}")
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text)
        return code
    except (FracsurfError, ValueError, KeyError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
