"""Command-line front end.

Six subcommands: curvature, barrier-verify, cone-sweep, slide, blowdown,
perimeter.  Each handler reads every key of its section and returns its
computation as a call without arguments, which gives the exit status and
the files.  ``main`` refuses an n or alpha out of range, and a key the user
set that nothing read, before it makes that call, so a misspelling costs no
computation, then writes the files together with ``resolved.ini``, the
record of every key the run read.
Any error leaves no output directory.  Reruns with the same inputs are
byte-identical.  Exit status: 0 when the run completed with a positive or
neutral outcome, 2 when the outcome is inconclusive or the mechanism under
test did not close, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .barrier import sweep_cone_constant, verify_barrier
from .blowdown import flatness_certificate, holder_rescaling_check
from .curvature import QuadratureConfig, graph_curvature
from .errors import FracsurfError, check_order, positive_finite
from .geometry import Ball, Box, Scaled, Subgraph, TwoLeaf
from .oracle import direct_curvature, relative_perimeter
from .profiles import profile_from_config
from .sliding import (VERDICT_UNBOUNDED, VERDICT_UNCERTIFIED, rescale_for_slide, slide)


def _quadrature_from(section: dict) -> QuadratureConfig:
    """The quadrature settings, each read from and recorded in ``section``."""
    kwargs = {f.name: (cfgmod.parse_int if isinstance(f.default, int)
                       else cfgmod.parse_float)(section, f.name)
              for f in fields(QuadratureConfig) if section.get(f.name, "").strip()}
    cfg = QuadratureConfig(**kwargs)
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
    points = cfgmod.parse_floats(sec, "points")
    if not points:
        raise ValueError("points must list at least one radius")
    for r in points:
        if not math.isfinite(r):
            raise ValueError(f"points must be finite, not {r!r}")
    complement = cfgmod.parse_bool(sec, "complement", "false")
    if method not in ("formula", "direct"):
        raise ValueError(f"unknown method {method!r}")
    profile = None
    if geometry == "ball":
        radius = cfgmod.parse_float(sec, "radius", 1.0)
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
    if method == "formula":
        cfg = _quadrature_from(sec)
    else:
        oracle_samples = cfgmod.parse_int(sec, "oracle_samples")
        sec["oracle_samples"] = repr(oracle_samples)
    digest = cfgmod.config_hash(sections)

    def run():
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
                res = direct_curvature(body, point, n, alpha, oracle_samples,
                                       seed=cfgmod.derived_seed(seed, "curvature", i))
            records.append({**asdict(res), "point": [float(c) for c in point],
                            "config_hash": digest})
            csv_lines.append(_csv_line(float(r), float(point[-1]), float(res.value),
                                       float(res.total_error)))
        return 0, {"points.json": _json(records), "sweep.csv": "\n".join(csv_lines) + "\n"}
    return run


def cmd_barrier_verify(sections, n, alpha, seed):
    sec = sections["barrier-verify"]
    eps = cfgmod.parse_float(sec, "epsilon")
    samples = cfgmod.parse_int(sec, "samples")
    cfg = _quadrature_from(sec)
    bisect = cfgmod.parse_bool(sec, "bisect")
    check_shrink = cfgmod.parse_bool(sec, "check_shrink")

    def run():
        report = verify_barrier(eps, n, alpha, config=cfg, min_samples=samples,
                                bisect_eps0=bisect, check_shrink=check_shrink)
        payload = {**asdict(report),
                   "samples": [{"point": list(point), "H": res.value, "err": res.total_error,
                                "outer_radius": res.outer_radius, "warnings": list(res.warnings)}
                               for point, res in report.samples]}
        return 0 if report.verdict == "POSITIVE" else 2, {"report.json": _json(payload)}
    return run


def cmd_cone_sweep(sections, n, alpha, seed):
    sec = sections["cone-sweep"]
    epsilons = cfgmod.parse_floats(sec, "epsilons")

    def run():
        report = sweep_cone_constant(epsilons, n, alpha)
        lines = ["epsilon,M,err"]
        for entry in report.entries:
            lines.append(_csv_line(entry.epsilon, entry.value, entry.error))
        payload = {
            "entries": [{"epsilon": e.epsilon, "M": e.value, "err": e.error,
                         "rays": [list(t) for t in e.entries], "warnings": list(e.warnings)}
                        for e in report.entries],
            "blow_up_trend": report.blow_up_trend,
            "monotone": report.monotone,
        }
        return 0, {"sweep.csv": "\n".join(lines) + "\n", "report.json": _json(payload)}
    return run


def cmd_slide(sections, n, alpha, seed):
    sec = sections["slide"]
    eps0 = cfgmod.parse_float(sec, "eps0")
    envelope = profile_from_config(sec, "envelope_")
    candidate = profile_from_config(sec, "candidate_")

    def run():
        plan = rescale_for_slide(envelope, eps0)
        outcome = slide(candidate, plan.lam, eps0, n, alpha)
        res = outcome.curvature
        payload = {
            "lambda": outcome.lam,
            "eps_star": outcome.eps_star,
            "floor": outcome.floor,
            "touch_point": list(outcome.touch_point) if outcome.touch_point else None,
            "H_at_touch": res.value if res else None,
            "err": res.total_error if res else None,
            "outer_radius": res.outer_radius if res else None,
            "warnings": list(res.warnings) if res else [],
            "verdict": outcome.verdict,
            "interpretation": outcome.interpretation,
        }
        inconclusive = outcome.verdict in (VERDICT_UNBOUNDED, VERDICT_UNCERTIFIED)
        return 2 if inconclusive else 0, {"outcome.json": _json(payload)}
    return run


def cmd_blowdown(sections, n, alpha, seed):
    sec = sections["blowdown"]
    profile = profile_from_config(sec)
    envelope = profile_from_config(sec, "envelope_")
    eps = cfgmod.parse_float(sec, "epsilon")
    R = cfgmod.parse_float(sec, "R")
    beta = cfgmod.parse_float(sec, "beta")
    holder_R = cfgmod.parse_floats(sec, "holder_R")
    if not holder_R:
        raise ValueError("holder_R must list at least one radius")

    def run():
        report = flatness_certificate(profile, envelope, eps, R)
        payload = {
            "R": report.R,
            "epsilon": report.epsilon,
            "R_eps_predicted": report.R_eps_predicted,
            "passed": report.passed,
            "violator": report.violator,
        }
        lines = ["R,beta,lhs,rhs"]
        for rr in holder_R:
            h = holder_rescaling_check(profile, rr, beta)
            lines.append(_csv_line(h.R, h.beta, h.lhs, h.rhs))
        return 0, {"report.json": _json(payload), "holder.csv": "\n".join(lines) + "\n"}
    return run


def cmd_perimeter(sections, n, alpha, seed):
    sec = sections["perimeter"]
    profile = profile_from_config(sec)
    body = TwoLeaf(profile)
    w = positive_finite("window", cfgmod.parse_float(sec, "window"))
    samples = cfgmod.parse_int(sec, "samples")
    scales = cfgmod.parse_floats(sec, "scales")
    if not scales:
        raise ValueError("scales must list at least one scale")
    bodies = []
    for scale in scales:
        if not 0.0 < scale < math.inf or not math.isfinite(w * scale):
            raise ValueError(f"scales = {scale!r}: scale factor must be positive and finite, "
                             "and so must window * scale")
        try:
            bodies.append(Scaled(body, scale))
        except ValueError as exc:
            raise ValueError(f"scales = {scale!r}: {exc}") from None

    def run():
        lines = ["scale,value,err"]
        rows = []
        for scale, scaled in zip(scales, bodies):
            window = Box((-w * scale,) * (n + 1), (w * scale,) * (n + 1))
            res = relative_perimeter(scaled, window, n, alpha, samples=samples,
                                     seed=cfgmod.derived_seed(seed, "perimeter", scale))
            lines.append(_csv_line(scale, res.value, res.error))
            rows.append({"scale": float(scale), "value": res.value, "err": res.error})
        return 0, {"perimeter.csv": "\n".join(lines) + "\n",
                   "report.json": _json({"rows": rows})}
    return run


_HANDLERS = {
    "curvature": cmd_curvature,
    "barrier-verify": cmd_barrier_verify,
    "cone-sweep": cmd_cone_sweep,
    "slide": cmd_slide,
    "blowdown": cmd_blowdown,
    "perimeter": cmd_perimeter,
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error through ``main``'s one error path, exit 1."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="INI file with [run] and per-command sections")
    common.add_argument("--out", help="output directory (default runs/<command>)")
    common.add_argument("--seed", type=int, help="base seed for all sampling")
    common.add_argument("--threads", type=int,
                        help="accepted for old scripts; runs are single-threaded")

    parser = _Parser(
        prog="fracsurf",
        description="curvature, barrier, sliding, and rescaling diagnostics "
                    "for fractional-perimeter geometry")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sub.add_parser(name, parents=[common])
    try:
        args = parser.parse_args(argv)
        sections = cfgmod.resolve(args.command, args.config, {"seed": args.seed})
        run = sections["run"]
        # destination directory and the ignored worker count change neither
        # values nor bytes, so they stay out of the resolved config and its hash
        run.pop("threads", None)
        out = run.pop("out", None)
        n, alpha = cfgmod.parse_int(run, "n"), cfgmod.parse_float(run, "alpha")
        check_order(n, alpha)
        compute = _HANDLERS[run["command"]](sections, n, alpha, cfgmod.parse_int(run, "seed"))
        unread = cfgmod.unread(sections)
        if unread:
            raise ValueError(f"{args.command} does not read the key {unread[0]!r}")
        code, files = compute()
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
