"""Run configuration: INI parsing, defaults, canonical serialization, hashing.

Every command materializes its full effective configuration (defaults, file
values, command-line overrides, and any values computed at run time such as
the quadrature pivot) into one canonical INI text.  That text is written
beside the outputs and its digest is stamped into the result records, so a
result can always be traced to the exact knobs that produced it and reruns
are byte-identical.
"""

from __future__ import annotations

import configparser
import hashlib
from pathlib import Path

RUN_DEFAULTS = {
    "n": "1",
    "alpha": "0.5",
    "seed": "0",
    "threads": "1",
}

COMMAND_DEFAULTS = {
    "curvature": {
        "geometry": "twoleaf",
        "kind": "barrier",
        "epsilon": "0.2",
        "method": "formula",
        "points": "0.5,1.5,2.5,5.0,10.0",
    },
    "barrier-verify": {
        "epsilon": "0.2",
        "samples": "200",
        "bisect": "true",
        "check_shrink": "true",
    },
    "cone-sweep": {
        "epsilons": "0.4,0.2,0.1,0.05",
    },
    "slide": {
        "eps0": "0.05",
        "envelope_kind": "constant",
        "envelope_level": "1.0",
        "candidate_kind": "constant",
        "candidate_level": "0.01",
    },
    "blowdown": {
        "kind": "sqrt",
        "epsilon": "0.1",
        "R": "100.0",
        "beta": "0.5",
        "holder_R": "5.0,10.0,20.0",
        "envelope_kind": "sqrt",
    },
    "perimeter": {
        "kind": "constant",
        "level": "0.3",
        "window": "2.0",
        "scales": "1.0,2.0",
        "samples": "400000",
    },
}


def resolve(command: str, config_path: str | None, overrides: dict) -> dict:
    """Merge defaults, file values, and CLI overrides into plain dicts."""
    sections = {"run": dict(RUN_DEFAULTS), command: dict(COMMAND_DEFAULTS[command])}
    sections["run"]["command"] = command
    if config_path:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        with open(config_path, "r") as fh:
            parser.read_file(fh)
        for sec in parser.sections():
            target = sections.setdefault(sec, {})
            for key, val in parser.items(sec):
                target[key] = val
    for key, val in overrides.items():
        if val is not None:
            sections["run"][key] = str(val)
    return sections


def canonical_text(sections: dict) -> str:
    lines = []
    for sec in sorted(sections):
        lines.append(f"[{sec}]")
        for key in sorted(sections[sec]):
            lines.append(f"{key} = {sections[sec][key]}")
        lines.append("")
    return "\n".join(lines)


def config_hash(sections: dict) -> str:
    return hashlib.md5(canonical_text(sections).encode()).hexdigest()


def derived_seed(base: int, *tags) -> int:
    """Deterministic child seed from a base seed and hashable tags.

    Sweeps and single calls must agree bit for bit when they describe the
    same sub-run, so the derivation depends only on the printable tags.
    """
    text = ":".join([str(int(base))] + [repr(t) for t in tags])
    digest = hashlib.md5(text.encode()).hexdigest()
    return int(digest[:16], 16)


def write_resolved(sections: dict, out_dir: Path) -> str:
    text = canonical_text(sections)
    (out_dir / "resolved.ini").write_text(text)
    return hashlib.md5(text.encode()).hexdigest()


def parse_floats(text: str) -> list:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def parse_bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")
