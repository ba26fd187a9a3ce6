"""Run configuration: INI parsing, defaults, canonical serialization, hashing.

A command sees two sections, ``[run]`` and its own; an INI file may hold
other commands' sections, which are ignored, but a section named neither
``run`` nor a command is an error.  Each section notes the keys the command
reads.  The record of a run is exactly those keys with their values
(defaults, file values, command-line overrides), in one canonical INI text.
That text is written beside the outputs as ``resolved.ini`` and its md5 is
stamped into the result records, so a result can always be traced to the
exact knobs that produced it and reruns are byte-identical.  A command reads
all of its keys before it computes anything, and a key the user set that it
never read would have no effect, so it makes the run fail at once.  Each
reader's error names its key.
"""

from __future__ import annotations

import configparser
import hashlib

RUN_DEFAULTS = {
    "n": "1",
    "alpha": "0.5",
    "seed": "0",
}

COMMAND_DEFAULTS = {
    "curvature": {
        "geometry": "twoleaf",
        "kind": "barrier",
        "epsilon": "0.2",
        "method": "formula",
        "points": "0.5,1.5,2.5,5.0,10.0",
        "oracle_samples": "1000000",
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


class Section(dict):
    """Defaults overlaid by the user's keys, noting every key read.

    ``given`` holds the keys the user set and ``used`` the keys read through
    ``[]`` or ``get``; ``in``, ``items()`` and ``pop`` mark nothing.  ``get``
    stores the default it returns, so the record of the run holds it too.
    """

    def __init__(self, defaults: dict, given: dict):
        super().__init__(defaults)
        self.update(given)
        self.given = set(given)
        self.used = set()

    def __getitem__(self, key):
        self.used.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.used.add(key)
        return self.setdefault(key, default)


def resolve(command: str, config_path: str | None, overrides: dict) -> dict:
    """The ``run`` section and the command's own, each a :class:`Section`."""
    given = {"run": {}, command: {}}
    if config_path:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        with open(config_path, "r") as fh:
            parser.read_file(fh)
        for sec in parser.sections():
            if sec != "run" and sec not in COMMAND_DEFAULTS:
                raise ValueError(f"unknown section [{sec}]")
            if sec in given:
                given[sec].update(parser.items(sec))
    given["run"].update((key, str(val)) for key, val in overrides.items() if val is not None)
    sections = {"run": Section(RUN_DEFAULTS, given["run"]),
                command: Section(COMMAND_DEFAULTS[command], given[command])}
    sections["run"]["command"] = command
    return sections


def record(sections: dict) -> dict:
    """The keys each section was read for that have a value."""
    return {name: {key: sec[key] for key in sec.used if key in sec}
            for name, sec in sections.items()}


def unread(sections: dict) -> list:
    """The keys the user set, still present, that nothing read."""
    return [key for sec in sections.values() for key in sorted(sec.given - sec.used)
            if key in sec]


def canonical_text(sections: dict) -> str:
    lines = []
    for sec in sorted(sections):
        lines.append(f"[{sec}]")
        for key in sorted(sections[sec]):
            lines.append(f"{key} = {sections[sec][key]}")
        lines.append("")
    return "\n".join(lines)


def config_hash(sections: dict) -> str:
    """md5 of the run's record, the text of its ``resolved.ini``."""
    return hashlib.md5(canonical_text(record(sections)).encode()).hexdigest()


def derived_seed(base: int, *tags) -> int:
    """Deterministic child seed from a base seed and hashable tags.

    Sweeps and single calls must agree bit for bit when they describe the
    same sub-run, so the derivation depends only on the printable tags.
    """
    text = ":".join([str(int(base))] + [repr(t) for t in tags])
    digest = hashlib.md5(text.encode()).hexdigest()
    return int(digest[:16], 16)


def parse_floats(section: dict, key: str) -> list:
    """A list key, split at commas or semicolons; each entry read like ``parse_float``."""
    tokens = section[key].replace(";", ",").split(",")
    return [parse_float({key: tok.strip()}, key) for tok in tokens if tok.strip()]


def parse_float(section: dict, key: str, default=None) -> float:
    """A number key, ``default`` when unset; a non-number is an error naming the key."""
    text = section[key] if default is None else section.get(key, default)
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{key} = {text!r} is not a number") from None


def parse_int(section: dict, key: str) -> int:
    """An integer key: 1e5 reads as 100000, and a value with a fraction is an
    error that names the key, not a silent truncation."""
    value = parse_float(section, key)
    if not value.is_integer():
        raise ValueError(f"{key} = {section[key]!r} is not an integer")
    return int(value)


def parse_bool(section: dict, key: str, default=None) -> bool:
    """A boolean key, ``default`` when unset: 1, true, yes or on; 0, false, no
    or off; stripped and in any case.  Any other word is an error naming the key."""
    text = section[key] if default is None else section.get(key, default)
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"{key} = {text!r} is not a boolean: use true/false, yes/no, "
                         "on/off or 1/0") from None
