"""Reference results of the Monte Carlo oracle, frozen in test_energy.py and test_oracle.py.

The oracle builds its samples a block of rows at a time, and the tests run
these cases at block sizes that split every run into many blocks, asking
for the same ``repr`` as here.  The sample counts are no multiple of the
tested blocks, and each ``direct_curvature`` shell holds about 2800 pairs.
The output is the Python block the two test files hold.  Give the source
tree to freeze on the command line, for instance that of an older checkout
whose ``direct_curvature`` takes the sample count as its fifth argument
(default ``src``); run from the repository root:

    python tests/make_oracle_references.py path/to/src
"""

import sys

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else "src")

from fracsurf import (Ball, Box, ConstantProfile, Cone, TwoLeaf,  # noqa: E402
                      direct_curvature, interaction_energy, relative_perimeter)

WINDOW = Box((-2.0, -2.0), (2.0, 2.0))
CUBE = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
SLAB = TwoLeaf(ConstantProfile(0.3))
ORACLE_SAMPLES = 300_000

# name: call, as the test files spell it
ENERGY_CASES = {
    "perimeter n=1": lambda: relative_perimeter(SLAB, WINDOW, 1, 0.5, samples=5003, seed=31),
    "perimeter n=2": lambda: relative_perimeter(Ball(0.8), CUBE, 2, 0.35, samples=5003, seed=32),
    "energy": lambda: interaction_energy(Box((-1.5, 0.1), (1.5, 1.5)),
                                         Box((-1.5, -1.5), (1.5, -0.1)), WINDOW, 1, 0.5,
                                         samples=5003, seed=33),
}
DIRECT_CASES = {
    "slab n=1": lambda: direct_curvature(SLAB, [0.7, 0.3], 1, 0.5, ORACLE_SAMPLES, seed=34),
    "cone n=1": lambda: direct_curvature(Cone(0.4), [2.0, 0.8], 1, 0.65, ORACLE_SAMPLES, seed=35),
}


def wrapped(text, indent):
    """``text`` as adjacent string literals, split after commas."""
    lines, line = [], ""
    for piece in text.replace(", ", ",\0 ").split("\0"):
        if line and len(indent) + len(repr(line + piece)) > 92:
            lines.append(indent + repr(line))
            line = ""
        line += piece
    return "\n".join(lines + [indent + repr(line)])


def main():
    for name, cases in (("ENERGY_BLOCK_PINS", ENERGY_CASES), ("DIRECT_BLOCK_PINS", DIRECT_CASES)):
        print(f"{name} = {{")
        for key, call in cases.items():
            print(f'    "{key}": (')
            print(wrapped(repr(call()), "        ") + "),")
        print("}")


if __name__ == "__main__":
    main()
