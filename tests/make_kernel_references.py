"""Reference values of the slice integral F and its gap, frozen in test_kernelfn.py.

At 40 significant digits, mpmath gives

    F(t)   = I_x(1/2, p - 1/2) B(1/2, p - 1/2) / 2,   x = t^2 / (1 + t^2),
    gap(t) = I_y(p - 1/2, 1/2) B(p - 1/2, 1/2) / 2,   y = 1 / (1 + t^2),

with p = (n + 1 + a) / 2 formed exactly from the float a, for t on a
half-decade grid over [1e-8, 1e8] plus 0.5 and 1 -+ 1e-6 (each t the float
printed), n in {2, 3, 4} and a in {0.2, 0.5, 0.8}.  The output is the
Python block that test_kernelfn.py holds.  Run from the repository root:

    python tests/make_kernel_references.py
"""

import mpmath

mpmath.mp.dps = 40

TS = sorted({10.0 ** (k / 2) for k in range(-16, 17)} | {0.5, 1.0 - 1e-6, 1.0 + 1e-6})
PARAMS = [(n, alpha) for n in (2, 3, 4) for alpha in (0.2, 0.5, 0.8)]


def slice_integrals(n, alpha, t):
    p = (n + 1 + mpmath.mpf(alpha)) / 2
    t = mpmath.mpf(t)
    square = t * t
    value = mpmath.betainc(0.5, p - 0.5, 0, square / (1 + square)) / 2
    gap = mpmath.betainc(p - 0.5, 0.5, 0, 1 / (1 + square)) / 2
    return float(value), float(gap)


def wrapped(values, indent):
    lines, line = [], indent
    for text in (repr(v) + "," for v in values):
        if len(line) + len(text) + 1 > 92:
            lines.append(line.rstrip())
            line = indent
        line += text + " "
    return lines + [line.rstrip()]


def main():
    print("KERNEL_TS = (")
    print("\n".join(wrapped(TS, "    ")))
    print(")")
    print("# (n, alpha): (F at KERNEL_TS, gap at KERNEL_TS)")
    print("KERNEL_TABLE = {")
    for n, alpha in PARAMS:
        value, gap = zip(*(slice_integrals(n, alpha, t) for t in TS))
        print(f"    ({n}, {alpha}): (")
        for column in (value, gap):
            print("        (")
            print("\n".join(wrapped(column, "            ")))
            print("        ),")
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
