"""Independent references and pass/fail checks for the benchmark.

Nothing here calls the program under test.  The references are closed
forms or exact laws the method must obey; every check returns a bool and
treats a non-finite input as a miss.
"""

from __future__ import annotations

import hashlib
import math


def derived_seed(base: int, *tags) -> int:
    """Child seed from a base seed and printable tags (md5 of "base:tags").

    Same formula as ``fracsurf.derived_seed``, kept here so the benchmark's
    inputs stay fixed even if the program's helper moves or changes.
    """
    text = ":".join([str(int(base))] + [repr(t) for t in tags])
    return int(hashlib.md5(text.encode()).hexdigest()[:16], 16)


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def slab_curvature(n: int, alpha: float, h: float) -> float:
    """Closed-form curvature of the slab {|x_last| < h} in R^(n+1).

    Twice the kernel mass of the complement beyond distance 2h:
    2 pi^(n/2) Gamma((1+a)/2) / Gamma((n+1+a)/2) (2h)^(-a) / a.
    """
    return (2.0 * math.pi ** (0.5 * n) * math.gamma(0.5 * (1.0 + alpha))
            / math.gamma(0.5 * (n + 1.0 + alpha)) * (2.0 * h) ** (-alpha) / alpha)


def within_error(value: float, error: float, reference: float) -> bool:
    """|value - reference| <= error, with a finite value and error."""
    return _finite(value, error, reference) and abs(value - reference) <= error


def exactly_zero(value: float) -> bool:
    return value == 0.0


def scales_as(value: float, error: float, twin: float, twin_error: float,
              factor: float, slack: float = 1.0) -> bool:
    """Dilation law twin = factor * value within slack x the combined errors."""
    if not _finite(value, error, twin, twin_error, factor):
        return False
    return abs(twin - factor * value) <= slack * (twin_error + factor * error)


def rays_agree(scaled) -> list:
    """Per ray, whether its |x|^alpha-scaled (value, error) agrees with every
    other ray within their summed errors (the cone is (-alpha)-homogeneous)."""
    finite = [_finite(v, e) for v, e in scaled]
    ok = list(finite)
    for i, (vi, ei) in enumerate(scaled):
        for j in range(i + 1, len(scaled)):
            vj, ej = scaled[j]
            if not (finite[i] and finite[j]) or abs(vi - vj) > ei + ej:
                ok[i] = ok[j] = False
    return ok


def sqrt_envelope_radius(epsilon: float) -> float:
    """Predicted flatness radius 2C/eps for the envelope sqrt(r).

    C = max_r sqrt(r) - (eps/2) r = 1/(2 eps), so 2C/eps = 1/eps^2.
    """
    return 1.0 / (epsilon * epsilon)


def barrier_report_ok(report: dict, cone_reference: float,
                      cone_reference_error: float) -> tuple:
    """Checks on a returned ``barrier-verify`` report; (ok, reason)."""
    if report.get("verdict") != "POSITIVE":
        return False, f"verdict {report.get('verdict')}"
    samples = report.get("samples") or []
    if not samples:
        return False, "no samples"
    margin = min(s["H"] - s["err"] for s in samples)
    if not _finite(report.get("min_margin")) or margin != report["min_margin"]:
        return False, f"min_margin {report.get('min_margin')} != recomputed {margin}"
    if not margin > 0.0:
        return False, f"min_margin {margin} not positive"
    cone, cone_err = report.get("cone_value"), report.get("cone_error")
    if not _finite(cone, cone_err) or not within_error(
            cone, cone_err + cone_reference_error, cone_reference):
        return False, f"cone_value {cone} +- {cone_err} misses {cone_reference}"
    return True, ""


def slide_outcome_ok(outcome: dict) -> tuple:
    if outcome.get("verdict") != "TOUCH_FOUND":
        return False, f"verdict {outcome.get('verdict')}"
    h, err = outcome.get("H_at_touch"), outcome.get("err")
    if not _finite(h, err) or not h - err > 0.0:
        return False, f"H - err = {h} - {err} not positive"
    return True, ""


def blowdown_report_ok(report: dict, epsilon: float, radius: float) -> tuple:
    if report.get("passed") is not True:
        return False, "certificate did not pass"
    if report.get("R") != radius:
        return False, f"R {report.get('R')} != {radius}"
    predicted = report.get("R_eps_predicted")
    expected = sqrt_envelope_radius(epsilon)
    if not _finite(predicted) or abs(predicted - expected) > 1e-9 * expected:
        return False, f"R_eps_predicted {predicted} != {expected}"
    return True, ""


def geometric_mean(values) -> float:
    logs = [math.log(v) for v in values if v > 0.0 and math.isfinite(v)]
    return math.exp(sum(logs) / len(logs)) if logs else float("nan")


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: the ceil(q N)-th smallest value."""
    data = sorted(values)
    return data[max(0, math.ceil(q * len(data)) - 1)]
