"""fracsurf benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload quad-grid --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  The workload's fixed batch of
operations (a round) runs again and again, single-threaded, for about
``--seconds``: every round runs to its end, and a further round starts only
if it should end within ``--seconds`` (the first round always runs).  With
``--trace 0`` the operations are timed on ``calibrate.Calibrator.clock``,
which runs at the program's speed on a host of fixed reference speed, so
that the shared host's changing speed drops out.  Outputs are checked
after all rounds are timed.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, end-to-end ones with
``--trace 0`` and per-layer ones with ``--trace 1``.  See README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any other import

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import Calibrator
from checks import geometric_mean, nearest_rank

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median of 3


def import_program():
    package = SRC / "fracsurf"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no fracsurf sources at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fracsurf
    if Path(fracsurf.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported fracsurf from {fracsurf.__file__}, not from {package}")


def run_round(workload, clock=time.perf_counter):
    """Time each operation on ``clock``; return (key, seconds, output) in batch order."""
    rows = []
    for op in workload.ops:
        start = clock()
        try:
            raw = op.call()
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            raw = exc
        seconds = clock() - start
        out = op.collect(raw) if op.collect and not isinstance(raw, Exception) else raw
        rows.append((op.key, seconds, out))
    return rows


def run_for(workload, seconds, clock=time.perf_counter):
    """Rounds timed on ``clock``, and the wall time each round took."""
    rounds, walls = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + walls[-1] <= seconds:
        begin = time.perf_counter()
        rounds.append(run_round(workload, clock))
        walls.append(time.perf_counter() - begin)
    return rounds, walls


def round_seconds(rounds):
    return statistics.median(sum(s for _, s, _ in rows) for rows in rounds)


def judge_rounds(workload, rounds):
    """Verdict per (round, key); a round whose outputs differ from the first
    round's fails on the operations that differ."""
    from workloads import Verdict
    first = {}
    verdicts = []
    for i, rows in enumerate(rounds):
        out = {key: o for key, _, o in rows}
        got = workload.judge(out)
        for key, _, o in rows:
            v = got.get(key) or Verdict(False, "no check reached it")
            fp = repr(o) if isinstance(o, Exception) else workload.fingerprint(o)
            if i == 0:
                first[key] = fp
            elif fp != first[key]:
                v = Verdict(False, f"output differs from round 1 ({fp[:80]})")
            verdicts.append((i, key, v))
    return verdicts


def setup_seconds(args, own):
    samples = [own]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def op_latency(rounds, verdicts):
    """Per-operation figures printed beside the metrics: on a shared 2-core
    machine their run-to-run spread is too wide for a bound (see README)."""
    op_seconds = [s for rows in rounds for _, s, _ in rows]
    passed = sum(1 for _, _, v in verdicts if v.ok)
    return (f"op_ms.p50 {1e3 * statistics.median(op_seconds):.1f} ms, "
            f"op_ms.p80 {1e3 * nearest_rank(op_seconds, 0.8):.1f} ms over "
            f"{len(op_seconds)} operations; {passed / sum(op_seconds):.3f} passing "
            f"operations per second")


def end_to_end(workload, rounds, verdicts, setup_s):
    rel = [v.rel_error for _, key, v in verdicts
           if v.ok and v.rel_error and key not in workload.fault_ops]
    return {
        "setup_s": (setup_s, "s"),
        "scaled_wall_s": (round_seconds(rounds), "s"),
        "err_rel": (geometric_mean(rel), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced_rounds, overhead_pct):
    k = float(len(traced_rounds))
    c = tracer.counters
    self_s = tracer.self_seconds()
    metrics = {
        "kernelfn.calls": (c["kernelfn.calls"] / k, "count"),
        "kernelfn.elems_per_call": (c["kernelfn.elems"] / max(1, c["kernelfn.calls"]), "count"),
        "profiles.array_calls": (c["profiles.array_calls"] / k, "count"),
        "profiles.scalar_calls": (c["profiles.scalar_calls"] / k, "count"),
        "geometry.points_classified": (c["geometry.points_classified"] / k, "count"),
        "curvature.points": (c["curvature.points"] / k, "count"),
        "curvature.tail_bands_per_point": (
            c["curvature.tail_bands"] / max(1, c["curvature.points"]), "count"),
        "curvature.tail_warnings": (c["curvature.tail_warnings"] / k, "count"),
        "oracle.calls": (c["oracle.calls"] / k, "count"),
        "barrier.points_evaluated": (c["barrier.points_evaluated"] / k, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.spans": (tracer.span_count() / k, "count"),
    }
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = (seconds / k, "s")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload, print its set-up time and exit")
    args = parser.parse_args()

    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    own_setup = time.perf_counter() - T0
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return
        setup_s = setup_seconds(args, own_setup)
        if args.trace:
            from tracer import Tracer
            plain, _ = run_for(workload, 0.5 * args.seconds)
            tracer = Tracer().install()
            try:
                traced, _ = run_for(workload, 0.5 * args.seconds)
            finally:
                tracer.uninstall()
            rounds = plain + traced
        else:
            with Calibrator() as cal:
                rounds, walls = run_for(workload, args.seconds, cal.clock)
        verdicts = judge_rounds(workload, rounds)
    finally:
        workload.cleanup()

    failed = [(i, key, v) for i, key, v in verdicts if not v.ok]
    unexpected = [f for f in failed if not f[2].known_fault]
    for i, key, v in failed:
        if i == 0 or not v.known_fault:
            tag = "known fault" if v.known_fault else "FAILED"
            print(f"{args.workload} round {i + 1} {tag}: {key}: {v.reason}")
    print(f"{args.workload}: {len(rounds)} round(s) of {len(workload.ops)} operations; "
          f"{len(failed)} failed, {len(unexpected)} unexpected; known fault: "
          f"{workload.known_fault}")

    print(f"{args.workload}: {op_latency(rounds, verdicts)}")
    if args.trace:
        overhead = 100.0 * (round_seconds(traced) / round_seconds(plain) - 1.0)
        metrics = per_layer(tracer, traced, overhead)
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.npz"
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write(trace_path)
        print(f"spans written to {trace_path}")
    else:
        at_reference = [sum(s for _, s, _ in rows) for rows in rounds]
        print(f"{args.workload}: round wall time {', '.join(f'{w:.3f}' for w in walls)} s; "
              f"at reference speed {', '.join(f'{t:.3f}' for t in at_reference)} s; "
              f"median kernel {1e3 * statistics.median(cal.samples):.3f} ms over "
              f"{len(cal.samples)} calibration samples")
        metrics = end_to_end(workload, rounds, verdicts, setup_s)
    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if bad:
        sys.exit(f"run.py: non-finite metrics {bad}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
