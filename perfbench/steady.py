"""Steadiness check: do the benchmark's figures repeat from run to run?

For every workload this runs two sets of ``--runs`` runs (seeds
``--seed``, ``--seed + 1``, ... in each set), each run in a process of
its own, and prints for every end-to-end metric each set's median,
quartiles and IQR/median, plus the relative gap between the two sets'
medians.  It reports by name any metric whose per-run spread
(IQR/median) exceeds a tenth, any metric whose gap between the two sets
exceeds its ``bound`` in ``BENCHMARK.json``, and any simulated metric
that differs between two runs of the same seed.  A spread above a third
of the metric's bound is noted but is not a failure.  With
``--trace-check`` it also makes two traced runs per workload and
requires identical per-layer call counts and simulated counts.

    python3 perfbench/steady.py --runs 10 --seconds 6

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: largest acceptable per-run spread (IQR/median) of a metric.
SPREAD_LIMIT = 0.10
#: metrics that must repeat exactly for a fixed seed.
DETERMINISTIC = ("sim_waf", "sim_mean_us")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, IQR/median) as ``statistics.quantiles`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / median if median else 0.0
    return median, q1, q3, rel


def bounds() -> dict[str, float]:
    """Each end-to-end metric's bound, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def main(argv=None) -> int:
    import run as bench

    bench._import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")

    limits = bounds()
    problems: list[str] = []
    notes: list[str] = []
    for name in args.workloads:
        sets = []
        for index in range(2):
            runs = []
            for offset in range(args.runs):
                result = run(name, args.seed + offset, args.seconds, 0)
                if not result["correct"]:
                    problems.append(f"{name}: seed {args.seed + offset} failed "
                                    f"its correctness checks")
                runs.append(result)
                print(f"# {name} set {index + 1} seed {args.seed + offset}: "
                      + ", ".join(f"{k}={v['value']:.6g}"
                                  for k, v in result["metrics"].items()),
                      flush=True)
            sets.append(runs)
        print(f"\n{name}")
        print(f"  {'metric':<16}" + "".join(
            f"  {'set%d median' % (i + 1):>14} {'q1':>12} {'q3':>12} {'iqr/med':>8}"
            for i in range(2)) + f"  {'gap':>7} {'bound':>6}")
        for metric in sets[0][0]["metrics"]:
            stats = [spread([r["metrics"][metric]["value"] for r in runs])
                     for runs in sets]
            gap = (stats[1][0] - stats[0][0]) / stats[0][0] if stats[0][0] else 0.0
            bound = limits[metric]
            print(f"  {metric:<16}" + "".join(
                f"  {m:>14.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.4f}"
                for m, q1, q3, rel in stats) + f"  {gap:>+7.4f} {bound:>6g}")
            if abs(gap) > bound:
                problems.append(f"{name}: {metric} set gap {gap:+.4f} exceeds "
                                f"its bound {bound}")
            for i, (_, _, _, rel) in enumerate(stats):
                if rel > SPREAD_LIMIT:
                    problems.append(f"{name}: {metric} spread {rel:.4f} > "
                                    f"{SPREAD_LIMIT} in set {i + 1}")
                elif rel > bound / 3:
                    notes.append(f"{name}: {metric} spread {rel:.4f} is above "
                                 f"a third of its bound {bound} in set {i + 1}")
            if metric in DETERMINISTIC:
                for offset in range(args.runs):
                    values = {runs[offset]["metrics"][metric]["value"]
                              for runs in sets}
                    if len(values) != 1:
                        problems.append(f"{name}: {metric} differs between "
                                        f"runs of seed {args.seed + offset}")
        if args.trace_check:
            problems += trace_check(name, args.seed, args.seconds)
    print()
    for note in notes:
        print(f"steady: note: {note}")
    for problem in problems:
        print(f"steady: {problem}")
    print("steady: ok" if not problems else f"steady: {len(problems)} problem(s)")
    return 1 if problems else 0


def trace_check(name: str, seed: int, seconds: float) -> list[str]:
    """Two traced runs of one seed: counts must match exactly, and the
    simulated metrics must equal the untraced run's."""
    import tracing

    first, second = (run(name, seed, seconds, 1) for _ in range(2))
    problems = []
    for metric, entry in first["metrics"].items():
        if (not tracing.is_host_time(metric)
                and entry["value"] != second["metrics"][metric]["value"]):
            problems.append(f"{name}: traced {metric} differs between runs "
                            f"({entry['value']} vs "
                            f"{second['metrics'][metric]['value']})")
    untraced = run(name, seed, seconds, 0)["metrics"]
    for metric in DETERMINISTIC:
        if first["detail"]["sim"][metric] != untraced[metric]["value"]:
            problems.append(f"{name}: {metric} differs between traced and "
                            f"untraced runs")
    for check, ok in first["detail"]["checks"].items():
        if not ok:
            problems.append(f"{name}: traced run failed check {check}")
    print(f"# {name}: trace check "
          f"{'ok' if not problems else 'FAILED'}", flush=True)
    return problems


if __name__ == "__main__":
    sys.exit(main())
